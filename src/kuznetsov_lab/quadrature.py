"""Contour quadrature for vertical-line integrals of rapidly decaying integrands.

Everything here integrates along vertical lines Re(z) = const by the midpoint
rule at step 1/32.  The integrands are products of Gamma functions, analytic
in a strip about the line, so the uniform rule converges like exp(-2 pi d/h)
with d the distance to the nearest pole (Trefethen-Weideman, SIAM Rev. 56,
2014), and the sum over every other node, the same rule at step 1/16, bounds
the error at no extra integrand call.  The integrands decay like
exp(-c|Im z|); the window grows until its outermost two units are negligible
at the requested tolerance.  Plane integrands are a row factor of z1, a
column factor of z2 and a diagonal factor of z1 + z2.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .special import require_positive

# largest half-length a doubling window may reach, by dimension
_MAX_HALF_LENGTH = {1: 400.0, 2: 200.0}
_PER_UNIT = 32  # nodes per unit of Im z: the step is 1/32

Integrand = Callable[[np.ndarray], np.ndarray]


class AccuracyError(RuntimeError):
    """Raised when a quadrature cannot reach the requested tolerance."""


def line_nodes(half_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints t = (k + 1/2)/32 covering [-L, L], each of weight 1/32.

    L is half_length rounded up to a whole number, at least 1, so the edge
    lands at or beyond the requested half-length; the nodes are symmetric
    about 0.
    """
    n = _PER_UNIT * max(1, int(np.ceil(half_length)))
    t = (np.arange(-n, n) + 0.5) / _PER_UNIT
    return t, np.full(t.size, 1.0 / _PER_UNIT)


def _doubling(window_sum, d: int, tol: float, half: float) -> complex:
    """Double the window [-half, half]^d until its frame, the outermost two
    units at either end of any axis, contributes less than tol/10 in
    absolute value; then return the window's sum if the sum over every other
    node agrees with it within tol/10 max(1, |sum|), and raise AccuracyError
    if not.  A window whose sum or frame is not finite raises at once: every
    wider window holds its nodes.  window_sum(t, w, on_frame) returns the
    window's sum, the every-other-node sum and the frame from one axis's
    nodes, weights and frame mask."""
    half = require_positive(half, "initial half-length")
    require_positive(tol, "tol")
    while True:
        t, w = line_nodes(half)
        total, coarse, frame = window_sum(t, w, np.abs(t) >= t[-2 * _PER_UNIT])
        if not (np.isfinite(total) and np.isfinite(frame)):
            raise AccuracyError(f"{d}-dimensional integrand not finite at half-length {half:.1f}")
        if frame < tol / 10.0:
            gap, bound = abs(total - coarse), tol / 10.0 * max(1.0, abs(total))
            if not gap <= bound:
                raise AccuracyError(f"{d}-dimensional integral: every-other-node sum off by {gap:.3e}, "
                                    f"above {bound:.3e} at half-length {half:.1f}")
            return complex(total * 1j**d)
        if 2.0 * half > _MAX_HALF_LENGTH[d]:
            raise AccuracyError(f"{d}-dimensional integral frame {frame:.3e} above "
                                f"{tol / 10.0:.3e} at half-length {half:.1f}")
        half *= 2.0


def vertical_line_integral(f: Integrand, x0: float, tol: float, initial_half_length: float = 30.0) -> complex:
    """Integrate f along the line x0 + i*t, t from -L to L, including dz = i dt.

    ``f`` must accept a complex ndarray and is called once per window.  The
    window [-L, L] doubles until its outermost two units contribute less
    than tol/10 in absolute value, so the result carries no untracked
    truncation error beyond tol.  It raises AccuracyError past half-length
    400, or when the sum over every other node, the rule at twice the step,
    differs from the sum by more than tol/10 max(1, |sum|).
    """
    def window_sum(t, w, on_frame):
        terms = w * f(x0 + 1j * t)
        return np.sum(terms), 2.0 * np.sum(terms[::2]), np.sum(np.abs(terms), where=on_frame)

    return _doubling(window_sum, 1, tol, initial_half_length)


def vertical_plane_integral(row: Integrand, column: Integrand, diagonal: Integrand, x0: tuple[float, float],
                            tol: float, initial_half_length: float = 30.0) -> complex:
    """Two-dimensional analogue of :func:`vertical_line_integral`.

    Integrates row(z1) column(z2) diagonal(z1 + z2) over the product of the
    lines Re(z1) = x0[0] and Re(z2) = x0[1], including the (i dt)^2 = -dt1 dt2
    measure factor.  Per window of m nodes a side, row and column are called
    once on the m nodes and diagonal once on the 2m - 1 node sums, and the sum
    is one convolution against the diagonal's values.  The window doubles
    until the frame of the grid is below tol/10 in absolute contribution;
    past half-length 200 it raises AccuracyError, as it does when the
    every-other-node sum on both axes misses the sum.
    """
    def window_sum(t, w, on_frame):
        a = w * row(x0[0] + 1j * t)
        b = w * column(x0[1] + 1j * t)
        # node j + node k lies at 2 t[0] + (j + k)/32
        c = diagonal(x0[0] + x0[1] + 1j * (2.0 * t[0] + np.arange(2 * t.size - 1) / _PER_UNIT))
        a_abs, b_abs, c_abs = np.abs(a), np.abs(b), np.abs(c)
        # frame rows against every column, then the other rows against frame columns
        frame = (np.dot(np.convolve(a_abs * on_frame, b_abs), c_abs)
                 + np.dot(np.convolve(a_abs * ~on_frame, b_abs * on_frame), c_abs))
        coarse = 4.0 * np.dot(np.convolve(a[::2], b[::2]), c[:-1:2])
        return np.dot(np.convolve(a, b), c), coarse, frame

    return _doubling(window_sum, 2, tol, initial_half_length)


def circle_integral_mean(f: Integrand, center: complex, radius: float) -> complex:
    """(2*pi*i)^{-1} times the contour integral of f around a circle.

    Periodic trapezoid rule on 256 nodes, which converges spectrally for
    analytic integrands; equals the residue of f at the center when no
    other singularity lies inside.
    """
    theta = 2.0 * np.pi * np.arange(256) / 256
    ring = np.exp(1j * theta)
    vals = f(center + radius * ring)
    return complex(radius * np.mean(vals * ring))
