"""Contour quadrature for vertical-line integrals of rapidly decaying integrands.

Everything here integrates along vertical lines Re(z) = const using composite
16-node Gauss-Legendre panels of unit width.  The integrands are products of
Gamma functions, so they decay like exp(-c|Im z|); the window grows until the
outermost panels are negligible at the requested tolerance.  Plane integrands
are a row factor of z1, a column factor of z2 and a diagonal factor of z1 + z2.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .special import require_positive

# largest half-length a doubling window may reach, by dimension
_MAX_HALF_LENGTH = {1: 400.0, 2: 200.0}

Integrand = Callable[[np.ndarray], np.ndarray]


class AccuracyError(RuntimeError):
    """Raised when a quadrature cannot reach the requested tolerance."""


# built on first use: at import, the eigensolve inside leggauss would grow
# the resident set of every process, quadrature or not
@functools.cache
def _panel() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(16)


def line_nodes(half_length: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite unit-width 16-node panels covering [-half_length, half_length].

    The panel count is rounded up so the edge lands at or beyond the
    requested half-length; panels are laid out symmetrically about 0.
    """
    n_panels = max(1, int(np.ceil(half_length)))
    x, w = _panel()
    k = np.arange(n_panels, dtype=float)[:, None]
    t_pos = (k + 0.5 * (x + 1.0)).ravel()
    w_pos = np.tile(0.5 * w, n_panels)
    t_all = np.concatenate([-t_pos[::-1], t_pos])
    w_all = np.concatenate([w_pos[::-1], w_pos])
    return t_all, w_all


def _doubling(window_sum, d: int, tol: float, half: float) -> complex:
    """Double the window [-half, half]^d until its frame, the outermost two
    panels at either end of any axis, contributes less than tol/10 in
    absolute value.  window_sum(t, w, on_frame) returns the window's sum and
    frame from one axis's nodes, weights and frame mask."""
    half = require_positive(half, "initial half-length")
    require_positive(tol, "tol")
    while True:
        t, w = line_nodes(half)
        total, frame = window_sum(t, w, np.abs(t) >= t[-32])
        if frame < tol / 10.0:
            return complex(total * 1j**d)
        if 2.0 * half > _MAX_HALF_LENGTH[d]:
            raise AccuracyError(f"{d}-dimensional integral frame {frame:.3e} above "
                                f"{tol / 10.0:.3e} at half-length {half:.1f}")
        half *= 2.0


def vertical_line_integral(f: Integrand, x0: float, tol: float, initial_half_length: float = 30.0) -> complex:
    """Integrate f along the line x0 + i*t, t from -L to L, including dz = i dt.

    ``f`` must accept a complex ndarray and is called once per window.  The
    window [-L, L] doubles until the outermost panel pair contributes less
    than tol/10 in absolute value, so the result carries no untracked
    truncation error beyond tol; past half-length 400 it raises AccuracyError.
    """
    def window_sum(t, w, on_frame):
        vals = f(x0 + 1j * t)
        return np.sum(w * vals), np.sum(w * np.abs(vals), where=on_frame)

    return _doubling(window_sum, 1, tol, initial_half_length)


def _hankel(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Sum of a[k, p] b[j, q] c[k + j, p, q] over every index, by one 16 x 16
    matrix product per index sum i of a reversed with the windows
    shifted[i, j, q] = b[i + j - len(b) + 1, q] of the zero-padded b."""
    pad = np.zeros((len(b) - 1, 16), b.dtype)
    shifted = sliding_window_view(np.concatenate([pad, b, pad]), len(b), axis=0).transpose(0, 2, 1)
    return np.sum(c * (a[::-1].T @ shifted))


def vertical_plane_integral(row: Integrand, column: Integrand, diagonal: Integrand, x0: tuple[float, float],
                            tol: float, initial_half_length: float = 30.0) -> complex:
    """Two-dimensional analogue of :func:`vertical_line_integral`.

    Integrates row(z1) column(z2) diagonal(z1 + z2) over the product of the
    lines Re(z1) = x0[0] and Re(z2) = x0[1], including the (i dt)^2 = -dt1 dt2
    measure factor.  Per window of N panels a side, row and column are called
    once on the 32N nodes and diagonal once on the (4N - 1) x 16 x 16 node
    sums, and the sum is one Hankel contraction.  The window doubles until
    the frame of the tensor grid is below tol/10 in absolute contribution;
    past half-length 200 it raises AccuracyError.
    """
    def window_sum(t, w, on_frame):
        a = (w * row(x0[0] + 1j * t)).reshape(-1, 16)
        b = (w * column(x0[1] + 1j * t)).reshape(-1, 16)
        # of n = 2N panels, node 16 k + p sits at k - N + u[p], with u the
        # panel right of 0, so two nodes sum to (k + j - n) + u[p] + u[q]
        n, u = len(a), t[t.size // 2 :][:16]
        c = diagonal(x0[0] + x0[1] + 1j * ((np.arange(2 * n - 1) - n)[:, None, None] + (u[:, None] + u)))
        edge, a_abs, b_abs, c_abs = on_frame[::16, None], np.abs(a), np.abs(b), np.abs(c)
        # frame rows against every column, then the other rows against frame columns
        frame = _hankel(a_abs * edge, b_abs, c_abs) + _hankel(a_abs * ~edge, b_abs * edge, c_abs)
        return _hankel(a, b, c), frame

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
