"""Contour quadrature for vertical-line integrals of rapidly decaying integrands.

Everything here integrates along vertical lines Re(z) = const
using composite 16-node Gauss-Legendre panels of unit width.  The integrands
are products of Gamma functions, so they decay like exp(-c|Im z|) and a
modest truncation window suffices; the window is grown adaptively until the
outermost panels are negligible at the requested tolerance.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .special import require_positive

# largest half-length a doubling window may reach, by dimension
_MAX_HALF_LENGTH = {1: 400.0, 2: 200.0}
# integrand values per tensor-grid block; a line window within the length
# cap fits in one block
_BLOCK_VALUES = 1 << 17


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


def _grid_integral(f, x0: tuple[float, ...], tol: float, half: float) -> complex:
    """Integrate f over the product of the lines Re(z_k) = x0[k], (i dt)^d included.

    The shared window [-L, L]^d doubles until the outermost two panels at
    either end of any axis (the frame of the tensor grid) contribute less
    than tol/10 in absolute value.  The grid is evaluated in blocks of rows
    of the first axis, each holding at most _BLOCK_VALUES integrand values.
    """
    half = require_positive(half, "initial half-length")
    require_positive(tol, "tol")
    d = len(x0)
    while True:
        t, w = line_nodes(half)
        m = t.size
        outer = np.abs(t) >= t[-32]  # the symmetric grid's outermost nodes
        rows = max(1, _BLOCK_VALUES // m ** (d - 1))
        total = 0.0 + 0.0j
        frame = 0.0
        for lo in range(0, m, rows):
            grid = np.ix_(np.arange(lo, min(lo + rows, m)), *[np.arange(m)] * (d - 1))
            vals = f(*(x + 1j * t[g] for x, g in zip(x0, grid)))
            wb = functools.reduce(np.multiply, (w[g] for g in grid))
            total += np.sum(wb * vals)
            on_frame = functools.reduce(np.logical_or, (outer[g] for g in grid))
            frame += np.sum(wb * np.abs(vals), where=on_frame)
        if frame < tol / 10.0:
            return complex(total * 1j**d)
        if 2.0 * half > _MAX_HALF_LENGTH[d]:
            raise AccuracyError(
                f"{d}-dimensional integral frame {frame:.3e} above {tol / 10.0:.3e} "
                f"at half-length {half:.1f}"
            )
        half *= 2.0


def vertical_line_integral(
    f: Callable[[np.ndarray], np.ndarray],
    x0: float,
    tol: float,
    initial_half_length: float = 30.0,
) -> complex:
    """Integrate f along the line x0 + i*t, t from -L to L, including dz = i dt.

    ``f`` must accept a complex ndarray and is called once per window.  The
    window [-L, L] doubles until the outermost panel pair contributes less
    than tol/10 in absolute value, so the result carries no untracked
    truncation error beyond tol; past half-length 400 it raises AccuracyError.
    """
    return _grid_integral(f, (x0,), tol, initial_half_length)


def vertical_plane_integral(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: tuple[float, float],
    tol: float,
    initial_half_length: float = 30.0,
) -> complex:
    """Two-dimensional analogue of :func:`vertical_line_integral`.

    Integrates f(z1, z2) over the product of the lines Re(z1) = x0[0] and
    Re(z2) = x0[1], including the (i dt)^2 = -dt1 dt2 measure factor.  The
    integrand is called on broadcastable row blocks of the tensor grid, and
    the shared window doubles until the outer frame of the grid is below
    tol/10 in absolute contribution; past half-length 200 it raises.
    """
    return _grid_integral(f, x0, tol, initial_half_length)


def circle_integral_mean(
    f: Callable[[np.ndarray], np.ndarray], center: complex, radius: float
) -> complex:
    """(2*pi*i)^{-1} times the contour integral of f around a circle.

    Periodic trapezoid rule on 256 nodes, which converges spectrally for
    analytic integrands; equals the residue of f at the center when no
    other singularity lies inside.
    """
    theta = 2.0 * np.pi * np.arange(256) / 256
    ring = np.exp(1j * theta)
    vals = f(center + radius * ring)
    return complex(radius * np.mean(vals * ring))
