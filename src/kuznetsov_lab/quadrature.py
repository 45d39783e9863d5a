"""Contour quadrature for vertical-line integrals of rapidly decaying integrands.

Everything here integrates along lines Re(z) = const using composite
Gauss-Legendre panels.  The integrands we care about are products of Gamma
functions, so they decay like exp(-c|Im z|) and a modest truncation window
suffices; the window is grown adaptively until the outermost panels are
negligible at the requested tolerance.  Panels have unit width.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

# largest half-length a doubling window may reach, for lines and planes
_LINE_MAX_HALF_LENGTH = 400.0
_PLANE_MAX_HALF_LENGTH = 200.0
# plane integrand rows evaluated per tensor-grid block
_BLOCK_ROWS = 256


class AccuracyError(RuntimeError):
    """Raised when a quadrature cannot reach the requested tolerance."""


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return x, w


def line_nodes(half_length: float, nodes_per_panel: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Composite unit-width panel nodes covering [-half_length, half_length].

    The panel count is rounded up so the edge lands at or beyond the
    requested half-length; panels are laid out symmetrically about 0.
    """
    n_panels = max(1, int(np.ceil(half_length)))
    x, w = _gauss_legendre(nodes_per_panel)
    k = np.arange(n_panels, dtype=float)[:, None]
    t_pos = (k + 0.5 * (x + 1.0)).ravel()
    w_pos = np.tile(0.5 * w, n_panels)
    t_all = np.concatenate([-t_pos[::-1], t_pos])
    w_all = np.concatenate([w_pos[::-1], w_pos])
    return t_all, w_all


def vertical_line_integral(
    f: Callable[[np.ndarray], np.ndarray],
    x0: float,
    tol: float,
    initial_half_length: float = 30.0,
    nodes_per_panel: int = 16,
) -> complex:
    """Integrate f along the line x0 + i*t, t from -L to L, including dz = i dt.

    ``f`` must accept a complex ndarray.  The window [-L, L] doubles until the
    outermost panel pair contributes less than tol/10 in absolute value, so the
    result carries no untracked truncation error beyond tol.
    """
    half = float(initial_half_length)
    while True:
        t, w = line_nodes(half, nodes_per_panel)
        vals = f(x0 + 1j * t)
        total = 1j * np.sum(w * vals)
        # outermost panel pair decides whether the tail is resolved
        edge = 2 * nodes_per_panel
        tail = np.sum(w[:edge] * np.abs(vals[:edge]))
        tail += np.sum(w[-edge:] * np.abs(vals[-edge:]))
        if tail < tol / 10.0:
            return complex(total)
        if 2.0 * half > _LINE_MAX_HALF_LENGTH:
            raise AccuracyError(
                f"line integral tail {tail:.3e} above {tol / 10.0:.3e} "
                f"at half-length {half:.1f}"
            )
        half *= 2.0


def vertical_plane_integral(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: tuple[float, float],
    tol: float,
    initial_half_length: float = 30.0,
    nodes_per_panel: int = 16,
) -> complex:
    """Two-dimensional analogue of :func:`vertical_line_integral`.

    Integrates f(z1, z2) over the product of the lines Re(z1) = x0[0] and
    Re(z2) = x0[1], including the (i dt)^2 = -dt1 dt2 measure factor.  The
    integrand is evaluated on a tensor grid in row blocks to bound memory;
    the shared window doubles until the outer frame of the grid is below
    tol/10 in absolute contribution.
    """
    half = float(initial_half_length)
    while True:
        t, w = line_nodes(half, nodes_per_panel)
        z2 = x0[1] + 1j * t
        m = t.size
        edge = 2 * nodes_per_panel
        total = 0.0 + 0.0j
        frame = 0.0
        for lo in range(0, m, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, m)
            z1 = (x0[0] + 1j * t[lo:hi])[:, None]
            block = f(z1, z2[None, :])
            wb = w[lo:hi][:, None] * w[None, :]
            total += np.sum(wb * block)
            absb = wb * np.abs(block)
            frame += np.sum(absb[:, :edge]) + np.sum(absb[:, -edge:])
            if lo < edge:
                frame += np.sum(absb[: edge - lo, edge:-edge])
            if hi > m - edge:
                start = max(m - edge, lo) - lo
                frame += np.sum(absb[start:, edge:-edge])
        total = -total  # (i)^2 from dz1 dz2
        if frame < tol / 10.0:
            return complex(total)
        if 2.0 * half > _PLANE_MAX_HALF_LENGTH:
            raise AccuracyError(
                f"plane integral frame {frame:.3e} above {tol / 10.0:.3e} "
                f"at half-length {half:.1f}"
            )
        half *= 2.0


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
