"""Matrix-level structure: Iwasawa coordinates, block anti-diagonal Weyl
elements and their torus action, modular characters, xi coordinates.

Conventions: t(a) = diag(a_1 ... a_{n-1}, ..., a_1 a_2, a_1, 1), so the
bottom-right entry is normalized to 1 and the Iwasawa y-variables are ratios
of consecutive diagonal entries read from the bottom up.  Permutation
matrices act by W e_j = e_{sigma(j)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .combinatorics import Composition
from .special import require_positive


class DecompositionError(ValueError):
    """Matrix not decomposable (numerically singular)."""


@dataclass(frozen=True)
class IwasawaPoint:
    """x t(y): strictly upper triangular coordinates plus positive y."""

    x: np.ndarray  # (n, n) strictly upper triangular
    y: np.ndarray  # (n-1,) positive

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = require_positive(self.y, "y entries")
        n = x.shape[0]
        if x.shape != (n, n) or len(y) != n - 1:
            raise ValueError("inconsistent dimensions")
        if np.any(np.tril(x, 0) != 0):
            raise ValueError("x must be strictly upper triangular")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def matrix(self) -> np.ndarray:
        return (np.eye(self.n) + self.x) @ toric_matrix(self.y)


def toric_matrix(a: Sequence[float]) -> np.ndarray:
    """diag(a_1...a_{n-1}, ..., a_1 a_2, a_1, 1) for positive a."""
    a = require_positive(a, "entries")
    n = len(a) + 1
    d = np.ones(n)
    for i in range(n - 2, -1, -1):
        d[i] = d[i + 1] * a[n - 2 - i]
    return np.diag(d)


def _upper_orthogonal(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = r k with r upper triangular of positive diagonal and k orthogonal,
    from one Householder QR of the row-reversed transpose: g^T J = q s gives
    g = (J s^T J)(J q^T) with J the reversal."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if g.shape != (n, n):
        raise ValueError("need a square matrix")
    scale = np.abs(g).max()
    if not np.isfinite(scale):
        raise ValueError("matrix entries must be finite")
    if scale == 0:
        raise DecompositionError("zero matrix")
    q, s = np.linalg.qr(g.T[:, ::-1])
    d = np.diag(s)
    if np.any(np.abs(d) < 1e-13 * scale):
        raise DecompositionError("matrix is numerically singular")
    sign = np.sign(d)
    return (sign[:, None] * s).T[::-1, ::-1], (q * sign).T[::-1]


def iwasawa_decompose(g: np.ndarray) -> tuple[IwasawaPoint, np.ndarray, float]:
    """g = x t(y) k c with k orthogonal and c > 0 scalar.

    The upper triangular factor comes from one Householder QR (see
    _upper_orthogonal); dividing out its diagonal d gives x, and
    normalizing d by its bottom-right entry c gives t(y).  The determinant
    sign lands in k.
    """
    r, k = _upper_orthogonal(g)
    d = np.diag(r)
    x = np.triu(r / d, 1)
    c = d[-1]
    y = d[-2::-1] / d[:0:-1]  # y_k = d_{n-k}/d_{n-k+1}, 1-based
    return IwasawaPoint(x=x, y=y), k, float(c)


@dataclass(frozen=True)
class WeylElement:
    """Block anti-diagonal permutation w_(n_1,...,n_r): identity blocks of
    sizes n_r, ..., n_1 read down the anti-diagonal."""

    composition: Composition

    @property
    def n(self) -> int:
        return self.composition.n

    def matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        for i, s in enumerate(self.permutation()):
            w[s, i] = 1.0
        return w

    def permutation(self) -> tuple[int, ...]:
        """sigma with W e_j = e_sigma(j): block l of columns maps to rows
        starting at n - nhat_l (0-based)."""
        n = self.n
        nhat = (0,) + self.composition.partial_sums
        sigma = [0] * n
        for ell, p in enumerate(self.composition.parts):
            for j in range(p):
                sigma[nhat[ell] + j] = n - nhat[ell + 1] + j
        return tuple(sigma)

    def inversion_pairs(self) -> list[tuple[int, int]]:
        """0-based (i, j), i < j, with sigma(i) > sigma(j): the coordinate
        pattern of the opposite unipotent subgroup attached to w."""
        s = self.permutation()
        n = self.n
        return [(i, j) for i in range(n) for j in range(i + 1, n) if s[i] > s[j]]


def weyl_conjugate_y(w: WeylElement, y: Sequence[float]) -> np.ndarray:
    """Iwasawa y-coordinates of w t(y) w^-1, by the block closed form:
    within a block the variables shift, y'_{nhat_{i-1}+j} = y_{n-nhat_i+j};
    at each block boundary the new variable is an inverted product,
    y'_{nhat_i} = (prod_{k=1}^{n_i+n_{i+1}-1} y_{n-nhat_{i+1}+k})^(-1).
    """
    comp = w.composition
    if comp.r < 2:
        raise ValueError("the identity block w_(n) does not move y")
    y = require_positive(y, "y")
    n = comp.n
    if len(y) != n - 1:
        raise ValueError(f"y must have length n-1 = {n - 1}, got {len(y)}")
    parts = comp.parts
    nhat = (0,) + comp.partial_sums
    out = np.empty(n - 1)
    for i in range(1, comp.r + 1):
        for j in range(1, parts[i - 1]):
            out[nhat[i - 1] + j - 1] = y[n - nhat[i] + j - 1]
        if i < comp.r:
            prod = 1.0
            for k in range(1, parts[i - 1] + parts[i]):
                prod *= y[n - nhat[i + 1] + k - 1]
            out[nhat[i] - 1] = 1.0 / prod
    return out


def weyl_conjugate_y_oracle(w: WeylElement, y: Sequence[float]) -> np.ndarray:
    """Same map by direct matrix conjugation: permute the diagonal of t(y)
    and read off consecutive ratios (scale-invariant)."""
    t = toric_matrix(y)
    wm = w.matrix()
    d = np.diag(wm @ t @ wm.T)
    n = len(d)
    return np.array([d[n - k - 1] / d[n - k] for k in range(1, n)])


def weyl_norm_exponents(w: WeylElement, a: Sequence[float]) -> np.ndarray:
    """Exponent vector e with ||w y w^-1||^a = prod_k y_k^e_k, from the
    closed form -a_{nhat_{i-1}} + a_{nhat_{i-1}+j} - a_{nhat_i} attached to
    y_{n-nhat_i+j} (conventions a_0 = a_n = 0)."""
    comp = w.composition
    n = comp.n
    a_ext = np.zeros(n + 1)
    a_ext[1:n] = np.asarray(a, dtype=float)
    parts = comp.parts
    nhat = (0,) + comp.partial_sums
    e = np.zeros(n - 1)
    for i in range(1, comp.r + 1):
        for j in range(1, parts[i - 1] + 1):
            idx = n - nhat[i] + j
            if idx == n:
                continue
            e[idx - 1] += -a_ext[nhat[i - 1]] + a_ext[nhat[i - 1] + j] - a_ext[nhat[i]]
    return e


def modular_delta_diag(d: Sequence[float]) -> float:
    """The modular character with d(t^-1 u t) = delta(t) du on the upper
    unipotent coordinates: prod_{i<j} d_j/d_i.  Scale-invariant."""
    d = require_positive(d, "diagonal entries")
    n = len(d)
    out = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            out *= d[j] / d[i]
    return float(out)


def modular_delta(y: Sequence[float]) -> float:
    """delta(t(y)); satisfies delta^(-1/2)(y) = ||y||^a, a_j = j(n-j)/2."""
    return modular_delta_diag(np.diag(toric_matrix(y)))


def delta_w(w: WeylElement, y: Sequence[float]) -> float:
    """Jacobian of u -> t u t^(-1) on the opposite-pattern coordinates of w,
    at t = t(y): the product of d_i/d_j over inversion pairs (i, j)."""
    d = np.diag(toric_matrix(y))
    out = 1.0
    for i, j in w.inversion_pairs():
        out *= d[i] / d[j]
    return float(out)


def delta_w_identity_residual(w: WeylElement, y: Sequence[float]) -> float:
    """|delta_w(y) - delta^(-1/2)(y) delta^(1/2)(w y w^-1)| / delta_w(y).

    Both sides are scale-invariant, so conjugating the literal diagonal and
    conjugating the normalized toric form give the same value.
    """
    t = toric_matrix(y)
    wm = w.matrix()
    d_conj = np.diag(wm @ t @ wm.T)
    lhs = delta_w(w, y)
    rhs = math.sqrt(modular_delta_diag(d_conj)) / math.sqrt(modular_delta(y))
    return abs(lhs - rhs) / abs(lhs)


def xi_polynomials_long_gl4(u: np.ndarray) -> np.ndarray:
    """Closed polynomial forms of (xi_1, xi_2, xi_3) for the n = 4 long
    element: sums of squared minors of the bottom rows of w u.

    Independent of the Iwasawa route in xi_values; the two must agree on
    the full inversion pattern.
    """
    u = np.asarray(u, dtype=float)
    x12, x13, x14 = u[0, 1], u[0, 2], u[0, 3]
    x23, x24 = u[1, 2], u[1, 3]
    x34 = u[2, 3]
    xi1 = 1 + x12**2 + x13**2 + x14**2
    xi2 = (
        1
        + x23**2
        + x24**2
        + (x12 * x24 - x14) ** 2
        + (x12 * x23 - x13) ** 2
        + (x13 * x24 - x14 * x23) ** 2
    )
    xi3 = (
        1
        + x34**2
        + (x23 * x34 - x24) ** 2
        + (x12 * x23 * x34 - x13 * x34 - x12 * x24 + x14) ** 2
    )
    return np.array([xi1, xi2, xi3])


def xi_values(w: WeylElement, u: np.ndarray) -> np.ndarray:
    """(xi_1, ..., xi_{n-1}) of wu via Iwasawa: with wu = u_0 t k and
    t = diag(t_1, ..., t_n), xi_k = (t_{n-k+1} ... t_n)^2, where t is read
    off the diagonal of the upper triangular factor of wu.

    u must be upper unipotent supported on the inversion pattern of w.
    """
    u = np.asarray(u, dtype=float)
    n = w.n
    if u.shape != (n, n):
        raise ValueError("u has the wrong size")
    if not np.all(np.isfinite(u)):
        raise ValueError("u entries must be finite")
    if np.any(np.diag(u) != 1) or np.any(np.tril(u, -1) != 0):
        raise ValueError("u must be upper unipotent")
    allowed = set(w.inversion_pairs())
    for i in range(n):
        for j in range(i + 1, n):
            if u[i, j] != 0 and (i, j) not in allowed:
                raise ValueError(f"entry ({i + 1},{j + 1}) is outside the pattern of w")
    d = np.diag(_upper_orthogonal(w.matrix() @ u)[0])
    return np.cumprod(d[:0:-1] ** 2)
