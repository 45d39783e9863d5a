"""Complex log-Gamma, the pair polynomial F_R, the bound function B, and the
block decompositions of F_R and of the rings of the paper's Gamma ratio
Gamma_R(z) = Gamma((1/2 + R + z)/2) / Gamma(z), not the standard Gamma_R.

All Gamma arithmetic is done in log space; moduli of products that would
overflow float64 (|Im| ~ 10^3) stay finite as log-modulus sums.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import loggamma as _loggamma

from .combinatorics import Composition, degree_D, require_integer


class PoleError(ValueError):
    """Evaluation requested at a pole; carries the pole location."""

    def __init__(self, location: complex):
        self.location = location
        super().__init__(f"pole at z = {location}")


class DegenerateParameterError(ValueError):
    """Spectral parameter not in general position for the requested identity."""


def _is_nonpositive_integer(z):
    """Whether z lies within 1e-12 of 0, -1, -2, ...; elementwise for an
    array.  ValueError unless every entry is finite."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise ValueError(f"Gamma argument must be finite, got {z}")
    r = np.rint(z.real)
    return (abs(z.imag) <= 1e-12) & (r <= 0) & (abs(z.real - r) <= 1e-12)


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z); raises PoleError at 0, -1, -2, ..."""
    if _is_nonpositive_integer(z):
        raise PoleError(complex(z))
    return complex(_loggamma(complex(z)))


def subset_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Unordered pairs {K, L} of distinct equal-size subsets of {0,...,n-1}
    with 1 <= #K = #L <= n-2.  Their count is degree_D(n)."""
    pairs = []
    idx = range(n)
    for j in range(1, n - 1):
        subs = list(itertools.combinations(idx, j))
        for k_i in range(len(subs)):
            for l_i in range(k_i + 1, len(subs)):
                pairs.append((subs[k_i], subs[l_i]))
    return pairs


def f_R_poly(alpha: Sequence[complex], R: int) -> complex:
    """The pair polynomial: product over unordered pairs {K, L} of distinct
    equal-size subsets of (1 + Delta)^{R/2} (1 - Delta)^{R/2} where
    Delta = sum_K alpha - sum_L alpha.

    The defining product over ordered pairs contains each unordered pair twice
    with opposite signs of Delta (and K = L gives a factor 1), so this is the
    same function; for tempered alpha each base 1 -/+ Delta is real >= 1 and
    the value is real and >= 1.  Odd R uses principal-branch half powers.
    """
    a = np.asarray(alpha, dtype=complex)
    R = require_integer(R, "R", positive=True)
    n = len(a)
    if n < 2:
        raise ValueError("need n >= 2")
    log_total = 0.0 + 0.0j
    for K, L in subset_pairs(n):
        delta = a[list(K)].sum() - a[list(L)].sum()
        log_total += (R / 2) * (cmath.log(1 + delta) + cmath.log(1 - delta))
    try:
        return cmath.exp(log_total)
    except OverflowError:
        raise ValueError(f"log|F_R| = {log_total.real:.6g} passes the float range") from None


def bound_B(a: float) -> float:
    """Piecewise bound function: 0 for a < 0; floor(a) + 2 frac(a) on the
    lower half of each unit interval; ceil(a) on the upper half.

    Positive a within 1e-9 of an integer is rejected (the two branches do not
    agree there and every consumer assumes a is bounded away from Z).
    """
    if not math.isfinite(a):
        raise ValueError(f"a = {a} is not finite")
    if a < 0:
        return 0.0
    if abs(a - round(a)) <= 1e-9:
        if a <= 1e-9:  # a = 0 is the continuous seam of the first branch
            return 0.0
        raise ValueError(f"a = {a} is within 1e-9 of an integer")
    return _bound_B_cont(a)


def _bound_B_cont(a: float) -> float:
    """bound_B extended by continuity to integers (B(k) = k); internal use."""
    if a < 0:
        return 0.0
    fl = math.floor(a)
    frac = a - fl
    if frac <= 0.5:
        return fl + 2 * frac
    return float(math.ceil(a))


def bound_B_sharp(a: float) -> float:
    """min(2a, a + 1/2) for a > 0, else 0.

    This is the decay exponent the two-variable integral actually attains at
    m = 2; bound_B is the coarser piecewise form entering the headline
    exponent, with bound_B <= bound_B_sharp everywhere.
    """
    if a < 0:
        return 0.0
    return min(2 * a, a + 0.5)


def verify_B_lemmas(
    grid: Sequence[float], rng: np.random.Generator, trials: int = 200
) -> dict:
    """Pointwise checks of the B-function identities and inequalities.

    (i)   max{0, 2(ceil(a) - a) - 1} - ceil(a) equals -B(a) on both branches;
    (ii)  a <= B(a) <= a + 1/2 for a > 0;
    (iii) the shifted-argument inequality
          sum_{j<m} B(a_j - (j/m) c) + sum_{j=1}^{n-m-1} B(a_{m+j} - ((n-m-j)/(n-m)) c)
          >= sum_j B(a_j) - ((n-2)/2)(c + 1) - B(a_m),   c = a_m - delta_m > 0,
          for random positive shift vectors, 2 <= n <= 6.

    Returns {"passed": bool, "violations": [...], "checked": int}.
    """
    violations = []
    checked = 0
    for a in grid:
        if abs(a - round(a)) < 1e-9:
            raise ValueError(f"grid point {a} too close to an integer")
        checked += 1
        lhs = max(0.0, 2 * (math.ceil(a) - a) - 1) - math.ceil(a)
        if a > 0:
            if abs(lhs + bound_B(a)) > 1e-12:
                violations.append(("max-simplify", a, lhs, -bound_B(a)))
            if not (a - 1e-12 <= bound_B(a) <= a + 0.5 + 1e-12):
                violations.append(("band", a, bound_B(a)))
        else:
            frac = a - math.floor(a)
            expect = (
                -math.ceil(a) if frac >= 0.5 else -math.floor(a) - 2 * frac
            )
            if abs(lhs - expect) > 1e-12:
                violations.append(("max-simplify", a, lhs, expect))
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        avec = rng.uniform(0.05, 4.0, size=n - 1)
        avec += 1e-3 * (np.abs(avec - np.round(avec)) < 1e-3)  # dodge integers
        m = int(rng.integers(1, n))
        a_m = avec[m - 1]
        delta_m = int(rng.integers(0, max(1, math.floor(a_m)) + 1))
        c = a_m - delta_m
        if c <= 0:
            continue
        checked += 1
        lhs = sum(
            _bound_B_cont(avec[j - 1] - (j / m) * c) for j in range(1, m)
        ) + sum(
            _bound_B_cont(avec[m + j - 1] - ((n - m - j) / (n - m)) * c)
            for j in range(1, n - m)
        )
        rhs = sum(_bound_B_cont(x) for x in avec) - (n - 2) / 2 * (
            c + 1
        ) - _bound_B_cont(a_m)
        if lhs < rhs - 1e-9:
            violations.append(("shifted-inequality", tuple(avec), m, delta_m, lhs, rhs))
    return {"passed": not violations, "violations": violations, "checked": checked}


def validate_langlands(alpha: Sequence[complex], require_tempered: bool = False) -> np.ndarray:
    """Check the zero-sum invariant (and temperedness if asked); returns the
    parameter as a complex array.

    Both tests are relative: the sum and every real part must be within
    1e-10 max(1, max |alpha_j|) of 0.  NaN and infinite entries are rejected.
    """
    a = np.asarray(alpha, dtype=complex)
    scale = float(np.abs(a).max(initial=0.0))
    if not math.isfinite(scale):
        raise ValueError(f"entries must be finite, got {a}")
    tol = 1e-10 * max(1.0, scale)
    if abs(a.sum()) > tol:
        raise ValueError(f"entries must sum to 0, got sum {a.sum()}")
    if require_tempered and float(np.abs(a.real).max(initial=0.0)) > tol:
        raise ValueError("parameter is not tempered (nonzero real parts)")
    return a


def require_positive(values, name: str):
    """``values`` as a float, or as a float array for a sequence or array;
    ValueError unless every entry is positive and finite (NaN fails)."""
    v = np.asarray(values, dtype=float)
    if not ((v > 0) & (v < math.inf)).all():
        raise ValueError(f"{name} must be positive and finite, got {values!r}")
    return float(v) if v.ndim == 0 else v


def partition_parameter(
    alpha: Sequence[complex], comp: Composition
) -> tuple[list[np.ndarray], list[complex]]:
    """Split alpha along comp into (blocks, beta): the recentered blocks
    alpha^(l)_j = alpha_{n-hat_{l-1}+j} - beta_l/n_l, each a complex array
    summing to zero, and the block sums beta_l.  Then

        sum_i alpha_i^2 = sum_l ( |alpha^(l)|^2 + beta_l^2 / n_l )

    holds exactly (checked via alpha_square_residual).
    """
    a = validate_langlands(alpha)
    if len(a) != comp.n:
        raise ValueError(f"parameter has length {len(a)}, composition sums to {comp.n}")
    nhat = (0,) + comp.partial_sums
    segs = [a[nhat[ell] : nhat[ell + 1]] for ell in range(comp.r)]
    sums = [seg.sum() for seg in segs]
    blocks = [seg - b / p for seg, b, p in zip(segs, sums, comp.parts)]
    return blocks, [complex(b) for b in sums]


def alpha_square_residual(alpha: Sequence[complex], comp: Composition) -> float:
    """|sum alpha^2 - sum_l (|alpha^(l)|^2 + beta_l^2/n_l)| for the split of
    alpha along comp."""
    blocks, beta = partition_parameter(alpha, comp)
    split = sum(np.sum(blk**2) + b**2 / p for blk, b, p in zip(blocks, beta, comp.parts))
    return abs(np.sum(np.asarray(alpha, dtype=complex) ** 2) - split)


def _pair_differences(v: np.ndarray) -> np.ndarray:
    """v_i - v_j over the ordered pairs i != j, row by row."""
    n = len(v)
    # the flattened n x n table less its diagonal, one entry in every n + 1
    return (v[:, None] - v).ravel()[1:].reshape(n - 1, n + 1)[:, :-1].ravel()


def _ring_residual(R: int, rings: list[np.ndarray], crosses: list[np.ndarray]) -> float:
    """|L - (B_1 + ... + C_1 + ...)|: L sums log |Gamma_R| over rings[0], each
    B over a later ring, each C log |Gamma_R(z)| + log |Gamma_R(-z)| over a
    cross's z.

    One loggamma call takes every numerator and one every denominator; each
    sum adds its terms left to right.  Coincident ring entries and zeros of
    Gamma_R raise DegenerateParameterError, numerator poles PoleError, at
    the first bad argument (a cross's z is a difference of alpha up to
    rounding, so the first ring shows it first).
    """
    ring = np.concatenate(rings)
    cross = np.concatenate(crosses) if crosses else np.empty(0, dtype=complex)
    if (np.abs(ring) < 1e-10).any():
        raise DegenerateParameterError("coincident parameter entries")
    m, c = len(ring), len(cross)
    z = np.concatenate((ring, cross, -cross))
    num = (0.5 + R + z) / 2
    vanishes, pole = _is_nonpositive_integer(np.stack((z, num)))
    if (vanishes | pole).any():
        i = int(np.argmax(vanishes | pole))
        if vanishes[i]:
            raise DegenerateParameterError(f"Gamma_R vanishes at {z[i]}")
        raise PoleError(complex(num[i]))
    t = _loggamma(num).real - _loggamma(z).real
    terms = np.concatenate((t[:m], t[m : m + c] + t[m + c :])).tolist()
    sums, i = [], 0
    for size in map(len, rings + crosses):
        sums.append(sum(terms[i : i + size]))
        i += size
    left, *right = sums
    return abs(left - sum(right))


def gamma_product_decomposition_residual(
    alpha: Sequence[complex], comp: Composition, R: int
) -> float:
    """Log-modulus residual of the block/cross factorization of
    prod_{i != j} Gamma_R(alpha_i - alpha_j).

    The left side is evaluated from the raw parameter, the right side from the
    recentered blocks alpha^(l) and offsets beta_k/n_k - beta_m/n_m; both are
    log-modulus sums, and for a parameter in general position the residual is
    rounding-level.
    """
    a = validate_langlands(alpha)
    R = require_integer(R, "R", positive=True)
    blocks, beta = partition_parameter(a, comp)
    parts = comp.parts
    crosses = [
        (blocks[k][:, None] - blocks[m] + (beta[k] / parts[k] - beta[m] / parts[m])).ravel()
        for k, m in itertools.combinations(range(comp.r), 2)
    ]
    return _ring_residual(R, [_pair_differences(v) for v in [a, *blocks]], crosses)


def gamma_product_split_residual(alpha: Sequence[complex], k: int, R: int) -> float:
    """Two-block variant: independent coding of the r=2 factorization with the
    single offset (n/(k(n-k))) alpha-hat_k, cross-checking the general form."""
    a = validate_langlands(alpha)
    n = len(a)
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    R = require_integer(R, "R", positive=True)
    ahat_k = a[:k].sum()
    beta = a[:k] - ahat_k / k
    gamma = a[k:] + ahat_k / (n - k)
    cross = (beta[:, None] - gamma + n / (k * (n - k)) * ahat_k).ravel()
    return _ring_residual(R, [_pair_differences(v) for v in (a, beta, gamma)], [cross])


def f_R_decomposition_report(comp: Composition) -> dict:
    """Multiset bookkeeping behind F_R^(n) = P * prod_{n_l != 1} F_R^(n_l).

    Each factor of a block polynomial, written in the original coordinates, is
    the factor of the full polynomial indexed by the embedded subset pair; the
    report verifies the embedded pairs are distinct factors of the full
    product and that the leftover count is degree_D(n) - sum degree_D(n_l).
    """
    n = comp.n
    full = {frozenset((frozenset(K), frozenset(L))) for K, L in subset_pairs(n)}
    nhat = (0,) + comp.partial_sums
    embedded: set[frozenset] = set()
    ok = True
    for ell, p in enumerate(comp.parts):
        if p == 1:
            continue
        for K, L in subset_pairs(p):
            K2 = frozenset(i + nhat[ell] for i in K)
            L2 = frozenset(i + nhat[ell] for i in L)
            pair = frozenset((K2, L2))
            if pair in embedded or pair not in full:
                ok = False
            embedded.add(pair)
    expected_left = degree_D(n) - sum(degree_D(p) for p in comp.parts if p != 1)
    return {
        "blocks_embed_distinctly": ok,
        "leftover_count": len(full) - len(embedded),
        "expected_leftover": expected_left,
        "passed": ok and len(full) - len(embedded) == expected_left,
    }


def extra_gamma_sum_identity(beta: Sequence[Fraction], parts: Sequence[int]) -> bool:
    """Exact-rational identity: sum_{k<m} n_k n_m (beta_k/n_k - beta_m/n_m)
    equals sum_j (n_j + n_{j+1}) beta-hat_j, for zero-sum rational beta.

    Both sides are compared times q N, q the common denominator of beta and
    N = lcm(parts), where every term is an integer."""
    beta = [Fraction(b) for b in beta]
    parts = list(parts)
    if len(beta) != len(parts):
        raise ValueError("beta and parts must have equal length")
    q = math.lcm(*(b.denominator for b in beta))
    qbeta = [b.numerator * (q // b.denominator) for b in beta]
    if sum(qbeta) != 0:
        raise ValueError("beta must sum to 0")
    N = math.lcm(*parts)
    lhs = sum(
        parts[k] * parts[m] * (qbeta[k] * (N // parts[k]) - qbeta[m] * (N // parts[m]))
        for k, m in itertools.combinations(range(len(parts)), 2)
    )
    bhat = list(itertools.accumulate(qbeta))
    rhs = sum((parts[j] + parts[j + 1]) * N * bhat[j] for j in range(len(parts) - 1))
    return lhs == rhs


def verify_gamma_decompositions(
    alpha: Sequence[complex], comp: Composition, R: int
) -> dict:
    """Bundle: Gamma-product factorization residual, pair-polynomial multiset
    report, block-sum exact identity, and the quadratic split residual."""
    _, beta = partition_parameter(alpha, comp)
    beta_rational = [Fraction(round(b.imag * 2**20), 2**20) for b in beta]
    # Re-center to an exact zero sum for the rational identity.
    beta_rational[-1] = -sum(beta_rational[:-1])
    return {
        "gamma_residual": gamma_product_decomposition_residual(alpha, comp, R),
        "f_R": f_R_decomposition_report(comp),
        "extra_sum_exact": extra_gamma_sum_identity(beta_rational, comp.parts),
        "quad_residual": alpha_square_residual(alpha, comp),
    }
