"""Arithmetic side of the trace-formula experiments: exact rank-one
Kloosterman sums, convergence reports for the modulus sum, exponent
bookkeeping for the error-term bounds, Eisenstein divisor sums, and the
cuspidal orthogonality quotient over ingested spectral data.

Kloosterman phases are exact: the sum over units x mod c accumulates integer
residues k = (m x + l x~) mod c, and only the final pass takes floats.  The
residue histogram is symmetric (x -> -x sends k to -k), so that pass is a
real cosine sum over the half k < c/2 of the residues.
:func:`kloosterman_gl2` takes each inverse x~ by extended Euclid
(``pow(x, -1, c)``) and stays the exact oracle.  The sweep bins residues
exactly once per prime power q, into the oracle's integer counts, so its
prime-power values equal the oracle's bit for bit; every other modulus is a
product of prime-power sums by twisted multiplicativity, each factor read
off that prime power's histogram, and agrees with the oracle to rounding.
Sums over spectral records are deterministic sequential folds.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .combinatorics import (
    Composition,
    enumerate_compositions,
    phi,
    require_half_integer,
    require_integer,
)
from .geometry import WeylElement, weyl_norm_exponents
from .special import bound_B, require_positive
from .testfunctions import TestFunctionParams, h_value


class CsvFormatError(ValueError):
    """Spectral-data file violates the expected schema (message carries the
    1-based line number)."""


class HeckeConsistencyWarning(UserWarning):
    """Stored Hecke values break multiplicativity beyond tolerance."""


# ---------------------------------------------------------------------------
# Kloosterman sums


def kloosterman_gl2(m: int, l: int, c: int) -> complex:
    """S(m, l; c) = sum over units x mod c of e^(2 pi i (m x + l x~) / c).

    The residues (m x + l x~) mod c are binned exactly as integers before any
    floating-point enters, so the only rounding is in :func:`_root_sum`, the
    cosine sum over the lower half of the residues.  The value is real for
    integer inputs (x and -x pair up): a complex is returned whose imaginary
    part is exactly 0.
    """
    m, l, c = require_integer(m, "m"), require_integer(l, "l"), require_integer(c, "modulus")
    if c < 1:
        raise ValueError(f"modulus must be a positive integer, got {c}")
    counts = [0] * c
    for x in range(c):
        if math.gcd(x, c) != 1:
            continue
        xbar = pow(x, -1, c)
        counts[(m * x + l * xbar) % c] += 1
    return complex(_root_sum(np.array(counts), c))


def _root_sum(counts: np.ndarray, c: int) -> float:
    # sum_k counts[k] e^(2 pi i k / c) for a histogram with counts[k] =
    # counts[-k mod c]: counts[0] + 2 sum_(0 < k < c/2) counts[k] cos(2 pi k / c),
    # less counts[c/2] when c is even
    ks = np.flatnonzero(counts[1 : (c + 1) // 2]) + 1
    total = counts[0] + 2.0 * np.sum(counts[ks] * np.cos(2 * np.pi * ks / c))
    return total - counts[c // 2] if c % 2 == 0 else total


def _primes(n: int) -> list[int]:
    # the primes up to n by an Eratosthenes sieve
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def _unit_histogram(m: int, l: int, q: int, p: int) -> np.ndarray:
    # H_q[k] = #{units x mod q : m x + l x~ = k mod q} for q = p^e by
    # enumerating the units; the inverses x~ = x^(phi(q)-1) mod q come from a
    # square-and-multiply ladder on int64 arrays, phi(q) being the number of
    # units, and the products stay below 2^63 for q up to ~3e9
    x = np.arange(1, q, dtype=np.int64)
    units = x[x % p != 0]
    e = units.size - 1
    inv = np.ones_like(units)
    base = units.copy()
    while e:
        if e & 1:
            inv = (inv * base) % q
        base = (base * base) % q
        e >>= 1
    return np.bincount(((m % q) * units + (l % q) * inv) % q, minlength=q)


def _prime_power_histogram(m: int, l: int, q: int, p: int) -> np.ndarray:
    """H_q[k] = #{units x mod q : m x + l x~ = k mod q} for q = p^e, exact.

    For an odd prime q = p not dividing m l the units x with m x + l x~ = k
    are the roots of m x^2 - k x + l, as many as the y with y^2 = k^2 - 4 m l,
    so the histogram is read off the count of squares with no unit
    enumeration.  p = 2, higher powers and primes dividing m l enumerate the
    units (:func:`_unit_histogram`).  m and l are reduced mod q as Python
    integers before numpy sees them."""
    if q == p > 2 and m * l % p:
        squares = np.arange(p, dtype=np.int64) ** 2 % p
        return np.bincount(squares, minlength=p)[(squares - 4 * m * l % p) % p]
    return _unit_histogram(m, l, q, p)


def kloosterman_sweep(c_max: int, m: int = 1, l: int = 1) -> np.ndarray:
    """S(m, l; c) for c = 1..c_max as an array (index c-1).

    Each prime power q <= c_max gets its exact residue histogram H_q
    (:func:`_prime_power_histogram`) once and the one cosine pass
    :func:`_root_sum` over it.  Those are the integers that
    :func:`kloosterman_gl2`, the oracle, bins by extended Euclid, so at
    every prime power the two return the same floating-point value.

    Every other modulus is a product by twisted multiplicativity: for c =
    q_1 ... q_r (pairwise coprime prime powers, r >= 2), r_i = c / q_i and
    r~_i the inverse of r_i mod q_i,

        S(m, l; c) = prod_i S(m r~_i, l r~_i; q_i),

    and S(m r~, l r~; q) = sum_k H_q[k] e(r~ k / q) = sum_k H_q[r k] e(k / q)
    is the real DFT of H_q at r~, which needs no inverse: the histogram read
    at r k, through the same half-range cosine sum as :func:`_root_sum`.
    Each q <= c_max/2 is taken once, for all its cofactors r <= c_max/q at
    once, and multiplied into every c = q r; no composite histogram is
    built.  The composite values agree with the oracle to rounding, not bit
    for bit.  Imaginary parts are exactly 0.

    Modulo 1 the only residue class, x = 0, is a unit, so S = 1 there."""
    c_max, m, l = require_integer(c_max, "c_max"), require_integer(m, "m"), require_integer(l, "l")
    if c_max < 1:
        raise ValueError("c_max must be positive")
    # a prime power's entry is its sum, a composite's the product of its
    # factors' twisted sums, multiplied in by increasing prime
    values = np.ones(c_max + 1)
    for p in _primes(c_max):
        q = p
        while q <= c_max:
            counts = _prime_power_histogram(m, l, q, p)
            values[q] = _root_sum(counts, q)
            if 2 * q <= c_max:
                r = np.arange(2, c_max // q + 1)
                r = r[r % p != 0]
                k = np.arange(q // 2 + 1)
                weights = np.where((k == 0) | (2 * k == q), 1.0, 2.0) * np.cos(2 * np.pi * k / q)
                values[q * r] *= counts[np.outer(r, k) % q] @ weights
            q *= p
    return values[1:].astype(complex)


@dataclass(frozen=True)
class KloostermanQuery:
    """A single sum S_w(psi_L, psi_M, c).

    Rank one (a single modulus) evaluates exactly.  For longer moduli vectors
    the query stores the Weyl element and the character data; the defining
    congruence sum is well defined only under the compatibility condition
    psi_L(c w u w^-1) = psi_M(u), and no evaluator is provided - the bounds
    that consume these sums need only :meth:`trivial_bound`.
    """

    m: int
    l: int
    moduli: tuple[int, ...]
    weyl: WeylElement | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", require_integer(tuple(self.moduli), "moduli", positive=True))
        if self.weyl is not None and self.weyl.n != self.n:
            raise ValueError(
                f"Weyl element acts on GL({self.weyl.n}) but the moduli vector implies GL({self.n})"
            )

    @property
    def n(self) -> int:
        return len(self.moduli) + 1

    def compatibility(self) -> str:
        """The condition under which the sum is well defined and nonzero,
        stated with this query's data filled in."""
        w = "w" if self.weyl is None else f"w_{self.weyl.composition.parts}"
        return (
            f"psi_({self.m})(c {w} u {w}^-1) = psi_({self.l})(u) for u in U_{self.n}, "
            f"c = diag of {self.moduli}"
        )

    def trivial_bound(self) -> int:
        """|S_w(psi_L, psi_M, c)| <= c_1 c_2 ... c_{n-1}: the modulus bound
        that the convergence analysis substitutes for the sum itself."""
        return math.prod(self.moduli)

    def value(self) -> complex:
        if self.n == 2:
            return kloosterman_gl2(self.m, self.l, self.moduli[0])
        raise NotImplementedError(
            f"GL({self.n}) Kloosterman sums are stored, not evaluated; "
            f"use trivial_bound() = {self.trivial_bound()}. "
            f"Well defined only when {self.compatibility()}"
        )


# ---------------------------------------------------------------------------
# Convergence of the modulus sum

# the last three dyadic block ratios must stay below this for geometric
# convergence; the suite's modulus-tail claim reads it as its pass bound
TAIL_RATIO_BOUND = 0.9


def modulus_exponents(a: Sequence[float]) -> list[float]:
    """Exponent of c_k in the weighted modulus sum: 1 - 2a_{k-1} + 4a_k
    - 2a_{k+1}, with the boundary convention a_0 = a_n = 0."""
    a = [0.0, *map(float, a), 0.0]
    return [1.0 - 2 * a[k - 1] + 4 * a[k] - 2 * a[k + 1] for k in range(1, len(a) - 1)]


@dataclass(frozen=True)
class TailReport:
    """Dyadic-block summary of sum_c |S(1,1;c)| / c^exponent."""

    a: tuple[float, ...]
    exponent: float
    c_max: int
    partial_sum: float
    block_sums: tuple[float, ...]
    block_ratios: tuple[float, ...]
    converged_geometric: bool
    divergent: bool
    trivial_zeta: float
    trivial_block_ratio: float
    trivial_tail_bound: float


def kloosterman_tail(a: float, c_max: int) -> TailReport:
    """Partial sums of sum_c |S(1,1;c)| c^(-(1+4a)) in dyadic blocks.

    ``a`` is the rank-one shift a_1, reported as the 1-tuple (a,); the
    exponent is the single-modulus case of :func:`modulus_exponents`.
    The last three block ratios all below TAIL_RATIO_BOUND certify geometric decay;
    a trailing run of ratios at or above 1 reports divergence (a shift too
    small to damp the Weil-size summands) - that configuration is reported,
    not raised.  The trivial-bound comparison series sum_c c * c^(-exponent)
    = zeta(exponent - 1) is attached, with its exact block ratio
    2^(2 - exponent) and integral tail bound.
    """
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"shift a = {a} is not finite")
    exponent = modulus_exponents((a,))[0]
    c_max = require_integer(c_max, "c_max")
    if c_max < 4:
        raise ValueError("c_max too small for a dyadic report")

    sizes = np.abs(kloosterman_sweep(c_max))
    c = np.arange(1, c_max + 1, dtype=float)
    terms = sizes / c**exponent
    partial = float(np.sum(terms))

    blocks = []
    k = 0
    while 2**k <= c_max:
        lo, hi = 2**k, min(2 ** (k + 1) - 1, c_max)
        blocks.append(float(np.sum(terms[lo - 1 : hi])))
        k += 1
    ratios = tuple(
        blocks[i + 1] / blocks[i] for i in range(len(blocks) - 1) if blocks[i] > 0
    )
    tail3 = ratios[-3:]
    converged = bool(ratios) and max(tail3) < TAIL_RATIO_BOUND
    divergent = bool(tail3) and min(tail3) >= 1.0

    s_triv = exponent - 1.0
    if s_triv > 1.0:
        from scipy.special import zeta

        triv_zeta = float(zeta(s_triv))
        triv_tail = c_max ** (1.0 - s_triv) / (s_triv - 1.0)
    else:
        triv_zeta = math.inf
        triv_tail = math.inf
    return TailReport(
        a=(a,),
        exponent=exponent,
        c_max=c_max,
        partial_sum=partial,
        block_sums=tuple(blocks),
        block_ratios=ratios,
        converged_geometric=converged,
        divergent=divergent,
        trivial_zeta=triv_zeta,
        trivial_block_ratio=2.0 ** (1.0 - s_triv),
        trivial_tail_bound=triv_tail,
    )


def tail_from_rho(rho: float, eps: float, c_max: int) -> TailReport:
    """Rank-one canonical shift a_1 = rho + (1 + eps)/2 fed to the tail sum."""
    return kloosterman_tail(rho + 0.5 * (1.0 + eps), c_max)


# ---------------------------------------------------------------------------
# Exponent bookkeeping


@dataclass(frozen=True)
class ExponentReport:
    """T- and (l m)-exponent ledger for one block composition."""

    n: int
    rho: Fraction
    composition: Composition
    phi: Fraction
    slack: Fraction
    lm_exponent: Fraction
    rho_threshold: Fraction


def iwbounds_exponent(rho, comp: Composition) -> ExponentReport:
    """Error-term exponent relative to the main-term benchmark; n = comp.n.

    slack = (n-1)(n+4)/2 - floor((n-1)/2) - rho n - Phi(C): nonpositive slack
    means the off-diagonal contribution of this composition loses a power of
    T against the main term.  The (l m)-growth exponent is 2 rho + (n^2+1)/4,
    and the threshold is the least half-integer rho that works uniformly:
    3/2 - 3/(2n) for odd n, 3/2 - 1/n for even n.
    """
    # each field over its one denominator: 2 rho and 2 Phi(C) are integers
    rho_f = require_half_integer(rho)
    n = comp.n
    phi_c = phi(comp)
    twice_phi = 2 * phi_c.numerator // phi_c.denominator
    slack = Fraction((n - 1) * (n + 4) - 2 * ((n - 1) // 2) - rho_f.numerator * n - twice_phi, 2)
    lm = Fraction(4 * rho_f.numerator + n * n + 1, 4)
    threshold = Fraction(3 * n - 3 if n % 2 == 1 else 3 * n - 2, 2 * n)
    return ExponentReport(
        n=n,
        rho=rho_f,
        composition=comp,
        phi=phi_c,
        slack=slack,
        lm_exponent=lm,
        rho_threshold=threshold,
    )


# ---------------------------------------------------------------------------
# The a + b decay budget


@dataclass(frozen=True)
class AplusBReport:
    n: int
    rho: Fraction
    composition: Composition
    eps_prime: float
    a: tuple[float, ...]
    b_worst: tuple[float, ...]
    lhs: float
    target: float
    tolerance: float
    passed: bool
    floored_entries: tuple[tuple[int, float], ...] = field(default=())


# eps' of the canonical shift's relative spacing 2 eps'/n^2
_APLUSB_EPS_PRIME = 1e-4


def verify_aplusb(rho, comp: Composition) -> AplusBReport:
    """Check sum_j B(a_j) + B(b_j) >= floor((n-1)/2) + n rho + Phi(C) - 1e-3
    for the composition C = comp of n = comp.n.

    a is the canonical shift rho + (1 + delta) h over the half-weight
    exponents h_k = k(n-k)/2, k = 1..n-1 (exact floats), with relative
    spacing delta = 2 eps'/n^2 at eps' = 1e-4.  b is the negated norm
    exponent of w_C at a (geometry.weyl_norm_exponents), one entry per
    y-index; each entry carries a region-dependent offset of +-delta/2 and
    the worst of the two signs is charged.  An entry where B lands in its
    undefined band around an integer lands there structurally (the offset
    cancels the spacing exactly, at every eps'); it is charged the universal
    floor B(x) >= x and listed in the report with its index k (of a_k, or of
    y_k for b).
    """
    rho_f = require_half_integer(rho)
    n = comp.n
    if comp.r < 2:
        raise ValueError("single-block compositions carry no modulus sum")
    tolerance = 1e-3
    delta = 2.0 * _APLUSB_EPS_PRIME / n**2
    a = [float(rho_f) + (1.0 + delta) * (k * (n - k) / 2) for k in range(1, n)]

    floored: list[tuple[int, float]] = []

    def budget(x: float, idx: int) -> float:
        try:
            return bound_B(x)
        except ValueError:
            # B(x) >= x holds everywhere; at an exact integer landing the
            # two-sided region shift cancels structurally and no eps' avoids
            # it, so fall back to that floor and record the entry
            floored.append((idx, x))
            return max(x, 0.0)

    lhs = sum(budget(x, k) for k, x in enumerate(a, start=1))
    b = -weyl_norm_exponents(WeylElement(comp), a)
    b_worst = []
    for k, base in enumerate(b.tolist(), start=1):
        v, x = min((budget(x, k), x) for x in (base + delta / 2.0, base - delta / 2.0))
        lhs += v
        b_worst.append(x)
    target = (n - 1) // 2 + n * float(rho_f) + float(phi(comp))
    return AplusBReport(
        n=n,
        rho=rho_f,
        composition=comp,
        eps_prime=_APLUSB_EPS_PRIME,
        a=tuple(a),
        b_worst=tuple(b_worst),
        lhs=lhs,
        target=target,
        tolerance=tolerance,
        passed=lhs >= target - tolerance,
        floored_entries=tuple(floored),
    )


def verify_aplusb_all(n: int, rho) -> list[AplusBReport]:
    """One report per composition of n with at least two blocks."""
    return [verify_aplusb(rho, comp) for comp in enumerate_compositions(n, min_length=2)]


# ---------------------------------------------------------------------------
# Spectral records


@dataclass(frozen=True)
class MaassFormRecord:
    """One even rank-two spectral datum: parameter r (so alpha = (ir, -ir)),
    a finite table of Hecke eigenvalues at positive integer indices, and the
    value L(1, Ad) used as the harmonic weight's denominator.

    lambda_1 is filled in as 1 when absent and must equal 1 when given, and
    adjoint_L must be positive and finite; a table or value that breaks
    one of these rules raises ValueError, and so does a non-integral index."""

    r: float
    hecke: Mapping[int, float]
    adjoint_L: float
    source: str = ""

    def __post_init__(self) -> None:
        keys = require_integer(list(self.hecke), "Hecke indices", positive=True) if self.hecke else ()
        table = dict(zip(keys, map(float, self.hecke.values())))
        if abs(table.setdefault(1, 1.0) - 1.0) > 1e-12:
            raise ValueError(
                f"lambda_1 must equal 1, got {table[1]} (r={self.r}, source={self.source!r})"
            )
        object.__setattr__(self, "hecke", table)
        require_positive(self.adjoint_L, "adjoint_L")

    @property
    def alpha(self) -> tuple[complex, complex]:
        return (1j * self.r, -1j * self.r)

    def hecke_value(self, k: int) -> float:
        try:
            return self.hecke[k]
        except KeyError:
            raise ValueError(
                f"record (r={self.r}, source={self.source!r}) has no Hecke value for {k}"
            ) from None

    def multiplicativity_warnings(self) -> list[str]:
        """Messages for stored coprime pairs p, q with pq also stored but
        lambda(p) lambda(q) != lambda(pq) beyond 1e-6."""
        keys = sorted(k for k in self.hecke if k > 1)
        out = []
        for i, p in enumerate(keys):
            for q in keys[i:]:
                if math.gcd(p, q) != 1 or p * q not in self.hecke:
                    continue
                err = abs(self.hecke[p] * self.hecke[q] - self.hecke[p * q])
                if err > 1e-6:
                    out.append(
                        f"record (r={self.r}, source={self.source!r}): "
                        f"lambda({p})*lambda({q}) - lambda({p*q}) = {err:.3e}"
                    )
        return out


# ---------------------------------------------------------------------------
# Divisor sums


def _divisors(m: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _ordered_factorizations(m: int, r: int):
    if r == 1:
        yield (m,)
        return
    for d in _divisors(m):
        for rest in _ordered_factorizations(m // d, r - 1):
            yield (d, *rest)


def hecke_divisor_sum(m: int, s: Sequence[complex], forms: Sequence) -> complex:
    """sum over ordered factorizations c_1 ... c_r = m of
    prod_i lambda_i(c_i) c_i^(s_i).

    Each entry of ``forms`` is either None (a unit mark: a rank-one factor
    with lambda identically 1) or a :class:`MaassFormRecord` supplying a
    rank-two factor's eigenvalues.  The balance condition sum n_i s_i = 0
    (n_i = 1 for unit marks, 2 for records) is enforced.  The fully
    unit-marked case is the Eisenstein divisor sum sum_{c1 c2 = m} c1^s1
    c2^s2.
    """
    m = require_integer(m, "m", positive=True)
    if len(s) != len(forms):
        raise ValueError("one spectral slot per exponent")
    sizes = [1 if f is None else 2 for f in forms]
    balance = sum(n_i * complex(s_i) for n_i, s_i in zip(sizes, s))
    if abs(balance) > 1e-9:
        raise ValueError(f"sum n_i s_i must vanish, got {balance}")
    total = 0j
    for fac in _ordered_factorizations(m, len(forms)):
        term = 1 + 0j
        for c_i, s_i, f in zip(fac, s, forms):
            lam = 1.0 if f is None or c_i == 1 else f.hecke_value(c_i)
            term *= lam * complex(c_i) ** complex(s_i)
        total += term
    return total


# ---------------------------------------------------------------------------
# Cuspidal orthogonality quotient


@dataclass(frozen=True)
class CuspidalSum:
    diagonal: float
    off_diagonal: float
    ratio: float


def cuspidal_sum(
    forms: Sequence[MaassFormRecord], params: TestFunctionParams, l: int, m: int
) -> CuspidalSum:
    """Weighted correlation of Hecke eigenvalues over the given records.

    With w_j = h(alpha_j) / L_j and S(u, v) = sum_j lambda_j(u) lambda_j(v)
    w_j, returns (sqrt(S(l,l) S(m,m)), S(l,m), ratio).  The normalization
    makes the diagonal case exact: for l = m the numerator and denominator
    are the same fold, so the ratio is exactly 1; off the diagonal the ratio
    is the cancellation statistic whose decay the orthogonality relation
    predicts.  Records whose Gaussian weight e^(-2 r^2 / T^2) falls below
    1e-12 are truncated away.  The quotient is invariant under a
    common positive rescaling of all weights.
    """
    if not forms:
        raise ValueError("forms must be nonempty")
    s_lm = s_ll = s_mm = 0.0
    kept = 0
    for rec in forms:
        if math.exp(-2.0 * rec.r**2 / params.T**2) < 1e-12:
            continue
        lam_l, lam_m = rec.hecke_value(l), rec.hecke_value(m)
        w = h_value(rec.alpha, params) / rec.adjoint_L
        s_lm += lam_l * lam_m * w
        s_ll += lam_l * lam_l * w
        s_mm += lam_m * lam_m * w
        kept += 1
    if kept == 0:
        raise ValueError("every record fell below the Gaussian truncation")
    if l == m:
        if s_lm == 0.0:
            raise ValueError(f"diagonal sum vanishes: no record has lambda({l}) != 0")
        return CuspidalSum(diagonal=s_lm, off_diagonal=s_lm, ratio=1.0)
    if s_ll <= 0.0 or s_mm <= 0.0:
        raise ValueError("diagonal normalizer vanishes; ratio undefined")
    diag = math.sqrt(s_ll) * math.sqrt(s_mm)
    return CuspidalSum(diagonal=diag, off_diagonal=s_lm, ratio=s_lm / diag)


def random_sign_fixture(params: TestFunctionParams, count: int, seed: int = 0) -> list[MaassFormRecord]:
    """Synthetic records with lambda(2), lambda(3) drawn from {-1, +1}.

    A cancellation model, not spectral data: the signs are independent coin
    flips, so the off-diagonal ratio should be O(1/sqrt(count)).  Parameters
    r are spread through the bulk of the Gaussian window.
    """
    rng = np.random.default_rng(seed)
    recs = []
    for r in rng.uniform(0.3 * params.T, 1.8 * params.T, size=count):
        recs.append(
            MaassFormRecord(
                r=float(r),
                hecke={1: 1.0, 2: rng.choice((-1.0, 1.0)), 3: rng.choice((-1.0, 1.0))},
                adjoint_L=float(rng.uniform(0.5, 2.0)),
                source="synthetic-sign-fixture",
            )
        )
    return recs


# ---------------------------------------------------------------------------
# Spectral data ingest


def ingest_maass_csv(path) -> list[MaassFormRecord]:
    """Read records from ``r,lambda_2,...,lambda_K,adjoint_L`` rows.

    The header fixes which eigenvalues each row carries: consecutive indices
    starting at 2, or at 1 with an explicit lambda_1 column.  The reader
    keeps the CSV format rules (header, field count, finite numbers); each
    row then becomes a :class:`MaassFormRecord`, whose own rules (lambda_1 =
    1, adjoint_L > 0) reject a row.  Either kind of fault raises
    :class:`CsvFormatError` naming the 1-based line;
    multiplicativity violations among the stored eigenvalues are issued as
    :class:`HeckeConsistencyWarning`, one per violation, and do not block
    the ingest.  Leading lines that start with
    ``#`` (such as a ``# source:`` note) are skipped.  An empty file yields
    an empty list.
    """
    with open(path, newline="") as fh:
        lines = fh.readlines()
    # skipped as text, since a quote in a comment would open a CSV field
    skip = next((i for i, t in enumerate(lines) if t.strip()[:1] not in ("", "#")), len(lines))
    rows = [(n, row) for n, row in enumerate(csv.reader(lines[skip:]), start=skip + 1) if row]
    if not rows:
        return []

    header_line, header = rows[0]
    names = [t.strip() for t in header]
    if len(names) < 2 or names[0] != "r" or names[-1] != "adjoint_L":
        raise CsvFormatError(
            f"line {header_line}: header must run r,lambda_2,...,adjoint_L, got {names}"
        )
    lam_indices = []
    for t in names[1:-1]:
        if not t.startswith("lambda_") or not t[7:].isdigit():
            raise CsvFormatError(f"line {header_line}: unexpected column {t!r}")
        lam_indices.append(int(t[7:]))
    expected_start = 1 if lam_indices and lam_indices[0] == 1 else 2
    if lam_indices != list(range(expected_start, expected_start + len(lam_indices))):
        raise CsvFormatError(
            f"line {header_line}: eigenvalue columns must be consecutive from "
            f"lambda_{expected_start}, got {names[1:-1]}"
        )

    records = []
    for lineno, row in rows[1:]:
        vals = []
        for t in row:
            try:
                vals.append(float(t))
            except ValueError:
                raise CsvFormatError(f"line {lineno}: not a number: {t!r}") from None
            if not math.isfinite(vals[-1]):
                raise CsvFormatError(f"line {lineno}: not finite: {t!r}")
        if len(vals) != len(names):
            raise CsvFormatError(
                f"line {lineno}: expected {len(names)} fields, got {len(vals)}"
            )
        hecke = dict(zip(lam_indices, vals[1:-1]))
        try:
            rec = MaassFormRecord(r=vals[0], hecke=hecke, adjoint_L=vals[-1], source=str(path))
        except ValueError as exc:
            raise CsvFormatError(f"line {lineno}: {exc}") from None
        records.append(rec)

    for rec in records:
        for msg in rec.multiplicativity_warnings():
            warnings.warn(msg, HeckeConsistencyWarning, stacklevel=2)
    return records
