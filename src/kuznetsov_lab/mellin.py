"""Mellin transforms of archimedean Whittaker functions and their algebra.

At ranks one and two the transform is closed (two Gamma factors, then six
over one), and :func:`mellin_closed` evaluates both, reading the rank from
the number of s-variables.  The contour recursion integrates that closed
form one rank lower, so it recovers rank two numerically and reaches rank
three.  On top sit the structural identities: one shift residual trading a
polynomial factor for a translate of the transform, first-order residues at
the leading pole families against a small-circle contour, and the inverse
transform back to the classical rank-one Whittaker function.

Normalization note: all contour measures include the 1/(2*pi*i) per variable,
and in this normalization the rank-one transform is exactly
Gamma(s + a) * Gamma(s - a) while the rank-two closed form has unit leading
constant, by Barnes' first lemma; the recursion checks that constant
rather than supplying it.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
from scipy.special import loggamma, rgamma

from .combinatorics import require_integer
from .quadrature import AccuracyError, circle_integral_mean, vertical_line_integral, vertical_plane_integral
from .special import DegenerateParameterError, log_gamma, require_positive, validate_langlands

# pass bounds, read by the suite's claims too: the shift identities'
# residual floor and the residues' relative error
SHIFT_TOL = 1e-10
RESIDUE_TOL = 1e-8
# residue contour: circle radius and the value at which the other rank-two
# variable is held
_RESIDUE_RADIUS = 0.1
_RESIDUE_S_OTHER = 0.8 + 0.05j


def _as_alpha(alpha, n: int) -> np.ndarray:
    a = np.asarray(alpha, dtype=np.complex128)
    if a.shape != (n,):
        raise ValueError(f"expected {n} spectral parameters, got shape {a.shape}")
    return validate_langlands(a)


def mellin_closed(alpha, s):
    """Closed transform at rank n = len(s) + 1, for n = 2 and n = 3.

    At n = 2 it is prod_j Gamma(s1 + alpha_j); at n = 3 that product times
    prod_j Gamma(s2 - alpha_j) / Gamma(s1 + s2), with leading constant 1 by
    Barnes' first lemma.  The s-components broadcast as arrays.  A scalar
    point raises PoleError on a Gamma pole; arrays evaluate elementwise
    without the pole guard (contour nodes stay off the pole set).
    """
    if len(s) not in (1, 2):
        raise ValueError(f"closed forms take one or two s-variables, got {len(s)}")
    a = _as_alpha(alpha, len(s) + 1)
    sv = [np.asarray(v, dtype=np.complex128) for v in s]
    scalar = all(v.ndim == 0 for v in sv)
    lg = log_gamma if scalar else loggamma
    log = sum(lg(sv[0] + aj) for aj in a)
    if len(sv) == 2:
        log = log + sum(lg(sv[1] - aj) for aj in a)
        log = log - lg(sv[0] + sv[1])
    out = np.exp(log)
    return complex(out) if scalar else out


def _peel(a: np.ndarray, sv: list[complex]) -> tuple[np.ndarray, list]:
    """Peel alpha_n off: beta = alpha[:n-1] + a', a' = alpha_n/(n - 1), and
    for each contour variable j < n - 1 its outer pair
    Gamma(s_j - z - j a') Gamma(s_{j+1} - z + (n-1-j) a') as two
    (s, offset) pairs."""
    n, am = a.size, a[-1]
    pairs = [((sv[j - 1], -j * am / (n - 1)), (sv[j], (n - 1 - j) * am / (n - 1))) for j in range(1, n - 1)]
    return a[: n - 1] + am / (n - 1), pairs


# past the largest |Im| of a Gamma shift, by contour dimension (see
# _first_half_length)
_STIRLING_MARGIN = {1: 6.0, 2: 7.0}


def _first_half_length(beta: np.ndarray, pairs: list) -> float:
    """First window of the recursion: max |Im c| + margin over the shift c of
    every Gamma factor Gamma(c -+ z), the outer pairs' s + offset and beta.

    By Stirling (DLMF 5.11.9), |Gamma(x + iy)| ~ sqrt(2 pi) |y|^(x - 1/2)
    e^(-pi |y|/2), so each factor peaks at Im z = -+Im c, and past the
    largest |Im c| all k factors of an axis decay together like
    e^(-k pi |t|/2): k = 5 on the n = 3 line, and k = 4 along either axis
    of the n = 4 plane, whose 1/Gamma(z1 + z2) gives back one factor's
    decay.  That falls below double rounding, 2^-53 = e^-36.7, within
    36.7/(k pi/2) = 4.7 and 5.8 units; rounded up, plus one unit for
    Stirling's power factor, the margins are 6 and 7.  The power factor
    grows with Re s; where it outgrows that unit (at Re s = 5 for most
    alpha) the quadrature's frame test doubles the window once.
    """
    shifts = [s + offset for pair in pairs for s, offset in pair] + list(beta)
    return float(np.abs(np.imag(shifts)).max()) + _STIRLING_MARGIN[len(pairs)]


def _contour_abscissa(s_re: np.ndarray) -> float:
    lo = float(np.min(s_re))
    if lo <= 0.01:
        raise ValueError("recursion contour needs Re(s) bounded away from 0")
    return 0.5 * min(1.0, lo)


def mellin_recursive(n: int, alpha, s, tol: float = 1e-8) -> complex:
    """Transform via the contour recursion onto one rank lower.

    One step at n = 3 and n = 4: peel off alpha_n and integrate the closed
    rank-(n-1) transform :func:`mellin_closed` (at n = 4 as its Gamma row,
    Gamma column and 1/Gamma(z1 + z2)) at beta = alpha[:n-1] + a,
    a = alpha_n/(n-1), against the outer pairs
    Gamma(s_j - z_j - j a) Gamma(s_{j+1} - z_j + (n-1-j) a) over n - 2
    vertical lines.  Requires Re(s_j) > 0 for every j so the separating
    contour exists.

    The first window's half-length L is the largest |Im| of a Gamma shift
    plus 6 on the line and 7 on the plane (:func:`_first_half_length`).
    Cost per window of m = 64 ceil(L) nodes a side: at n = 3, five loggamma
    values per node; at n = 4, ten per node for the row and column factors
    and 2m - 1 rgamma values for 1/Gamma(z1 + z2), plus four convolutions of
    length m.  At alpha = (0.1i, 0.2i, -0.3i, 0), s = (0.7 + 0.2i, 0.9,
    0.6 - 0.1i), L = 7.3 gives 6.1e3 values in about 1.2 ms on a 2-CPU
    Xeon.
    """
    a = _as_alpha(alpha, n)
    if len(s) != n - 1:
        raise ValueError("need n - 1 s-variables")
    if n not in (3, 4):
        raise NotImplementedError("recursion implemented for n = 3 and n = 4")
    sv = [complex(v) for v in s]
    eps = _contour_abscissa(np.array([v.real for v in sv]))
    prefactor = np.exp(log_gamma(sv[0] + a[n - 1]) + log_gamma(sv[n - 2] - a[n - 1]))
    beta, pairs = _peel(a, sv)

    def outer(j, z):  # log of variable j's outer Gamma pair
        (s1, off1), (s2, off2) = pairs[j - 1]
        return loggamma(s1 - z + off1) + loggamma(s2 - z + off2)

    half = _first_half_length(beta, pairs)
    if n == 3:
        val = vertical_line_integral(lambda z: np.exp(outer(1, z)) * mellin_closed(beta, (z,)), eps, tol, half)
    else:
        # the closed rank-two transform in (z1, z2) is a row of Gammas in z1,
        # a column in z2 and 1/Gamma(z1 + z2); row and column carry the outer pairs
        def row(z1):
            return np.exp(outer(1, z1) + sum(loggamma(z1 + b) for b in beta))

        def column(z2):
            return np.exp(outer(2, z2) + sum(loggamma(z2 - b) for b in beta))

        val = vertical_plane_integral(row, column, rgamma, (eps, eps), tol, half)
    return complex(prefactor * val / (2j * np.pi) ** (n - 2))


def gl3_normalization() -> float:
    """Leading constant of the rank-two closed form: exactly 1.

    Barnes' first lemma evaluates the rank-three recursion's line integral
    in closed form, which gives the six-Gamma quotient with unit constant in
    this normalization (1/(2 pi i) per contour variable).  Nothing in the
    package calls this; ``bench/run.py`` calls it as its set-up step.
    """
    return 1.0


def mellin_value(n: int, alpha, s, tol: float = 1e-8) -> complex:
    """Best available evaluator: :func:`mellin_closed` for n = 2 and n = 3,
    and otherwise :func:`mellin_recursive`, which checks len(s)."""
    if n in (2, 3) and len(s) == n - 1:
        return complex(mellin_closed(alpha, s))
    return mellin_recursive(n, alpha, s, tol=tol)


# ---------------------------------------------------------------------------
# shift identities


def subset_sum_polynomial(alpha, m: int, s_m: complex) -> complex:
    """Product over all m-element index sets K of (s_m + sum of alpha over K)."""
    a = _as_alpha(alpha, len(alpha))
    out = 1.0 + 0.0j
    for ks in itertools.combinations(range(len(a)), m):
        out *= s_m + sum(a[k] for k in ks)
    return out


def shift_residual(alpha, s, m: int, delta: int) -> float:
    """Relative defect in the shift identity that moves s_m by delta.

    M(s) prod_{k<delta} P_m(s_m + k) = M(s + delta e_m) prod_{k<delta} Q_k,
    with M the closed transform, P_m the subset-sum polynomial, and Q_k = 1
    at rank one, s1 + s2 + k at rank two; the identity holds exactly.

    Raises :class:`AccuracyError` where a side, or its modulus, is not a
    finite float: the shifted transform Gamma(s + delta + a) overflows near
    delta = 98, and it is checked before the delta polynomial steps.
    """
    if not 1 <= m <= len(s):
        raise ValueError(f"m must be in 1..{len(s)}, got {m}")
    delta = require_integer(delta, "delta")
    if delta < 0:
        raise ValueError("shift displacement must be nonnegative")
    sv = [complex(v) for v in s]
    shifted = list(sv)
    shifted[m - 1] += delta

    def modulus(z: complex) -> float:
        r = float(np.abs(z))
        if not math.isfinite(r):
            raise AccuracyError(f"shift identity at delta = {delta}: a side overflows the float range")
        return r

    with np.errstate(over="ignore", invalid="ignore"):
        rhs = mellin_closed(alpha, shifted)
        modulus(rhs)
        lhs = mellin_closed(alpha, sv)
        for k in range(delta):
            lhs *= subset_sum_polynomial(alpha, m, sv[m - 1] + k)
            if len(sv) == 2:
                rhs *= sv[0] + sv[1] + k
        return modulus(lhs - rhs) / modulus(rhs)


def shift_identity_check(
    n: int,
    m: int,
    delta: int,
    rng: np.random.Generator | None = None,
    samples: int = 12,
    tol: float = SHIFT_TOL,
) -> dict:
    """Numerically verify a shift identity and its degree bookkeeping.

    The degree budget is delta * C(n, m); each verified identity reports the
    polynomial degree and twice the shift weight, which must sum to the
    budget.  Supported: n = 2 (any delta, exact) and n = 3 (delta = 1), each
    at ``samples`` random tempered points.  ``passed`` needs a balanced
    ledger and every residual within max(1e-10, tol): the identities are
    exact, so a looser tol widens the floating-point floor but never
    tightens it.
    """
    samples = require_integer(samples, "samples", positive=True)
    rng = rng or np.random.default_rng(0)
    budget = delta * math.comb(n, m)
    worst = 0.0
    if n == 2:
        if m != 1:
            raise ValueError("rank one has a single s-variable")
        poly_degree, shift_weight = 0, delta
        for _ in range(samples):
            t = rng.uniform(0.2, 2.0)
            sv = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
            worst = max(worst, shift_residual((1j * t, -1j * t), (sv,), 1, delta))
    elif n == 3 and delta == 1:
        poly_degree, shift_weight = 1, 1
        for _ in range(samples):
            t = rng.uniform(0.2, 1.5, size=2)
            al = (1j * t[0], 1j * t[1], -1j * (t[0] + t[1]))
            sv = (
                complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
                complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
            )
            worst = max(worst, shift_residual(al, sv, m, 1))
    else:
        raise NotImplementedError("verified shift identities: n = 2, or n = 3 with delta = 1")
    balanced = poly_degree + 2 * shift_weight == budget
    return {
        "n": n,
        "m": m,
        "delta": delta,
        "samples": samples,
        "max_residual": worst,
        "degree_budget": budget,
        "poly_degree": poly_degree,
        "shift_weight": shift_weight,
        "balanced": balanced,
        "passed": bool(balanced and worst <= max(SHIFT_TOL, tol)),
    }


# ---------------------------------------------------------------------------
# residues


def residue_gl2(alpha, delta: int) -> complex:
    """Residue of the rank-one transform, alpha = (a, -a), at s = -a - delta.

    Equals (-1)^delta / delta! times Gamma(-2a - delta); the mirror pole
    family at s = a - delta carries the same formula with a negated.
    """
    a = complex(_as_alpha(alpha, 2)[0])
    delta = require_integer(delta, "delta")
    return (-1) ** delta / math.factorial(delta) * complex(np.exp(log_gamma(-2.0 * a - delta)))


def first_residue_gl3(alpha, m: int, s_other: complex) -> complex:
    """Residue of the rank-two transform at the leading pole in s_m.

    For m = 1 the pole sits at s_1 = -alpha_1 with the second variable free;
    for m = 2 at s_2 = alpha_3 with the first variable free.
    """
    a = _as_alpha(alpha, 3)
    if m == 1:
        log = log_gamma(a[1] - a[0]) + log_gamma(a[2] - a[0])
        log += log_gamma(s_other - a[1]) + log_gamma(s_other - a[2])
    elif m == 2:
        log = log_gamma(s_other + a[0]) + log_gamma(s_other + a[1])
        log += log_gamma(a[2] - a[0]) + log_gamma(a[2] - a[1])
    else:
        raise ValueError("m must be 1 or 2")
    return complex(np.exp(log))


def check_pole_separation(n: int, alpha, m: int, delta: int) -> complex:
    """Return the pole center in s_m, or raise if another pole crowds the contour.

    Pole candidates in the m-th variable are -(sum of any m parameters) - k.
    The residue circle (radius 0.1) about the target must keep every other
    candidate at distance at least twice the radius.
    """
    if not 1 <= m <= n - 1:
        raise ValueError(f"variable index m must be in 1..{n - 1}, got {m}")
    a = _as_alpha(alpha, n)
    center = -np.sum(a[:m]) - delta
    for ks in itertools.combinations(range(n), m):
        base = -sum(a[k] for k in ks)
        for k in range(delta + 4):
            pole = base - k
            d = abs(pole - center)
            if d > 1e-12 and d < 2.0 * _RESIDUE_RADIUS:
                raise DegenerateParameterError(
                    f"pole at {pole:.4f} within {d:.3f} of target contour"
                )
    return complex(center)


def separated_tempered_alpha(n: int, rng: np.random.Generator) -> tuple[complex, ...]:
    """Tempered parameters i t_j, t_j uniform on [0.3, 0.9] for j < n and
    t_n closing the sum, redrawn until every pair is more than 0.3 apart so
    no second pole sits near a :func:`residue_check` contour circle."""
    while True:
        t = rng.uniform(0.3, 0.9, size=n - 1)
        parts = list(t) + [-float(sum(t))]
        gaps = [abs(a - b) for i, a in enumerate(parts) for b in parts[i + 1 :]]
        if min(gaps) > 0.3:
            return tuple(1j * v for v in parts)


def residue_check(n: int, alpha, m: int = 1, delta: int = 0) -> dict:
    """Compare a closed-form residue against a small-circle contour integral.

    The contour route never uses the residue formula, so a relative
    difference within 1e-8 is an independent confirmation.  Parameters must
    be in general position relative to the contour radius.  The circle
    carries s_m; for n = 3 the other variable is held at 0.8 + 0.05i.

    Acceptance is relative to |closed| at every size: the residue at delta
    shrinks like 1/(delta!)^2 (at alpha = (0.6i, -0.6i) 6.3e-9 at delta = 7,
    2.5e-38 at 20), so an error relative to max(1, |closed|) would be an
    absolute test there and pass a contour value off by any factor.  Raises
    :class:`AccuracyError`, naming delta, when either side falls below the
    smallest normal float: at that alpha the residue is 1.6e-305 at
    delta = 97, subnormal at 98 and 0 at 120.
    """
    a = _as_alpha(alpha, n)
    delta = require_integer(delta, "delta")
    center = check_pole_separation(n, a, m, delta)
    if n == 2:
        closed = residue_gl2(a, delta)
    elif n == 3 and delta == 0:
        closed = first_residue_gl3(a, m, _RESIDUE_S_OTHER)
    else:
        raise NotImplementedError("closed residues: n = 2 any delta, n = 3 first poles")

    def on_circle(sv):
        point = [_RESIDUE_S_OTHER] * (n - 1)
        point[m - 1] = sv
        return mellin_closed(a, point)

    contour = circle_integral_mean(on_circle, center, _RESIDUE_RADIUS)
    if min(abs(closed), abs(contour)) < sys.float_info.min:
        raise AccuracyError(f"residue at delta = {delta}: a side underflows the float range")
    err = abs(closed - contour)
    rel_err = err / abs(closed)
    return {
        "n": n,
        "m": m,
        "delta": delta,
        "closed": closed,
        "contour": contour,
        "abs_err": err,
        "rel_err": rel_err,
        "passed": rel_err <= RESIDUE_TOL,
    }


# ---------------------------------------------------------------------------
# inverse transform


def whittaker_value(alpha, y: float, b: float = 0.5, tol: float = 1e-8) -> float:
    """Rank-one Whittaker function, alpha = (a, -a), from its Mellin transform.

    Inverts along Re(s) = 2b with the half-parameter transform inside; any
    b > 0 gives the same value since no poles are crossed.  For tempered
    parameters the value is real; the real part is returned.
    """
    a = complex(_as_alpha(alpha, 2)[0])
    y, b = require_positive(y, "y"), require_positive(b, "inversion abscissa b")
    root_y = math.sqrt(y)
    log_piy = math.log(math.pi * y)
    half = (a / 2.0, -a / 2.0)

    def f(sv):
        return mellin_closed(half, (sv / 2.0,)) * np.exp(-sv * log_piy)

    val = 0.5 * root_y * vertical_line_integral(f, 2.0 * b, tol) / (2j * np.pi)
    return float(val.real)
