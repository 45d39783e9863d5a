"""Mellin transforms of archimedean Whittaker functions and their algebra.

The rank-one transform is an exact product of two Gamma factors.  One rank up
there is still a closed form (a ratio of six Gamma factors), which we both
implement directly and recover numerically from the contour recursion that
expresses the rank-n transform through the rank-(n-1) one.  On top of the
evaluators sit the structural identities: shift equations that trade a
polynomial factor for a translate of the transform, first-order residue
formulas at the leading pole families, and the inverse transform back to the
classical rank-one Whittaker function.

Normalization note: all contour measures include the 1/(2*pi*i) per variable,
and in this normalization the rank-one transform is exactly
Gamma(s + a) * Gamma(s - a) while the rank-two closed form has unit leading
constant, by Barnes' first lemma; the recursion checks that constant
rather than supplying it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import loggamma

from .quadrature import vertical_line_integral, vertical_plane_integral, circle_integral_mean
from .special import DegenerateParameterError, log_gamma, validate_langlands

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


def pochhammer(z: complex, k: int) -> complex:
    """Rising factorial z (z+1) ... (z+k-1); empty product for k = 0."""
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = 1.0 + 0.0j
    for j in range(k):
        out *= z + j
    return out


def _gl2_param(alpha) -> complex:
    """Accept a scalar parameter a or the full pair (a, -a)."""
    if np.isscalar(alpha) or np.asarray(alpha).ndim == 0:
        return complex(alpha)
    return complex(_as_alpha(alpha, 2)[0])


def mellin_gl2(alpha, s):
    """Rank-one transform Gamma(s + a) Gamma(s - a) for alpha = (a, -a).

    Scalar s raises PoleError on a Gamma pole; array s evaluates elementwise
    without the pole guard (contour nodes stay off the pole set).
    """
    a = _gl2_param(alpha)
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return complex(np.exp(log_gamma(complex(s) + a) + log_gamma(complex(s) - a)))
    sv = np.asarray(s, dtype=np.complex128)
    return np.exp(loggamma(sv + a) + loggamma(sv - a))


def _truncation_half_length(alpha: np.ndarray) -> float:
    return max(30.0, 10.0 + 3.0 * float(np.abs(alpha.imag).max(initial=0.0)))


def _contour_abscissa(s_re: np.ndarray) -> float:
    lo = float(np.min(s_re))
    if lo <= 0.01:
        raise ValueError("recursion contour needs Re(s) bounded away from 0")
    return 0.5 * min(1.0, lo)


def mellin_recursive(n: int, alpha, s, tol: float = 1e-8) -> complex:
    """Transform via the contour recursion onto one rank lower.

    One step at every rank: peel off alpha_n and integrate the closed
    rank-(n-1) transform (the exact product for n = 3, the closed rank-two
    form for n = 4) at beta = alpha[:n-1] + a, a = alpha_n/(n-1), against
    the outer pairs Gamma(s_j - z_j - j a) Gamma(s_{j+1} - z_j + (n-1-j) a)
    over n - 2 vertical lines.  Requires Re(s_j) > 0 for every j so the
    separating contour exists.
    """
    a = _as_alpha(alpha, n)
    if len(s) != n - 1:
        raise ValueError("need n - 1 s-variables")
    if n == 2:
        return complex(mellin_gl2(a, s[0]))
    if n not in (3, 4):
        raise NotImplementedError("recursion implemented for n <= 4")
    sv = [complex(v) for v in s]
    eps = _contour_abscissa(np.array([v.real for v in sv]))
    am = a[n - 1]
    beta = a[: n - 1] + am / (n - 1)
    prefactor = np.exp(log_gamma(sv[0] + am) + log_gamma(sv[n - 2] - am))

    def f(*z):
        log = 0.0
        for j, zj in enumerate(z, start=1):
            log = log + loggamma(sv[j - 1] - zj - j * am / (n - 1))
            log = log + loggamma(sv[j] - zj + (n - 1 - j) * am / (n - 1))
        inner = mellin_gl2(beta, z[0]) if n == 3 else mellin_gl3_closed(beta, z)
        return np.exp(log) * inner

    half = _truncation_half_length(a)
    if n == 3:
        val = vertical_line_integral(f, eps, tol, half)
    else:
        val = vertical_plane_integral(f, (eps, eps), tol, half)
    return complex(prefactor * val / (2j * np.pi) ** (n - 2))


def gl3_normalization() -> float:
    """Leading constant of the rank-two closed form: exactly 1.

    Barnes' first lemma evaluates the rank-three recursion's line integral
    in closed form, which gives the six-Gamma quotient with unit constant in
    this normalization (1/(2 pi i) per contour variable).  Nothing in the
    package calls this; ``bench/run.py`` calls it as its set-up step.
    """
    return 1.0


def mellin_gl3_closed(alpha, s):
    """Closed rank-two transform: six Gamma factors over Gamma(s1 + s2).

    Accepts scalar or broadcastable array s-components.  The leading
    constant is 1 by Barnes' first lemma.
    """
    a = _as_alpha(alpha, 3)
    s1 = np.asarray(s[0], dtype=np.complex128)
    s2 = np.asarray(s[1], dtype=np.complex128)
    if s1.ndim == 0 and s2.ndim == 0:
        log = sum(log_gamma(complex(s1) + ai) for ai in a)
        log += sum(log_gamma(complex(s2) - ai) for ai in a)
        log -= log_gamma(complex(s1 + s2))
        return complex(np.exp(log))
    log = sum(loggamma(s1 + ai) for ai in a)
    log = log + sum(loggamma(s2 - ai) for ai in a)
    log = log - loggamma(s1 + s2)
    return np.exp(log)


def mellin_value(n: int, alpha, s, tol: float = 1e-8) -> complex:
    """Best available evaluator: exact products for n <= 3, recursion for n = 4."""
    if len(s) != n - 1:
        raise ValueError("need n - 1 s-variables")
    if n == 2:
        return complex(mellin_gl2(alpha, s[0]))
    if n == 3:
        return complex(mellin_gl3_closed(alpha, s))
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


def shift_residual_gl2(alpha, s: complex, delta: int) -> float:
    """Relative defect in the rank-one shift identity at displacement delta.

    The identity moves s to s + delta at the cost of the degree-2*delta
    polynomial (s+a)_delta (s-a)_delta; it holds exactly.
    """
    a = _as_alpha(alpha, 2)[0]
    lhs = mellin_gl2(alpha, s) * pochhammer(s + a, delta) * pochhammer(s - a, delta)
    rhs = mellin_gl2(alpha, s + delta)
    return abs(lhs - rhs) / abs(rhs)


def shift_residual_gl3(alpha, s, m: int) -> float:
    """Relative defect in the rank-two shift identity with unit displacement.

    Multiplying by the subset-sum polynomial in s_m equals (s1 + s2) times
    the transform translated by the m-th unit vector.
    """
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    sv = (complex(s[0]), complex(s[1]))
    lhs = subset_sum_polynomial(alpha, m, sv[m - 1]) * mellin_gl3_closed(alpha, sv)
    shifted = (sv[0] + 1, sv[1]) if m == 1 else (sv[0], sv[1] + 1)
    rhs = (sv[0] + sv[1]) * mellin_gl3_closed(alpha, shifted)
    return abs(lhs - rhs) / abs(rhs)


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
            worst = max(worst, shift_residual_gl2((1j * t, -1j * t), sv, delta))
    elif n == 3 and delta == 1:
        poly_degree, shift_weight = 1, 1
        for _ in range(samples):
            t = rng.uniform(0.2, 1.5, size=2)
            al = (1j * t[0], 1j * t[1], -1j * (t[0] + t[1]))
            sv = (
                complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
                complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
            )
            worst = max(worst, shift_residual_gl3(al, sv, m))
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
    """Residue of the rank-one transform at s = -a - delta.

    Equals (-1)^delta / delta! times Gamma(-2a - delta); the mirror pole
    family at s = a - delta carries the same formula with a negated.
    """
    a = _gl2_param(alpha)
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
    be in general position relative to the contour radius.  For n = 3 the
    other variable is held at 0.8 + 0.05i.
    """
    a = _as_alpha(alpha, n)
    center = check_pole_separation(n, a, m, delta)
    if n == 2:
        closed = residue_gl2(a, delta)
        contour = circle_integral_mean(lambda sv: mellin_gl2(a, sv), center, _RESIDUE_RADIUS)
    elif n == 3 and delta == 0:
        closed = first_residue_gl3(a, m, _RESIDUE_S_OTHER)
        if m == 1:
            def f(sv):
                return mellin_gl3_closed(a, (sv, _RESIDUE_S_OTHER * np.ones_like(sv)))
        else:
            def f(sv):
                return mellin_gl3_closed(a, (_RESIDUE_S_OTHER * np.ones_like(sv), sv))
        contour = circle_integral_mean(f, center, _RESIDUE_RADIUS)
    else:
        raise NotImplementedError("closed residues: n = 2 any delta, n = 3 first poles")
    err = abs(closed - contour)
    scale = max(1.0, abs(closed))
    return {
        "n": n,
        "m": m,
        "delta": delta,
        "closed": closed,
        "contour": contour,
        "abs_err": err,
        "rel_err": err / scale,
        "passed": err / scale <= RESIDUE_TOL,
    }


# ---------------------------------------------------------------------------
# inverse transform


def whittaker_value(alpha, y: float, b: float = 0.5, tol: float = 1e-8) -> float:
    """Rank-one Whittaker function from its Mellin transform.

    Inverts along Re(s) = 2b with the half-parameter transform inside; any
    b > 0 gives the same value since no poles are crossed.  For tempered
    parameters the value is real; the real part is returned.
    """
    a = _gl2_param(alpha)
    if y <= 0:
        raise ValueError("y must be positive")
    if b <= 0:
        raise ValueError("the inversion line must have Re(s) > 0")
    root_y = math.sqrt(y)
    log_piy = math.log(math.pi * y)

    def f(sv):
        return np.exp(
            loggamma((sv + a) / 2.0)
            + loggamma((sv - a) / 2.0)
            - sv * log_piy
        )

    val = 0.5 * root_y * vertical_line_integral(f, 2.0 * b, tol) / (2j * np.pi)
    return float(val.real)
