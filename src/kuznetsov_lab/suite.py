"""The verification battery behind `kuznetsov-lab run`.

Each registered :class:`Claim` pairs a check, which measures the worst
error of a library identity, with the bound that error must meet; one rule
in ``_run_one`` turns the two into a verdict.  Checks draw every random
input from the configured seed, so a report list is a pure function of the
configuration; execution may be parallel but assembly order is fixed by the
registry.

The two known open discrepancies (the closed-form count for even n with an
odd interior block at an odd cut, and the shifted-line slopes at larger
displacements) are exercised by the acceptance tests, not here: this suite
is the battery of identities the library actually claims.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import combinatorics as comb
from . import geometry, mellin, special, testfunctions, trace
from .reporting import RunConfig, VerificationReport, input_digest

_RHO_SET = (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
_ORTHOGONALITY_FORMS = 50  # records in the sign fixture; its claim's bound is 3/sqrt of this


def _rng(cfg: RunConfig, salt: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, salt])


# each check returns its worst error; a side condition that fails (a sign,
# an exact ratio, a balanced ledger) reads as the finite error 1.0, above
# every bound since identity_tol < 1


# -- combinatorics ----------------------------------------------------------


def _check_degree_forms(cfg):
    values = {2: 0, 3: 3, 4: 21}
    worst = 0
    for n in range(2, 13):
        d = comb.degree_D(n)  # raises if the two closed forms split
        if n in values:
            worst = max(worst, abs(d - values[n]))
    return float(worst)


def _check_partition_identities(cfg):
    out = comb.verify_partition_identities(10)
    # the verifier stops at its first counterexample: one failed case
    return 0.0 if out["passed"] else 1.0


def _check_phi(cfg):
    bad = 0
    for n in range(2, 10):
        by_multiset: dict = {}
        values = []
        for c in comb.enumerate_compositions(n, min_length=2):
            v = comb.phi(c)
            values.append(v)
            key = tuple(sorted(c.parts))
            if by_multiset.setdefault(key, v) != v:
                bad += 1
        if min(values) != Fraction(n * (n - 1), 2):
            bad += 1
    return float(bad)


def _check_even_odd_count(cfg):
    bad = 0
    for n in range(2, 9):
        for c in comb.enumerate_compositions(n, min_length=2):
            exact = comb.even_odd_exact_form(c)
            for rho in _RHO_SET:
                if comb.count_nonintegral_exponents(c, rho) != exact:
                    bad += 1
    return float(bad)


def _check_admissible(cfg):
    bad = 0
    # all canonical shifts positive: every composition contributes
    for n in range(2, 8):
        a = [float(v) for v in comb.exponent_vector_a(n, Fraction(3, 2))]
        if len(comb.admissible_compositions(a)) != 2 ** (n - 1) - 1:
            bad += 1
    # mixed signs: cuts must land on the positive entries
    got = {c.parts for c in comb.admissible_compositions([1.0, -1.0, 1.0])}
    if got != {(1, 3), (3, 1), (1, 2, 1)}:
        bad += 1
    return float(bad)


def _check_kappa(cfg):
    bad = 0
    if comb.kappa(comb.Composition((1, 1))) != 2:
        bad += 1
    # kappa omits the final part's factorial, so it is the orbit count
    # times n_r!
    for n in range(2, 8):
        for c in comb.enumerate_compositions(n, min_length=2):
            if comb.kappa(c) != comb.kappa_orbit(c) * math.factorial(c.parts[-1]):
                bad += 1
    return float(bad)


def _check_exponent_vector(cfg):
    bad = 0
    if comb.exponent_vector_a(4, Fraction(3, 2)) != [
        Fraction(3),
        Fraction(7, 2),
        Fraction(3),
    ]:
        bad += 1
    for n in range(2, 13):
        a = comb.exponent_vector_a(n, Fraction(3, 2))
        if a != a[::-1]:
            bad += 1
        if any(a[k - 1] != Fraction(3, 2) + Fraction(k * (n - k), 2) for k in range(1, n)):
            bad += 1
    return float(bad)


def _check_enumeration(cfg):
    bad = 0
    for n in range(2, 13):
        if len(comb.enumerate_compositions(n)) != 2 ** (n - 1):
            bad += 1
        if len(comb.enumerate_compositions(n, min_length=2)) != 2 ** (n - 1) - 1:
            bad += 1
    return float(bad)


# -- geometry ---------------------------------------------------------------


def _check_iwasawa_roundtrip(cfg):
    rng = _rng(cfg, 201)
    worst = 0.0
    for n in range(2, 7):
        for _ in range(20):
            g = rng.normal(size=(n, n))
            p, k, c = geometry.iwasawa_decompose(g)
            recon = p.matrix() @ k * c
            worst = max(
                worst, np.linalg.norm(recon - g) / np.linalg.norm(g)
            )
            worst = max(worst, float(np.abs(k @ k.T - np.eye(n)).max()))
    return worst


def _check_xi_long_gl4(cfg):
    rng = _rng(cfg, 202)
    w = geometry.WeylElement(comb.Composition((1, 1, 1, 1)))
    worst = 0.0
    for _ in range(100):
        u = np.eye(4)
        for i in range(4):
            for j in range(i + 1, 4):
                u[i, j] = rng.uniform(-2, 2)
        xi = geometry.xi_values(w, u)
        expect = geometry.xi_polynomials_long_gl4(u)
        worst = max(worst, float(np.abs(xi / expect - 1.0).max()))
    return worst


def _check_conjugated_y(cfg):
    rng = _rng(cfg, 203)
    worst = 0.0
    for n in range(2, 7):
        ys = rng.uniform(0.2, 5.0, size=(5, n - 1))
        for c in comb.enumerate_compositions(n, min_length=2):
            w = geometry.WeylElement(c)
            for y in ys:
                closed = geometry.weyl_conjugate_y(w, y)
                oracle = geometry.weyl_conjugate_y_oracle(w, y)
                worst = max(worst, float(np.abs(closed / oracle - 1.0).max()))
    return worst


def _check_delta_w(cfg):
    rng = _rng(cfg, 204)
    worst = 0.0
    for n in range(2, 7):
        ys = rng.uniform(0.2, 5.0, size=(5, n - 1))
        for c in comb.enumerate_compositions(n, min_length=2):
            w = geometry.WeylElement(c)
            for y in ys:
                worst = max(worst, geometry.delta_w_identity_residual(w, y))
    return worst


# -- special ----------------------------------------------------------------


def _sample_tempered(rng, n):
    t = rng.uniform(-1.5, 1.5, size=n - 1)
    alpha = [1j * v for v in t] + [-1j * sum(t)]
    return alpha


def _check_gamma_ring(cfg):
    rng = _rng(cfg, 301)
    worst = 0.0
    for n in range(2, 7):
        comps = comb.enumerate_compositions(n, min_length=2)
        for _ in range(8):
            alpha = _sample_tempered(rng, n)
            for c in comps:
                worst = max(
                    worst,
                    special.gamma_product_decomposition_residual(alpha, c, 1),
                )
    return worst


def _check_gamma_split(cfg):
    rng = _rng(cfg, 302)
    worst = 0.0
    for n in range(2, 7):
        for _ in range(10):
            alpha = _sample_tempered(rng, n)
            for k in range(1, n):
                worst = max(
                    worst, special.gamma_product_split_residual(alpha, k, 1)
                )
    return worst


def _check_pair_polynomial(cfg):
    bad = 0
    for n in range(2, 7):
        for c in comb.enumerate_compositions(n, min_length=2):
            if not special.f_R_decomposition_report(c)["passed"]:
                bad += 1
    return float(bad)


def _check_block_sums(cfg):
    rng = _rng(cfg, 304)
    bad = 0
    for n in range(2, 7):
        for c in comb.enumerate_compositions(n, min_length=2):
            # one rational block parameter per part, closed to zero sum
            for _ in range(10):
                raw = [Fraction(int(rng.integers(-8, 9)), 4) for _ in range(c.r - 1)]
                beta = raw + [-sum(raw)]
                if not special.extra_gamma_sum_identity(beta, c.parts):
                    bad += 1
    return float(bad)


def _check_bound_B(cfg):
    grid = [0.1 * k for k in range(1, 40) if abs(0.1 * k - round(0.1 * k)) > 0.02]
    out = special.verify_B_lemmas(grid, _rng(cfg, 305), trials=200)
    return float(len(out["violations"]))


# -- whittaker --------------------------------------------------------------


# 2 sqrt(y) K_{it}(2 pi y), evaluated separately at 30 digits and frozen
_BESSEL_ORACLE = (
    (0.7, 0.8, 6.1329092957132797e-3),
    (0.3, 1.0, 1.8209784095190721e-3),
    (1.1, 0.5, 3.5203010715208273e-2),
)


def _check_rank_one_inverse(cfg):
    worst = 0.0
    for t, y, ref in _BESSEL_ORACLE:
        got = mellin.whittaker_value((1j * t, -1j * t), y, tol=cfg.quad_tol)
        worst = max(worst, abs(got - ref) / abs(ref))
    rng = _rng(cfg, 401)
    t = float(rng.uniform(0.3, 1.2))
    v1 = mellin.whittaker_value((1j * t, -1j * t), 1.0, b=0.5, tol=cfg.quad_tol)
    v2 = mellin.whittaker_value((1j * t, -1j * t), 1.0, b=1.0, tol=cfg.quad_tol)
    worst = max(worst, abs(v1 - v2) / abs(v2))
    return worst


def _check_rank_two_recursion(cfg):
    rng = _rng(cfg, 402)
    worst = 0.0
    for _ in range(8):
        t = rng.uniform(0.2, 1.2, size=2)
        alpha = (1j * t[0], 1j * t[1], -1j * (t[0] + t[1]))
        s = (
            complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5)),
            complex(rng.uniform(0.6, 1.4), rng.uniform(-0.5, 0.5)),
        )
        rec = mellin.mellin_recursive(3, alpha, s, tol=cfg.quad_tol)
        closed = mellin.mellin_closed(alpha, s)
        worst = max(worst, abs(rec - closed) / abs(closed))
        perm = (alpha[1], alpha[2], alpha[0])
        worst = max(worst, abs(mellin.mellin_recursive(3, perm, s, tol=cfg.quad_tol) - closed) / abs(closed))
    return worst


def _check_shift_identities(cfg):
    rng = _rng(cfg, 403)
    worst = 0.0
    cases = [(2, 1, delta) for delta in range(1, 6)] + [(3, m, 1) for m in (1, 2)]
    for n, m, delta in cases:
        out = mellin.shift_identity_check(n, m, delta, rng=rng)
        worst = max(worst, out["max_residual"])
        if not out["balanced"]:
            worst = max(worst, 1.0)
    return worst


def _check_residue_contour(cfg):
    rng = _rng(cfg, 404)
    worst = 0.0
    for delta in range(4):
        t = rng.uniform(0.4, 1.2)
        out = mellin.residue_check(2, (1j * t, -1j * t), delta=delta)
        worst = max(worst, out["rel_err"])
    for m in (1, 2):
        alpha = mellin.separated_tempered_alpha(3, rng)
        out = mellin.residue_check(3, alpha, m=m, delta=0)
        worst = max(worst, out["rel_err"])
    return worst


# -- testfn -----------------------------------------------------------------

_P_SHARP_AT_ZERO = 1.5016460946806297  # Gamma(3/4)^2
_H_AT_ZERO = 0.7177700110461306  # Gamma(3/4)^4 / pi


def _check_transform_values(cfg):
    params = testfunctions.TestFunctionParams(T=10.0, R=1)
    worst = abs(testfunctions.p_sharp((0j, 0j), params) - _P_SHARP_AT_ZERO)
    worst = max(worst, abs(testfunctions.h_value((0j, 0j), params) - _H_AT_ZERO))
    rng = _rng(cfg, 501)
    for _ in range(20):
        t = rng.uniform(-3, 3)
        if testfunctions.h_value((1j * t, -1j * t), params) < 0:
            worst = max(worst, 1.0)
    return float(worst)


def _check_cauchy_decomposition(cfg):
    out = testfunctions.residue_decomposition_check(
        testfunctions.TestFunctionParams(T=4.0, R=1), a=0.75
    )
    worst = max(out["max_rel_residual"], abs(out["kappa_fit"] - out["expected_kappa"]))
    return worst


def _check_shifted_line_slope(cfg):
    fit = testfunctions.itr_scaling(0.25, 1, (8.0, 16.0, 32.0, 64.0))
    return fit.within


def _check_main_term_slopes(cfg):
    worst = 0.0
    fit2 = testfunctions.main_term_scaling(2, 1)
    worst = max(worst, fit2.within / 0.1)
    fit3 = testfunctions.main_term_scaling(3, 1)
    worst = max(worst, fit3.within / 0.3)
    return worst


def _check_rank_three_avatar(cfg):
    params = testfunctions.TestFunctionParams(T=1.5, R=1)
    a, b, center = testfunctions.p_y_gl3([(0.8, 1.3), (1.3, 0.8), (1.0, 1.0)], params)
    worst = abs(a - b) / abs(a)
    if not center > 0:
        worst = max(worst, 1.0)
    return worst


# -- trace ------------------------------------------------------------------


def _check_kloosterman(cfg):
    worst = 0.0
    for c, expect in ((1, 1.0), (2, 1.0), (3, -1.0), (4, -2.0)):
        worst = max(worst, abs(trace.kloosterman_gl2(1, 1, c) - expect))
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    worst = max(worst, abs(trace.kloosterman_gl2(1, 1, 5) - golden))
    # the sweep assembles a composite modulus from its prime powers by
    # twisted multiplicativity; the oracle bins it directly
    sweep = trace.kloosterman_sweep(2000)
    for c in (1020, 1092, 1155, 1980):
        worst = max(worst, abs(sweep[c - 1] - trace.kloosterman_gl2(1, 1, c)))
    # Weil |S| <= d(c) sqrt(c) and trivial |S| <= phi(c), d and phi by sieves
    sizes = np.abs(sweep)
    c = np.arange(2001)
    divisors = np.zeros(2001, dtype=int)
    totient = c.copy()
    for d in range(1, 2001):
        divisors[d::d] += 1
        if totient[d] == d > 1:  # d prime
            totient[d::d] -= totient[d::d] // d
    if np.any(sizes > np.minimum(divisors[1:] * np.sqrt(c[1:]), totient[1:]) + 1e-9):
        worst = max(worst, 1.0)
    for c1, c2 in ((3, 4), (5, 7), (8, 9)):
        lhs = trace.kloosterman_gl2(1, 1, c1 * c2)
        c2bar = pow(c2, -1, c1)
        c1bar = pow(c1, -1, c2)
        rhs = trace.kloosterman_gl2(c2bar * c2bar % c1, 1, c1) * trace.kloosterman_gl2(
            c1bar * c1bar % c2, 1, c2
        )
        worst = max(worst, abs(lhs - rhs))
    return worst


def _check_modulus_tail(cfg):
    rep = trace.tail_from_rho(1.5, 0.01, 2000)
    # the last three block ratios must show geometric decay; no block ratio
    # at all shows none, so it reads as ratio 1
    worst = float(max(rep.block_ratios[-3:], default=1.0))
    if not rep.partial_sum < rep.trivial_zeta:
        worst = max(worst, 1.0)
    return worst


def _check_exponent_ledger(cfg):
    bad = 0
    rep = trace.iwbounds_exponent(Fraction(3, 2), comb.Composition((1, 1, 1, 1)))
    if rep.lm_exponent != Fraction(29, 4):
        bad += 1
    for n in range(2, 11):
        for c in comb.enumerate_compositions(n, min_length=2):
            if trace.iwbounds_exponent(Fraction(3, 2), c).slack > 0:
                bad += 1
    for n in range(2, 7):
        for rep in trace.verify_aplusb_all(n, Fraction(3, 2)):
            if not rep.passed:
                bad += 1
    return float(bad)


def _check_orthogonality(cfg):
    params = testfunctions.TestFunctionParams(T=10.0, R=1)
    forms = trace.random_sign_fixture(params, count=_ORTHOGONALITY_FORMS, seed=cfg.seed)
    out = trace.cuspidal_sum(forms, params, 2, 3)
    diag = trace.cuspidal_sum(forms, params, 2, 2)
    worst = abs(out.ratio)
    if diag.ratio != 1.0:
        worst = max(worst, 1.0)
    return worst


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One checked identity: ``measure(cfg)`` returns the worst error seen,
    and the claim holds when that error is at most ``bound``.  A bound that
    is a floating-point floor (``widens``) is raised to ``cfg.identity_tol``
    when that is larger; counts and fixed statistical bounds never move."""

    name: str
    anchor: str
    measure: Callable[[RunConfig], float]
    bound: float
    widens: bool


CHECKS: dict[str, list[Claim]] = {
    "combinatorics": [
        Claim("degree-closed-forms", "combinatorics.degree_D", _check_degree_forms, 0.0, widens=False),
        Claim("partition-identities", "combinatorics.verify_partition_identities", _check_partition_identities, 0.0, widens=False),
        Claim("phi-permutation-minimum", "combinatorics.phi", _check_phi, 0.0, widens=False),
        Claim("even-odd-count", "combinatorics.count_nonintegral_exponents", _check_even_odd_count, 0.0, widens=False),
        Claim("admissible-compositions", "combinatorics.admissible_compositions", _check_admissible, 0.0, widens=False),
        Claim("kappa-orbit", "combinatorics.kappa_orbit", _check_kappa, 0.0, widens=False),
        Claim("exponent-vector", "combinatorics.exponent_vector_a", _check_exponent_vector, 0.0, widens=False),
        Claim("composition-enumeration", "combinatorics.enumerate_compositions", _check_enumeration, 0.0, widens=False),
    ],
    "geometry": [
        Claim("iwasawa-roundtrip", "geometry.iwasawa_decompose", _check_iwasawa_roundtrip, 1e-12, widens=True),
        Claim("xi-long-gl4", "geometry.xi_polynomials_long_gl4", _check_xi_long_gl4, 1e-10, widens=True),
        Claim("conjugated-y", "geometry.weyl_conjugate_y", _check_conjugated_y, 1e-12, widens=True),
        Claim("delta-w-identity", "geometry.delta_w_identity_residual", _check_delta_w, 1e-12, widens=True),
    ],
    "special": [
        Claim("gamma-ring-decomposition", "special.gamma_product_decomposition_residual", _check_gamma_ring, 1e-9, widens=True),
        Claim("gamma-ring-split", "special.gamma_product_split_residual", _check_gamma_split, 1e-9, widens=True),
        Claim("pair-polynomial-multiset", "special.f_R_decomposition_report", _check_pair_polynomial, 0.0, widens=False),
        Claim("block-subset-sums", "special.extra_gamma_sum_identity", _check_block_sums, 0.0, widens=False),
        Claim("bound-B-lemmas", "special.verify_B_lemmas", _check_bound_B, 0.0, widens=False),
    ],
    "whittaker": [
        Claim("rank-one-inverse", "mellin.whittaker_value", _check_rank_one_inverse, 1e-7, widens=True),
        Claim("rank-two-recursion", "mellin.mellin_recursive", _check_rank_two_recursion, 1e-6, widens=True),
        Claim("shift-identities", "mellin.shift_identity_check", _check_shift_identities, mellin.SHIFT_TOL, widens=True),
        Claim("residue-contour", "mellin.residue_check", _check_residue_contour, mellin.RESIDUE_TOL, widens=False),
    ],
    "testfn": [
        Claim("transform-frozen-values", "testfunctions.p_sharp", _check_transform_values, 1e-12, widens=True),
        Claim("cauchy-decomposition", "testfunctions.residue_decomposition_check", _check_cauchy_decomposition, 1e-6, widens=True),
        Claim("shifted-line-slope", "testfunctions.itr_scaling", _check_shifted_line_slope, 0.15, widens=False),
        # each rank's slope error is already divided by its own band
        Claim("main-term-slopes", "testfunctions.main_term_scaling", _check_main_term_slopes, 1.0, widens=False),
        Claim("rank-three-avatar", "testfunctions.p_y_gl3", _check_rank_three_avatar, 1e-10, widens=True),
    ],
    "trace": [
        Claim("kloosterman-exact", "trace.kloosterman_gl2", _check_kloosterman, 1e-10, widens=True),
        Claim("modulus-tail", "trace.tail_from_rho", _check_modulus_tail, trace.TAIL_RATIO_BOUND, widens=False),
        Claim("exponent-ledger", "trace.iwbounds_exponent", _check_exponent_ledger, 0.0, widens=False),
        Claim("orthogonality-fixture", "trace.cuspidal_sum", _check_orthogonality, 3.0 / math.sqrt(_ORTHOGONALITY_FORMS), widens=False),
    ],
}

SELECTORS = tuple(CHECKS) + ("all",)


def _run_one(claim: Claim, cfg: RunConfig) -> VerificationReport:
    start = time.perf_counter()
    error = None
    try:
        max_error = float(claim.measure(cfg))
    except Exception as exc:  # one check's crash must not stop the battery
        max_error = float("inf")
        error = f"{type(exc).__name__}: {exc}"
    bound = max(claim.bound, cfg.identity_tol) if claim.widens else claim.bound
    return VerificationReport(
        name=claim.name,
        anchor=claim.anchor,
        digest=input_digest(claim.name, cfg),
        passed=max_error <= bound,
        max_error=max_error,
        runtime=time.perf_counter() - start,
        error=error,
    )


def run_suite(selector: str, cfg: RunConfig | None = None) -> list[VerificationReport]:
    """Execute the selected checks and return their reports in registry
    order.  jobs > 1 runs checks concurrently; ordering and content are
    unaffected (assembly is by position, and inputs depend only on cfg).
    """
    cfg = cfg or RunConfig()
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; choose from {SELECTORS}")
    groups = list(CHECKS) if selector == "all" else [selector]
    claims = [claim for g in groups for claim in CHECKS[g]]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(_run_one, claim, cfg) for claim in claims]
            return [f.result() for f in futures]
    return [_run_one(claim, cfg) for claim in claims]


def suite_exit_code(reports) -> int:
    """0 all passed; 1 a check failed; 2 a check raised (its report has an
    error)."""
    if any(r.error is not None for r in reports):
        return 2
    if any(not r.passed for r in reports):
        return 1
    return 0
