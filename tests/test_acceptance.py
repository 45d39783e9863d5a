"""Acceptance battery: fifteen criteria, one test and one result line each.

Every test computes its verdict, records a single canonical pass/fail line
(replayed in the terminal summary by conftest.py), and then asserts.
Criterion 04 pins the cut-parity-aware count of non-integral exponents and
the exact amount by which the stated simple form overcounts it; its result
line still names the first case the stated form gets wrong.  Criterion 11
pins a stated slope prediction that the measured slopes contradict and is
expected to fail; see test_testfunctions for the sharper exponent that does
hold.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kuznetsov_lab import combinatorics as comb
from kuznetsov_lab import geometry, mellin, special, testfunctions, trace

RESULTS: list[str] = []


def record(num: int, title: str, passed: bool, detail: str) -> str:
    line = f"criterion {num:02d} {title}: {'PASS' if passed else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)
    return line


def test_criterion_01_degree_count_closed_forms():
    start = time.perf_counter()
    frozen = {2: 0, 3: 3, 4: 21}
    ok = True
    for n in range(2, 13):
        # degree_D cross-checks its two closed forms on every call
        value = comb.degree_D(n)
        if n in frozen and value != frozen[n]:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    line = record(1, "degree count dual closed forms", ok, f"n = 2..12, {elapsed:.3f} s")
    assert ok, line


def test_criterion_02_partition_identities():
    start = time.perf_counter()
    rep = comb.verify_partition_identities(10)
    elapsed = time.perf_counter() - start
    line = record(
        2,
        "exact partition identities",
        rep["passed"],
        f"{rep['checked']} compositions, n <= 10, {elapsed:.2f} s",
    )
    assert rep["passed"], line


def test_criterion_03_phi_invariance_and_minimum():
    bad = []
    for n in range(2, 10):
        by_multiset: dict = {}
        values = []
        for c in comb.enumerate_compositions(n, min_length=2):
            v = comb.phi(c)
            values.append(v)
            if by_multiset.setdefault(tuple(sorted(c.parts)), v) != v:
                bad.append(("multiset", c.parts))
        if min(values) != Fraction(n * (n - 1), 2):
            bad.append(("minimum", n))
    line = record(3, "phi permutation invariance and minimum", not bad, f"n <= 9, {bad[:3]!r}")
    assert not bad, line


def test_criterion_04_even_odd_closed_form():
    # The direct count of non-integral exponents equals the cut-parity-aware
    # even_odd_exact_form, and the stated simple form even_odd_closed_form
    # overcounts it by exactly one per odd-sized middle block that starts at
    # an odd partial sum n-hat_{i-1} when n is even, and not at all when n is
    # odd.  By hand at n = 4, C = (1, 1, 2), rho = 1/2: a = (2, 5/2, 2) and
    # b_{1,1} = 0, b_{2,1} = a_1 = 2, b_{3,1} = 1/2 give 2 non-integral
    # exponents where the stated form gives 3.
    failures = []
    overcounts = []
    checked = 0
    for n in range(2, 11):
        for c in comb.enumerate_compositions(n, min_length=2):
            checked += 1
            exact = comb.even_odd_exact_form(c)
            stated = comb.even_odd_closed_form(c)
            nhat = (0,) + c.partial_sums
            odd_at_odd = sum(
                1 for i in range(1, c.r - 1) if c.parts[i] % 2 == 1 and nhat[i] % 2 == 1
            )
            excess = odd_at_odd if n % 2 == 0 else 0
            for rho in (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
                got = comb.count_nonintegral_exponents(c, rho)
                if got != exact:
                    failures.append(("exact form", n, c.parts, str(rho), got, exact))
                if stated - got != excess:
                    failures.append(("overcount", n, c.parts, str(rho), stated - got, excess))
                if stated != got:
                    overcounts.append((n, c.parts, str(rho), got, stated))
    first = overcounts[0] if overcounts else None
    detail = (
        f"{checked} compositions n <= 10, four half-integral rho; "
        f"stated form overcounts {len(overcounts)}, first {first!r}"
    )
    if failures:
        detail = f"{len(failures)} failures, first {failures[0]!r}; " + detail
    line = record(4, "even-odd count exact form and stated overcount", not failures, detail)
    assert not failures, line


def test_criterion_05_xi_and_conjugation_identities():
    rng = np.random.default_rng(1205)
    worst_xi = 0.0
    w_long = geometry.WeylElement(comb.Composition((1, 1, 1, 1)))
    for _ in range(100):
        u = np.eye(4)
        for i in range(4):
            for j in range(i + 1, 4):
                u[i, j] = rng.uniform(-2, 2)
        xi = geometry.xi_values(w_long, u)
        expect = geometry.xi_polynomials_long_gl4(u)
        worst_xi = max(worst_xi, float(np.abs(xi / expect - 1.0).max()))
    worst_id = 0.0
    for n in range(2, 7):
        ys = rng.uniform(0.2, 5.0, size=(5, n - 1))
        for c in comb.enumerate_compositions(n, min_length=2):
            w = geometry.WeylElement(c)
            for y in ys:
                closed = geometry.weyl_conjugate_y(w, y)
                oracle = geometry.weyl_conjugate_y_oracle(w, y)
                worst_id = max(worst_id, float(np.abs(closed / oracle - 1.0).max()))
                worst_id = max(worst_id, geometry.delta_w_identity_residual(w, y))
    ok = worst_xi <= 1e-10 and worst_id <= 1e-12
    line = record(
        5,
        "xi polynomials and conjugation identities",
        ok,
        f"xi {worst_xi:.2e} <= 1e-10, block identities {worst_id:.2e} <= 1e-12",
    )
    assert ok, line


def test_criterion_06_gamma_ring_decompositions():
    rng = np.random.default_rng(1206)
    worst = 0.0
    exact_failures = 0
    samples = 0
    while samples < 1000:
        n = int(rng.integers(2, 7))
        comps = comb.enumerate_compositions(n, min_length=1)
        c = comps[int(rng.integers(0, len(comps)))]
        R = int(rng.integers(1, 4))
        t = rng.uniform(-1.5, 1.5, size=n - 1)
        alpha = [1j * v for v in t] + [-1j * float(np.sum(t))]
        rep = special.verify_gamma_decompositions(alpha, c, R)
        worst = max(worst, rep["gamma_residual"], rep["quad_residual"])
        if not rep["f_R"]["passed"] or not rep["extra_sum_exact"]:
            exact_failures += 1
        samples += 1
    ok = worst <= 1e-9 and exact_failures == 0
    line = record(
        6,
        "gamma ring decompositions",
        ok,
        f"1000 samples n <= 6, numeric {worst:.2e} <= 1e-9, exact failures {exact_failures}",
    )
    assert ok, line


def test_criterion_07_shift_identities_and_degree_ledger():
    worst = 0.0
    balanced = True
    for delta in range(1, 6):
        rep = mellin.shift_identity_check(2, 1, delta, rng=np.random.default_rng(70 + delta))
        worst = max(worst, rep["max_residual"])
        balanced = balanced and rep["balanced"]
    for m in (1, 2):
        rep = mellin.shift_identity_check(3, m, 1, rng=np.random.default_rng(80 + m))
        balanced = balanced and rep["balanced"]
    ok = worst <= 1e-12 and balanced
    line = record(
        7,
        "shift identities and degree ledger",
        ok,
        f"rank one delta <= 5 residual {worst:.2e} <= 1e-12, ledger balanced {balanced}",
    )
    assert ok, line


def test_criterion_08_rank_two_recursion_vs_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(1208)
    worst = 0.0
    points = []
    for _ in range(20):
        t = rng.uniform(0.2, 1.2, size=2)
        alpha = (1j * t[0], 1j * t[1], -1j * (t[0] + t[1]))
        s = (
            complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
            complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
        )
        points.append((alpha, s))
        rec = mellin.mellin_recursive(3, alpha, s)
        closed = mellin.mellin_closed(alpha, s)
        worst = max(worst, abs(rec - closed) / abs(closed))
    worst_perm = 0.0
    for alpha, s in points[:5]:
        base = mellin.mellin_recursive(3, alpha, s)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            permuted = mellin.mellin_recursive(3, tuple(alpha[i] for i in perm), s)
            worst_perm = max(worst_perm, abs(permuted - base) / abs(base))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and worst_perm <= 1e-6 and elapsed <= 120.0
    line = record(
        8,
        "rank-two recursion vs closed form",
        ok,
        f"20 points {worst:.2e} <= 1e-6, permutations {worst_perm:.2e}, {elapsed:.1f} s",
    )
    assert ok, line


def test_criterion_09_residues_vs_contour_oracle():
    rng = np.random.default_rng(1209)
    worst = 0.0
    for delta in range(4):
        for _ in range(5):
            t = rng.uniform(0.4, 1.6)
            rep = mellin.residue_check(2, (1j * t, -1j * t), delta=delta)
            worst = max(worst, rep["rel_err"])
    for m in (1, 2):
        for _ in range(5):
            while True:
                t = rng.uniform(0.3, 1.2, size=2)
                parts = (t[0], t[1], -(t[0] + t[1]))
                gaps = [abs(a - b) for i, a in enumerate(parts) for b in parts[i + 1 :]]
                if min(gaps) > 0.3:
                    break
            alpha = tuple(1j * v for v in parts)
            rep = mellin.residue_check(3, alpha, m=m)
            worst = max(worst, rep["rel_err"])
    ok = worst <= 1e-8
    line = record(
        9,
        "residues vs contour oracle",
        ok,
        f"rank one delta <= 3 and rank two first poles, {worst:.2e} <= 1e-8",
    )
    assert ok, line


def test_criterion_10_cauchy_decomposition():
    rep = testfunctions.residue_decomposition_check(
        testfunctions.TestFunctionParams(T=4.0, R=1)
    )
    ok = rep["max_rel_residual"] <= 1e-6
    line = record(
        10,
        "contour-shift decomposition",
        ok,
        f"10-point y grid, residual {rep['max_rel_residual']:.2e} <= 1e-6, "
        f"kappa {rep['kappa_fit']:.6f}",
    )
    assert ok, line


def test_criterion_11_shifted_line_slopes():
    # Pins the stated slope prediction R + 3/2 - B(a) at R = 2.  The
    # measured slopes follow the smaller exponent min(a + 1/2, 2a) in place
    # of B(a), so the a = 0.75 and a = 1.25 rows are expected to fail; the
    # two predictions coincide at a = 0.25, which passes.
    start = time.perf_counter()
    rows = []
    ok = True
    for a in (0.25, 0.75, 1.25):
        fit = testfunctions.itr_scaling(a, 2, (16.0, 32.0, 64.0, 128.0))
        rows.append(f"a={a}: slope {fit.slope:.4f} vs {fit.predicted:.2f}")
        ok = ok and fit.within <= 0.15
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 300.0
    line = record(
        11, "shifted-line norm slopes", ok, "; ".join(rows) + f"; {elapsed:.0f} s"
    )
    assert ok, line


def test_criterion_12_main_term_slopes():
    fit2 = testfunctions.main_term_scaling(2, 1)
    fit3 = testfunctions.main_term_scaling(3, 1)
    ok = fit2.predicted == 3 and fit3.predicted == 14
    ok = ok and fit2.within <= 0.1 and fit3.within <= 0.3
    line = record(
        12,
        "main-term slopes",
        ok,
        f"rank one {fit2.slope:.4f} vs {fit2.predicted} (<= 0.1), "
        f"rank two {fit3.slope:.4f} vs {fit3.predicted} (<= 0.3)",
    )
    assert ok, line


def test_criterion_13_kloosterman_exact_and_weil():
    worst_exact = max(
        abs(trace.kloosterman_gl2(1, 1, 1) - 1.0),
        abs(trace.kloosterman_gl2(1, 1, 2) - 1.0),
        abs(trace.kloosterman_gl2(1, 1, 3) + 1.0),
    )
    c_max = 5000
    values = trace.kloosterman_sweep(c_max)
    divisors = np.zeros(c_max + 1, dtype=np.int64)
    for k in range(1, c_max + 1):
        divisors[k::k] += 1
    weil = np.abs(values) - divisors[1:] * np.sqrt(np.arange(1, c_max + 1))
    worst_weil = float(weil.max())
    worst_twist = 0.0
    for c1, c2 in ((3, 4), (5, 7), (8, 9)):
        for m, l in ((1, 1), (2, 3)):
            c2bar, c1bar = pow(c2, -1, c1), pow(c1, -1, c2)
            lhs = trace.kloosterman_gl2(m, l, c1 * c2)
            rhs = trace.kloosterman_gl2(m * c2bar * c2bar, l, c1) * trace.kloosterman_gl2(
                m * c1bar * c1bar, l, c2
            )
            worst_twist = max(worst_twist, abs(lhs - rhs))
    ok = worst_exact <= 1e-12 and worst_weil <= 1e-9 and worst_twist <= 1e-10
    line = record(
        13,
        "exact sums, Weil sanity, twisted multiplicativity",
        ok,
        f"exact {worst_exact:.1e}, Weil slack {worst_weil:.2f} <= 0 for c <= 5000, "
        f"twisted {worst_twist:.2e} <= 1e-10",
    )
    assert ok, line


def test_criterion_14_exponent_calculators():
    rep = trace.iwbounds_exponent(Fraction(3, 2), comb.Composition((1, 1, 1, 1)))
    ok = rep.lm_exponent == Fraction(29, 4)
    worst_slack = Fraction(-10)
    for n in range(2, 13):
        for c in comb.enumerate_compositions(n, min_length=2):
            slack = trace.iwbounds_exponent(Fraction(3, 2), c).slack
            worst_slack = max(worst_slack, slack)
    ok = ok and worst_slack <= 0
    aplusb_failures = 0
    for n in range(2, 8):
        for r in trace.verify_aplusb_all(n, Fraction(3, 2)):
            if not r.passed:
                aplusb_failures += 1
    ok = ok and aplusb_failures == 0
    line = record(
        14,
        "exponent calculators",
        ok,
        f"lm exponent {rep.lm_exponent}, worst slack {worst_slack} (n <= 12), "
        f"budget failures {aplusb_failures} (n <= 7)",
    )
    assert ok, line


def test_criterion_15_orthogonality_fixture(tmp_path):
    params = testfunctions.TestFunctionParams(T=10.0, R=1)
    forms = trace.random_sign_fixture(params, count=50, seed=0)
    diag = trace.cuspidal_sum(forms, params, 2, 2).ratio
    off = trace.cuspidal_sum(forms, params, 2, 3).ratio
    path = tmp_path / "forms.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,lambda_2,lambda_3,adjoint_L\n")
        for rec in forms:
            fh.write(f"{rec.r!r},{rec.hecke[2]!r},{rec.hecke[3]!r},{rec.adjoint_L!r}\n")
    ingested = trace.cuspidal_sum(trace.ingest_maass_csv(path), params, 2, 3).ratio
    bound = 3.0 / math.sqrt(50.0)
    ok = diag == 1.0 and abs(off) <= bound and math.isfinite(ingested)
    ok = ok and ingested == pytest.approx(off, abs=1e-12)
    line = record(
        15,
        "orthogonality statistic",
        ok,
        f"diagonal {diag}, off-diagonal {off:.4f} (|.| <= {bound:.4f}), "
        f"ingested round trip {ingested:.4f}",
    )
    assert ok, line
