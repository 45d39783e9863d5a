"""Gamma-ratio, pair-polynomial, bound-function, and decomposition checks."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

from kuznetsov_lab import special
from kuznetsov_lab.combinatorics import Composition, degree_D, enumerate_compositions
from kuznetsov_lab.special import (
    DegenerateParameterError,
    PoleError,
    alpha_square_residual,
    bound_B,
    bound_B_sharp,
    extra_gamma_sum_identity,
    f_R_decomposition_report,
    f_R_poly,
    gamma_product_decomposition_residual,
    gamma_product_split_residual,
    log_gamma,
    partition_parameter,
    subset_pairs,
    validate_langlands,
    verify_B_lemmas,
    verify_gamma_decompositions,
)

# Hand-computed anchors: Gamma(1/2) = sqrt(pi), Gamma(5) = 24,
# Gamma(3/2)/Gamma(1/2) = 1/2, and the n=3 pair polynomial at
# alpha = (i, -i, 0), R = 2, which is (1+4)(1+1)(1+1) = 20.
LOG_GAMMA_HALF = 0.5 * math.log(math.pi)
LOG_GAMMA_FIVE = math.log(24.0)
GAMMA_R_HALF_R2 = 0.5
F_R_N3_VALUE = 20.0


def _slope(xs, ys):
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    return float(np.polyfit(xs, ys, 1)[0])


def test_log_gamma_anchors():
    assert abs(log_gamma(0.5) - LOG_GAMMA_HALF) < 1e-13
    assert abs(log_gamma(5.0) - LOG_GAMMA_FIVE) < 1e-13
    assert abs(log_gamma(1.0)) < 1e-13


def test_log_gamma_poles():
    for z in (0.0, -1.0, -3.0, 0j, -2.0 + 0j):
        with pytest.raises(PoleError) as exc:
            log_gamma(z)
        assert exc.value.location == complex(z)
    # near-but-not-at a pole is fine
    assert np.isfinite(log_gamma(-3.0 + 1e-6).real)


def test_log_gamma_large_imag_matches_stirling():
    z = 2.0 + 10.0j
    exact = log_gamma(z).real
    # the classical large-|t| modulus sqrt(2 pi) |t|^(sigma - 1/2) e^(-pi |t|/2)
    approx = 0.5 * math.log(2 * math.pi) + 1.5 * math.log(10.0) - math.pi * 10.0 / 2
    assert abs(exact - approx) / abs(exact) < 0.01


def test_subset_pair_count_is_degree():
    for n in range(2, 8):
        assert len(subset_pairs(n)) == degree_D(n)


def test_f_R_frozen_value_and_gl2_triviality():
    val = f_R_poly([1j, -1j, 0.0], 2)
    assert abs(val - F_R_N3_VALUE) < 1e-12
    assert f_R_poly([0.3j, -0.3j], 5) == 1


def test_f_R_matches_ordered_product():
    import itertools

    rng = np.random.default_rng(11)
    t = rng.uniform(-2, 2, size=4)
    alpha = 1j * (t - t.mean())
    R = 3
    idx = range(4)
    log_total = 0j
    for j in range(1, 3):
        for K in itertools.combinations(idx, j):
            for L in itertools.combinations(idx, j):
                delta = alpha[list(K)].sum() - alpha[list(L)].sum()
                log_total += (R / 2) * cmath.log(1 + delta)
    oracle = cmath.exp(log_total)
    val = f_R_poly(alpha, R)
    assert abs(val - oracle) / abs(oracle) < 1e-10


def test_f_R_tempered_real_and_large_scale_slope():
    rng = np.random.default_rng(5)
    t = rng.uniform(-1, 1, size=4)
    alpha = 1j * (t - t.mean())
    val = f_R_poly(alpha, 1)
    assert abs(val.imag) < 1e-12
    assert val.real >= 1.0
    # degree R * D(n) governs the growth along a ray
    base = np.array([1j, -1j, 0.0])
    for R in (1, 2):
        ss = [100.0, 300.0, 1000.0]
        ys = [math.log(abs(f_R_poly(s * base, R))) for s in ss]
        slope = _slope([math.log(s) for s in ss], ys)
        assert abs(slope - R * degree_D(3)) < 0.05


def test_f_R_past_the_float_range_raises():
    # eight tempered entries; this escaped as OverflowError
    alpha = 1j * (np.arange(8) - 3.5) / 8
    with pytest.raises(ValueError, match=r"^log\|F_R\| = 821\.055 passes the float range$"):
        f_R_poly(alpha, 1)


def test_bound_B_values():
    assert bound_B(-5.0) == 0.0
    assert bound_B(-0.3) == 0.0
    assert bound_B(0.0) == 0.0
    assert abs(bound_B(0.25) - 0.5) < 1e-15
    assert bound_B(0.75) == 1.0
    assert abs(bound_B(1.25) - 1.5) < 1e-15
    assert bound_B(1.75) == 2.0
    assert abs(bound_B(2.5) - 3.0) < 1e-15  # seam: both branches give 3


def test_bound_B_integer_rejection():
    # exact integers and near-integers fall inside the 1e-9 window
    for a in (1.0, 2.0, 3.0 + 1e-12):
        with pytest.raises(ValueError):
            bound_B(a)


def test_bound_B_sharp_dominates():
    assert bound_B_sharp(0.25) == 0.5
    assert bound_B_sharp(0.75) == 1.25
    assert bound_B_sharp(1.25) == 1.75
    for a in np.linspace(0.05, 4.95, 99):
        if abs(a - round(a)) < 1e-9:
            continue
        assert bound_B(a) <= bound_B_sharp(a) + 1e-12


def test_verify_B_lemmas():
    grid = [0.1, 0.3, 0.45, 0.55, 0.8, 1.2, 1.7, 2.3, 3.6, -0.7, -1.4, -2.2]
    out = verify_B_lemmas(grid, np.random.default_rng(7), trials=300)
    assert out["passed"], out["violations"][:3]
    assert out["checked"] > 200


def test_validate_langlands():
    validate_langlands([1j, -1j])
    validate_langlands([0.5 + 1j, -0.5 - 1j], require_tempered=False)
    with pytest.raises(ValueError):
        validate_langlands([1j, 1j])
    with pytest.raises(ValueError):
        validate_langlands([0.5 + 1j, -0.5 - 1j], require_tempered=True)
    # one relative tolerance, 1e-10 max(1, max |alpha_j|), for the sum and
    # for the real parts
    validate_langlands([1e6j, -1e6j + 5e-5, 0j], require_tempered=True)
    with pytest.raises(ValueError):
        validate_langlands([1e6j, -1e6j + 2e-4], require_tempered=False)
    with pytest.raises(ValueError):
        validate_langlands([2e-10 + 1j, -2e-10 - 1j], require_tempered=True)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            validate_langlands([complex(0, bad), 0.5j, -0.5j])


def test_partition_parameter_worked_example():
    alpha = [1j, 2j, -1j, -2j]
    blocks, beta = partition_parameter(alpha, Composition((2, 2)))
    assert beta == [3j, -3j]
    np.testing.assert_allclose(blocks[0], [-0.5j, 0.5j], atol=1e-14)
    np.testing.assert_allclose(blocks[1], [0.5j, -0.5j], atol=1e-14)
    # sum alpha^2 = -10 splits as (-1/2 - 1/2) + (-9/2 - 9/2)
    assert alpha_square_residual(alpha, Composition((2, 2))) < 1e-13


def test_partition_blocks_sum_to_zero_and_quadratic_identity():
    rng = np.random.default_rng(23)
    for n, parts in [(5, (2, 3)), (6, (1, 3, 2)), (6, (2, 2, 2)), (7, (3, 1, 3))]:
        t = rng.uniform(-3, 3, size=n)
        alpha = 1j * (t - t.mean())
        blocks, _ = partition_parameter(alpha, Composition(parts))
        for blk in blocks:
            assert abs(blk.sum()) < 1e-13
        assert alpha_square_residual(alpha, Composition(parts)) < 1e-12


def test_gamma_product_decomposition():
    rng = np.random.default_rng(41)
    cases = [(4, (2, 2), 2), (5, (2, 1, 2), 1), (6, (3, 3), 1), (6, (2, 2, 2), 2)]
    for n, parts, R in cases:
        t = rng.uniform(-2.5, 2.5, size=n)
        alpha = 1j * (t - t.mean())
        res = gamma_product_decomposition_residual(alpha, Composition(parts), R)
        assert res < 1e-9, (parts, R, res)


def test_gamma_product_split_matches_general():
    rng = np.random.default_rng(43)
    t = rng.uniform(-2, 2, size=5)
    alpha = 1j * (t - t.mean())
    assert gamma_product_split_residual(alpha, 2, 2) < 1e-9
    res_general = gamma_product_decomposition_residual(alpha, Composition((2, 3)), 2)
    assert res_general < 1e-9


def test_gamma_products_stay_in_log_space_at_large_height():
    # |Gamma_R(1000i)| overflows float64; only its log modulus is finite
    alpha = [500j, 0j, -500j]
    ring = gamma_product_decomposition_residual(alpha, Composition((1, 2)), 1)
    split = gamma_product_split_residual(alpha, 1, 1)
    assert math.isfinite(ring) and ring <= 1e-9
    assert math.isfinite(split) and split <= 1e-9


def test_gamma_product_degenerate_input():
    with pytest.raises(DegenerateParameterError):
        gamma_product_decomposition_residual(
            [1j, 1j, -1j, -1j], Composition((2, 2)), 1
        )


def test_f_R_decomposition_counts():
    for parts, leftover in [
        ((2, 2), degree_D(4)),
        ((2, 3), degree_D(5) - degree_D(3)),
        ((3, 3), degree_D(6) - 2 * degree_D(3)),
        ((1, 4, 1), degree_D(6) - degree_D(4)),
    ]:
        rep = f_R_decomposition_report(Composition(parts))
        assert rep["passed"], rep
        assert rep["leftover_count"] == leftover


def test_extra_gamma_sum_identity_exact():
    assert extra_gamma_sum_identity(
        [Fraction(3, 7), Fraction(-1, 2), Fraction(1, 14)], (2, 3, 1)
    )
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = int(rng.integers(2, 6))
        parts = [int(p) for p in rng.integers(1, 4, size=r)]
        beta = [Fraction(int(rng.integers(-20, 20)), int(rng.integers(1, 9))) for _ in range(r - 1)]
        beta.append(-sum(beta))
        assert extra_gamma_sum_identity(beta, parts)
    with pytest.raises(ValueError):
        extra_gamma_sum_identity([Fraction(1), Fraction(1)], (1, 1))


def test_verify_gamma_decompositions_bundle():
    rng = np.random.default_rng(47)
    t = rng.uniform(-2, 2, size=6)
    alpha = 1j * (t - t.mean())
    out = verify_gamma_decompositions(alpha, Composition((2, 1, 3)), 1)
    assert out["gamma_residual"] < 1e-9
    assert out["f_R"]["passed"]
    assert out["extra_sum_exact"]
    assert out["quad_residual"] < 1e-12


def _residue_triple_log_modulus(beta, z, R, delta):
    # log |Gamma_R(beta+z) Gamma_R(-beta-z) Gamma(-beta-z-delta)| as one
    # loggamma sum, finite arbitrarily close to the cancelling points
    w = beta + z
    return (
        log_gamma((0.5 + R + w) / 2)
        + log_gamma((0.5 + R - w) / 2)
        - log_gamma(w)
        - log_gamma(-w)
        + log_gamma(-w - delta)
    ).real


def test_residue_triple_product_is_finite_across_cancellation():
    # zero of Gamma_R(beta+z) at beta+z = k meets the pole of
    # Gamma(-beta-z-delta); the product converges to a finite limit
    beta, R, delta = 0.25, 2, 1
    for k in (0, 1):
        vals = []
        for h in (1e-2, 1e-3, 1e-4, 1e-5):
            z = -beta + k + h
            vals.append(_residue_triple_log_modulus(beta, z, R, delta))
        assert np.isfinite(vals).all()
        assert max(vals) < 10.0  # no blowup approaching the point
    # at k = 0 both ratios vanish and the limit is 0; at k = 1 a single zero
    # cancels the single pole and the limit is finite and nonzero
    assert abs(vals[-1] - vals[-2]) < 1e-3


def test_residue_triple_product_decay_exponent():
    # modulus behaves like (1 + |Im|)^(R - Re(beta+z) - delta)
    beta, R, delta = 0.3, 2, 1
    ts = [50.0, 100.0, 200.0, 400.0]
    ys = [_residue_triple_log_modulus(beta, 1j * t, R, delta) for t in ts]
    slope = _slope([math.log(t) for t in ts], ys)
    assert abs(slope - (R - beta - delta)) < 0.05


# The term-by-term route the ring residuals replaced: one scalar log_gamma
# pair per argument, summed in the same order.  The array route must equal
# it bit for bit.


def _scalar_log_mod_gamma_R(z, R):
    return (log_gamma((0.5 + R + z) / 2) - log_gamma(z)).real


def test_scalar_ring_oracle_anchor():
    assert abs(_scalar_log_mod_gamma_R(0.5, 2) - math.log(GAMMA_R_HALF_R2)) < 1e-13


def _scalar_ring_sum(v, R):
    n = len(v)
    return sum(_scalar_log_mod_gamma_R(v[i] - v[j], R) for i in range(n) for j in range(n) if i != j)


def _scalar_cross_sum(u, v, offset, R):
    args = (x - y + offset for x in u for y in v)
    return sum(_scalar_log_mod_gamma_R(z, R) + _scalar_log_mod_gamma_R(-z, R) for z in args)


def _scalar_decomposition_residual(alpha, comp, R):
    a = np.asarray(alpha, dtype=complex)
    lhs = _scalar_ring_sum(a, R)
    blocks, beta = partition_parameter(a, comp)
    rhs = sum(_scalar_ring_sum(blk, R) for blk in blocks)
    parts = comp.parts
    for k, m in itertools.combinations(range(comp.r), 2):
        rhs += _scalar_cross_sum(blocks[k], blocks[m], beta[k] / parts[k] - beta[m] / parts[m], R)
    return abs(lhs - rhs)


def _scalar_split_residual(alpha, k, R):
    a = np.asarray(alpha, dtype=complex)
    n = len(a)
    ahat_k = a[:k].sum()
    beta = a[:k] - ahat_k / k
    gamma = a[k:] + ahat_k / (n - k)
    rhs = _scalar_ring_sum(beta, R) + _scalar_ring_sum(gamma, R)
    rhs += _scalar_cross_sum(beta, gamma, n / (k * (n - k)) * ahat_k, R)
    return abs(_scalar_ring_sum(a, R) - rhs)


@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("n", range(2, 8))
def test_ring_residuals_equal_the_term_by_term_sums(n, R):
    rng = np.random.default_rng([61, n, R])
    for _ in range(3):
        t = rng.uniform(-2.5, 2.5, size=n - 1)
        alpha = [1j * v for v in t] + [-1j * t.sum()]
        for comp in enumerate_compositions(n):
            got = gamma_product_decomposition_residual(alpha, comp, R)
            assert got == _scalar_decomposition_residual(alpha, comp, R), comp.parts
        for k in range(1, n):
            assert gamma_product_split_residual(alpha, k, R) == _scalar_split_residual(alpha, k, R), k


@pytest.mark.parametrize(
    "alpha, error, message",
    [
        ([1j, 1j, -1j, -1j], DegenerateParameterError, "coincident parameter entries"),
        # alpha_1 - alpha_2 = -1, a zero of Gamma_R
        ([-0.5, 0.5], DegenerateParameterError, "Gamma_R vanishes at (-1+0j)"),
        # the cross argument 1 of (1, 1) has its negative at -1
        ([0.5, -0.5], DegenerateParameterError, "Gamma_R vanishes at (-1+0j)"),
        # alpha_1 - alpha_2 = -3/2 puts the R = 1 numerator at the pole 0
        ([0.0, 1.5, -1.5], PoleError, "pole at z = 0j"),
    ],
)
def test_ring_residuals_raise_at_the_first_bad_argument(alpha, error, message):
    with pytest.raises(error) as exc:
        gamma_product_decomposition_residual(alpha, Composition((1, len(alpha) - 1)), 1)
    assert str(exc.value) == message
    with pytest.raises(error) as exc:
        gamma_product_split_residual(alpha, 1, 1)
    assert str(exc.value) == message


def test_one_ring_residual_is_two_loggamma_calls(monkeypatch):
    calls = []

    def counting_loggamma(z):
        calls.append(np.size(z))
        return scipy_loggamma(z)

    def no_scalar_log_gamma(z):
        pytest.fail("a ring residual called the scalar log_gamma")

    monkeypatch.setattr(special, "_loggamma", counting_loggamma)
    monkeypatch.setattr(special, "log_gamma", no_scalar_log_gamma)
    alpha = [0.3j, 1.1j, -0.5j, -0.9j]
    gamma_product_decomposition_residual(alpha, Composition((1, 2, 1)), 1)
    # 12 differences of alpha, 2 within the middle block, and 5 cross
    # arguments, each also at its negative
    assert calls == [24, 24]
    calls.clear()
    gamma_product_split_residual(alpha, 2, 2)
    # 12 + 2 + 2 ring differences and 4 cross arguments, each at both signs
    assert calls == [24, 24]


def test_extra_gamma_sum_identity_refuses_a_nonzero_sum():
    for beta, parts in [
        ([Fraction(1, 3), Fraction(1, 6)], (2, 1)),
        ([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 7)], (1, 3, 2)),
    ]:
        with pytest.raises(ValueError, match="sum to 0"):
            extra_gamma_sum_identity(beta, parts)


@pytest.mark.parametrize("z", [math.nan, complex(0, math.nan), math.inf, -math.inf, complex(math.inf, 1)])
def test_gamma_arguments_must_be_finite(z):
    # the pole rule reads every argument; a non-finite one used to escape as
    # OverflowError, pass as a pole (nan i), or return NaN (inf + i)
    with pytest.raises(ValueError, match="finite"):
        log_gamma(z)
