"""Mellin transform evaluators, shift identities, residues, inversion."""

import math

import numpy as np
import pytest

from kuznetsov_lab.mellin import (
    _truncation_half_length,
    check_pole_separation,
    mellin_gl2,
    mellin_gl3_closed,
    mellin_recursive,
    mellin_value,
    pochhammer,
    residue_check,
    residue_gl2,
    shift_identity_check,
    shift_residual_gl2,
    whittaker_value,
)
from kuznetsov_lab.quadrature import circle_integral_mean, line_nodes
from kuznetsov_lab.special import DegenerateParameterError, PoleError

# modified-Bessel route evaluated separately at 30 digits and frozen here:
# 2 sqrt(y) K_a(2 pi y)
BESSEL_ORACLE = [
    (0.7j, 0.8, 6.1329092957132797e-3),
    (0.3j, 1.0, 1.8209784095190721e-3),
    (1.1j, 0.5, 3.5203010715208273e-2),
]


def _random_tempered3(rng):
    t = rng.uniform(0.2, 1.5, size=2)
    return (1j * t[0], 1j * t[1], -1j * (t[0] + t[1]))


class TestRankOne:
    def test_trivial_point(self):
        assert mellin_gl2(0.0, 1.0) == pytest.approx(1.0)

    def test_half_integer_point(self):
        # Gamma(3/2) Gamma(1/2) = pi/2
        assert mellin_gl2(0.5, 1.0) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_even_in_alpha(self):
        s = 0.8 + 0.3j
        assert mellin_gl2(0.45j, s) == pytest.approx(mellin_gl2(-0.45j, s), rel=1e-14)

    def test_pair_and_scalar_parameter_agree(self):
        assert mellin_gl2((0.3j, -0.3j), 1.2) == pytest.approx(
            mellin_gl2(0.3j, 1.2), rel=1e-14
        )

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            mellin_gl2(0.5, -0.5)


class TestRecursionRankTwo:
    def test_reference_point_positive(self):
        v = mellin_recursive(3, (0.0, 0.0, 0.0), (1.0, 1.0))
        assert v.real > 0
        assert abs(v.imag) < 1e-9

    def test_normalization_close_to_one(self):
        # Barnes' first lemma: alpha = 0, s = (1, 1) gives Gamma(1)^6 / Gamma(2)
        v = mellin_recursive(3, (0, 0, 0), (1, 1), tol=1e-10)
        assert abs(v - 1.0) <= 1e-10

    def test_closed_form_matches_recursion_random(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            alpha = _random_tempered3(rng)
            s = (0.75, 0.75)
            rec = mellin_recursive(3, alpha, s, tol=1e-9)
            closed = mellin_gl3_closed(alpha, s)
            worst = max(worst, abs(rec - closed) / abs(closed))
        assert worst <= 1e-6

    def test_permutation_invariance(self):
        import itertools

        rng = np.random.default_rng(5)
        alpha = np.asarray(_random_tempered3(rng))
        s = (0.75, 0.75)
        base = mellin_recursive(3, alpha, s, tol=1e-9)
        for perm in itertools.permutations(range(3)):
            v = mellin_recursive(3, tuple(alpha[list(perm)]), s, tol=1e-9)
            assert abs(v - base) / abs(base) <= 1e-6

    def test_requires_positive_real_part(self):
        with pytest.raises(ValueError):
            mellin_recursive(3, (0.0, 0.0, 0.0), (-0.5, 1.0))

    def test_closed_form_manifestly_symmetric(self):
        alpha = (0.4j, 0.15j, -0.55j)
        s = (0.9 + 0.2j, 0.7 - 0.1j)
        v = mellin_gl3_closed(alpha, s)
        w = mellin_gl3_closed((alpha[2], alpha[0], alpha[1]), s)
        assert v == pytest.approx(w, rel=1e-13)


class TestRecursionRankThree:
    def test_permutation_probe(self):
        alpha = (0.3j, 0.1j, -0.15j, -0.25j)
        s = (0.9, 1.1, 0.8)
        base = mellin_recursive(4, alpha, s, tol=1e-7)
        swapped = mellin_recursive(4, (0.1j, -0.15j, 0.3j, -0.25j), s, tol=1e-7)
        assert abs(base - swapped) / abs(base) <= 1e-5

    # entries 0, 2, 7 and 39 of the rank-four pool in bench/refs/contour.json,
    # computed without the library by bench/contour_oracle.py: the plane
    # recursion over Barnes' closed rank-two form on straight lines kept away
    # from the poles, plus the residues of the poles they cross, summed by the
    # trapezoidal rule
    FROZEN = [
        (
            (-1.222361j, -1.061646j, 0.204972j, 2.079035j),
            (1.021221 + 0.849626j, 1.376348 - 0.061749j, 1.374449 + 0.390358j),
            1.5562592437959274e-05 - 3.5786620624011395e-06j,
        ),
        (
            (0.340385j, 0.458549j, -0.47003j, -0.328904j),
            (1.365392 + 0.406526j, 1.009063 - 0.507453j, 0.972989 + 0.584099j),
            0.04878341037067077 + 0.004903002306100244j,
        ),
        (
            (0.091271 - 1.274577j, 0.20211 - 0.157463j, 0.085255 + 0.26235j, -0.378636 + 1.16969j),
            (1.305127 + 0.719328j, 1.359172 - 0.273407j, 1.253357 - 0.568815j),
            0.0005499130981864259 - 0.0006584677174967435j,
        ),
        (
            (-0.009923 - 1.212947j, 0.105832 + 1.161451j, 0.138661 + 0.560055j, -0.23457 - 0.508559j),
            (1.208812 + 0.300936j, 1.348661 - 0.546213j, 1.207826 + 0.550002j),
            0.0005869628921141426 + 0.0005846758130088972j,
        ),
    ]

    @pytest.mark.parametrize("alpha, s, ref", FROZEN, ids=["entry0", "entry2", "entry7", "entry39"])
    def test_matches_frozen_oracle(self, alpha, s, ref):
        v = mellin_recursive(4, alpha, s)
        assert abs(v - ref) / abs(ref) <= 1e-9

    def test_frozen_oracle_at_loose_tol(self):
        # entry 0 again, at the permutation probe's tolerance
        alpha, s, ref = self.FROZEN[0]
        v = mellin_recursive(4, alpha, s, tol=1e-7)
        assert abs(v - ref) / abs(ref) <= 1e-9

    def test_unsupported_rank(self):
        with pytest.raises(NotImplementedError):
            mellin_recursive(5, (0.0,) * 5, (1.0,) * 4)


class TestShiftIdentities:
    def test_rank_one_exact_sweep(self):
        rng = np.random.default_rng(23)
        for delta in range(6):
            worst = 0.0
            for _ in range(100):
                t = rng.uniform(0.1, 2.5)
                s = complex(rng.uniform(0.4, 2.5), rng.uniform(-1.5, 1.5))
                worst = max(worst, shift_residual_gl2((1j * t, -1j * t), s, delta))
            assert worst <= 1e-12, f"delta={delta}: {worst:.2e}"

    def test_named_example(self):
        assert shift_residual_gl2((0.3j, -0.3j), 0.7, 1) <= 1e-13

    def test_delta_zero_is_identity(self):
        assert shift_residual_gl2((0.4j, -0.4j), 1.1, 0) == 0.0

    def test_rank_two_unit_shift(self):
        for m in (1, 2):
            report = shift_identity_check(3, m, 1, samples=15)
            assert report["max_residual"] <= 1e-9
            assert report["balanced"]

    def test_degree_ledger(self):
        r2 = shift_identity_check(2, 1, 4, samples=5)
        assert r2["degree_budget"] == 8
        assert r2["poly_degree"] + 2 * r2["shift_weight"] == 8
        r3 = shift_identity_check(3, 1, 1, samples=5)
        assert r3["degree_budget"] == 3
        assert r3["poly_degree"] + 2 * r3["shift_weight"] == 3

    def test_pochhammer(self):
        assert pochhammer(2.0, 3) == pytest.approx(24.0)
        assert pochhammer(0.5, 0) == 1.0


class TestResidues:
    def test_rank_one_leading(self):
        # residue of Gamma(s+a) at s=-a is 1, leaving Gamma(-2a)
        from scipy.special import gamma as _g

        a = 0.6j
        assert residue_gl2((a, -a), 0) == pytest.approx(complex(_g(-2 * a)), rel=1e-12)

    def test_rank_one_contour_all_deltas(self):
        for delta in range(4):
            rep = residue_check(2, (0.6j, -0.6j), delta=delta)
            assert rep["passed"], rep

    def test_named_contour_example(self):
        rep = residue_check(2, (0.4j, -0.4j), delta=1)
        assert rep["rel_err"] <= 1e-8

    def test_rank_two_first_residues(self):
        for m in (1, 2):
            rep = residue_check(3, (0.65j, 0.2j, -0.85j), m=m)
            assert rep["passed"], rep

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(DegenerateParameterError):
            check_pole_separation(3, (0.45j, 0.3j, -0.75j), 1, 0)


class TestInverseTransform:
    def test_matches_bessel_route(self):
        for a, y, ref in BESSEL_ORACLE:
            assert whittaker_value((a, -a), y) == pytest.approx(ref, rel=1e-10)

    def test_contour_shift_invariance(self):
        v1 = whittaker_value(0.7j, 1.0, b=0.5)
        v2 = whittaker_value(0.7j, 1.0, b=1.0)
        assert abs(v1 - v2) / abs(v2) <= 1e-8

    def test_positive_and_conjugate_symmetric(self):
        v = whittaker_value(0.9j, 0.7)
        w = whittaker_value(-0.9j, 0.7)
        assert v > 0
        assert v == pytest.approx(w, rel=1e-12)

    def test_exponential_decay(self):
        assert whittaker_value(0.7j, 1.0) / whittaker_value(0.7j, 5.0) > 1e3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            whittaker_value(0.5j, -1.0)
        with pytest.raises(ValueError):
            whittaker_value(0.5j, 1.0, b=0.0)


class TestEvaluatorBundle:
    def test_dispatch(self):
        alpha = (0.4j, 0.15j, -0.55j)
        s = (0.8, 0.9)
        value = mellin_value(3, alpha, s)
        assert value == pytest.approx(mellin_gl3_closed(alpha, s), rel=1e-13)
        assert abs(mellin_recursive(3, alpha, s) - value) / abs(value) <= 1e-6

    def test_truncation_height_floor(self):
        assert _truncation_half_length(np.array((0.1j, -0.1j))) == 30.0
        tall = _truncation_half_length(np.array((9.0j, -9.0j)))
        assert tall == pytest.approx(37.0)


class TestContourOracleMachinery:
    def test_circle_rule_on_simple_pole(self):
        # f(z) = 1/(z - 2) + entire part; mean recovers the residue
        val = circle_integral_mean(lambda z: 1.0 / (z - 2.0) + np.exp(z), 2.0, 0.1)
        assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("half_length", [0.3, 1.0, 37.5, 400.0])
    @pytest.mark.parametrize("nodes", [16])
    def test_line_nodes_equal_panel_loop(self, half_length, nodes):
        # reference: one Gauss-Legendre panel per unit interval, mirrored
        x, w = np.polynomial.legendre.leggauss(nodes)
        n_panels = max(1, math.ceil(half_length))
        t_pos = np.concatenate([k + 0.5 * (x + 1.0) for k in range(n_panels)])
        w_pos = np.concatenate([0.5 * w for _ in range(n_panels)])
        t, wt = line_nodes(half_length)
        assert np.array_equal(t, np.concatenate([-t_pos[::-1], t_pos]))
        assert np.array_equal(wt, np.concatenate([w_pos[::-1], w_pos]))
