"""Spectral test functions, contour-shift decomposition, scaling fits."""

import math

import numpy as np
import pytest
from scipy.special import loggamma

from kuznetsov_lab.quadrature import AccuracyError
from kuznetsov_lab.testfunctions import (
    ScalingFit,
    TestFunctionParams,
    _log_weight,
    fit_scaling,
    h_value,
    itr_log,
    itr_scaling,
    main_term_log,
    main_term_scaling,
    p_sharp,
    p_y,
    p_y_batch,
    p_y_gl3,
    residue_decomposition_check,
    residue_term,
)

# Gamma(3/4)^2 and Gamma(3/4)^4 / pi, evaluated exactly and frozen
P_SHARP_AT_ZERO = 1.5016460946806297
H_AT_ZERO = 0.7177700110461306


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TestFunctionParams(T=0.0, R=1)
        with pytest.raises(ValueError):
            TestFunctionParams(T=5.0, R=0)
        with pytest.raises(ValueError):
            TestFunctionParams(T=5.0, R=1.5)


class TestPSharp:
    def test_value_at_origin(self):
        v = p_sharp((0.0, 0.0), TestFunctionParams(T=10.0, R=1))
        assert v.real == pytest.approx(P_SHARP_AT_ZERO, rel=1e-12)
        assert abs(v.imag) < 1e-15

    def test_real_and_decaying_on_tempered_line(self):
        p = TestFunctionParams(T=5.0, R=1)
        vals = [p_sharp((1j * t, -1j * t), p) for t in (0.0, 2.0, 6.0, 12.0)]
        assert all(abs(v.imag) < 1e-12 * abs(v) for v in vals)
        mags = [abs(v) for v in vals]
        assert mags == sorted(mags, reverse=True)


class TestHValue:
    def test_value_at_origin(self):
        assert h_value((0.0, 0.0), TestFunctionParams(T=10.0, R=1)) == pytest.approx(
            H_AT_ZERO, rel=1e-12
        )

    def test_rejects_nontempered(self):
        with pytest.raises(ValueError):
            h_value((0.1, -0.1), TestFunctionParams(T=10.0, R=1))
        # and, by the same rule, a parameter off the zero-sum plane
        with pytest.raises(ValueError):
            h_value((1j, 0.5j), TestFunctionParams(T=10.0, R=1))

    def test_positive_and_symmetric(self):
        p = TestFunctionParams(T=8.0, R=2)
        a = (0.7j, -0.2j, -0.5j)
        v = h_value(a, p)
        assert v > 0
        assert h_value((-0.2j, -0.5j, 0.7j), p) == pytest.approx(v, rel=1e-10)


class TestLogWeight:
    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_is_p_sharp_power_times_plancherel(self, n, power):
        # the one density every integral here uses, against the scalar
        # definition: power log|p_sharp(i t)| - sum_{j != k} Re log Gamma(i (t_j - t_k)/2)
        rng = np.random.default_rng(100 * n + power)
        for R in (1, 2):
            p = TestFunctionParams(T=4.0, R=R)
            t = rng.uniform(-3.0, 3.0, size=(8, n))
            t -= t.mean(axis=1, keepdims=True)
            got = _log_weight(tuple(t.T), p, power)
            for row, value in zip(t, got):
                alpha = 1j * row
                ref = power * math.log(abs(p_sharp(alpha, p)))
                for j in range(n):
                    for k in range(n):
                        if j != k:
                            ref -= loggamma((alpha[j] - alpha[k]) / 2.0).real
                assert abs(value - ref) <= 1e-12, (n, power, R, row)

    def test_coincident_columns_are_zeros(self):
        # (1, 0, -1) is generic; t1 = t2 and t1 = t3 are zeros of the density
        p = TestFunctionParams(T=4.0, R=1)
        t1 = np.array([1.0, 0.5, 0.5])
        t2 = np.array([0.0, 0.5, -1.0])
        got = _log_weight((t1, t2, -t1 - t2), p, 1)
        assert np.isfinite(got[0])
        assert got[1] == -np.inf and got[2] == -np.inf


class TestAvatarOnLines:
    def test_batch_matches_single(self):
        p = TestFunctionParams(T=3.0, R=1)
        ys = [0.7, 1.3]
        batch = p_y_batch(ys, p)
        assert batch[0] == pytest.approx(p_y(0.7, p), rel=1e-14)
        assert batch[1] == pytest.approx(p_y(1.3, p), rel=1e-14)

    @pytest.mark.parametrize("T", [3.0, 4.0, 10.0])
    def test_independent_of_line(self, T):
        # no pole of the inner Gamma factors lies between Re s = 0.4 and 1.25
        p = TestFunctionParams(T=T, R=1)
        ys = np.linspace(0.4, 2.5, 5)
        ref = p_y_batch(ys, p, line=0.75)
        for line in (0.4, 1.25):
            assert p_y_batch(ys, p, line=line) == pytest.approx(ref, rel=1e-11, abs=0)

    def test_finite_real(self):
        v = p_y(1.0, TestFunctionParams(T=3.0, R=1))
        assert np.isfinite(v)

    def test_pole_lines_rejected(self):
        p = TestFunctionParams(T=3.0, R=1)
        with pytest.raises(ValueError):
            p_y(1.0, p, line=0.0)
        with pytest.raises(ValueError):
            p_y(1.0, p, line=-1.0)
        with pytest.raises(ValueError):
            p_y(-1.0, p)


class TestResidueTerm:
    def test_admissibility_gate(self):
        p = TestFunctionParams(T=3.0, R=1)
        assert residue_term(1.0, p, delta=0, a=(-0.5,)) == 0.0
        assert residue_term(1.0, p, delta=1, a=(0.75,)) == 0.0
        assert residue_term(1.0, p, delta=0, a=(0.75,)) != 0.0

    def test_ungated_evaluates(self):
        v = residue_term(1.2, TestFunctionParams(T=3.0, R=1), delta=0)
        assert np.isfinite(v) and v != 0.0


class TestDecomposition:
    def test_single_displacement(self):
        rep = residue_decomposition_check(TestFunctionParams(T=4.0, R=1), a=0.75)
        assert rep["max_rel_residual"] <= 1e-6
        assert rep["kappa_fit"] == pytest.approx(2.0, abs=1e-6)

    def test_two_displacements(self):
        rep = residue_decomposition_check(TestFunctionParams(T=4.0, R=1), a=1.6)
        assert rep["max_rel_residual"] <= 1e-8
        assert rep["kappa_fit"] == pytest.approx(2.0, abs=1e-8)

    def test_bad_shift_rejected(self):
        p = TestFunctionParams(T=4.0, R=1)
        with pytest.raises(ValueError):
            residue_decomposition_check(p, a=1.0)
        with pytest.raises(ValueError):
            residue_decomposition_check(p, a=-0.3)


class TestRankThreeAvatar:
    PARAMS = TestFunctionParams(T=1.5, R=1)

    def test_positive_y_required(self):
        with pytest.raises(ValueError):
            p_y_gl3((0.0, 1.0), self.PARAMS)

    def test_plane_matches_adaptive_quadrature(self):
        # same closed transform, two independent quadratures: uniform-grid
        # convolution against adaptive panel tensor integration
        from scipy.special import rgamma

        from kuznetsov_lab.mellin import mellin_gl3_closed
        from kuznetsov_lab.quadrature import vertical_plane_integral
        from kuznetsov_lab.testfunctions import _gl3_plane

        tau1, tau2 = 0.3, -0.1
        alpha = (1j * tau1, 1j * tau2, -1j * (tau1 + tau2))
        c1, c2 = math.log(math.pi * 0.9), math.log(math.pi * 1.1)

        def f(s1, s2):
            return mellin_gl3_closed(alpha, (s1, s2)) * np.exp(
                -2.0 * s1 * c1 - 2.0 * s2 * c2
            )

        ref = vertical_plane_integral(f, (0.75, 0.75), 1e-12) / (2j * math.pi) ** 2
        step = 0.125
        v = step * np.arange(-240, 241)
        u = 2.0 * v[0] + step * np.arange(2 * v.size - 1)
        rg = rgamma(1.5 + 1j * u)
        mine = _gl3_plane(c1, c2, tau1, tau2, 0.75, v, rg)
        assert abs(mine - ref) / abs(ref) < 1e-8

    def test_argument_swap_symmetry(self):
        # the transform's duality makes p(y1, y2) = p(y2, y1); the grids
        # map onto each other exactly under the swap
        a = p_y_gl3((0.8, 1.3), self.PARAMS)
        b = p_y_gl3((1.3, 0.8), self.PARAMS)
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_density_pin(self):
        # a regression pin, not an oracle: the value at the centre with the
        # density of p_sharp times the Plancherel density.  A density with
        # the pair polynomial at alpha in place of alpha/2 is off by O(1),
        # which the swap symmetry cannot see
        value = p_y_gl3((1.0, 1.0), self.PARAMS)
        assert value == pytest.approx(4.223367629629422e-07, rel=1e-9, abs=0.0)

    def test_spectral_step_stability(self):
        a = p_y_gl3((1.0, 1.0), self.PARAMS, spectral_step=0.5)
        b = p_y_gl3((1.0, 1.0), self.PARAMS, spectral_step=0.4)
        assert a > 0
        assert b == pytest.approx(a, rel=1e-10, abs=0.0)


def _itr_log_direct(a, params, dv=1.0 / 16):
    """The shifted-line norm integral as the plain double sum over t = k dv
    and u = m dv, with |u| <= t_max + 14 at every t (the integrand is below
    e^{-14 pi} of its peak beyond): no split of the u-range and no FFT."""
    k_max = math.ceil((2.7 * params.T + 12.0) / dv) - 1
    m_max = k_max + round(14.0 / dv)
    lg = loggamma(-a + 1j * dv * np.arange(-(k_max + m_max), k_max + m_max + 1)).real
    m = np.arange(-m_max, m_max + 1) + k_max + m_max  # index of u = m dv in lg
    log_inner = np.empty(k_max)
    for k in range(1, k_max + 1):
        s = lg[m + k] + lg[m - k]
        top = s.max()
        log_inner[k - 1] = top + math.log(np.sum(np.exp(s - top)) * dv)
    t = dv * np.arange(1, k_max + 1)
    li = _log_weight((2.0 * t, -2.0 * t), params, 1) + log_inner
    top = li.max()
    return top + math.log(2.0 * dv * np.sum(np.exp(li - top)))


# itr_log(1.25, T, R = 2) in bench/refs/scaling.json: the same sum on a 4x
# finer grid (step 1/64) over a wider window (t_factor 4.5, pad 24)
ITR_REFS = {
    32: 7.985326897327936,
    64: 9.198743635408281,
    128: 10.403745300778729,
    256: 11.607685187293493,
    512: 12.813114478281005,
}


class TestShiftedNormIntegral:
    @pytest.mark.parametrize("T", sorted(ITR_REFS))
    def test_frozen_references(self, T):
        value = itr_log(1.25, TestFunctionParams(T=float(T), R=2))
        assert value == pytest.approx(ITR_REFS[T], abs=1e-9)

    def test_grid_step_halving(self):
        p = TestFunctionParams(T=512.0, R=2)
        assert abs(itr_log(1.25, p, grid_step=1.0 / 32) - itr_log(1.25, p)) <= 1e-10

    @pytest.mark.parametrize("T", [8.0, 64.0])
    def test_matches_direct_double_sum(self, T):
        p = TestFunctionParams(T=T, R=1)
        assert itr_log(0.25, p) == pytest.approx(_itr_log_direct(0.25, p), abs=1e-9)

    def test_rounding_floor_raises(self):
        # h(2t) spans too many orders for FFT rounding at a = 3.5, T = 1024
        with pytest.raises(AccuracyError):
            itr_log(3.5, TestFunctionParams(T=1024.0, R=2))

    def test_local_slopes_rise_to_min_form(self):
        # criterion 11's a = 1.25 at large T: the doubling slopes rise toward
        # R + 3/2 - min(a + 1/2, 2a) = 1.75 and stay below it
        fit = itr_scaling(1.25, 2, tuple(512.0 * 2**j for j in range(6)))
        s = fit.local_slopes
        assert all(x < y for x, y in zip(s, s[1:]))
        assert s[-1] < 1.75
        assert 1.75 - s[-1] <= 3e-3

    def test_monotone_decreasing_on_small_shifts(self):
        p = TestFunctionParams(T=8.0, R=1)
        v1, v2, v3 = (itr_log(a, p) for a in (0.1, 0.3, 0.45))
        assert v1 > v2 > v3

    def test_negative_shift_comparable_to_tiny(self):
        p = TestFunctionParams(T=8.0, R=1)
        ratio = math.exp(itr_log(-0.25, p) - itr_log(0.01, p))
        assert 0.5 <= ratio <= 2.0

    def test_integer_shift_rejected(self):
        with pytest.raises(ValueError):
            itr_log(1.0, TestFunctionParams(T=8.0, R=1))

    def test_scaling_small_shift_matches_prediction(self):
        fit = itr_scaling(0.25, 2)
        assert fit.predicted == pytest.approx(3.0)
        assert fit.within <= 0.15

    def test_scaling_larger_shifts_track_min_form(self):
        # beyond a = 1/2 the measured growth follows min(a + 1/2, 2a),
        # which is strictly below the piecewise-step prediction there
        fit125 = itr_scaling(1.25, 2)
        assert abs(fit125.slope - (2 + 1.5 - min(1.25 + 0.5, 2 * 1.25))) <= 0.05
        fit075 = itr_scaling(0.75, 2)
        assert abs(fit075.slope - (2 + 1.5 - min(0.75 + 0.5, 2 * 0.75))) <= 0.15
        assert fit075.slope < fit075.predicted


class TestMainTermScaling:
    def test_rank_one(self):
        fit = main_term_scaling(2, 1)
        assert fit.predicted == 3
        assert fit.within <= 0.1

    def test_rank_two(self):
        fit = main_term_scaling(3, 1)
        assert fit.predicted == 14
        assert fit.within <= 0.3

    def test_unsupported_rank(self):
        with pytest.raises(NotImplementedError):
            main_term_log(4, 1, 8.0)


class TestFitMachinery:
    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_scaling([8, 16, 32], [1.0, 2.0, 3.0], 1.0)
        with pytest.raises(ValueError):
            fit_scaling([8, 16, 32, 64], [1.0, 2.0], 1.0)

    def test_exact_power_law(self):
        Ts = [8.0, 16.0, 32.0, 64.0]
        logs = [2.5 * math.log(T) + 1.0 for T in Ts]
        fit = fit_scaling(Ts, logs, 2.5)
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        assert fit.local_slopes == pytest.approx((2.5, 2.5, 2.5), abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)
        assert isinstance(fit, ScalingFit)
