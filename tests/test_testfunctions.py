"""Spectral test functions, contour-shift decomposition, scaling fits."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import loggamma

from kuznetsov_lab import testfunctions
from kuznetsov_lab.quadrature import AccuracyError
from kuznetsov_lab.testfunctions import (
    ScalingFit,
    TestFunctionParams,
    _log_weight,
    _outer_grid,
    _row_view,
    fit_scaling,
    h_value,
    itr_log,
    itr_scaling,
    main_term_log,
    main_term_scaling,
    p_sharp,
    p_y_batch,
    p_y_gl3,
    residue_decomposition_check,
    residue_term,
)
from kuznetsov_lab.special import subset_pairs

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


class TestRowView:
    FUNCTIONS = {
        "loggamma": lambda x: loggamma(0.5 + 1j * x),
        "log1p": lambda x: np.log1p(x**2 / 4.0),
        "square": lambda x: x**2,
    }

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    def test_equals_f_on_the_grid(self, name):
        # seeded affine forms v = sum c_j m_j: negative, zero and even
        # coefficients, odd starts, negative steps and single-point axes;
        # the view holds f(step * v) bit for bit at every grid point
        f, step = self.FUNCTIONS[name], 3.0 / 37.0
        rng = np.random.default_rng(27)
        for case in range(60):
            n_axes = 1 + case % 3
            axes = []
            for _ in range(n_axes):
                start, length = int(rng.integers(-9, 10)), int(rng.choice([1, 2, 5, 9]))
                stride = int(rng.choice([-3, -2, -1, 1, 2, 3]))
                axes.append(range(start, start + stride * length, stride))
            coef = rng.integers(-3, 4, size=n_axes) * (2 if case % 4 == 0 else 1)
            grid = np.meshgrid(*(np.array(a) for a in axes), indexing="ij")
            v = sum(c * m for c, m in zip(coef, grid))
            got = _row_view(f, tuple(axes), coef, step)
            assert got.shape == v.shape
            assert np.array_equal(got, f(step * v)), (axes, coef)

    def test_one_row_point_per_value_on_one_axis(self):
        sizes = []
        got = _row_view(lambda x: sizes.append(x.size) or x, (range(7, -20, -3),), (-2,), 1.0)
        assert sizes == [9]
        assert got.tolist() == [-2.0 * m for m in range(7, -20, -3)]

    def test_view_is_read_only(self):
        got = _row_view(lambda x: x**2, (range(3), range(-1, 2)), (1, -1), 0.5)
        with pytest.raises(ValueError):
            got[0, 0] = 1.0


class TestLogWeight:
    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_is_p_sharp_power_times_plancherel(self, n, power):
        # the one density every integral here uses, against the scalar
        # definition: power log|p_sharp(i t)| - sum_{j != k} Re log Gamma(i (t_j - t_k)/2)
        # on the step 3/37, whose points miss every dyadic grid, with rows
        # of integers in [-37, 37] that sum to 0
        rng = np.random.default_rng(100 * n + power)
        step = 3.0 / 37.0
        for R in (1, 2):
            p = TestFunctionParams(T=4.0, R=R)
            m = rng.integers(-37, 38, size=(64, n - 1))
            m = np.column_stack([m, -m.sum(axis=1)])
            m = m[np.abs(m[:, -1]) <= 37][:8]
            assert len(m) == 8
            for row, t in zip(m, step * m):
                # the row as single-point axes; the last column is minus their sum
                axes = tuple(range(x, x + 1) for x in row[:-1])
                (value,) = _log_weight(axes, step, p, power).ravel()
                alpha = 1j * t
                ref = power * math.log(abs(p_sharp(alpha, p)))
                for j in range(n):
                    for k in range(n):
                        if j != k:
                            ref -= loggamma((alpha[j] - alpha[k]) / 2.0).real
                assert abs(value - ref) <= 1e-12, (n, power, R, row)

    def test_plane_equals_its_rows(self):
        # a plane and each of its rows view every term from rows over
        # different integer ranges; step * m is the same float in both, so
        # they agree bit for bit, also on the non-dyadic step 3/37
        p = TestFunctionParams(T=4.0, R=2)
        m = range(-37, 38)
        plane = _log_weight((m, m), 3.0 / 37.0, p, 2)
        rows = [_log_weight((range(a, a + 1), m), 3.0 / 37.0, p, 2)[0] for a in m]
        assert np.array_equal(plane, np.array(rows))

    @pytest.mark.parametrize("step", [0.5, 3.0 / 37.0], ids=["step-1/2", "step-3/37"])
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_plane_is_point_symmetric(self, R, step):
        # every row the density views is even bit for bit: Re loggamma at
        # conjugate points, log1p(x^2/4), x^2, and step * -k = -(step * k).
        # main_term_log computes the rows m1 >= 0 and mirrors the rest on this
        m = range(-60, 61)
        li = _log_weight((m, m), step, TestFunctionParams(T=4.0, R=R), 2)
        assert np.array_equal(li, li[::-1, ::-1])

    @pytest.mark.parametrize("step", [0.5, 3.0 / 37.0], ids=["step-1/2", "step-3/37"])
    def test_half_plane_axes_give_the_full_plane_rows(self, step):
        # main_term_log's axes, the rows m1 >= 0 only, against the full
        # plane's rows m1 >= 0
        p = TestFunctionParams(T=4.0, R=2)
        m = range(-60, 61)
        plane = _log_weight((m, m), step, p, 2)
        assert np.array_equal(_log_weight((range(61), m), step, p, 2), plane[60:])

    def test_rank_one_ring_slope(self):
        # at the columns (2t, -2t) the density is its Gamma ring
        # log |Gamma_R(2it) Gamma_R(-2it)|: no subset pairs at n = 2, and at
        # T = 1e12 the Gaussian term 4 t^2 / T^2 is below the ring's rounding.
        # Less pi |t|, the ring grows like (R + 1/2) log t
        ts = np.array([50, 100, 200, 400])
        for R in (1, 2):
            p = TestFunctionParams(T=1e12, R=R)
            ring = np.array([_log_weight((range(2 * t, 2 * t + 1),), 1.0, p, 1)[0] for t in ts])
            slope = np.polyfit(np.log(ts), ring - math.pi * ts, 1)[0]
            assert abs(slope - (R + 0.5)) < 0.02

    def test_coincident_columns_are_zeros(self):
        # (1, 0, -1) is generic; t1 = t2 and t1 = t3 are zeros of the density
        # each read from the grid m1 in {1, 2}, m2 in {-2, ..., 1} that holds all three
        p = TestFunctionParams(T=4.0, R=1)
        plane = _log_weight((range(1, 3), range(-2, 2)), 0.5, p, 1)
        got = [plane[a - 1, b + 2] for a, b in ((2, 0), (1, 1), (1, -2))]
        assert np.isfinite(got[0])
        assert got[1] == -np.inf and got[2] == -np.inf


class TestAvatarOnLines:
    def test_batch_matches_single(self):
        p = TestFunctionParams(T=3.0, R=1)
        ys = [0.7, 1.3]
        batch = p_y_batch(ys, p)
        for y, value in zip(ys, batch):
            assert value == p_y_batch([y], p)[0]

    @pytest.mark.parametrize("T", [3.0, 4.0, 10.0])
    def test_independent_of_line(self, T):
        # no pole of the inner Gamma factors lies between Re s = 0.4 and 1.25
        p = TestFunctionParams(T=T, R=1)
        ys = np.linspace(0.4, 2.5, 5)
        ref = p_y_batch(ys, p, line=0.75)
        for line in (0.4, 1.25):
            assert p_y_batch(ys, p, line=line) == pytest.approx(ref, rel=1e-11, abs=0)

    def test_finite_real(self):
        v = p_y_batch([1.0], TestFunctionParams(T=3.0, R=1))
        assert v.shape == (1,) and np.isfinite(v[0])

    def test_pole_lines_rejected(self):
        p = TestFunctionParams(T=3.0, R=1)
        with pytest.raises(ValueError):
            p_y_batch([1.0], p, line=0.0)
        with pytest.raises(ValueError):
            p_y_batch([1.0], p, line=-1.0)
        with pytest.raises(ValueError):
            p_y_batch([-1.0], p)


def residue_reference(y, params, delta):
    """One residue term on its own: the outer grid and its Gamma line
    rebuilt for the single y."""
    t, base = _outer_grid(params)
    g = loggamma(-delta - 2j * t)
    c = math.log(math.pi * y)
    phase = np.exp(base + g.real + 1j * (g.imag + 2.0 * t * c))
    total = np.sum(phase) / 16.0 * (-1.0) ** delta / math.factorial(delta)
    pref = math.sqrt(y) * math.exp(2.0 * delta * c) / (2.0 * math.pi)
    return float((pref * total).real)


class TestResidueTerm:
    def test_ungated_evaluates(self):
        v = residue_term([1.2], TestFunctionParams(T=3.0, R=1), delta=0)
        assert v.shape == (1,) and np.isfinite(v[0]) and v[0] != 0.0

    @pytest.mark.parametrize("T", [3.0, 4.0])
    @pytest.mark.parametrize("delta", [0, 1])
    def test_batch_matches_per_y_reference(self, T, delta):
        # one grid and Gamma line for every y leaves each value bit for bit
        p = TestFunctionParams(T=T, R=1)
        ys = np.geomspace(0.4, 2.5, 10)
        batch = residue_term(ys, p, delta)
        assert batch.tolist() == [residue_reference(y, p, delta) for y in ys]

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_nonfinite_or_nonpositive_y_rejected(self, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            residue_term([1.0, bad], TestFunctionParams(T=3.0, R=1))


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
            p_y_gl3([(0.0, 1.0)], self.PARAMS)

    def test_single_pair_not_a_pair_list(self):
        with pytest.raises(ValueError, match="pairs"):
            p_y_gl3((1.0, 1.0), self.PARAMS)

    def test_plane_matches_adaptive_quadrature(self):
        # same closed transform, two independent quadratures: a fixed grid
        # of step 1/8 against the adaptive rule at step 1/32 with its own
        # window and estimate, which takes the closed form as its Gamma row
        # in s1, its Gamma column in s2 and 1/Gamma(s1 + s2)
        from scipy.special import loggamma, rgamma

        from kuznetsov_lab.quadrature import vertical_plane_integral
        from kuznetsov_lab.testfunctions import _gl3_plane

        tau1, tau2 = 0.3, -0.1
        alpha = (1j * tau1, 1j * tau2, -1j * (tau1 + tau2))
        c1, c2 = math.log(math.pi * 0.9), math.log(math.pi * 1.1)

        def row(s1):
            return np.exp(sum(loggamma(s1 + a) for a in alpha) - 2.0 * s1 * c1)

        def column(s2):
            return np.exp(sum(loggamma(s2 - a) for a in alpha) - 2.0 * s2 * c2)

        ref = vertical_plane_integral(row, column, rgamma, (0.75, 0.75), 1e-12) / (2j * math.pi) ** 2
        step = 0.125
        v = step * np.arange(-240, 241)
        u = 2.0 * v[0] + step * np.arange(2 * v.size - 1)
        rg = rgamma(1.5 + 1j * u)
        (mine,) = _gl3_plane([(c1, c2)], np.array([tau1]), np.array([tau2]), np.ones(1), 0.75, v, rg)
        assert abs(mine - ref) / abs(ref) < 1e-8

    def test_argument_swap_symmetry(self):
        # the transform's duality makes p(y1, y2) = p(y2, y1); the grids
        # map onto each other exactly under the swap
        a, b = p_y_gl3([(0.8, 1.3), (1.3, 0.8)], self.PARAMS)
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_density_pin(self):
        # a regression pin, not an oracle: the value at the centre with the
        # density of p_sharp times the Plancherel density.  A density with
        # the pair polynomial at alpha in place of alpha/2 is off by O(1),
        # which the swap symmetry cannot see
        (value,) = p_y_gl3([(1.0, 1.0)], self.PARAMS)
        assert value == pytest.approx(4.223367629629422e-07, rel=1e-9, abs=0.0)

    def test_spectral_step_stability(self):
        (a,) = p_y_gl3([(1.0, 1.0)], self.PARAMS, spectral_step=0.5)
        (b,) = p_y_gl3([(1.0, 1.0)], self.PARAMS, spectral_step=0.4)
        assert a > 0
        assert b == pytest.approx(a, rel=1e-10, abs=0.0)

    def test_batched_plane_equals_scalar_calls(self):
        # guards the distinct-shift gather: nodes at steps 0.5 and 0.4 put
        # the shifts off the Mellin grid and make tau1 + tau2 a float sum.
        # A wrong gather moves a node by O(1).  The plane at tau = 0 sums
        # terms 4.5e5 times its value, so the summation order alone
        # (one field for the weighted block against one per node) moves it
        # by up to 6e-12 relative, within eps times that ratio, 1e-10
        from scipy.special import rgamma

        from kuznetsov_lab.testfunctions import _gl3_plane

        step = 0.125
        v = step * np.arange(-160, 161)
        rg = rgamma(1.5 + 1j * (2.0 * v[0] + step * np.arange(2 * v.size - 1)))
        c1, c2 = math.log(math.pi * 0.8), math.log(math.pi * 1.3)
        for spectral_step in (0.5, 0.4):
            tau = spectral_step * np.arange(-5, 6)
            t1, t2 = (g.ravel() for g in np.meshgrid(tau, tau, indexing="ij"))
            # weights of one size, so every node's plane counts in the sum
            weight = np.random.default_rng(0).uniform(0.5, 1.5, t1.size)
            batched = _gl3_plane([(c1, c2)], t1, t2, weight, 0.75, v, rg)
            assert batched.shape == (1,)
            summed = sum(_gl3_plane([(c1, c2)], t1[k : k + 1], t2[k : k + 1], weight[k : k + 1], 0.75, v, rg)
                         for k in range(t1.size))
            assert batched[0] == pytest.approx(summed[0], rel=1e-10, abs=0.0)

    def test_pair_list_matches_per_pair_calls(self):
        # every pair reads the same field, so one call gives each pair's
        # value as its own call does, up to the order of the phase reads
        pairs = [(0.8, 1.3), (1.3, 0.8), (1.0, 1.0), (0.6, 1.7)]
        values = p_y_gl3(pairs, self.PARAMS)
        assert values.shape == (4,)
        for y, value in zip(pairs, values):
            (alone,) = p_y_gl3([y], self.PARAMS)
            assert value == pytest.approx(alone, rel=1e-13, abs=0.0)
        assert values[0] == pytest.approx(values[1], rel=1e-12, abs=0.0)

    def test_spectral_sum_built_once_per_call(self, monkeypatch):
        from kuznetsov_lab import testfunctions

        calls = []
        real = testfunctions._log_weight
        monkeypatch.setattr(testfunctions, "_log_weight", lambda *a: calls.append(a) or real(*a))
        p_y_gl3([(0.8, 1.3), (1.3, 0.8), (1.0, 1.0)], self.PARAMS)
        assert len(calls) == 1
        # the plane is given as its two integer axes
        axes = calls[0][0]
        assert len(axes) == 2 and all(isinstance(a, range) for a in axes)

    def test_larger_T_pin_and_swap_symmetry(self):
        # a regression pin, not an oracle: the sum over every spectral node
        # with a finite density
        params = TestFunctionParams(T=3.0, R=1)
        centre, a, b = p_y_gl3([(1.0, 1.0), (0.8, 1.3), (1.3, 0.8)], params)
        assert centre == pytest.approx(3.611571741128004e-05, rel=1e-12, abs=0.0)
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_spectral_steps_agree_at_larger_T(self):
        # the spectral sum converges faster than any power of the step, so
        # steps 0.5 and 0.4 meet within rounding when every node is summed:
        # nodes of small density carry plane values that are not small
        params = TestFunctionParams(T=3.0, R=1)
        (a,) = p_y_gl3([(1.0, 1.0)], params, spectral_step=0.5)
        (b,) = p_y_gl3([(1.0, 1.0)], params, spectral_step=0.4)
        assert b == pytest.approx(a, rel=1e-12, abs=0.0)


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
    li = _log_weight((range(2, 2 * k_max + 1, 2),), dv, params, 1) + log_inner
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

    def test_gamma_rows_hold_one_point_per_grid_value(self, monkeypatch):
        # the density's two Gamma rows at d = 4k read loggamma once per k;
        # the third call is the inner line h(v)
        sizes = []
        real = testfunctions.loggamma
        monkeypatch.setattr(testfunctions, "loggamma", lambda z: sizes.append(np.size(z)) or real(z))
        itr_log(1.25, TestFunctionParams(T=8.0, R=1))
        n_k = math.ceil((2.7 * 8.0 + 12.0) * 16) - 1
        assert len(sizes) == 3 and sizes.count(n_k) == 2

    @pytest.mark.parametrize("T", [1e-300, 1e-170])
    def test_tiny_T_raises(self, T):
        # the Gaussian underflows at every grid point: no finite density
        with pytest.raises(ValueError, match=f"T = {T}"):
            itr_log(1.25, TestFunctionParams(T=T, R=1))

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


def _main_term_log_float_columns(n, R, T):
    """main_term_log summed point by point: float columns t_j on the same
    grid, and loggamma, log1p and the squares taken on every point's own
    float differences, in _log_weight's order of summation."""
    if n == 2:
        t = np.arange(1.0 / 16, 3.2 * T + 20.0, 1.0 / 8)
        cols, cell = (t, -t), 2.0 / 8.0
    else:
        g = np.arange(-3.0 * T - 15.0, 3.0 * T + 15.0 + 0.25, 0.5)
        t1, t2 = np.meshgrid(g, g, indexing="ij")
        cols, cell = (t1, t2, -t1 - t2), 0.5 * 0.5
    power, ring, coincide = 2, 0.0, False
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, k in itertools.combinations(range(len(cols)), 2):
            d = cols[j] - cols[k]
            ring += 2.0 * power * loggamma((1.0 + 2.0 * R + 1j * d) / 4.0).real
            ring -= 2.0 * loggamma(0.5j * d).real
            coincide = coincide | (d == 0.0)
        poly = sum(
            np.log1p((sum(cols[k] for k in K) - sum(cols[l] for l in L)) ** 2 / 4.0)
            for K, L in subset_pairs(len(cols))
        )
        out = -power * sum(c**2 for c in cols) / (2.0 * T**2) + power * (R / 2.0) * poly
        out += ring
    li = np.where(coincide, -np.inf, out)
    mx = li.max()
    return float(mx + math.log(np.sum(np.exp(li - mx)) * cell))


class TestMainTermScaling:
    def test_rank_one(self):
        fit = main_term_scaling(2, 1)
        assert fit.predicted == 3
        assert fit.within <= 0.1

    def test_rank_two(self):
        fit = main_term_scaling(3, 1)
        assert fit.predicted == 14
        assert fit.within <= 0.3

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("T", [1e-300, 1e-170])
    def test_tiny_T_raises(self, n, T):
        # 2 T^2 underflows, so the Gaussian is 0 at every grid point
        with pytest.raises(ValueError, match=f"T = {T}"):
            main_term_log(n, 1, T)

    def test_unsupported_rank(self):
        with pytest.raises(NotImplementedError):
            main_term_log(4, 1, 8.0)

    @pytest.mark.parametrize(
        "n, T",
        [(3, 8.0), (3, 16.0), (3, 32.0), (3, 64.0), (2, 16.0), (2, 128.0)],
        ids=["n3-T8", "n3-T16", "n3-T32", "n3-T64", "n2-T16", "n2-T128"],
    )
    def test_pinned_to_float_column_sum(self, n, T):
        # on the dyadic grids the gather by integer index changes no bit
        assert main_term_log(n, 1, T) == _main_term_log_float_columns(n, 1, T)

    @pytest.mark.parametrize("R", [2, 3])
    def test_pinned_to_float_column_sum_at_higher_order(self, R):
        assert main_term_log(3, R, 16.0) == _main_term_log_float_columns(3, R, 16.0)

    def test_rank_three_peak_memory(self):
        # at T = 64 the plane has 829^2 points; the traced peak stays under
        # five plane-sized float64 arrays
        main_term_log(3, 1, 8.0)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            main_term_log(3, 1, 64.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 829**2 * 8


class TestFitMachinery:
    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_scaling([8, 16, 32], [1.0, 2.0, 3.0], 1.0)
        with pytest.raises(ValueError):
            fit_scaling([8, 16, 32, 64], [1.0, 2.0], 1.0)

    @pytest.mark.parametrize(
        "Ts, logs",
        [
            ([8.0, 16.0, 32.0, -64.0], [1.0, 2.0, 3.0, 4.0]),
            ([8.0, 16.0, 32.0, math.inf], [1.0, 2.0, 3.0, 4.0]),
            ([8.0, 16.0, 32.0, math.nan], [1.0, 2.0, 3.0, 4.0]),
            ([8.0, 16.0, 32.0, 64.0], [1.0, 2.0, 3.0, -math.inf]),
        ],
        ids=["negative-T", "inf-T", "nan-T", "inf-log"],
    )
    def test_rejects_nonfinite_or_nonpositive_input(self, Ts, logs):
        with pytest.raises(ValueError, match="positive and finite"):
            fit_scaling(Ts, logs, 1.0)

    def test_rejects_repeated_scale(self):
        # a repeated T used to give a RankWarning and infinite local slopes
        with pytest.raises(ValueError, match="distinct"):
            fit_scaling([8, 8, 8, 8], [1, 2, 3, 4], 1.0)
        with pytest.raises(ValueError, match="distinct"):
            fit_scaling([8, 16, 16, 32], [1, 2, 3, 4], 1.0)

    def test_exact_power_law(self):
        Ts = [8.0, 16.0, 32.0, 64.0]
        logs = [2.5 * math.log(T) + 1.0 for T in Ts]
        fit = fit_scaling(Ts, logs, 2.5)
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        assert fit.local_slopes == pytest.approx((2.5, 2.5, 2.5), abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)
        assert isinstance(fit, ScalingFit)
