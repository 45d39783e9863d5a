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
    _outer_grid,
    _pair_share,
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

    @pytest.mark.parametrize("line", [0.75, 1.0])
    def test_cancelling_column_sums_raise(self, line):
        # each col(u) is itself a cancelling sum over t: here the lines
        # 0.75 and 1.0 differ by 1.06e-6 relative
        with pytest.raises(AccuracyError, match="the phase sum cancels by a factor"):
            p_y_batch([1.107], TestFunctionParams(T=10.0, R=20), line=line)

    def test_past_the_float_range_raises(self):
        # this returned NaN after two RuntimeWarnings
        with pytest.raises(ValueError, match="p_sharp passes the float range"):
            p_sharp((300.0, -300.0), TestFunctionParams(T=10.0, R=1))


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

    def test_past_p_sharp_underflow(self):
        # |p_sharp| is 8.0e-340 here and h about 1563: h is taken in log
        # space, so it does not need p_sharp in the float range.  The value
        # is mpmath's at 30 digits, frozen (F_R is 1 at n = 2)
        assert h_value((500j, -500j), TestFunctionParams(T=1e4, R=1)) == pytest.approx(
            1562.9611659482168, rel=1e-11
        )

    def test_below_the_float_range_is_zero(self):
        # log h is about -1780: this raised a bare "math domain error"
        assert h_value((300j, -300j), TestFunctionParams(T=10.0, R=1)) == 0.0

    def test_past_the_float_range_raises(self):
        with pytest.raises(ValueError, match="h passes the float range"):
            h_value((1e5j, -1e5j), TestFunctionParams(T=1e9, R=50))

    def test_positive_and_symmetric(self):
        p = TestFunctionParams(T=8.0, R=2)
        a = (0.7j, -0.2j, -0.5j)
        v = h_value(a, p)
        assert v > 0
        assert h_value((-0.2j, -0.5j, 0.7j), p) == pytest.approx(v, rel=1e-10)


class TestLogWeight:
    """The log weight, power log|p_sharp| plus the log Plancherel density,
    as every integral reads it: the sum of :func:`_pair_share` over the
    pair differences."""

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    def test_is_p_sharp_power_times_plancherel(self, n, power):
        # the one density every integral here uses, against the scalar
        # definition: power log|p_sharp(i t)| - sum_{j != k} Re log Gamma(i (t_j - t_k)/2)
        # on the step 3/37, whose points miss every dyadic grid, with rows
        # of integers in [-37, 37] that sum to 0; every pair's share is read
        # from one row over the differences |k| <= 74
        rng = np.random.default_rng(100 * n + power)
        step = 3.0 / 37.0
        for R in (1, 2):
            p = TestFunctionParams(T=4.0, R=R)
            share = _pair_share(n, step * np.arange(-74, 75), p, power)
            m = rng.integers(-37, 38, size=(64, n - 1))
            m = np.column_stack([m, -m.sum(axis=1)])
            m = m[np.abs(m[:, -1]) <= 37][:8]
            assert len(m) == 8
            for row, t in zip(m, step * m):
                value = sum(share[74 + row[j] - row[k]] for j, k in itertools.combinations(range(n), 2))
                alpha = 1j * t
                ref = power * math.log(abs(p_sharp(alpha, p)))
                for j in range(n):
                    for k in range(n):
                        if j != k:
                            ref -= loggamma((alpha[j] - alpha[k]) / 2.0).real
                assert abs(value - ref) <= 1e-12, (n, power, R, row)

    @pytest.mark.parametrize("step", [0.5, 3.0 / 37.0], ids=["step-1/2", "step-3/37"])
    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_plane_is_point_symmetric(self, R, step):
        # the pair share is even bit for bit: Re loggamma at conjugate
        # points, log1p(d^2/4), d^2, and step * -k = -(step * k); so is the
        # rank-three plane read from it at m1 - m2, 2 m1 + m2 and m1 + 2 m2
        p = TestFunctionParams(T=4.0, R=R)
        shares = [_pair_share(n, step * np.arange(-180, 181), p, 2) for n in (2, 3)]
        assert all(np.array_equal(share, share[::-1]) for share in shares)
        share = shares[1]
        m1, m2 = np.ogrid[-60:61, -60:61]
        li = share[180 + m1 - m2] + share[180 + 2 * m1 + m2] + share[180 + m1 + 2 * m2]
        assert np.array_equal(li, li[::-1, ::-1])

    def test_rank_one_ring_slope(self):
        # at the columns (2t, -2t) the density is its Gamma ring
        # log |Gamma_R(2it) Gamma_R(-2it)|: no subset pairs at n = 2, and at
        # T = 1e12 the Gaussian term 4 t^2 / T^2 is below the ring's rounding.
        # Less pi |t|, the ring grows like (R + 1/2) log t
        ts = np.array([50, 100, 200, 400])
        for R in (1, 2):
            ring = _pair_share(2, 4.0 * ts, TestFunctionParams(T=1e12, R=R), 1)
            slope = np.polyfit(np.log(ts), ring - math.pi * ts, 1)[0]
            assert abs(slope - (R + 0.5)) < 0.02

    @pytest.mark.parametrize(
        "n, density",
        [
            (2, _outer_grid),
            (2, lambda p: itr_log(0.25, p)),
            (2, lambda p: main_term_log(2, p.R, p.T)),
            (3, lambda p: main_term_log(3, p.R, p.T)),
            (3, lambda p: p_y_gl3([(1.0, 1.0)], p)),
        ],
        ids=["outer-grid", "itr-log", "main-term-n2", "main-term-n3", "p-y-gl3"],
    )
    def test_every_density_is_evaluated_by_the_pair_share(self, monkeypatch, n, density):
        # the pair share is the density's one definition: each integral
        # evaluates it once, on one row of differences, and at its own n
        calls = []
        real = testfunctions._pair_share

        def spy(rank, d, params, power):
            calls.append((rank, np.ndim(d)))
            return real(rank, d, params, power)

        monkeypatch.setattr(testfunctions, "_pair_share", spy)
        density(TestFunctionParams(T=1.5, R=1))
        assert calls == [(n, 1)]

    def test_rank_four_is_not_a_sum_of_pair_shares(self):
        with pytest.raises(NotImplementedError, match="n = 4"):
            _pair_share(4, np.zeros(1), TestFunctionParams(T=4.0, R=1), 1)

    def test_coincident_columns_are_zeros(self):
        # the share is -inf at d = 0 and finite off it; at n = 3 the columns
        # t = (1, 0, -1) / 2 give a finite density and t1 = t2, t1 = t3
        # zeros, each read at its pair differences m1 - m2, 2 m1 + m2, m1 + 2 m2
        p = TestFunctionParams(T=4.0, R=1)
        shares = [_pair_share(n, 0.5 * np.arange(-6, 7), p, 1) for n in (2, 3)]
        for share in shares:
            assert share[6] == -np.inf
            assert np.all(np.isfinite(np.delete(share, 6)))
        share = shares[1]
        got = [share[6 + a - b] + share[6 + 2 * a + b] + share[6 + a + 2 * b] for a, b in ((1, 0), (1, 1), (1, -2))]
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

    @pytest.mark.parametrize("line", [0.75, -0.75])
    @pytest.mark.parametrize("R", [1, 2])
    def test_equals_plain_double_sum(self, R, line):
        # the field sum_t e^base(t) Gamma(line + i (u + t)) Gamma(line + i (u - t))
        # with loggamma taken at every (t, u) pair: no window of a Gamma line
        # and no blocks over t; t > 0 counted twice, as the integrand is even
        p = TestFunctionParams(T=1.5, R=R)
        t, base = _outer_grid(p)
        t, base = t[t > 0], base[t > 0]
        u = (np.arange(-t.size - 256, t.size + 256) + 0.5) * testfunctions._STEP
        tt, uu = np.meshgrid(t, u, indexing="ij")
        field = np.exp(base[:, None] + loggamma(line + 1j * (uu + tt)) + loggamma(line + 1j * (uu - tt)))
        col = field.sum(axis=0)
        ys = np.geomspace(0.4, 2.5, 7)
        ref = np.array(
            [
                (
                    2.0 * testfunctions._STEP**2 * math.sqrt(y) * (math.pi * y) ** (-2.0 * line)
                    * np.sum(col * (math.pi * y) ** (-2j * u)) / (2.0 * math.pi) ** 2
                ).real
                for y in ys
            ]
        )
        # relative to the peak: on Re(s) = 0.75 the avatar at y = 2.5 is
        # 5e-6 of it, and its sums cancel to that size
        assert np.abs(p_y_batch(ys, p, line=line) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("line", [0.75, -0.75])
    def test_equals_blocked_log_field(self, line):
        # the field exponentiated at every node, as a sum of
        # e^(base + loggamma + loggamma) over blocks of 128 t rows on the
        # full u grid, at a point whose phase sum cancels by 8e3
        p = TestFunctionParams(T=16.0, R=3)
        t, base = _outer_grid(p)
        t, base = t[t > 0], base[t > 0]
        u = (np.arange(-t.size - 256, t.size + 256) + 0.5) * testfunctions._STEP
        col = np.zeros(u.size, dtype=complex)
        for lo in range(0, t.size, 128):
            tt = t[lo : lo + 128, None]
            lg = loggamma(line + 1j * (u + tt)) + loggamma(line + 1j * (u - tt))
            col += np.exp(base[lo : lo + 128, None] + lg).sum(axis=0)
        ys = np.geomspace(0.4, 2.5, 10)
        ref = np.array(
            [
                (
                    2.0 * testfunctions._STEP**2 * math.sqrt(y) * (math.pi * y) ** (-2.0 * line)
                    * np.sum(col * (math.pi * y) ** (-2j * u)) / (2.0 * math.pi) ** 2
                ).real
                for y in ys
            ]
        )
        assert np.abs(p_y_batch(ys, p, line=line) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("T, R", [(64.0, 3), (100.0, 1)])
    def test_independent_of_line_at_large_T(self, T, R):
        # the phase sum cancels by up to 6e7 at (64, 3) and 2e5 at (100, 1)
        p = TestFunctionParams(T=T, R=R)
        ys = np.geomspace(0.4, 2.5, 10)
        ref = p_y_batch(ys, p, line=0.75)
        assert np.isfinite(ref).all()
        assert np.abs(p_y_batch(ys, p, line=1.0) - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_cancelling_phase_sum_raises(self):
        # this returned -1.3e26, which moved by 6% from line to line
        with pytest.raises(AccuracyError, match="the phase sum cancels by a factor"):
            p_y_batch([1.0], TestFunctionParams(T=64.0, R=20))

    def test_past_the_float_range_raises(self):
        # this returned NaN
        with pytest.raises(AccuracyError, match="passes the float range"):
            p_y_batch([1.0], TestFunctionParams(T=10.0, R=200))

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

    def test_negative_delta_rejected_by_name(self):
        with pytest.raises(ValueError, match="^delta must be nonnegative, got -1$"):
            residue_term([1.0], TestFunctionParams(T=3.0, R=1), -1)


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

    def test_large_T_raises_before_summing(self):
        # at T = 40 the sum grid reaches |Im| about 530, where 1/Gamma overflows
        with pytest.raises(AccuracyError, match="reciprocal coupling overflows"):
            p_y_gl3([(1.0, 1.0)], TestFunctionParams(T=40.0, R=1))

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
        # one row of pair shares per call, at the 6 n_t + 1 = 109 pair
        # differences of the 37 x 37 nodes |m1|, |m2| <= n_t = 18 at T = 1.5,
        # not 3 x 37^2 evaluations on the plane
        shapes = []
        real = testfunctions._pair_share
        monkeypatch.setattr(testfunctions, "_pair_share", lambda n, d, *a: shapes.append(np.shape(d)) or real(n, d, *a))
        p_y_gl3([(0.8, 1.3), (1.3, 0.8), (1.0, 1.0)], self.PARAMS)
        assert shapes == [(109,)]

    @pytest.mark.parametrize("T", [1.5, 3.0])
    @pytest.mark.parametrize("spectral_step", [0.5, 0.4])
    def test_orbit_sum_equals_node_sum(self, monkeypatch, T, spectral_step):
        # the plane's integrand depends on the multiset {t1, t2, t3} only, so
        # one representative per S3 orbit, weighted by its members' summed
        # weights, gives the sum over every kept node with its own weight up
        # to the order of summation.  The weights are compared per orbit as
        # well, so a dropped or doubled member shows at any size
        calls = {}
        real_plane = testfunctions._gl3_plane
        monkeypatch.setattr(testfunctions, "_gl3_plane", lambda *a: calls.setdefault("plane", (a, real_plane(*a)))[1])
        p = TestFunctionParams(T=T, R=1)
        p_y_gl3([(1.0, 1.0), (0.8, 1.3)], p, spectral_step=spectral_step)
        (log_py, tau1, tau2, weight, line, v, rg), grouped = calls["plane"]
        # the density at every node of the square window, each pair share
        # evaluated at the node's own difference
        n_t = math.ceil((3.2 * T + 4.0) / spectral_step)
        m1, m2 = np.meshgrid(np.arange(-n_t, n_t + 1), np.arange(-n_t, n_t + 1), indexing="ij")
        dens = sum(_pair_share(3, spectral_step * d, p, 1) for d in (m1 - m2, 2 * m1 + m2, m1 + 2 * m2))
        i1, i2 = np.nonzero(np.isfinite(dens))
        m1, m2, node_weight = i1 - n_t, i2 - n_t, np.exp(dens[i1, i2])
        orbit_weight = {}
        for a, b, w in zip(m1.tolist(), m2.tolist(), node_weight.tolist()):
            key = tuple(sorted((a, b, -a - b)))
            orbit_weight[key] = orbit_weight.get(key, 0.0) + w
        passed = {}
        for t1, t2, w in zip(tau1.tolist(), tau2.tolist(), weight.tolist()):
            a, b = round(t1 / spectral_step), round(t2 / spectral_step)
            key = tuple(sorted((a, b, -a - b)))
            assert key not in passed
            passed[key] = w
        assert passed.keys() == orbit_weight.keys()
        for key, w in orbit_weight.items():
            assert passed[key] == pytest.approx(w, rel=1e-14, abs=0.0)
        summed = real_plane(log_py, spectral_step * m1, spectral_step * m2, node_weight, line, v, rg)
        assert np.all(np.abs(grouped - summed) <= 1e-12 * np.abs(summed))

    def test_one_field_row_per_orbit(self, monkeypatch):
        # 1296 kept nodes at T = 1.5, step 0.5, fall into 324 orbits
        sizes = []
        real = testfunctions._gl3_plane
        monkeypatch.setattr(testfunctions, "_gl3_plane", lambda *a: sizes.append(a[1].size) or real(*a))
        p_y_gl3([(1.0, 1.0)], self.PARAMS)
        assert sizes == [324]

    def test_plane_exponentiates_one_line_field(self, monkeypatch):
        # one loggamma call over the distinct shifts, exponentiated once per
        # shift: a point's row field is the product of three of those rows,
        # and the column field is its mirrored conjugate
        from scipy.special import rgamma

        from kuznetsov_lab.testfunctions import _gl3_plane

        step = 0.125
        v = step * np.arange(-160, 161)
        rg = rgamma(1.5 + 1j * (2.0 * v[0] + step * np.arange(2 * v.size - 1)))
        tau = 0.5 * np.arange(-3, 4)
        t1, t2 = (g.ravel() for g in np.meshgrid(tau, tau, indexing="ij"))
        gamma_rows, exp_shapes = [], []
        real_lg, real_exp = testfunctions.loggamma, np.exp
        monkeypatch.setattr(testfunctions, "loggamma", lambda z: gamma_rows.append(np.shape(z)) or real_lg(z))
        monkeypatch.setattr(np, "exp", lambda z: exp_shapes.append(np.shape(z)) or real_exp(z))
        _gl3_plane([(0.1, -0.2)], t1, t2, np.ones(t1.size), 0.75, v, rg)
        monkeypatch.undo()
        shifts = np.unique(np.concatenate([tau, -(t1 + t2)])).size
        assert gamma_rows == [(shifts, v.size)]
        assert exp_shapes == [(shifts, v.size), (1, v.size), (1, v.size)]

    def test_plane_needs_a_symmetric_mellin_grid(self):
        from scipy.special import rgamma

        from kuznetsov_lab.testfunctions import _gl3_plane

        step = 0.125
        for v in (step * np.arange(-160, 162), step * np.arange(-160, 161) + 0.01):
            rg = rgamma(1.5 + 1j * (2.0 * v[0] + step * np.arange(2 * v.size - 1)))
            with pytest.raises(ValueError, match="symmetric about 0"):
                _gl3_plane([(0.1, -0.2)], np.zeros(1), np.zeros(1), np.ones(1), 0.75, v, rg)

    def test_peak_memory(self):
        # one (orbits, v) line field of 324 x 315 and the (v, v) field; the
        # two (nodes, v) fields of 1296 nodes peaked at 22.3 MiB
        p_y_gl3([(1.0, 1.0)], self.PARAMS)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            p_y_gl3([(0.8, 1.3), (1.3, 0.8), (1.0, 1.0)], self.PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

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

    @pytest.mark.parametrize("T", [1e-300, 1e-170, 1e-155])
    def test_tiny_T_raises(self, T):
        # no node has a finite density: at T = 1e-155 the row of pair
        # shares has finite values, but each node's sum of three is -inf
        with pytest.raises(ValueError, match=f"T = {T}: the density has no finite value"):
            p_y_gl3([(1.0, 1.0)], TestFunctionParams(T=T, R=1))

    def test_tiny_T_sum_of_shares_is_warning_free(self):
        # at T = 1.3e-154 most nodes' three shares overflow in their sum and
        # the 30 others' weights underflow; the avatar is 0 with no warning
        assert p_y_gl3([(1.0, 1.0)], TestFunctionParams(T=1.3e-154, R=1)).tolist() == [0.0]


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
    li = _pair_share(2, 4.0 * dv * np.arange(1, k_max + 1), params, 1) + log_inner
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
    """main_term_log summed point by point: float columns t_j on the grid of
    main_term_log's steps over |t_j| <= 5T + 20, a window that cuts off no
    mass, and loggamma, log1p and the squares taken on every point's own
    float differences, summed term by term over every pair and subset pair:
    the density's definition at any n, not split into pair shares."""
    if n == 2:
        t = np.arange(1.0 / 16, 5.0 * T + 20.0, 1.0 / 8)
        cols, cell = (t, -t), 2.0 / 8.0
    else:
        g = np.arange(-5.0 * T - 20.0, 5.0 * T + 20.0 + 0.25, 0.5)
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
        [(3, 8.0), (3, 16.0), (3, 32.0), (2, 16.0), (2, 128.0)],
        ids=["n3-T8", "n3-T16", "n3-T32", "n2-T16", "n2-T128"],
    )
    def test_pinned_to_float_column_sum(self, n, T):
        # the pointwise route over a window that truncates nothing; the two
        # routes end at different windows and, at n = 3, sum in another
        # order, so they agree to rounding, not bit for bit
        assert abs(main_term_log(n, 1, T) - _main_term_log_float_columns(n, 1, T)) <= 1e-12

    @pytest.mark.parametrize("R", [2, 3])
    def test_pinned_to_float_column_sum_at_higher_order(self, R):
        # a higher order moves the peak outward: the square |t| <= 3T + 15
        # once used here was 1.6e-2 low in log at R = 3, T = 16
        assert abs(main_term_log(3, R, 16.0) - _main_term_log_float_columns(3, R, 16.0)) <= 1e-12

    @pytest.mark.parametrize(
        "T, ref", [(64.0, 58.14919208366649), (128.0, 67.85261212275785)], ids=["T64", "T128"]
    )
    def test_pinned_to_scaling_refs(self, T, ref):
        # the frozen references of bench/refs/scaling.json: the same
        # integrand summed blockwise at step 1/8 over |t| <= 5T + 20
        assert abs(main_term_log(3, 1, T) - ref) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("T", [1.0, 16.0, 128.0, 512.0])
    def test_doubling_the_window_moves_nothing(self, n, R, T):
        # the window |d| <= 4 (3T + 15) on each pair difference cuts off
        # nothing: twice as wide agrees to rounding
        wide = testfunctions._main_term_log(n, TestFunctionParams(T=T, R=R), 8.0 * (3.0 * T + 15.0))
        assert abs(main_term_log(n, R, T) - wide) <= 1e-13

    @pytest.mark.parametrize("R", [4, 5, 6])
    @pytest.mark.parametrize("T", [64.0, 512.0])
    def test_window_grows_with_the_order(self, R, T):
        # the density's peak moves outward with R, and the window by
        # sqrt(R / 3): doubling it moves nothing.  The fixed window
        # 4 (3T + 15) cut 2.8e-9 at R = 6, T = 64 and 8.5e-7 at T = 512
        window = 8.0 * (3.0 * T + 15.0) * math.sqrt(R / 3.0)
        wide = testfunctions._main_term_log(3, TestFunctionParams(T=T, R=R), window)
        assert abs(main_term_log(3, R, T) - wide) <= 1e-12

    def test_rounding_bound_raises(self):
        # at T = 0.1 the density's peak lies too far below the pair weights'
        # peaks for the FFT correlation to resolve it
        main_term_log(3, 1, 0.25)
        with pytest.raises(AccuracyError, match="T = 0.1"):
            main_term_log(3, 1, 0.1)

    def test_rank_three_peak_memory(self):
        # the correlation works on one row of 6385 pair differences at
        # T = 128; the traced peak stays under 2 MB
        main_term_log(3, 1, 8.0)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            main_term_log(3, 1, 128.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


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
