"""Mellin transform evaluators, shift identities, residues, inversion."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import loggamma, rgamma

from kuznetsov_lab.mellin import (
    SHIFT_TOL,
    _first_half_length,
    _peel,
    check_pole_separation,
    mellin_closed,
    mellin_recursive,
    mellin_value,
    residue_check,
    residue_gl2,
    shift_identity_check,
    shift_residual,
    whittaker_value,
)
from kuznetsov_lab.quadrature import AccuracyError, circle_integral_mean, line_nodes
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
        assert mellin_closed((0.0, 0.0), (1.0,)) == pytest.approx(1.0)

    def test_half_integer_point(self):
        # Gamma(3/2) Gamma(1/2) = pi/2
        assert mellin_closed((0.5, -0.5), (1.0,)) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_even_in_alpha(self):
        s = (0.8 + 0.3j,)
        assert mellin_closed((0.45j, -0.45j), s) == pytest.approx(
            mellin_closed((-0.45j, 0.45j), s), rel=1e-14
        )

    def test_scalar_parameter_rejected(self):
        # the rank-one entry points take alpha as the pair (a, -a), like every rank
        with pytest.raises(ValueError, match="expected 2 spectral parameters"):
            residue_gl2(0.3j, 1)
        with pytest.raises(ValueError, match="expected 2 spectral parameters"):
            whittaker_value(0.3j, 1.2)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            mellin_closed((0.5, -0.5), (-0.5,))


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
            closed = mellin_closed(alpha, s)
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
        v = mellin_closed(alpha, s)
        w = mellin_closed((alpha[2], alpha[0], alpha[1]), s)
        assert v == pytest.approx(w, rel=1e-13)


class TestClosedPoleGuard:
    ALPHA = (0.4j, 0.15j, -0.55j)

    def test_rank_two_scalar_pole_raises(self):
        with pytest.raises(PoleError):
            mellin_closed(self.ALPHA, (-self.ALPHA[0], 0.7 + 0.1j))

    def test_rank_two_pole_inside_array_evaluates(self):
        s1 = np.array([-self.ALPHA[0], 0.9 + 0.2j])
        vals = mellin_closed(self.ALPHA, (s1, 0.7 + 0.1j))
        assert np.isfinite(vals[1])
        assert vals[1] == pytest.approx(mellin_closed(self.ALPHA, (0.9 + 0.2j, 0.7 + 0.1j)), rel=1e-15)

    @pytest.mark.parametrize(
        "alpha, s",
        [((0.3j, -0.3j), (0.8 + 0.2j,)), (ALPHA, (0.9 + 0.2j, 0.7 - 0.1j))],
        ids=["rank-one", "rank-two"],
    )
    def test_scalar_point_equals_array_entry(self, alpha, s):
        grid = [np.array([v, v + 0.5]) for v in s]
        assert mellin_closed(alpha, grid)[0] == pytest.approx(mellin_closed(alpha, s), rel=1e-15)


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

    # values of bench/contour_oracle.rank3_reference, computed without the
    # library (its first peel, the one mellin_recursive takes; at |Im alpha| =
    # 15 the oracle's other peels cancel and spread by 3.3e3): one window at
    # half-length 17 (|Im alpha| = 15, largest shift |Im| 10), and one point
    # whose every-other-node estimate, 2.5e-10, meets tol 1e-8 but not 1e-13
    TENSOR_GRID = [
        (
            (0.1j, -0.1j, -15j, 15j),
            (0.6 + 0.1j, 0.7, 0.8 - 0.2j),
            1e-8,
            17.0,
            6.226197054909268e-59 - 4.190930400652173e-59j,
        ),
        (
            (0.1j, 0.2j, -0.3j, 0.0),
            (0.7 + 0.2j, 0.9, 0.6 - 0.1j),
            1e-13,
            7.3,
            17.553633335984433 - 4.953761527259713j,
        ),
    ]

    @pytest.mark.parametrize("alpha, s, tol, half, ref", TENSOR_GRID, ids=["half-length-17", "tol-1e-13"])
    def test_matches_tensor_grid_rule(self, alpha, s, tol, half, ref):
        assert _first_half_length(*_peel(np.array(alpha), s)) == pytest.approx(half, abs=1e-12)
        v = mellin_recursive(4, alpha, s)  # at the default tol, 1e-8
        assert abs(v - ref) / abs(ref) <= 1e-12
        if tol < 1e-8:
            with pytest.raises(AccuracyError, match="every-other-node sum"):
                mellin_recursive(4, alpha, s, tol=tol)

    def test_plane_evaluates_node_sums_not_grid(self, monkeypatch):
        # 1/Gamma(z1 + z2) is taken on the 2m - 1 = 1023 node sums of the
        # window (m = 512 nodes a side at half-length 8), not on its 512^2 =
        # 2.6e5 pairs of nodes; with the ten Gammas of the row and column
        # that is 6.1e3
        from kuznetsov_lab import mellin

        evaluated = []

        def counting(fn):
            def wrapper(z):
                evaluated.append(np.size(z))
                return fn(z)

            return wrapper

        monkeypatch.setattr(mellin, "loggamma", counting(loggamma))
        monkeypatch.setattr(mellin, "rgamma", counting(rgamma))
        mellin_recursive(4, (0.1j, 0.2j, -0.3j, 0.0), (0.7 + 0.2j, 0.9, 0.6 - 0.1j))
        assert sum(evaluated) < 1e5

    def test_overflow_raises_without_warnings(self):
        # at |Im alpha| = 350 the first window reaches half-length 240, past
        # 226, where 1/Gamma(z1 + z2) overflows; the call raises
        # AccuracyError and prints no numpy RuntimeWarning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AccuracyError, match="not finite"):
                mellin_recursive(4, (0.1j, -0.1j, -350j, 350j), (0.6 + 0.1j, 0.7, 0.8 - 0.2j))

    def test_unsupported_rank(self):
        with pytest.raises(NotImplementedError):
            mellin_recursive(5, (0.0,) * 5, (1.0,) * 4)


class TestNearPolePoints:
    # tempered points of bench/refs/contour.json (rank3.474, .554, .686 and
    # rank4.4, .28, .34), refs from bench/contour_oracle.py.  The ones with
    # some Re s below 0.06 put the line within 0.03 of a pole, where the
    # earlier Gauss-Legendre rule returned values off by 0.22 to 285
    # relative; each point must meet its ref or raise
    POINTS = [
        (
            (-0.126586j, -0.816818j, 0.943404j),
            (0.020434 + 0.999512j, 0.348698 - 0.542887j),
            -0.12764333743499298 - 0.07900104435563038j,
        ),
        (
            (-1.100274j, -0.812914j, 1.913188j),
            (0.03784 - 0.537811j, 0.983019 + 0.461769j),
            7.053642697685297e-05 + 0.00030788254129128154j,
        ),
        (
            (-1.494378j, 1.034381j, 0.459997j),
            (0.389781 - 0.923932j, 1.36932 + 0.721558j),
            -0.005282970217519924 + 0.017480897168427663j,
        ),
        (
            (-1.429573j, -1.334308j, -0.741284j, 3.505165j),
            (0.892304 - 0.788147j, 0.395373 - 0.261537j, 1.250806 - 0.129506j),
            2.7595516850349392e-12 + 1.1695428671600649e-11j,
        ),
        (
            (-1.089149j, -1.17278j, 1.101601j, 1.160328j),
            (0.058312 + 0.122042j, 0.632887 - 0.293349j, 1.314502 + 0.311152j),
            0.0001959804568601706 + 0.0005735776594809251j,
        ),
        (
            (1.135013j, 0.335833j, 0.457083j, -1.927929j),
            (0.307074 + 0.74346j, 0.040478 + 0.256754j, 0.038222 - 0.879653j),
            2.6135771721757564e-06 + 1.4987256180289068e-06j,
        ),
    ]

    @pytest.mark.parametrize(
        "alpha, s, ref", POINTS, ids=["rank3.474", "rank3.554", "rank3.686", "rank4.4", "rank4.28", "rank4.34"]
    )
    def test_meets_ref_or_raises(self, alpha, s, ref):
        try:
            v = mellin_recursive(len(alpha), alpha, s)
        except AccuracyError:
            return
        assert abs(v - ref) / abs(ref) <= 1e-8


class TestFirstWindow:
    # points of bench/refs/contour.json (rank3.238, .256, .686, .4, .474,
    # .632, .473, .467, .167, .423, .905 and rank4.0, .24, .34, .17, .29):
    # both ranks, tempered and non-tempered alpha, Re s from 0.02 to 1.39,
    # returning and raising; then rank3.356, rank3.155, rank4.4 and rank4.11
    # with every Re s moved to 3 or 5.  Stirling's power factor grows with
    # Re s, and at Re s = 5 it outgrows the margin's spare unit: the frame
    # test may double the window once there
    POINTS = [
        ((1.284742j, 1.398061j, -2.682803j), (0.518409 + 0.097036j, 0.823982 - 0.767861j)),
        ((1.261424j, 1.436726j, -2.69815j), (0.576303 + 0.837249j, 0.768921 + 0.091271j)),
        ((-1.494378j, 1.034381j, 0.459997j), (0.389781 - 0.923932j, 1.36932 + 0.721558j)),
        ((1.396118j, 0.220447j, -1.616565j), (1.35091 - 0.898772j, 1.301194 - 0.41907j)),
        ((-0.126586j, -0.816818j, 0.943404j), (0.020434 + 0.999512j, 0.348698 - 0.542887j)),
        ((-1.253001j, -1.489322j, 2.742323j), (0.396848 - 0.998444j, 1.316258 - 0.267107j)),
        (
            (-0.363408 - 0.910236j, 0.395823 - 0.079228j, -0.032415 + 0.989464j),
            (0.304123 - 0.99497j, 0.398845 + 0.022971j),
        ),
        (
            (-0.185804 + 0.279427j, 0.159967 - 0.502625j, 0.025837 + 0.223198j),
            (1.370071 - 0.841073j, 1.387929 - 0.18683j),
        ),
        (
            (0.00476 + 1.445066j, -0.184313 + 0.960825j, 0.179553 - 2.405891j),
            (1.241898 + 0.828277j, 0.946697 - 0.1381j),
        ),
        (
            (0.231928 + 0.548466j, -0.210555 + 0.816852j, -0.021373 - 1.365318j),
            (0.021192 - 0.239896j, 1.201629 - 0.175465j),
        ),
        (
            (-0.334697 + 0.45505j, 0.397771 + 0.952948j, -0.063074 - 1.407998j),
            (1.360714 + 0.940702j, 1.344762 + 0.861785j),
        ),
        (
            (-1.222361j, -1.061646j, 0.204972j, 2.079035j),
            (1.021221 + 0.849626j, 1.376348 - 0.061749j, 1.374449 + 0.390358j),
        ),
        (
            (0.980062j, 1.442561j, 0.322849j, -2.745472j),
            (1.129157 - 0.237159j, 0.669041 + 0.880248j, 1.17166 + 0.567207j),
        ),
        (
            (1.135013j, 0.335833j, 0.457083j, -1.927929j),
            (0.307074 + 0.74346j, 0.040478 + 0.256754j, 0.038222 - 0.879653j),
        ),
        (
            (0.295954 - 1.351431j, 0.006305 - 1.488839j, -0.010077 - 0.032437j, -0.292182 + 2.872707j),
            (1.102484 - 0.131909j, 1.113201 - 0.950808j, 1.334927 - 0.782949j),
        ),
        (
            (0.052931 - 1.293098j, -0.048063 - 1.17737j, 0.000285 - 0.552638j, -0.005153 + 3.023106j),
            (1.132801 + 0.519275j, 0.263981 + 0.902137j, 0.174997 + 0.244529j),
        ),
        ((0.110202j, 1.348138j, -1.45834j), (3.0 - 0.346354j, 3.0 + 0.218542j)),
        (
            (0.353471 + 0.493604j, -0.027637 + 0.2529j, -0.325834 - 0.746504j),
            (5.0 - 0.704922j, 5.0 - 0.718303j),
        ),
        (
            (-1.429573j, -1.334308j, -0.741284j, 3.505165j),
            (3.0 - 0.788147j, 3.0 - 0.261537j, 3.0 - 0.129506j),
        ),
        (
            (-0.105561 - 0.503522j, 0.161073 - 1.313513j, 0.165698 + 0.758267j, -0.22121 + 1.058768j),
            (5.0 - 0.865266j, 5.0 - 0.924631j, 5.0 + 0.422344j),
        ),
    ]

    @staticmethod
    def _evaluate(alpha, s):
        try:
            return mellin_recursive(len(alpha), alpha, s)
        except AccuracyError:
            return None

    def test_first_window_is_tight_and_safe(self, monkeypatch):
        # up to Re s = 3 the first window is accepted without doubling, and
        # doubling it changes no value beyond rounding and no point between
        # raising and returning
        from kuznetsov_lab import mellin, quadrature

        windows = []
        monkeypatch.setattr(quadrature, "line_nodes", lambda half: windows.append(half) or line_nodes(half))
        first = {}
        for alpha, s in self.POINTS:
            windows.clear()
            first[alpha] = self._evaluate(alpha, s)
            allowed = 1 if max(v.real for v in s) <= 3.0 else 2
            assert 1 <= len(windows) <= allowed, (alpha, windows)
        single = mellin._first_half_length
        monkeypatch.setattr(mellin, "_first_half_length", lambda beta, pairs: 2.0 * single(beta, pairs))
        for alpha, s in self.POINTS:
            v, wide = first[alpha], self._evaluate(alpha, s)
            assert (v is None) == (wide is None), alpha
            if v is not None:
                assert abs(wide - v) <= 8e-15 * abs(v), alpha


class TestShiftIdentities:
    def test_rank_one_exact_sweep(self):
        rng = np.random.default_rng(23)
        for delta in range(6):
            worst = 0.0
            for _ in range(100):
                t = rng.uniform(0.1, 2.5)
                s = complex(rng.uniform(0.4, 2.5), rng.uniform(-1.5, 1.5))
                worst = max(worst, shift_residual((1j * t, -1j * t), (s,), 1, delta))
            assert worst <= 1e-12, f"delta={delta}: {worst:.2e}"

    def test_named_example(self):
        assert shift_residual((0.3j, -0.3j), (0.7,), 1, 1) <= 1e-13

    def test_delta_zero_is_identity(self):
        assert shift_residual((0.4j, -0.4j), (1.1,), 1, 0) == 0.0

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

    def test_needs_a_sample(self):
        # with no sample drawn the residual bound would hold vacuously
        with pytest.raises(ValueError, match="samples"):
            shift_identity_check(2, 1, 1, samples=0)

    @pytest.mark.parametrize("delta", [98, 99, 200])
    def test_overflowing_side_raises(self, delta):
        # Gamma(s + delta + a) overflows near delta = 98: at 98 the modulus
        # of a finite side overflowed, and from 99 on the NaN residual was
        # dropped by max() and the check passed with residual 0
        with pytest.raises(AccuracyError, match=f"delta = {delta}"):
            shift_identity_check(2, 1, delta)

    def test_last_finite_shift_passes(self):
        report = shift_identity_check(2, 1, 97)
        assert report["passed"] and 0.0 < report["max_residual"] <= SHIFT_TOL


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

    @pytest.mark.parametrize("delta", [98, 99, 120])
    def test_underflowing_residue_raises(self, delta):
        # the residue is subnormal from delta = 98 and 0 at 120, where no
        # relative error is meaningful
        with pytest.raises(AccuracyError, match=f"delta = {delta}"):
            residue_check(2, (0.6j, -0.6j), delta=delta)

    def test_last_normal_residue_passes(self):
        rep = residue_check(2, (0.6j, -0.6j), delta=97)
        assert rep["passed"] and abs(rep["closed"]) < 1e-300
        assert abs(rep["closed"] - rep["contour"]) <= 1e-12 * abs(rep["closed"])

    def test_wrong_contour_fails_below_unit_residue(self, monkeypatch):
        # |closed| = 2.5e-38 at delta = 20: a contour mean off by a factor of
        # two is 1.3e-38 off, which an error relative to max(1, |closed|)
        # accepted
        from kuznetsov_lab import mellin

        monkeypatch.setattr(mellin, "circle_integral_mean", lambda *a: circle_integral_mean(*a) / 2)
        rep = residue_check(2, (0.6j, -0.6j), delta=20)
        assert not rep["passed"]
        assert rep["rel_err"] == pytest.approx(0.5, rel=1e-12)

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
        v1 = whittaker_value((0.7j, -0.7j), 1.0, b=0.5)
        v2 = whittaker_value((0.7j, -0.7j), 1.0, b=1.0)
        assert abs(v1 - v2) / abs(v2) <= 1e-8

    def test_positive_and_conjugate_symmetric(self):
        v = whittaker_value((0.9j, -0.9j), 0.7)
        w = whittaker_value((-0.9j, 0.9j), 0.7)
        assert v > 0
        assert v == pytest.approx(w, rel=1e-12)

    def test_exponential_decay(self):
        assert whittaker_value((0.7j, -0.7j), 1.0) / whittaker_value((0.7j, -0.7j), 5.0) > 1e3

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            whittaker_value((0.5j, -0.5j), -1.0)
        with pytest.raises(ValueError):
            whittaker_value((0.5j, -0.5j), 1.0, b=0.0)
        # a non-finite y or line has no inverse transform to approximate
        for y, b in [(math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf), (1.0, math.nan)]:
            with pytest.raises(ValueError):
                whittaker_value((0.5j, -0.5j), y, b=b)


class TestEvaluatorBundle:
    def test_dispatch(self):
        alpha = (0.4j, 0.15j, -0.55j)
        s = (0.8, 0.9)
        value = mellin_value(3, alpha, s)
        assert value == pytest.approx(mellin_closed(alpha, s), rel=1e-13)
        assert abs(mellin_recursive(3, alpha, s) - value) / abs(value) <= 1e-6
        assert mellin_value(2, (0.4j, -0.4j), (0.8 + 0.1j,)) == mellin_closed((0.4j, -0.4j), (0.8 + 0.1j,))

    def test_truncation_height_floor(self):
        # the largest |Im| over beta and the outer shifts, plus 6 on the line
        # and 7 on the plane; Im s counts as much as Im alpha
        def first(alpha, s):
            return _first_half_length(*_peel(np.array(alpha), s))

        assert first((0.1j, -0.1j, 0.0), (0.8, 0.9)) == pytest.approx(6.1)
        assert first((9.0j, -9.0j, 0.0), (0.8, 0.9)) == pytest.approx(15.0)
        assert first((0.1j, -0.1j, 0.0), (0.8 + 20j, 0.9)) == pytest.approx(26.0)
        assert first((0.1j, -0.1j, 0.0, 0.0), (0.8, 0.9, 0.7)) == pytest.approx(7.1)


class TestContourOracleMachinery:
    def test_circle_rule_on_simple_pole(self):
        # f(z) = 1/(z - 2) + entire part; mean recovers the residue
        val = circle_integral_mean(lambda z: 1.0 / (z - 2.0) + np.exp(z), 2.0, 0.1)
        assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("half_length", [0.3, 1.0, 37.5, 400.0])
    @pytest.mark.parametrize("nodes", [16])
    def test_line_nodes_equal_panel_loop(self, half_length, nodes):
        # reference: each unit interval a panel of 2 x 16 = 32 midpoints of
        # step 1/32, mirrored
        n_panels = max(1, math.ceil(half_length))
        mid = (np.arange(2 * nodes) + 0.5) / (2 * nodes)
        t_pos = np.concatenate([k + mid for k in range(n_panels)])
        t = line_nodes(half_length)
        assert np.array_equal(t, np.concatenate([-t_pos[::-1], t_pos]))
