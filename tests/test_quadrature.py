"""Vertical line and plane integrals: window doubling, the accuracy cap, the
every-other-node error estimate and the plane rule's node sums."""

import math

import numpy as np
import pytest
from scipy.special import rgamma

from kuznetsov_lab.quadrature import (
    AccuracyError,
    line_nodes,
    vertical_line_integral,
    vertical_plane_integral,
)


def gauss(z):
    return np.exp(z**2)


def ones(w):
    return np.ones_like(w)


class Recorder:
    """Wraps an integrand, counting its calls and the largest |Im z| it saw."""

    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.reach = 0.0

    def __call__(self, *z):
        self.calls += 1
        self.reach = max(self.reach, *(float(np.abs(zk.imag).max()) for zk in z))
        return self.f(*z)


class TestWindowDoubling:
    # from half-length 1 the Gaussian's outer two units stay above tol/10 until
    # the window reaches 8, so the windows are 1, 2, 4 and 8

    def test_line_gaussian(self):
        f = Recorder(lambda z: np.exp(z**2))
        val = vertical_line_integral(f, 0.0, 1e-12, initial_half_length=1)
        assert val == pytest.approx(1j * math.sqrt(math.pi), abs=1e-13)
        assert f.calls == 4  # one call per window
        assert 7.9 < f.reach < 8.0

    def test_plane_gaussian(self):
        f = Recorder(gauss)
        val = vertical_plane_integral(f, gauss, ones, (0.0, 0.0), 1e-12, initial_half_length=1)
        assert val == pytest.approx(-math.pi, abs=1e-13)
        assert 7.9 < f.reach < 8.0

    @pytest.mark.parametrize("wide_axis", ["row", "column"])
    def test_plane_frame_covers_rows_and_columns(self, wide_axis):
        # the Gaussian of width 4 needs the window at 32, four times the
        # narrow one's 8; a frame over one axis alone would stop at 8
        wide = Recorder(lambda z: np.exp(z**2 / 16.0))
        factors = (wide, gauss) if wide_axis == "row" else (gauss, wide)
        val = vertical_plane_integral(*factors, ones, (0.0, 0.0), 1e-12, initial_half_length=1)
        assert val == pytest.approx(-4.0 * math.pi, abs=1e-12)
        assert 31.9 < wide.reach < 32.0


class TestAccuracyCap:
    # 1/(1 + t^2) on Re z = 0 decays too slowly: the outer two units still hold
    # about 4/L^2 per axis when the next doubling would pass the cap (frame
    # 7.0e-5 on the line at L = 240, 1.8e-3 on the plane at L = 120)

    def test_line_raises_at_cap(self):
        with pytest.raises(AccuracyError, match=r"half-length 240\.0$"):
            vertical_line_integral(lambda z: 1.0 / (1.0 - z**2), 0.0, 1e-8)

    def test_plane_raises_at_cap(self):
        def f(z):
            return 1.0 / (1.0 - z**2)

        with pytest.raises(AccuracyError, match=r"half-length 120\.0$"):
            vertical_plane_integral(f, f, ones, (0.0, 0.0), 1e-8)


class TestNonFiniteWindow:
    # every wider window holds the nodes of the narrower one, so a window
    # whose sum or frame is not finite raises at once instead of doubling

    def test_line_stops_at_first_window(self):
        f = Recorder(lambda z: np.full(z.shape, np.inf))
        with pytest.raises(AccuracyError, match=r"1-dimensional integrand not finite at half-length 30\.0$"):
            vertical_line_integral(f, 0.0, 1e-8)
        assert f.calls == 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_plane_stops_at_first_window(self):
        # the diagonal overflows past |Im| = 1.5, inside the first window's
        # sum grid, which reaches 2
        diagonal = Recorder(lambda w: np.where(np.abs(w.imag) > 1.5, np.inf, 1.0))
        with pytest.raises(AccuracyError, match=r"2-dimensional integrand not finite at half-length 1\.0$"):
            vertical_plane_integral(gauss, gauss, diagonal, (0.0, 0.0), 1e-8, initial_half_length=1)
        assert diagonal.calls == 1


class TestErrorEstimate:
    # e^{z^2}/(z - 0.05) has its pole 0.05 right of Re z = 0: there the step
    # 1/16 of the every-other-node sum is off by 4.1e-2 on the line and 7.3e-2
    # on the plane, so the rule raises unless tol/10 covers that.  Re z = -1
    # crosses no pole, lies 1.05 away and gives the same integral

    @staticmethod
    def near_pole(z):
        return np.exp(z**2) / (z - 0.05)

    def test_line(self):
        with pytest.raises(AccuracyError, match="every-other-node sum off by 4.133e-02"):
            vertical_line_integral(self.near_pole, 0.0, 1e-8)
        far = vertical_line_integral(self.near_pole, -1.0, 1e-8)
        near = vertical_line_integral(self.near_pole, 0.0, 1.0)
        assert abs(near - far) <= 0.1 * abs(far)

    def test_plane(self):
        with pytest.raises(AccuracyError, match="every-other-node sum off by 7.325e-02"):
            vertical_plane_integral(gauss, self.near_pole, ones, (0.0, 0.0), 1e-8)
        far = vertical_plane_integral(gauss, self.near_pole, ones, (0.0, -1.0), 1e-8)
        near = vertical_plane_integral(gauss, self.near_pole, ones, (0.0, 0.0), 1.0)
        assert abs(near - far) <= 0.1 * abs(far)
        # the line integral of the Gaussian is i sqrt(pi)
        line = vertical_line_integral(self.near_pole, -1.0, 1e-8)
        assert far == pytest.approx(1j * math.sqrt(math.pi) * line, rel=1e-12)


BAD_HALF_LENGTHS = pytest.mark.parametrize(
    "half", [0.0, -5.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
)


class TestInitialHalfLength:
    # doubling never moves 0, drives -5 toward -inf, and inf or NaN lays out
    # no nodes; each is refused before the integrand runs, which would raise
    # on its third call instead of letting a bad window loop on

    @staticmethod
    def _third_call_fails():
        def f(*z):
            f.calls += 1
            if f.calls == 3:
                raise RuntimeError("window did not settle")
            return np.exp(sum(zk**2 for zk in z))

        f.calls = 0
        return f

    @BAD_HALF_LENGTHS
    def test_line(self, half):
        f = self._third_call_fails()
        with pytest.raises(ValueError, match="half-length"):
            vertical_line_integral(f, 0.0, 1e-8, initial_half_length=half)
        assert f.calls == 0

    @BAD_HALF_LENGTHS
    def test_plane(self, half):
        f = self._third_call_fails()
        with pytest.raises(ValueError, match="half-length"):
            vertical_plane_integral(f, f, f, (0.0, 0.0), 1e-8, initial_half_length=half)
        assert f.calls == 0


BAD_TOLS = pytest.mark.parametrize(
    "tol", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
)


class TestTolerance:
    # no frame is below a zero, negative or NaN tolerance, so the window
    # would double to its cap before raising AccuracyError; every frame is
    # below an infinite one, so the first window would be returned as is

    @BAD_TOLS
    def test_line(self, tol):
        f = TestInitialHalfLength._third_call_fails()
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            vertical_line_integral(f, 0.0, tol)
        assert f.calls == 0

    @BAD_TOLS
    def test_plane(self, tol):
        f = TestInitialHalfLength._third_call_fails()
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            vertical_plane_integral(f, f, f, (0.0, 0.0), tol)
        assert f.calls == 0


class TestPlaneRule:
    # the plane rule takes the diagonal factor once on each node sum, a
    # multiple of the step; a brute-force sum over the tensor grid evaluates
    # it at each pair of nodes instead.  A tolerance no frame reaches returns
    # the first window, so the two sums cover the same nodes

    @staticmethod
    def row(z):
        return np.exp(z**2)

    @staticmethod
    def column(z):
        return np.exp(2.0 * z**2 - 0.3 * z)

    @pytest.mark.parametrize("half", [1, 2, 3])
    def test_equals_tensor_grid(self, half):
        x0 = (0.5, 0.25)
        t, w = line_nodes(half)
        z1 = x0[0] + 1j * t[:, None]
        z2 = x0[1] + 1j * t[None, :]
        terms = np.outer(w, w) * self.row(z1) * self.column(z2) * rgamma(z1 + z2)
        grid = -np.sum(terms)  # (i dt)^2
        val = vertical_plane_integral(self.row, self.column, rgamma, x0, 1e300, initial_half_length=half)
        assert abs(val - grid) <= 1e-13 * abs(grid)
