"""Vertical line and plane integrals: window doubling and the accuracy cap."""

import math

import numpy as np
import pytest

from kuznetsov_lab.quadrature import (
    AccuracyError,
    vertical_line_integral,
    vertical_plane_integral,
)


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
    # from half-length 1 the Gaussian's outer panels stay above tol/10 until
    # the window reaches 8, so the windows are 1, 2, 4 and 8

    def test_line_gaussian(self):
        f = Recorder(lambda z: np.exp(z**2))
        val = vertical_line_integral(f, 0.0, 1e-12, initial_half_length=1)
        assert val == pytest.approx(1j * math.sqrt(math.pi), abs=1e-13)
        assert f.calls == 4  # one call per window
        assert 7.9 < f.reach < 8.0

    def test_plane_gaussian(self):
        f = Recorder(lambda z1, z2: np.exp(z1**2 + z2**2))
        val = vertical_plane_integral(f, (0.0, 0.0), 1e-12, initial_half_length=1)
        assert val == pytest.approx(-math.pi, abs=1e-13)
        assert 7.9 < f.reach < 8.0


class TestAccuracyCap:
    # 1/(1 + t^2) on Re z = 0 decays too slowly: the outer panels still hold
    # about 4/L^2 per axis when the next doubling would pass the cap (frame
    # 7.0e-5 on the line at L = 240, 1.8e-3 on the plane at L = 120)

    def test_line_raises_at_cap(self):
        with pytest.raises(AccuracyError, match=r"half-length 240\.0$"):
            vertical_line_integral(lambda z: 1.0 / (1.0 - z**2), 0.0, 1e-8)

    def test_plane_raises_at_cap(self):
        def f(z1, z2):
            return 1.0 / ((1.0 - z1**2) * (1.0 - z2**2))

        with pytest.raises(AccuracyError, match=r"half-length 120\.0$"):
            vertical_plane_integral(f, (0.0, 0.0), 1e-8)


BAD_HALF_LENGTHS = pytest.mark.parametrize(
    "half", [0.0, -5.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
)


class TestInitialHalfLength:
    # doubling never moves 0, drives -5 toward -inf, and inf or NaN lays out
    # no panels; each is refused before the integrand runs, which would raise
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
            vertical_plane_integral(f, (0.0, 0.0), 1e-8, initial_half_length=half)
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
            vertical_plane_integral(f, (0.0, 0.0), tol)
        assert f.calls == 0
