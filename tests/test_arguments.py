"""Argument rules at the library entries and the CLI.

Integer arguments go through ``combinatorics.require_integer`` and positive
reals through ``special.require_positive``; a NaN, an infinity or a
non-integral value at any entry is a ValueError (never an OverflowError or
TypeError from deeper down), and the CLI turns it into exit 2.
"""

import math

import numpy as np
import pytest

from kuznetsov_lab import cli, combinatorics, mellin, special, testfunctions, trace
from kuznetsov_lab.combinatorics import Composition, enumerate_compositions, require_integer
from kuznetsov_lab.reporting import RunConfig
from kuznetsov_lab.special import require_positive

INF = math.inf
PARAMS = testfunctions.TestFunctionParams(T=3.0, R=1)

# each entry, called with one bad argument
BAD_CALLS = {
    "ring-sum-R": lambda: special.gamma_product_split_residual([1j, -1j, 0.3j, -0.3j], 2, INF),
    "f_R_poly-R": lambda: special.f_R_poly([1j, -1j, 0.0], INF),
    "TestFunctionParams-R": lambda: testfunctions.TestFunctionParams(T=3.0, R=INF),
    "KloostermanQuery-moduli": lambda: trace.KloostermanQuery(m=1, l=1, moduli=(INF,)),
    "MaassFormRecord-hecke": lambda: trace.MaassFormRecord(r=1.0, hecke={INF: 0.5}, adjoint_L=1.0),
    "MaassFormRecord-adjoint_L": lambda: trace.MaassFormRecord(r=1.0, hecke={}, adjoint_L=INF),
    "hecke_divisor_sum-m": lambda: trace.hecke_divisor_sum(INF, (0.1, -0.1), (None, None)),
    "iwbounds_exponent-rho": lambda: trace.iwbounds_exponent(INF, Composition((1, 1))),
    "Composition-half": lambda: Composition((1.5, 1.5)),
    "Composition-inf": lambda: Composition((INF,)),
    "enumerate_compositions-n": lambda: enumerate_compositions(INF),
    "shift_identity_check-samples": lambda: mellin.shift_identity_check(2, 1, 1, samples=INF),
    "main_term_log-T": lambda: testfunctions.main_term_log(2, 1, INF),
    "itr_log-a": lambda: testfunctions.itr_log(INF, PARAMS),
    "itr_log-zero-grid_step": lambda: testfunctions.itr_log(0.25, PARAMS, grid_step=0.0),
    "itr_log-negative-grid_step": lambda: testfunctions.itr_log(0.25, PARAMS, grid_step=-1.0 / 16),
    "itr_log-inf-grid_step": lambda: testfunctions.itr_log(0.25, PARAMS, grid_step=INF),
    "itr_log-nan-grid_step": lambda: testfunctions.itr_log(0.25, PARAMS, grid_step=math.nan),
    "itr_log-negative-t_factor": lambda: testfunctions.itr_log(0.25, PARAMS, t_factor=-10.0),
    "itr_log-nan-t_factor": lambda: testfunctions.itr_log(0.25, PARAMS, t_factor=math.nan),
    "itr_log-zero-pad": lambda: testfunctions.itr_log(0.25, PARAMS, pad=0.0),
    "itr_log-negative-pad": lambda: testfunctions.itr_log(0.25, PARAMS, pad=-1.0),
    "itr_log-inf-pad": lambda: testfunctions.itr_log(0.25, PARAMS, pad=INF),
    "itr_log-nan-pad": lambda: testfunctions.itr_log(0.25, PARAMS, pad=math.nan),
    "residue_decomposition_check-a": lambda: testfunctions.residue_decomposition_check(PARAMS, a=INF),
    "p_y_batch-nan-line": lambda: testfunctions.p_y_batch([1.0], PARAMS, line=math.nan),
    "p_y_batch-inf-line": lambda: testfunctions.p_y_batch([1.0], PARAMS, line=INF),
    "p_y_batch-neg-inf-line": lambda: testfunctions.p_y_batch([1.0], PARAMS, line=-INF),
    "p_y_gl3-zero-spectral_step": lambda: testfunctions.p_y_gl3([(1.0, 1.0)], PARAMS, spectral_step=0.0),
    "p_y_gl3-negative-spectral_step": lambda: testfunctions.p_y_gl3([(1.0, 1.0)], PARAMS, spectral_step=-0.5),
    "p_y_gl3-inf-spectral_step": lambda: testfunctions.p_y_gl3([(1.0, 1.0)], PARAMS, spectral_step=INF),
    "residue_term-delta": lambda: testfunctions.residue_term([1.0], PARAMS, INF),
    "RunConfig-identity_tol": lambda: RunConfig(identity_tol=math.nan),
    "RunConfig-quad_tol": lambda: RunConfig(quad_tol=INF),
    "RunConfig-seed": lambda: RunConfig(seed=INF),
    "RunConfig-jobs": lambda: RunConfig(jobs=INF),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_argument_is_value_error(call):
    with pytest.raises(ValueError):
        call()


# integer arguments that reach range() or math.factorial, each called with
# 1.5: (entry, argument name)
NON_INTEGRAL_CALLS = {
    "shift_residual": (lambda d: mellin.shift_residual((0.3j, -0.3j), (0.8,), 1, d), "delta"),
    "residue_gl2": (lambda d: mellin.residue_gl2((0.3j, -0.3j), d), "delta"),
    "residue_check": (lambda d: mellin.residue_check(2, (0.3j, -0.3j), 1, d), "delta"),
    "residue_term": (lambda d: testfunctions.residue_term([1.0], PARAMS, d), "delta"),
    "degree_D": (combinatorics.degree_D, "n"),
    "exponent_vector_a": (lambda n: combinatorics.exponent_vector_a(n, 0.5), "n"),
    "verify_partition_identities": (combinatorics.verify_partition_identities, "n_max"),
}


@pytest.mark.parametrize("call, name", NON_INTEGRAL_CALLS.values(), ids=NON_INTEGRAL_CALLS.keys())
def test_non_integral_argument_named(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 1.5$"):
        call(1.5)
    call(2.0)  # an integral float passes


class TestRequireInteger:
    def test_integral_values_pass(self):
        assert require_integer(np.int64(3), "c") == 3
        assert type(require_integer(10.0, "c")) is int
        assert require_integer(-4, "m") == -4
        assert require_integer([np.int64(2), 3.0], "moduli", positive=True) == (2, 3)

    @pytest.mark.parametrize("bad", [2.5, INF, -INF, math.nan, "5", 1j], ids=str)
    def test_non_integral_scalar(self, bad):
        with pytest.raises(ValueError, match="m must be an integer"):
            require_integer(bad, "m")

    def test_positive_wording(self):
        with pytest.raises(ValueError, match="R must be a positive integer, got 0"):
            require_integer(0, "R", positive=True)
        with pytest.raises(ValueError, match=r"parts must be positive integers, got \(2, -1\)"):
            require_integer((2, -1), "parts", positive=True)
        with pytest.raises(ValueError, match="positive integers"):
            require_integer((), "moduli", positive=True)


    def test_plain_ints_come_back_as_a_tuple(self):
        # the one-pass path for plain ints returns a list as a tuple too, and
        # a nonpositive entry still takes the named error
        assert require_integer([3, 1, 2], "parts", positive=True) == (3, 1, 2)
        assert type(require_integer([-3, 1], "parts")) is tuple
        with pytest.raises(ValueError, match=r"parts must be positive integers, got \[3, 0\]"):
            require_integer([3, 0], "parts", positive=True)


class TestRequirePositive:
    def test_returns_float_or_array(self):
        assert type(require_positive(2, "y")) is float
        out = require_positive([1, 2.5], "y")
        assert out.dtype == float and out.tolist() == [1.0, 2.5]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, INF, [1.0, math.nan]], ids=str)
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="y must be positive and finite"):
            require_positive(bad, "y")


def test_composition_parts_become_ints():
    comp = Composition([np.int64(2), 1.0])
    assert comp.parts == (2, 1) and all(type(p) is int for p in comp.parts)


@pytest.mark.parametrize(
    "argv",
    [
        ["testfn", "--itr-scaling", "1", "inf", "8", "64"],
        ["run", "whittaker", "--tol", "nan"],
        ["run", "whittaker", "--quad-tol", "inf"],
        ["run", "whittaker", "--config", "{cfg}"],
    ],
    ids=["itr-scaling-inf-a", "tol-nan", "quad-tol-inf", "config-quad-tol-nan"],
)
def test_cli_bad_argument_exits_2(capsys, tmp_path, argv):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("quad_tol = nan\n")
    code = cli.main([arg.format(cfg=cfg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
