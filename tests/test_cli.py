"""End-to-end checks of the command-line front end.

Everything goes through cli.main(argv) with captured stdout, so these also
pin the exit-code contract: 0 all passed, 1 a check failed, 2 bad usage or
a runtime error.
"""

import argparse
import csv
import dataclasses
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from kuznetsov_lab import cli, mellin, special, suite, testfunctions, trace
from kuznetsov_lab import combinatorics as comb
from kuznetsov_lab.quadrature import AccuracyError
from kuznetsov_lab.reporting import (
    CONFIG_ENV_VAR,
    CONFIG_PARSERS,
    RunConfig,
    emit_scaling_csv,
    load_config,
    parse_config_file,
    read_scaling_csv,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def registered(name):
    (claim,) = [c for group in suite.CHECKS.values() for c in group if c.name == name]
    return claim


def subparsers():
    """Each subcommand's parser, by name."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def subcommand_flags():
    """Each subcommand's option strings, -h/--help left out."""
    return {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in subparsers().items()
    }


# a config flag with a valid value, and a cheap valid call of each module
# subcommand that the flag can be appended to
CONFIG_FLAG_VALUES = {
    "--config": "lab.cfg", "--format": "csv", "--seed": "1",
    "--tol": "0.5", "--quad-tol": "1e-6", "--jobs": "2",
}
BASE_CALLS = {
    "combinatorics": ["combinatorics", "--dn", "4"],
    "geometry": ["geometry", "--conj-y", "2,2", "1.5,0.5,2.0"],
    "special": ["special", "--bound-B", "0.25"],
    "whittaker": ["whittaker", "--check-shift", "2", "1", "1"],
    "testfn": ["testfn", "--p-sharp", "--T", "4"],
    "trace": ["trace", "--kloosterman", "1", "1", "5"],
}
KEPT_CONFIG_FLAGS = {
    "run": set(CONFIG_FLAG_VALUES),
    "whittaker": {"--config", "--seed", "--tol", "--quad-tol"},
    "trace": {"--config", "--format"},
}
REMOVED_CONFIG_FLAGS = [
    (command, flag)
    for command in BASE_CALLS
    for flag in CONFIG_FLAG_VALUES
    if flag not in KEPT_CONFIG_FLAGS.get(command, set())
]
# each module subcommand's operations, in the order its usage lists them
OPERATIONS = {
    "combinatorics": "--dn, --phi, --verify-lemmas",
    "geometry": "--xi, --conj-y",
    "special": "--fr, --bound-B",
    "whittaker": "--mellin, --residue, --check-shift",
    "testfn": "--p-sharp, --h, --p-y, --itr-scaling, --main-term-scaling",
    "trace": "--kloosterman, --kloosterman-sweep, --tail, --exponents, --cuspidal",
}
# the size-bounded combinatorics flags: flag, metavar, bound, library function
COMBINATORICS_BOUNDS = [
    ("--dn", "N", cli._DN_MAX_N, "degree_D"),
    ("--verify-lemmas", "N_MAX", cli._LEMMAS_MAX_N, "verify_partition_identities"),
]
# the modulus-bounded trace flags: the arguments before the modulus, flag,
# metavar, least and largest modulus, the library function it reaches
TRACE_BOUNDS = [
    (["--kloosterman", "1", "2"], "C", 1, cli._KLOOSTERMAN_MAX_C, "kloosterman_gl2"),
    (["--kloosterman-sweep"], "CMAX", 1, cli._SWEEP_MAX_C, "kloosterman_sweep"),
    (["--tail", "1.5", "0.01"], "CMAX", 4, cli._SWEEP_MAX_C, "tail_from_rho"),
]

# the cost-bounded testfn and whittaker inputs: the call up to the value,
# metavar, the range's lower end, its largest value, the type the value is
# read as, the module and function it reaches, a value below the range and
# one inside it near its lower end
COST_BOUNDS = [
    (["testfn", "--itr-scaling", "1", "0.25", "1"], "TMAX", "0 <", cli._ITR_MAX_T, float, testfunctions, "itr_scaling", "0", "8"),
    (["testfn", "--p-y", "1", "--T"], "T", "0 <", cli._P_Y_MAX_T, float, testfunctions, "p_y_batch", "0", "0.5"),
    (["testfn", "--main-term-scaling", "2"], "R", "1 <=", cli._MAIN_TERM_MAX_R, int, testfunctions, "main_term_scaling", "0", "1"),
    (["whittaker", "--residue", "2", "1"], "DELTA", "0 <=", cli._RESIDUE_MAX_DELTA, int, mellin, "residue_check", "-1", "0"),
]


class TestRunDriver:
    def test_combinatorics_suite_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "run", "combinatorics")
        reports = json.loads(out)
        assert code == 0
        assert len(reports) == 8
        assert all(r["passed"] for r in reports)
        assert all(
            set(r) == {"name", "anchor", "digest", "passed", "max_error"}
            for r in reports
        )

    def test_seeded_runs_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "run", "geometry", "--seed", "7")
        _, second, _ = run_cli(capsys, "run", "geometry", "--seed", "7")
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run_cli(capsys, "run", "special", "--seed", "3")
        _, parallel, _ = run_cli(capsys, "run", "special", "--seed", "3", "--jobs", "4")
        assert serial == parallel

    def test_tol_propagates_into_digest(self, capsys):
        _, loose, _ = run_cli(capsys, "run", "combinatorics", "--tol", "1e-3")
        _, tight, _ = run_cli(capsys, "run", "combinatorics", "--tol", "1e-9")
        loose_d = [r["digest"] for r in json.loads(loose)]
        tight_d = [r["digest"] for r in json.loads(tight)]
        assert loose_d != tight_d

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "run", "combinatorics", "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "name,anchor,digest,passed,max_error"
        assert len(lines) == 9

    def test_timings_opt_in(self, capsys):
        _, out, _ = run_cli(capsys, "run", "combinatorics", "--timings")
        assert all("runtime" in r for r in json.loads(out))

    def test_csv_timings_add_a_runtime_column(self, capsys):
        code, out, _ = run_cli(capsys, "run", "combinatorics", "--format", "csv", "--timings")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert out.splitlines()[0] == "name,anchor,digest,passed,max_error,runtime"
        assert len(rows) == 8
        assert all(0.0 <= float(r["runtime"]) < 60.0 for r in rows)

    def test_raising_check_exits_2_with_its_error(self, capsys, monkeypatch):
        def boom(cfg):
            raise RuntimeError("boom, at n = 3")

        boom_claim = suite.Claim("boom", "m.f", boom, 0.0, widens=False)
        monkeypatch.setitem(suite.CHECKS, "combinatorics", [boom_claim])
        code, out, _ = run_cli(capsys, "run", "combinatorics")
        (report,) = json.loads(out)
        assert code == 2
        assert report["error"] == "RuntimeError: boom, at n = 3"
        assert report["passed"] is False and report["max_error"] == float("inf")

    def test_failed_partition_identity_exits_1(self, capsys, monkeypatch):
        failed = {"passed": False, "checked": 3, "first_counterexample": (1, 2)}
        monkeypatch.setattr(comb, "verify_partition_identities", lambda n_max: failed)
        code, out, _ = run_cli(capsys, "run", "combinatorics")
        (report,) = [r for r in json.loads(out) if r["name"] == "partition-identities"]
        assert code == 1
        assert report["passed"] is False and report["max_error"] == 1.0
        assert "error" not in report

    def test_count_claims_do_not_widen(self, capsys, monkeypatch):
        failed = {"passed": False, "checked": 3, "first_counterexample": (1, 2)}
        monkeypatch.setattr(comb, "verify_partition_identities", lambda n_max: failed)
        code, out, _ = run_cli(capsys, "run", "combinatorics", "--tol", "0.5")
        (report,) = [r for r in json.loads(out) if r["name"] == "partition-identities"]
        assert code == 1
        assert report["passed"] is False and report["max_error"] == 1.0

    def test_nonpositive_avatar_centre_fails_at_loose_tol(self, capsys, monkeypatch):
        # symmetric off-centre values, so only the sign condition can fail
        monkeypatch.setattr(
            testfunctions, "p_y_gl3", lambda y, params: [-1.0 if tuple(p) == (1.0, 1.0) else 0.5 for p in y]
        )
        monkeypatch.setitem(suite.CHECKS, "testfn", [registered("rank-three-avatar")])
        code, out, _ = run_cli(capsys, "run", "testfn", "--tol", "0.5")
        (report,) = json.loads(out)
        assert code == 1
        assert report["passed"] is False and report["max_error"] == 1.0

    def test_inexact_diagonal_ratio_fails_at_loose_tol(self, capsys, monkeypatch):
        # a small off-diagonal ratio, so only the exact diagonal can fail
        monkeypatch.setattr(
            trace, "cuspidal_sum",
            lambda forms, params, l, m: SimpleNamespace(ratio=0.99 if l == m else 0.01),
        )
        monkeypatch.setitem(suite.CHECKS, "trace", [registered("orthogonality-fixture")])
        code, out, _ = run_cli(capsys, "run", "trace", "--tol", "0.5")
        (report,) = json.loads(out)
        assert code == 1
        assert report["passed"] is False and report["max_error"] == 1.0

    @pytest.mark.parametrize("tol", ["1", "2.5"])
    def test_tol_of_one_or_more_exits_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "run", "all", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "identity_tol" in err

    def test_unknown_selector_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "nonsense"])
        assert exc.value.code == 2


class TestOutcomeRule:
    """main alone catches, and any exception exits 2 with one error line;
    exit 1 comes from a section with passed false or from a failed check."""

    def test_non_numeric_matrix_exits_2(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        path.write_text('{"a": 1}')
        code, out, err = run_cli(capsys, "geometry", "--xi", "1,1", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_scaling_value_past_float_range_exits_2_and_writes_nothing(self, capsys, tmp_path):
        # log value 759.03 at T = 64, past log(float max) = 709.78
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "testfn", "--itr-scaling", "150", "0.25", "8", "64", "--out", str(out_csv))
        assert code == 2 and out == ""
        assert err.startswith("error: scaling CSV: the value at T = 64.0 is exp(759.") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "exc, line",
        [(ZeroDivisionError("x"), "error: x\n"), (RuntimeError(), "error: RuntimeError\n")],
        ids=["message", "bare"],
    )
    def test_any_exception_exits_2(self, capsys, monkeypatch, exc, line):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_special", handler)
        code, out, err = run_cli(capsys, "special", "--bound-B", "0.75")
        assert (code, out, err) == (2, "", line)

    def test_failed_section_exits_1(self, capsys, monkeypatch):
        failed = {"passed": False, "checked": 3, "first_counterexample": (1, 2)}
        monkeypatch.setattr(comb, "verify_partition_identities", lambda n_max: failed)
        code, out, _ = run_cli(capsys, "combinatorics", "--verify-lemmas", "8")
        assert code == 1
        assert json.loads(out)["verify_lemmas"] == {
            "input": 8, "value": 3, "oracle_value": [1, 2], "passed": False,
        }

    @pytest.mark.parametrize(
        "argv, key, fit",
        [
            (["--itr-scaling", "1", "0.25", "8", "64"], "itr_scaling", lambda: testfunctions.itr_scaling(0.25, 1, (8.0, 16.0, 32.0, 64.0))),
            (["--main-term-scaling", "2", "1"], "main_term_scaling", lambda: testfunctions.main_term_scaling(2, 1)),
        ],
        ids=["itr", "main-term"],
    )
    def test_scaling_json_is_the_fit(self, capsys, argv, key, fit):
        # the fields in declaration order, local slopes and residual last,
        # as the slope summary has always printed them
        f = fit()
        steps = np.diff(f.log_values) / np.diff(np.log(f.T_values))
        payload = {
            "T_values": list(f.T_values),
            "log_values": list(f.log_values),
            "slope": f.slope,
            "intercept": f.intercept,
            "predicted": f.predicted,
            "local_slopes": [float(v) for v in steps],
            "residual": f.slope - f.predicted,
        }
        code, out, _ = run_cli(capsys, "testfn", *argv)
        assert code == 0
        assert out == json.dumps({key: payload}, indent=2) + "\n"


class TestSubcommandFlags:
    def test_flag_count(self):
        assert sum(len(flags) for flags in subcommand_flags().values()) == 38
        assert len(REMOVED_CONFIG_FLAGS) == 30

    def test_config_flags_are_those_the_handler_reads(self):
        for command, flags in subcommand_flags().items():
            kept = flags & set(CONFIG_FLAG_VALUES)
            assert kept == KEPT_CONFIG_FLAGS.get(command, set()), command

    @pytest.mark.parametrize("command", sorted(BASE_CALLS))
    def test_base_call_succeeds(self, capsys, command):
        code, _, _ = run_cli(capsys, *BASE_CALLS[command])
        assert code == 0

    @pytest.mark.parametrize("command, flag", REMOVED_CONFIG_FLAGS)
    def test_unread_config_flag_is_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(BASE_CALLS[command] + [flag, CONFIG_FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_config_flags_are_the_run_config_fields(self, tmp_path):
        # each flag's dest is a field, and the flag parses its value with the
        # parser the config file uses for that key
        flags = {
            a.dest: a
            for a in subparsers()["run"]._actions
            if set(a.option_strings) & set(CONFIG_FLAG_VALUES) - {"--config"}
        }
        assert set(flags) == {f.name for f in dataclasses.fields(RunConfig)}
        for key, action in flags.items():
            raw = CONFIG_FLAG_VALUES[action.option_strings[0]]
            assert action.type is CONFIG_PARSERS[key]
            cfgfile = tmp_path / "lab.cfg"
            cfgfile.write_text(f"{key} = {raw}\n")
            assert parse_config_file(str(cfgfile)) == {key: action.type(raw)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["combinatorics"], ["geometry"], ["special"], ["whittaker"], ["testfn"], ["trace"],
            ["whittaker", "--alpha", "a.json", "--seed", "3"],
            ["testfn", "--T", "4", "--out", "x.csv"],
            ["trace", "--format", "csv"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_no_operation_names_every_operation(self, capsys, argv):
        # the flags that only modify an operation do not count as one
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: choose at least one of {OPERATIONS[argv[0]]}\n"

    def test_unread_flag_usage_names_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["testfn", "--p-sharp", "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: kuznetsov-lab testfn")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["whittaker", "--check-shift", "2", "1", "1", "--alpha", "/nonexistent.json"],
                "--alpha has no effect without --residue",
            ),
            (
                ["testfn", "--main-term-scaling", "2", "1", "--R", "3", "--T", "99"],
                "--T has no effect without --p-sharp or --h or --p-y",
            ),
        ],
        ids=["whittaker --alpha", "testfn --R --T"],
    )
    def test_modifier_without_its_operation_exits_2(self, capsys, argv, message):
        # a modifier that no chosen operation reads would be dropped unread
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_modifier_defaults_reach_their_operations(self, capsys):
        # --T and --R left out still read as 10 and 1
        code, out, _ = run_cli(capsys, "testfn", "--p-y", "0.5")
        assert code == 0
        assert {k: json.loads(out)["p_y"][k] for k in ("T", "R")} == {"T": 10.0, "R": 1}


class TestConfigLayering:
    def test_file_then_flags(self, capsys, tmp_path):
        cfgfile = tmp_path / "lab.cfg"
        cfgfile.write_text("seed = 11\nformat = csv\n# comment\n\njobs=2\n")
        parsed = parse_config_file(str(cfgfile))
        assert parsed == {"seed": 11, "format": "csv", "jobs": 2}
        cfg = load_config(str(cfgfile), {"seed": 4, "format": None})
        assert cfg.seed == 4 and cfg.format == "csv" and cfg.jobs == 2

    def test_env_var_supplies_default_path(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "lab.cfg"
        cfgfile.write_text("format = csv\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfgfile))
        _, out, _ = run_cli(capsys, "run", "combinatorics")
        assert out.splitlines()[0] == "name,anchor,digest,passed,max_error"

    def test_unknown_key_rejected_with_line(self, tmp_path):
        cfgfile = tmp_path / "lab.cfg"
        cfgfile.write_text("seed = 1\nbogus = 2\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_config_file(str(cfgfile))

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "lab.cfg"
        cfgfile.write_text("bogus = 2\n")
        code, _, err = run_cli(capsys, "run", "combinatorics", "--config", str(cfgfile))
        assert code == 2
        assert "bogus" in err

    def test_bad_config_only_fails_commands_that_read_it(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "lab.cfg"
        cfgfile.write_text("bogus = 2\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfgfile))
        code, out, _ = run_cli(capsys, "combinatorics", "--dn", "4")
        assert code == 0
        assert json.loads(out)["dn"]["passed"] is True
        code, _, err = run_cli(capsys, "run", "combinatorics")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("line, key", [("seed = abc", "seed"), ("jobs = 2.5", "jobs")])
    def test_bad_value_names_file_line_and_key(self, capsys, tmp_path, line, key):
        cfgfile = tmp_path / "lab.cfg"
        cfgfile.write_text(f"# settings\nquad_tol = 1e-6\n{line}\n")
        code, out, err = run_cli(capsys, "run", "combinatorics", "--config", str(cfgfile))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {cfgfile} line 3: ") and repr(key) in err
        assert err.count("\n") == 1

    def test_explicit_config_wins_over_env_var(self, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "bad.cfg"
        bad.write_text("seed = abc\n")
        good = tmp_path / "good.cfg"
        good.write_text("format = csv\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(bad))
        code, out, _ = run_cli(capsys, "run", "combinatorics", "--config", str(good))
        assert code == 0
        assert out.splitlines()[0] == "name,anchor,digest,passed,max_error"

    @pytest.mark.parametrize("key", ["nodes_per_panel", "truncation_height"])
    def test_removed_keys_are_unknown(self, capsys, tmp_path, key):
        cfgfile = tmp_path / "lab.cfg"
        cfgfile.write_text(f"{key} = 64\n")
        code, _, err = run_cli(capsys, "run", "combinatorics", "--config", str(cfgfile))
        assert code == 2
        assert "unknown key" in err

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.quad_tol == 1e-8
        assert cfg.identity_tol == 1e-9
        assert cfg.format == "json"


class TestModuleSubcommands:
    def test_combinatorics_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "combinatorics", "--dn", "4", "--verify-lemmas", "8")
        payload = json.loads(out)
        assert code == 0
        assert payload["dn"] == {"input": 4, "value": 21, "oracle_value": 21, "passed": True}
        assert payload["verify_lemmas"]["passed"] is True
        assert payload["verify_lemmas"]["oracle_value"] is None

    def test_phi_reports_reversal_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "combinatorics", "--phi", "2,1,1")
        payload = json.loads(out)["phi"]
        assert code == 0
        assert payload["value"] == payload["oracle_value"] == "9"

    def test_no_operation_is_error(self, capsys):
        code, _, err = run_cli(capsys, "combinatorics")
        assert code == 2
        assert "choose at least one" in err

    @pytest.mark.parametrize(
        "flag, name, bound, library, n",
        [(*b, n) for b in COMBINATORICS_BOUNDS for n in ("1", str(b[2] + 1), "99999999999")],
    )
    def test_combinatorics_size_bound_exits_2(self, capsys, monkeypatch, flag, name, bound, library, n):
        # the size is checked before the library is called
        def not_called(n):
            raise AssertionError(f"{library}({n}) was called")

        monkeypatch.setattr(comb, library, not_called)
        code, out, err = run_cli(capsys, "combinatorics", flag, n)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} needs 2 <= {name} <= {bound}, got {n}\n"

    @pytest.mark.parametrize("flag, name, bound, library", COMBINATORICS_BOUNDS)
    def test_combinatorics_bound_is_in_the_help(self, capsys, monkeypatch, flag, name, bound, library):
        with pytest.raises(SystemExit):
            cli.main(["combinatorics", "--help"])
        assert f"2 <= {name} <= {bound}" in " ".join(capsys.readouterr().out.split())
        # the bound itself reaches the library
        def reached(n):
            raise ValueError(f"reached {library}({n})")

        monkeypatch.setattr(comb, library, reached)
        code, _, err = run_cli(capsys, "combinatorics", flag, str(bound))
        assert code == 2
        assert err == f"error: reached {library}({bound})\n"

    def test_bad_composition_spec_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "combinatorics", "--phi", "1,x")
        assert code == 2
        assert out == ""
        assert err == "error: bad composition spec '1,x'\n"

    def test_geometry_xi_long_element(self, capsys, tmp_path):
        u = np.eye(4)
        u[0, 1], u[0, 2], u[0, 3] = 0.5, -1.0, 2.0
        u[1, 2], u[1, 3] = 0.25, -0.5
        u[2, 3] = 3.0
        upath = tmp_path / "u.json"
        upath.write_text(json.dumps(u.tolist()))
        code, out, _ = run_cli(capsys, "geometry", "--xi", "1,1,1,1", str(upath))
        values = json.loads(out)["xi"]["values"]
        assert code == 0
        assert values == pytest.approx([6.25, 7.640625, 43.203125], rel=1e-12)

    def test_geometry_conj_y(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--conj-y", "2,2", "1.5,0.5,2.0")
        payload = json.loads(out)["conj_y"]
        assert code == 0
        assert len(payload["values"]) == 3

    def test_special_fr_and_bound(self, capsys, tmp_path):
        apath = tmp_path / "alpha.json"
        apath.write_text("[0.4, 0.3, -0.7]")
        code, out, _ = run_cli(
            capsys, "special", "--fr", "3", "2", str(apath), "--bound-B", "0.25"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["fr"]["value"]["im"] == pytest.approx(0.0, abs=1e-12)
        assert payload["bound_B"]["value"] == pytest.approx(0.5)

    def test_special_alpha_length_mismatch(self, capsys, tmp_path):
        apath = tmp_path / "alpha.json"
        apath.write_text("[0.4, -0.4]")
        code, _, err = run_cli(capsys, "special", "--fr", "3", "1", str(apath))
        assert code == 2
        assert "length" in err

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            # eight tempered entries; this printed a traceback and exited 1
            (["special", "--fr", "8", "1"], "[-0.4375, -0.3125, -0.1875, -0.0625, 0.0625, 0.1875, 0.3125, 0.4375]", "log|F_R| = 821.055"),
            # this printed "re": NaN, which is not JSON, and exited 0
            (["testfn", "--p-sharp", "--alpha"], "[[300, 0], [-300, 0]]", "p_sharp"),
        ],
        ids=["fr", "p-sharp"],
    )
    def test_value_past_float_range_exits_2(self, capsys, tmp_path, argv, text, message):
        path = tmp_path / "alpha.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message} passes the float range") and err.count("\n") == 1

    def test_whittaker_mellin_value(self, capsys, tmp_path):
        apath = tmp_path / "alpha.json"
        apath.write_text("[0.4, 0.3, -0.7]")
        spath = tmp_path / "s.json"
        spath.write_text("[[0.8, 0.1], [0.7, -0.2]]")
        code, out, _ = run_cli(capsys, "whittaker", "--mellin", "3", str(apath), str(spath))
        payload = json.loads(out)["mellin"]
        assert code == 0
        assert set(payload) == {"n", "value"}
        expect = mellin.mellin_closed((0.4j, 0.3j, -0.7j), (0.8 + 0.1j, 0.7 - 0.2j))
        assert complex(payload["value"]["re"], payload["value"]["im"]) == pytest.approx(expect)

    def test_whittaker_accuracy_error_exits_2(self, capsys, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AccuracyError("line integral tail above tolerance")

        monkeypatch.setattr(mellin, "mellin_value", unreachable)
        apath = tmp_path / "alpha.json"
        apath.write_text("[0.4, 0.3, -0.7]")
        spath = tmp_path / "s.json"
        spath.write_text("[0.8, 0.7]")
        code, out, err = run_cli(capsys, "whittaker", "--mellin", "3", str(apath), str(spath))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "tail above tolerance" in err

    def test_whittaker_mellin_near_pole_exits_2(self, capsys, tmp_path):
        # Re s = 0.05 puts the rank-four plane's lines 0.025 from the poles,
        # where the step-1/16 sum misses the step-1/32 sum by 1.4e6; the
        # oracle (bench/contour_oracle.py) gives 363072, and the earlier
        # Gauss-Legendre rule printed 933551 and exited 0
        apath = tmp_path / "alpha.json"
        apath.write_text("[0.4, -0.1, -0.3, 0]")
        spath = tmp_path / "s.json"
        spath.write_text("[0.05, 0.05, 0.05]")
        code, out, err = run_cli(capsys, "whittaker", "--mellin", "4", str(apath), str(spath))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "every-other-node sum" in err

    @pytest.mark.parametrize(
        "n, alpha, s", [("3", "[0.4, 0.3, -0.7]", "[0.8]"), ("2", "[0.4, -0.4]", "[]")]
    )
    def test_whittaker_mellin_wrong_s_length_exits_2(self, capsys, tmp_path, n, alpha, s):
        apath = tmp_path / "alpha.json"
        apath.write_text(alpha)
        spath = tmp_path / "s.json"
        spath.write_text(s)
        code, out, err = run_cli(capsys, "whittaker", "--mellin", n, str(apath), str(spath))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "need n - 1 s-variables" in err

    @pytest.mark.parametrize("tol, passed", [("1e-12", False), ("1e-9", True)])
    def test_shift_bound_agrees_with_suite(self, capsys, monkeypatch, tol, passed):
        # 5e-10 lies between the floor 1e-10 and a loosened --tol 1e-9
        monkeypatch.setattr(mellin, "shift_residual", lambda *args: 5e-10)
        code, out, _ = run_cli(capsys, "whittaker", "--check-shift", "2", "1", "1", "--tol", tol)
        assert json.loads(out)["check_shift"]["passed"] is passed
        assert code == (0 if passed else 1)
        code, out, _ = run_cli(capsys, "run", "whittaker", "--tol", tol)
        (shift,) = [r for r in json.loads(out) if r["name"] == "shift-identities"]
        assert shift["passed"] is passed
        assert code == (0 if passed else 1)

    def test_whittaker_residue_and_shift(self, capsys):
        code, out, _ = run_cli(
            capsys, "whittaker", "--residue", "2", "1", "2", "--check-shift", "2", "1", "3"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["residue"]["passed"] is True
        assert payload["check_shift"]["balanced"] is True
        assert payload["check_shift"]["degree_budget"] == 6

    @pytest.mark.parametrize("m", ["2", "0"])
    def test_whittaker_residue_index_out_of_range_exits_2(self, capsys, m):
        # rank one has the single variable m = 1
        code, out, err = run_cli(capsys, "whittaker", "--residue", "2", m, "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "variable index m" in err

    def test_whittaker_unsupported_rank_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "whittaker", "--check-shift", "3", "1", "2")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["special", "--bound-B", "inf"],
            ["testfn", "--T", "nan", "--p-sharp", "--h"],
            ["testfn", "--p-y", "nan"],
            ["testfn", "--p-y", "inf"],
            ["trace", "--tail", "nan", "0.01", "100"],
            ["geometry", "--conj-y", "2,2", "nan,0.5,2.0"],
            ["geometry", "--conj-y", "2,2", "inf,0.5,2.0"],
        ],
        ids=["bound-B-inf", "T-nan", "p-y-nan", "p-y-inf", "tail-nan", "conj-y-nan", "conj-y-inf"],
    )
    def test_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["special", "--fr", "3", "1", "{a}"], {"a": "[NaN, 0.5, -0.5]"}),
            (["testfn", "--h", "--alpha", "{a}"], {"a": "[NaN, 0.5, -0.5]"}),
            (["testfn", "--p-sharp", "--alpha", "{a}"], {"a": "[[0.0, Infinity], 0.5, -0.5]"}),
            (["whittaker", "--mellin", "2", "{a}", "{s}"], {"a": "[0.5, -0.5]", "s": "[NaN]"}),
            (["geometry", "--xi", "1,1,1,1", "{u}"], {"u": "[[1, NaN, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"}),
            (["geometry", "--xi", "1,1,1,1", "{u}"], {"u": "[[1, 0, 0, Infinity], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"}),
            (["trace", "--cuspidal", "{c}", "10", "1", "2", "3"], {"c": "r,lambda_2,adjoint_L\n5.0,0.5,1.0\nnan,0.5,1.0\n"}),
            (["trace", "--cuspidal", "{c}", "10", "1", "2", "3"], {"c": "r,lambda_2,adjoint_L\n5.0,0.5,1.0\n6.0,inf,1.0\n"}),
        ],
        ids=["fr-alpha", "h-alpha", "p-sharp-alpha", "mellin-s", "xi-nan", "xi-inf", "csv-nan", "csv-inf"],
    )
    def test_non_finite_file_input_exits_2(self, capsys, tmp_path, argv, files):
        paths = {}
        for key, text in files.items():
            paths[key] = tmp_path / key
            paths[key].write_text(text)
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        if "c" in files:
            assert "line 3" in err

    @pytest.mark.parametrize(
        "text",
        ["5", "[[0]]", '[{"a": 1}]', "[[0, 0.5, 9], [0, -0.5, 9]]", "[false, false]"],
        ids=["scalar", "short-pair", "object", "long-pair", "bools"],
    )
    def test_malformed_alpha_file_exits_2(self, capsys, tmp_path, text):
        # alpha.json is a list of numbers and [re, im] pairs, nothing else
        path = tmp_path / "alpha.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "testfn", "--p-sharp", "--alpha", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["testfn", "--p-sharp", "--alpha"], "[" + "9" * 400 + ", 0.5]"),
            (["testfn", "--p-sharp", "--alpha"], "[[0.5, " + "9" * 400 + "], 0]"),
            (["special", "--fr", "2", "1"], "[" + "9" * 400 + ", 0.5]"),
        ],
        ids=["p-sharp-number", "p-sharp-pair", "fr-number"],
    )
    def test_integer_past_float_range_exits_2(self, capsys, tmp_path, argv, text):
        # json reads a 400-digit integer exactly; as a float it would overflow
        path = tmp_path / "alpha.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err == "error: entries must be finite, got an integer too large for a float\n"

    @pytest.mark.parametrize("n", ["1", "1001", "99999999999"])
    def test_trace_exponents_size_bound_exits_2(self, capsys, monkeypatch, n):
        # N is checked before the composition (1,) * N is built
        def no_composition(parts):
            raise AssertionError(f"built a composition of {len(parts)} parts")

        monkeypatch.setattr(comb, "Composition", no_composition)
        code, out, err = run_cli(capsys, "trace", "--exponents", n, "1/2")
        assert code == 2
        assert out == ""
        assert err == f"error: --exponents needs 2 <= N <= {cli._EXPONENTS_MAX_N}, got {n}\n"

    def test_trace_exponents_bound_is_in_the_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["trace", "--help"])
        assert f"GL(N), 2 <= N <= {cli._EXPONENTS_MAX_N}" in " ".join(capsys.readouterr().out.split())
        code, out, _ = run_cli(capsys, "trace", "--exponents", str(cli._EXPONENTS_MAX_N), "1/2")
        assert code == 0
        assert json.loads(out)["exponents"]["n"] == cli._EXPONENTS_MAX_N

    @pytest.mark.parametrize(
        "head, name, lo, hi, library, c",
        [(*b, c) for b in TRACE_BOUNDS for c in (str(b[2] - 1), str(b[3] + 1), "99999999999")],
    )
    def test_trace_modulus_bound_exits_2(self, capsys, monkeypatch, head, name, lo, hi, library, c):
        # the modulus is checked before the library is called
        def not_called(*args):
            raise AssertionError(f"{library}{args} was called")

        monkeypatch.setattr(trace, library, not_called)
        code, out, err = run_cli(capsys, "trace", *head, c)
        assert code == 2
        assert out == ""
        assert err == f"error: {head[0]} needs {lo} <= {name} <= {hi}, got {c}\n"

    @pytest.mark.parametrize("head, name, lo, hi, library", TRACE_BOUNDS)
    def test_trace_modulus_bound_is_in_the_help(self, capsys, monkeypatch, head, name, lo, hi, library):
        with pytest.raises(SystemExit):
            cli.main(["trace", "--help"])
        assert f"{lo} <= {name} <= {hi}" in " ".join(capsys.readouterr().out.split())
        # both ends of the range reach the library
        def reached(*args):
            raise ValueError(f"reached {library}")

        monkeypatch.setattr(trace, library, reached)
        for c in (lo, hi):
            code, _, err = run_cli(capsys, "trace", *head, str(c))
            assert code == 2
            assert err == f"error: reached {library}\n"

    @pytest.mark.parametrize(
        "head, name, lo, hi, kind, module, library, value",
        [(*b[:7], v) for b in COST_BOUNDS for v in (b[7], str(b[3] + 1), "99999999999")],
    )
    def test_cost_bound_exits_2(self, capsys, monkeypatch, head, name, lo, hi, kind, module, library, value):
        # the value is checked before the library is called
        def not_called(*args, **kwargs):
            raise AssertionError(f"{library}{args} was called")

        monkeypatch.setattr(module, library, not_called)
        code, out, err = run_cli(capsys, *head, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {head[1]} needs {lo} {name} <= {hi}, got {kind(value)}\n"

    @pytest.mark.parametrize("head, name, lo, hi, kind, module, library, below, low", COST_BOUNDS)
    def test_cost_bound_is_in_the_help(self, capsys, monkeypatch, head, name, lo, hi, kind, module, library, below, low):
        with pytest.raises(SystemExit):
            cli.main([head[0], "--help"])
        assert f"{lo} {name} <= {hi}" in " ".join(capsys.readouterr().out.split())
        # both ends of the range reach the library
        def reached(*args, **kwargs):
            raise ValueError(f"reached {library}")

        monkeypatch.setattr(module, library, reached)
        for value in (low, str(hi)):
            code, _, err = run_cli(capsys, *head, value)
            assert code == 2
            assert err == f"error: reached {library}\n"

    @pytest.mark.parametrize(
        "head, flag, module, library",
        [
            (["special", "--fr", "{n}", "1"], "--fr", special, "f_R_poly"),
            (["testfn", "--p-sharp", "--alpha"], "--alpha", testfunctions, "p_sharp"),
            (["testfn", "--h", "--alpha"], "--alpha", testfunctions, "h_value"),
        ],
        ids=["fr", "p-sharp", "h"],
    )
    def test_pair_polynomial_length_bound(self, capsys, monkeypatch, tmp_path, head, flag, module, library):
        # only N = 11 past the bound: listing the subset pairs of a much
        # longer alpha, were the bound missing, would run out of memory
        def run(n):
            path = tmp_path / "alpha.json"
            path.write_text(json.dumps([k - (n - 1) / 2 for k in range(n)]))
            return run_cli(capsys, *(arg.format(n=n) for arg in head), str(path))

        def not_called(*args, **kwargs):
            raise AssertionError(f"{library}{args} was called")

        monkeypatch.setattr(module, library, not_called)
        code, out, err = run(cli._PAIR_MAX_N + 1)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} needs 2 <= N <= {cli._PAIR_MAX_N}, got {cli._PAIR_MAX_N + 1}\n"
        with pytest.raises(SystemExit):
            cli.main([head[0], "--help"])
        assert f"2 <= N <= {cli._PAIR_MAX_N}" in " ".join(capsys.readouterr().out.split())
        # both ends of the range reach the library
        def reached(*args, **kwargs):
            raise ValueError(f"reached {library}")

        monkeypatch.setattr(module, library, reached)
        for n in (2, cli._PAIR_MAX_N):
            code, _, err = run(n)
            assert code == 2
            assert err == f"error: reached {library}\n"

    @pytest.mark.parametrize("delta", ["98", "99", "200"])
    def test_whittaker_overflowing_shift_exits_2(self, capsys, delta):
        # from delta = 99 on this printed "passed": true with residual 0
        code, out, err = run_cli(capsys, "whittaker", "--check-shift", "2", "1", delta)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: shift identity at delta = {delta}") and err.count("\n") == 1

    def test_trace_exponents_zero_denominator_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "trace", "--exponents", "4", "1/0")
        assert code == 2
        assert out == ""
        assert err == "error: rho must be a half-integer, got 1/0\n"

    def test_testfn_scaling_at_underflowing_T_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "testfn", "--itr-scaling", "1", "1.25", "1e-300", "1e-299")
        assert code == 2
        assert out == ""
        assert err.startswith("error: T = 1e-300") and err.count("\n") == 1

    def test_testfn_p_y_past_its_accuracy_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "testfn", "--p-y", "1", "--T", "64", "--R", "20")
        assert code == 2
        assert out == ""
        assert err.startswith("error: p(y) at y = 1, T = 64.0, R = 20: the phase sum cancels") and err.count("\n") == 1

    def test_testfn_h_below_the_float_range_is_zero(self, capsys, tmp_path):
        # |p_sharp| underflows here; this exited 2 with "math domain error"
        path = tmp_path / "alpha.json"
        path.write_text("[300, -300]")
        code, out, _ = run_cli(capsys, "testfn", "--h", "--alpha", str(path))
        assert code == 0
        assert json.loads(out)["h"]["value"] == 0.0

    def test_testfn_point_values(self, capsys):
        code, out, _ = run_cli(capsys, "testfn", "--p-sharp", "--h", "--T", "4", "--R", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["p_sharp"]["value"]["re"] == pytest.approx(1.5016460946806297)
        assert payload["h"]["value"] == pytest.approx(0.7177700110461306)

    def test_trace_kloosterman(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--kloosterman", "1", "1", "5")
        value = json.loads(out)["kloosterman"]["value"]
        assert code == 0
        # S(1,1;5) = 2 cos(2 pi / 5) + 2 cos(4 pi / 5) + 1 = (3 - sqrt 5)/2
        assert value["re"] == pytest.approx((3 - 5**0.5) / 2)
        assert value["im"] == 0.0

    def test_trace_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "--kloosterman-sweep", "6", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "c,value"
        assert len(lines) == 7
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0)

    def test_trace_sweep_json(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--kloosterman-sweep", "12")
        payload = json.loads(out)["kloosterman_sweep"]
        assert code == 0
        assert payload["c_max"] == 12
        assert payload["values"] == [float(v.real) for v in trace.kloosterman_sweep(12)]

    @pytest.mark.parametrize(
        "ops",
        [
            ["--kloosterman", "1", "1", "7", "--kloosterman-sweep", "3", "--tail", "1.5", "0.01", "100"],
            ["--tail", "1.5", "0.01", "100"],
        ],
        ids=["sweep-with-others", "no-sweep"],
    )
    def test_trace_csv_needs_sweep_alone(self, capsys, ops):
        code, out, err = run_cli(capsys, "trace", *ops, "--format", "csv")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--kloosterman-sweep" in err

    def test_trace_tail_report(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--tail", "1.5", "0.01", "512")
        payload = json.loads(out)["tail"]
        assert code == 0
        # the scalar shift rho + (1 + eps)/2 is reported as a one-entry list
        assert payload["a"] == [2.005]
        assert payload["converged_geometric"] is True
        assert payload["divergent"] is False
        assert payload["partial_sum"] < payload["trivial_zeta"]

    def test_trace_exponents(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--exponents", "4", "1/2")
        payload = json.loads(out)["exponents"]
        assert code == 0
        assert payload["n"] == 4
        assert payload["lm_exponent"] == "21/4"
        assert payload["slack"] == "-1"

    def test_trace_cuspidal(self, capsys, tmp_path):
        path = tmp_path / "forms.csv"
        rows = ["r,lambda_2,lambda_3,adjoint_L"]
        rng = np.random.default_rng(2)
        for r in rng.uniform(3.0, 18.0, size=30):
            s2, s3 = rng.choice((-1.0, 1.0)), rng.choice((-1.0, 1.0))
            rows.append(f"{float(r)!r},{float(s2)!r},{float(s3)!r},{float(rng.uniform(0.5, 2.0))!r}")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "trace", "--cuspidal", str(path), "10", "1", "2", "3"
        )
        payload = json.loads(out)["cuspidal"]
        assert code == 0
        assert payload["forms"] == 30
        assert abs(payload["ratio"]) < 1.0

    @pytest.mark.parametrize(
        "argv, key, report",
        [
            (["trace", "--tail", "1.5", "0.01", "512"], "tail", trace.TailReport),
            (["trace", "--exponents", "4", "1/2"], "exponents", trace.ExponentReport),
            (["trace", "--cuspidal", "{csv}", "10", "1", "2", "3"], "cuspidal", trace.CuspidalSum),
            (["testfn", "--itr-scaling", "1", "0.25", "8", "64"], "itr_scaling", testfunctions.ScalingFit),
            (["testfn", "--main-term-scaling", "2", "1"], "main_term_scaling", testfunctions.ScalingFit),
        ],
        ids=["tail", "exponents", "cuspidal", "itr-scaling", "main-term-scaling"],
    )
    def test_report_prints_every_field(self, capsys, tmp_path, argv, key, report):
        csv_path = tmp_path / "forms.csv"
        csv_path.write_text("r,lambda_2,lambda_3,adjoint_L\n5.0,0.5,-0.5,1.0\n6.0,-0.3,0.4,1.2\n")
        code, out, _ = run_cli(capsys, *(arg.format(csv=csv_path) for arg in argv))
        payload = json.loads(out)[key]
        assert code == 0
        assert {f.name for f in dataclasses.fields(report)} <= set(payload)

    def test_trace_tail_prints_block_sums(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--tail", "1.5", "0.01", "512")
        payload = json.loads(out)["tail"]
        rep = trace.tail_from_rho(1.5, 0.01, 512)
        assert code == 0
        assert payload["block_sums"] == list(rep.block_sums)
        assert payload["trivial_block_ratio"] == rep.trivial_block_ratio

    def test_trace_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "trace", "--cuspidal", str(tmp_path / "nope.csv"), "10", "1", "2", "3"
        )
        assert code == 2
        assert "nope.csv" in err


class TestScalingCsv:
    def test_emit_and_round_trip(self, capsys, tmp_path):
        out_csv = tmp_path / "itr.csv"
        code, out, _ = run_cli(
            capsys,
            "testfn", "--itr-scaling", "1", "0.25", "8", "64", "--out", str(out_csv),
        )
        assert code == 0
        fit_json = json.loads(out)["itr_scaling"]
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "T,value,log_value"
        assert len(lines) == 5  # header + four doublings
        sidecar = json.loads((tmp_path / "itr.json").read_text())
        assert sidecar["predicted"] == fit_json["predicted"]
        refit = read_scaling_csv(str(out_csv))
        assert refit.slope == pytest.approx(fit_json["slope"], abs=1e-12)

    def test_value_past_float_range_writes_no_file(self, tmp_path):
        fit = testfunctions.fit_scaling([8, 16, 32, 64], [1.0, 2.0, 3.0, 800.0], 1.0)
        with pytest.raises(ValueError, match=r"T = 64\.0 is exp\(800\.0\), past the float range"):
            emit_scaling_csv(fit, str(tmp_path / "x.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_sidecar_leaves_no_csv(self, capsys, tmp_path):
        (tmp_path / "x.json").mkdir()
        code, out, err = run_cli(capsys, "testfn", "--itr-scaling", "1", "0.25", "8", "64", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "x.json" in err
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_nonpositive_scale_is_value_error(self, capfd, tmp_path):
        # log T = -inf would reach the least-squares solve, which fails
        # inside LAPACK; the fit refuses the row first
        path = tmp_path / "bad.csv"
        path.write_text("T,value,log_value\n0,1.0,0.0\n8,8.0,2.08\n16,16.0,2.77\n32,32.0,3.47\n")
        (tmp_path / "bad.json").write_text(json.dumps({"predicted": 1.0}))
        with pytest.raises(ValueError, match="positive and finite"):
            read_scaling_csv(str(path))
        assert "DLASCL" not in capfd.readouterr().err

    def test_repeated_scale_row_is_value_error(self, tmp_path):
        path = tmp_path / "rep.csv"
        path.write_text("T,value,log_value\n8,8.0,2.08\n16,16.0,2.77\n16,16.0,2.77\n32,32.0,3.47\n")
        (tmp_path / "rep.json").write_text(json.dumps({"predicted": 1.0}))
        with pytest.raises(ValueError, match="distinct"):
            read_scaling_csv(str(path))

    @pytest.mark.parametrize(
        "row, fault",
        [("8,8.0", "three finite numbers"), ("8,abc,2.08", "not a number"), ("8,inf,2.08", "finite")],
        ids=["short-row", "non-number", "non-finite"],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, fault):
        path = tmp_path / "bad.csv"
        path.write_text(f"T,value,log_value\n4,4.0,1.39\n{row}\n16,16.0,2.77\n32,32.0,3.47\n")
        (tmp_path / "bad.json").write_text(json.dumps({"predicted": 1.0}))
        with pytest.raises(ValueError, match=f"bad.csv: line 3: .*{fault}"):
            read_scaling_csv(str(path))

    def test_main_term_scaling_summary(self, capsys):
        code, out, _ = run_cli(capsys, "testfn", "--main-term-scaling", "2", "1")
        fit = json.loads(out)["main_term_scaling"]
        assert code == 0
        assert fit["predicted"] == 3  # 2R + 1
        assert abs(fit["slope"] - fit["predicted"]) < 0.1
        assert len(fit["local_slopes"]) == len(fit["T_values"]) - 1

    def test_out_without_scaling_is_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "testfn", "--p-sharp", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "scaling" in err

    def test_out_with_two_scalings_is_error(self, capsys, tmp_path):
        # the CSV holds one fit, so a second would be dropped without a word
        out_csv = tmp_path / "f.csv"
        code, out, err = run_cli(
            capsys,
            "testfn", "--itr-scaling", "1", "0.25", "8", "64", "--main-term-scaling", "2", "1", "--out", str(out_csv),
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "one scaling operation" in err
        assert not out_csv.exists()

    def test_bad_grid_is_error(self, capsys):
        code, _, err = run_cli(capsys, "testfn", "--itr-scaling", "1", "0.25", "64", "8")
        assert code == 2
        assert "Tmin" in err

    def test_fewer_than_four_doublings_is_error(self, capsys):
        # 8, 16, 32 is three points, too few for the local slopes
        code, out, err = run_cli(capsys, "testfn", "--itr-scaling", "1", "0.25", "8", "32")
        assert code == 2
        assert out == ""
        assert err == "error: need at least four doublings between Tmin and Tmax\n"
