"""Library-level contracts of the verification driver and report plumbing."""

import csv
import dataclasses
import importlib
import io
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from kuznetsov_lab import mellin, suite, trace

from kuznetsov_lab.reporting import (
    RunConfig,
    VerificationReport,
    input_digest,
    reports_to_csv,
    reports_to_json,
)
from kuznetsov_lab.suite import SELECTORS, run_suite, suite_exit_code


# input_digest(name, RunConfig(seed=7)) for every check, as `run all --seed 7`
# prints them: a digest is part of the byte-identical canonical output
SEED_7_DIGESTS = {
    "degree-closed-forms": "59f1bea67a75",
    "partition-identities": "b39a5e86e4c3",
    "phi-permutation-minimum": "1ca10a070164",
    "even-odd-count": "449612060b9d",
    "admissible-compositions": "bb207a8ad200",
    "kappa-orbit": "09128f0d2d7c",
    "exponent-vector": "232b24a4afe2",
    "composition-enumeration": "ae714e5ab91c",
    "iwasawa-roundtrip": "524cce142e51",
    "xi-long-gl4": "944332317487",
    "conjugated-y": "930c0afca3c3",
    "delta-w-identity": "b59e8a66398e",
    "gamma-ring-decomposition": "ed8502e84dd4",
    "gamma-ring-split": "464046eea9cb",
    "pair-polynomial-multiset": "91ec8665daad",
    "block-subset-sums": "d2d45380a24c",
    "bound-B-lemmas": "1961026513f8",
    "rank-one-inverse": "558fd75eb6ce",
    "rank-two-recursion": "37e8504b7c76",
    "shift-identities": "c6d5bf19be12",
    "residue-contour": "8d9618499cb0",
    "transform-frozen-values": "3bbe49b5310e",
    "cauchy-decomposition": "411fd69c0d74",
    "shifted-line-slope": "57400a8d4743",
    "main-term-slopes": "27a7cb71d4e3",
    "rank-three-avatar": "2830d2e3aa65",
    "kloosterman-exact": "83ffb9b681c6",
    "modulus-tail": "b64b148d49a2",
    "exponent-ledger": "6c6e3e4403d6",
    "orthogonality-fixture": "0a8dcf276fe6",
}

# max_error of the two Gamma-ring checks at seed 7, as `run all --seed 7`
# prints them: each residual is a difference of log-modulus sums added in a
# fixed order, and these fields move if that order does
SEED_7_RING_ERRORS = {
    "gamma-ring-decomposition": 3.907985046680551e-12,
    "gamma-ring-split": 2.1316282072803006e-14,
}


def make_report(**kw):
    base = dict(
        name="x", anchor="m.f", digest="0" * 12, passed=True, max_error=0.0, runtime=0.1
    )
    base.update(kw)
    return VerificationReport(**base)


class TestDriver:
    def test_selectors(self):
        assert set(SELECTORS) == {
            "combinatorics", "geometry", "special", "whittaker", "testfn", "trace", "all",
        }

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="selector"):
            run_suite("bogus", RunConfig())

    def test_all_is_concatenation_in_group_order(self, monkeypatch):
        # the order comes from run_suite, not from the measures: constant measures
        # keep the full battery to test_full_battery_passes
        constant = {
            group: [dataclasses.replace(claim, measure=lambda cfg: 0.0) for claim in claims]
            for group, claims in suite.CHECKS.items()
        }
        monkeypatch.setattr(suite, "CHECKS", constant)
        cfg = RunConfig(seed=5)
        all_names = [r.name for r in run_suite("all", cfg)]
        concat = []
        for sel in SELECTORS[:-1]:
            concat += [r.name for r in run_suite(sel, cfg)]
        assert all_names == concat
        assert all_names == [claim.name for claims in constant.values() for claim in claims]

    def test_full_battery_passes(self):
        reports = run_suite("all", RunConfig())
        assert all(r.passed for r in reports)
        assert suite_exit_code(reports) == 0

    def test_every_widening_claim_meets_its_own_floor(self):
        # identity_tol below every floor leaves each claim at its registered bound
        reports = run_suite("all", RunConfig(seed=7, identity_tol=1e-300))
        assert [r.name for r in reports if not r.passed] == []

    def test_parallel_equals_serial(self):
        serial = run_suite("combinatorics", RunConfig(seed=2))
        parallel = run_suite("combinatorics", RunConfig(seed=2, jobs=4))
        assert [r.payload() for r in serial] == [r.payload() for r in parallel]

    def test_digest_tracks_seed_and_tolerance(self):
        base = input_digest("degree-closed-forms", RunConfig())
        assert base != input_digest("degree-closed-forms", RunConfig(seed=1))
        assert base != input_digest("degree-closed-forms", RunConfig(identity_tol=1e-3))
        assert base == input_digest("degree-closed-forms", RunConfig(jobs=8))
        assert base != input_digest("partition-identities", RunConfig())

    def test_seed_7_digests_are_pinned(self):
        names = [claim.name for claims in suite.CHECKS.values() for claim in claims]
        assert {name: input_digest(name, RunConfig(seed=7)) for name in names} == SEED_7_DIGESTS

    def test_seed_7_ring_errors_are_pinned(self):
        claims = {claim.name: claim for claims in suite.CHECKS.values() for claim in claims}
        got = {name: claims[name].measure(RunConfig(seed=7)) for name in SEED_7_RING_ERRORS}
        assert got == SEED_7_RING_ERRORS


def parse_bound(cell: str) -> tuple[float, bool]:
    """A catalog bound cell: ``0.15``, ``3/sqrt(50)`` or ``max(1e-12, --tol)``."""
    widened = re.fullmatch(r"max\((.+), --tol\)", cell)
    text = widened.group(1) if widened else cell
    root = re.fullmatch(r"(\d+)/sqrt\((\d+)\)", text)
    value = float(root.group(1)) / math.sqrt(float(root.group(2))) if root else float(text)
    return value, widened is not None


class TestPassRule:
    @pytest.mark.parametrize("widens, passed", [(False, False), (True, True)])
    def test_only_floors_widen_to_identity_tol(self, widens, passed):
        claim = suite.Claim("x", "m.f", lambda cfg: 0.25, 0.1, widens=widens)
        rep = suite._run_one(claim, RunConfig(identity_tol=0.5))
        assert rep.passed is passed and rep.max_error == 0.25
        assert suite._run_one(claim, RunConfig()).passed is False

    def test_bound_is_inclusive(self):
        claim = suite.Claim("x", "m.f", lambda cfg: 0.9, 0.9, widens=False)
        assert suite._run_one(claim, RunConfig()).passed is True


class TestRegistry:
    def test_mellin_bounds_are_read_not_copied(self):
        claims = {c.name: c for group in suite.CHECKS.values() for c in group}
        assert claims["shift-identities"].bound is mellin.SHIFT_TOL
        assert claims["residue-contour"].bound is mellin.RESIDUE_TOL

    def test_tail_bound_is_read_not_copied(self):
        claims = {c.name: c for group in suite.CHECKS.values() for c in group}
        assert claims["modulus-tail"].bound is trace.TAIL_RATIO_BOUND

    def test_readme_catalog_matches_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = readme.index("| check | anchor | bound | verifies |")
        rows = []
        for line in readme[start:].splitlines()[2:]:
            if not line.startswith("|"):
                break
            name, anchor, bound, _ = (cell.strip() for cell in line.strip("|").split("|"))
            rows.append((name, anchor, *parse_bound(bound)))
        registry = [
            (c.name, c.anchor, c.bound, c.widens) for group in suite.CHECKS.values() for c in group
        ]
        assert rows == registry

    def test_anchors_resolve(self):
        # an anchor is printed in the canonical output; it must name a live
        # function of its library module, so a rename cannot leave it stale
        for claim in (c for group in suite.CHECKS.values() for c in group):
            module, name = claim.anchor.split(".")
            lib = importlib.import_module(f"kuznetsov_lab.{module}")
            assert callable(getattr(lib, name, None)), claim.anchor


class TestExitCodes:
    def test_all_pass(self):
        assert suite_exit_code([make_report()]) == 0

    def test_failure(self):
        assert suite_exit_code([make_report(), make_report(passed=False, max_error=0.5)]) == 1

    def test_crash_dominates(self):
        crashed = make_report(passed=False, max_error=float("inf"), error="RuntimeError: x")
        assert suite_exit_code([make_report(passed=False, max_error=0.5), crashed]) == 2

    def test_infinite_error_alone_is_a_failure(self):
        assert suite_exit_code([make_report(passed=False, max_error=float("inf"))]) == 1

    def test_modulus_tail_without_ratios_is_finite_failure(self, monkeypatch):
        empty = SimpleNamespace(
            converged_geometric=False, divergent=False, partial_sum=1.0,
            trivial_zeta=2.0, block_ratios=(),
        )
        monkeypatch.setattr(trace, "tail_from_rho", lambda *args: empty)
        claim = suite.Claim("modulus-tail", "trace.tail_from_rho", suite._check_modulus_tail, trace.TAIL_RATIO_BOUND, widens=False)
        rep = suite._run_one(claim, RunConfig())
        assert rep.error is None and rep.max_error == 1.0
        assert suite_exit_code([rep]) == 1

    @pytest.mark.parametrize(
        "c, size",
        [(2, 2.0), (1999, 100.0)],
        ids=["trivial-only", "weil-only"],
    )
    def test_kloosterman_bound_breach_fails(self, monkeypatch, c, size):
        # S(1, 1; 2) = 2 breaks only |S| <= phi(2) = 1 (Weil allows 2 sqrt 2);
        # |S(1, 1; 1999)| = 100 breaks only Weil's 2 sqrt 1999 < 90
        sweep = trace.kloosterman_sweep

        def broken(c_max):
            values = sweep(c_max)
            values[c - 1] = size
            return values

        monkeypatch.setattr(trace, "kloosterman_sweep", broken)
        assert suite._check_kloosterman(RunConfig()) == 1.0


class TestSerialization:
    def test_payload_excludes_runtime_by_default(self):
        r = make_report()
        assert "runtime" not in r.payload()
        assert r.payload(include_runtime=True)["runtime"] == 0.1

    def test_json_shape(self):
        text = reports_to_json([make_report()], include_runtime=False)
        data = json.loads(text)
        assert data == [
            {"name": "x", "anchor": "m.f", "digest": "0" * 12, "passed": True, "max_error": 0.0}
        ]
        assert text.endswith("\n")

    def test_csv_shape(self):
        lines = reports_to_csv([make_report(passed=False, max_error=2.0)], False).splitlines()
        assert lines[0] == "name,anchor,digest,passed,max_error"
        assert lines[1] == "x,m.f,000000000000,False,2.0"

    def test_error_serialized_only_when_set(self):
        crashed = make_report(passed=False, max_error=float("inf"), error='ValueError: a, "b"')
        assert "error" not in make_report().payload()
        assert json.loads(reports_to_json([crashed]))[0]["error"] == 'ValueError: a, "b"'
        rows = list(csv.reader(io.StringIO(reports_to_csv([make_report(), crashed]))))
        assert rows[0][-1] == "error"
        assert rows[1][-1] == "" and rows[2][-1] == 'ValueError: a, "b"'


class TestRunConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(quad_tol=0.0)
        with pytest.raises(ValueError):
            RunConfig(jobs=0)
        with pytest.raises(ValueError):
            RunConfig(format="xml")

    def test_identity_tol_stays_below_one(self):
        # a failed side condition reads as error 1.0, which must never pass
        with pytest.raises(ValueError, match="identity_tol"):
            RunConfig(identity_tol=1.0)
        assert RunConfig(identity_tol=0.999).identity_tol == 0.999
