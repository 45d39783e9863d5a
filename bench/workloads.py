"""The four benchmark workloads.

Each workload turns a seed into inputs (``make_inputs``), runs one
iteration on them through the library's public functions (``run``), and
checks one iteration's outputs against the frozen oracles (``check``).
``run`` returns the wall time of every operation it timed, so a run can
report per-operation medians over its iterations.

Inputs whose oracle is frozen come from the pools in ``refs/``; the seed
picks from them, so a run never computes an oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import common

CONTOUR_TOL = 1e-8
# |log value - reference| accepted per scaling point: it moves a local slope
# over one doubling by at most 2e-3 / log 2 = 3e-3, a quarter of the 0.013
# between the measured criterion-11 slope (1.737) and the min-form 1.75
SCALING_TOL = 1e-3
KLOOSTERMAN_TOL = 1e-9
RHO_SET = (-0.5, 0.5, 1.5, 2.5)
# the battery checks that compare a quadrature result with an independent
# oracle; their largest max_error is the battery's accuracy figure
BATTERY_ACCURACY_CHECKS = (
    "rank-one-inverse",
    "rank-two-recursion",
    "residue-contour",
    "cauchy-decomposition",
)


@dataclass
class Verdict:
    """Outcome of checking one iteration."""

    attempted: int
    failures: list[dict] = field(default_factory=list)
    max_err: float = math.nan
    named: dict = field(default_factory=dict)

    def fail(self, op: str, kind: str, message: str) -> None:
        self.failures.append({"op": op, "kind": kind, "message": message})


def _timed(timings: dict, op: str, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        timings[op] = time.perf_counter() - start


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


# ---------------------------------------------------------------------------
# battery


class Battery:
    """The whole ``run all`` battery, serial, rendered as JSON."""

    name = "battery"
    time_name = "battery_s"
    err_name = "battery_accuracy_err"

    def make_inputs(self, seed: int, smoke: bool) -> dict:
        return {"seed": int(seed), "selector": "whittaker" if smoke else "all"}

    def run(self, inputs: dict):
        from kuznetsov_lab import reporting, suite

        cfg = reporting.RunConfig(seed=inputs["seed"])
        reports = suite.run_suite(inputs["selector"], cfg)
        timings = {f"check.{r.name}": r.runtime for r in reports}
        text = _timed(timings, "render", reporting.render_reports, reports, cfg)
        return timings, {"reports": reports, "text": text}

    def fingerprint(self, out) -> str:
        return out["text"]

    def check(self, inputs: dict, out) -> Verdict:
        reports = out["reports"]
        verdict = Verdict(attempted=len(reports))
        for r in reports:
            if not r.passed:
                kind = "error" if math.isinf(r.max_error) else "check"
                # suite._run_one turns an exception into max_error = inf and
                # drops its type and message; only the fact survives here
                verdict.fail(r.name, kind, f"not passed, max_error {r.max_error!r}")
        accuracy = [r.max_error for r in reports if r.name in BATTERY_ACCURACY_CHECKS]
        verdict.max_err = max(accuracy) if accuracy else math.nan
        return verdict


# ---------------------------------------------------------------------------
# scaling


class Scaling:
    """Criterion-11 shifted-line ladder and the rank-three main-term ladder."""

    name = "scaling"
    time_name = "scaling_s"
    err_name = "scaling_log_err"

    def __init__(self) -> None:
        self.refs = common.load_refs("scaling")

    def make_inputs(self, seed: int, smoke: bool) -> dict:
        itr = [p["T"] for p in self.refs["itr_log"]["points"]]
        main = [p["T"] for p in self.refs["main_term_log"]["points"]]
        if smoke:
            itr, main = itr[:2], main[:2]
        # the ladders are fixed by the criterion; the seed only orders them
        order = [("itr", T) for T in itr] + [("main", T) for T in main]
        perm = _rng(seed, 11).permutation(len(order))
        return {"order": [order[i] for i in perm]}

    def run(self, inputs: dict):
        from kuznetsov_lab import combinatorics, special, testfunctions as tf

        a, R = self.refs["itr_log"]["a"], self.refs["itr_log"]["R"]
        n, Rm = self.refs["main_term_log"]["n"], self.refs["main_term_log"]["R"]
        timings, logs, errors = {}, {}, {}
        for kind, T in inputs["order"]:
            op = f"{kind}.T{T}"
            try:
                if kind == "itr":
                    params = tf.TestFunctionParams(T=float(T), R=R)
                    logs[op] = _timed(timings, op, tf.itr_log, a, params)
                else:
                    logs[op] = _timed(timings, op, tf.main_term_log, n, Rm, float(T))
            except Exception as exc:  # recorded as a failed operation
                errors[op] = f"{type(exc).__name__}: {exc}"
        fits = {}
        for kind, predicted in (
            ("itr", R + 1.5 - special.bound_B(a)),
            ("main", Rm * (2 * combinatorics.degree_D(n) + n * (n - 1)) + n - 1),
        ):
            Ts = sorted(T for k, T in inputs["order"] if k == kind and f"{k}.T{T}" in logs)
            if len(Ts) >= 4:
                values = [logs[f"{kind}.T{T}"] for T in Ts]
                fit = _timed(timings, f"{kind}.fit", tf.fit_scaling, Ts, values, predicted)
                fits[kind] = fit.slope
        return timings, {"logs": logs, "errors": errors, "slopes": fits}

    def fingerprint(self, out) -> str:
        return repr(sorted(out["logs"].items())) + repr(sorted(out["slopes"].items()))

    def check(self, inputs: dict, out) -> Verdict:
        refs = {f"itr.T{p['T']}": p["ref"] for p in self.refs["itr_log"]["points"]}
        refs.update({f"main.T{p['T']}": p["ref"] for p in self.refs["main_term_log"]["points"]})
        verdict = Verdict(attempted=len(inputs["order"]))
        worst = 0.0
        for kind, T in inputs["order"]:
            op = f"{kind}.T{T}"
            if op in out["errors"]:
                verdict.fail(op, "raised", out["errors"][op])
                continue
            err = abs(out["logs"][op] - refs[op])
            worst = max(worst, err)
            if not err <= SCALING_TOL:
                verdict.fail(op, "oracle", f"|log - ref| = {err:.3e} > {SCALING_TOL:g}")
        verdict.max_err = worst
        verdict.named = {f"slope.{k}": v for k, v in out["slopes"].items()}
        return verdict


# ---------------------------------------------------------------------------
# kloosterman


def _divisor_counts(c_max: int) -> np.ndarray:
    d = np.zeros(c_max + 1, dtype=np.int64)
    for k in range(1, c_max + 1):
        d[k::k] += 1
    return d


class Kloosterman:
    """Weil-bound sweep at (1, 1), a sweep at a seeded (m, l) and a tail."""

    name = "kloosterman"
    time_name = "kloosterman_s"
    err_name = "kloosterman_max_err"

    def __init__(self) -> None:
        self.refs = common.load_refs("kloosterman")

    def make_inputs(self, seed: int, smoke: bool) -> dict:
        rng = _rng(seed, 13)
        pair = self.refs["pairs"][int(rng.integers(len(self.refs["pairs"])))]
        c_unit = 600 if smoke else self.refs["unit_pair"]["c_max"]
        return {
            "c_unit": c_unit,
            "c_pair": c_unit // 2,
            "m": pair["m"],
            "l": pair["l"],
            "rho": float(rng.choice(RHO_SET)),
            "eps": float(rng.uniform(0.01, 0.1)),
        }

    def run(self, inputs: dict):
        from kuznetsov_lab import trace

        calls = {
            "unit": (trace.kloosterman_sweep, (inputs["c_unit"],)),
            "pair": (trace.kloosterman_sweep, (inputs["c_pair"], inputs["m"], inputs["l"])),
            "tail": (trace.tail_from_rho, (inputs["rho"], inputs["eps"], inputs["c_pair"])),
        }
        timings, results, errors = {}, {}, {}
        for op, (fn, args) in calls.items():
            try:
                results[op] = _timed(timings, op, fn, *args)
            except Exception as exc:  # recorded as failed operations
                errors[op] = f"{type(exc).__name__}: {exc}"
        return timings, {"results": results, "errors": errors}

    def fingerprint(self, out) -> str:
        parts = [v.tobytes().hex() if isinstance(v, np.ndarray) else repr(v) for v in out["results"].values()]
        return "".join(parts) + repr(out["errors"])

    def _weil(self, verdict, label, values, m, l, d):
        c = np.arange(1, values.size + 1)
        g = np.gcd(np.gcd(m, l), c)
        bound = d[1 : values.size + 1] * np.sqrt(g) * np.sqrt(c) + 1e-9
        for k in np.flatnonzero(np.abs(values) > bound):
            verdict.fail(f"{label}.c{k + 1}", "weil", f"|S| = {abs(values[k]):.6g} > {bound[k]:.6g}")

    def check(self, inputs: dict, out) -> Verdict:
        results, errors = out["results"], out["errors"]
        m, l, c_unit, c_pair = inputs["m"], inputs["l"], inputs["c_unit"], inputs["c_pair"]
        verdict = Verdict(attempted=c_unit + c_pair + 1)
        for op, message in errors.items():
            moduli = {"unit": c_unit, "pair": c_pair}.get(op)
            for name in [f"{op}.c{c}" for c in range(1, moduli + 1)] if moduli else [op]:
                verdict.fail(name, "raised", message)
        ref_unit = np.asarray(self.refs["unit_pair"]["values"][:c_unit])
        d = _divisor_counts(c_unit)
        worst = 0.0
        if "unit" in results:
            unit = results["unit"]
            self._weil(verdict, "unit", unit, 1, 1, d)
            err_unit = np.abs(unit - ref_unit)
            for k in np.flatnonzero(~(err_unit <= KLOOSTERMAN_TOL)):
                verdict.fail(f"unit.c{k + 1}", "oracle", f"|S - ref| = {err_unit[k]:.3e}")
            worst = float(err_unit.max())
        if "pair" in results:
            pair = results["pair"]
            self._weil(verdict, "pair", pair, m, l, d)
            spec = next(p for p in self.refs["pairs"] if (p["m"], p["l"]) == (m, l))
            for c, ref in zip(spec["moduli"], spec["values"]):
                if c > c_pair:
                    continue
                err = abs(pair[c - 1] - ref)
                worst = max(worst, err)
                if not err <= KLOOSTERMAN_TOL:
                    verdict.fail(f"pair.c{c}", "oracle", f"|S - ref| = {err:.3e}")
        if "tail" in results:
            # the tail sums |S(1,1;c)| c^-exponent over c <= c_pair: the same
            # sum over the frozen table
            tail = results["tail"]
            c = np.arange(1, c_pair + 1, dtype=float)
            expect = float(np.sum(np.abs(ref_unit[:c_pair]) / c**tail.exponent))
            rel = abs(tail.partial_sum - expect) / expect
            if not rel <= KLOOSTERMAN_TOL:
                verdict.fail("tail", "oracle", f"partial sum relative error {rel:.3e}")
            verdict.named = {"tail.partial_sum_rel_err": rel}
        verdict.max_err = worst
        return verdict


# ---------------------------------------------------------------------------
# contour


class Contour:
    """mellin_recursive at seeded rank-three and rank-four points, plus the
    fixed probes that define the accuracy figure.  Every reference is
    independent of the library (see make_refs.py)."""

    name = "contour"
    time_name = "contour_s"
    err_name = "contour_max_rel_err"

    def __init__(self) -> None:
        self.refs = common.load_refs("contour")

    def make_inputs(self, seed: int, smoke: bool) -> dict:
        rng = _rng(seed, 17)
        n3, n4 = (8, 1) if smoke else (64, 8)
        probes = [
            ("probe", i) for i, p in enumerate(self.refs["probes"]) if not (smoke and len(p["s"]) == 3)
        ]
        picks3 = rng.choice(len(self.refs["rank3"]), size=n3, replace=False)
        picks4 = rng.choice(len(self.refs["rank4"]), size=n4, replace=False)
        points = [("rank3", int(i)) for i in picks3] + [("rank4", int(i)) for i in picks4] + probes
        return {"points": points}

    def _point(self, pool: str, i: int) -> dict:
        return self.refs["probes" if pool == "probe" else pool][i]

    def run(self, inputs: dict):
        from kuznetsov_lab import mellin

        timings, values, errors = {}, {}, {}
        for pool, i in inputs["points"]:
            p = self._point(pool, i)
            alpha = tuple(common.to_complex(a) for a in p["alpha"])
            s = tuple(common.to_complex(v) for v in p["s"])
            op = f"{pool}.{i}"
            try:
                values[op] = _timed(
                    timings, op, mellin.mellin_recursive, len(alpha), alpha, s, tol=CONTOUR_TOL
                )
            except Exception as exc:  # recorded as a failed operation
                errors[op] = f"{type(exc).__name__}: {exc}"
        return timings, {"values": values, "errors": errors}

    def fingerprint(self, out) -> str:
        return repr(sorted(out["values"].items())) + repr(sorted(out["errors"].items()))

    def check(self, inputs: dict, out) -> Verdict:
        verdict = Verdict(attempted=len(inputs["points"]))
        probe_errs, seeded_errs = [], []
        for pool, i in inputs["points"]:
            op = f"{pool}.{i}"
            if op in out["errors"]:
                verdict.fail(op, "raised", out["errors"][op])
                continue
            ref = common.to_complex(self._point(pool, i)["ref"])
            err = abs(out["values"][op] - ref) / abs(ref)
            (probe_errs if pool == "probe" else seeded_errs).append(err)
            if not err <= CONTOUR_TOL:
                verdict.fail(op, "oracle", f"relative error {err:.3e} > tol {CONTOUR_TOL:g}")
        verdict.max_err = max(probe_errs) if probe_errs else math.nan
        if seeded_errs:
            verdict.named = {
                "seeded_median_rel_err": float(np.median(seeded_errs)),
                "seeded_max_rel_err": float(np.max(seeded_errs)),
            }
        spreads = [self._weyl_spread(self._point(pool, i)) for pool, i in inputs["points"]
                   if pool == "probe" and len(self._point(pool, i)["alpha"]) == 4]
        if spreads:
            verdict.named["rank4_probe_weyl_spread"] = max(spreads)
        return verdict

    @staticmethod
    def _weyl_spread(p: dict) -> float:
        """Largest relative change of the code under test over the Weyl peels
        of alpha; the true transform does not depend on the order."""
        from kuznetsov_lab import mellin

        alpha = [common.to_complex(a) for a in p["alpha"]]
        s = tuple(common.to_complex(v) for v in p["s"])
        values = []
        for j in reversed(range(len(alpha))):
            order = [alpha[k] for k in range(len(alpha)) if k != j] + [alpha[j]]
            try:
                values.append(mellin.mellin_recursive(len(alpha), tuple(order), s, tol=CONTOUR_TOL))
            except Exception:  # a peel that raises has no spread to offer
                return math.inf
        return max(abs(v - values[0]) for v in values) / abs(values[0])


WORKLOADS = {w.name: w for w in (Battery, Scaling, Kloosterman, Contour)}
