"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload battery|scaling|kloosterman|contour \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a checkout; the library is imported from ./src.
With --trace 0 the workload repeats until --seconds have passed and the
end-to-end metrics are reported: every time is the sum over operations of
each operation's fastest wall time across the repeats, because contention
on a shared machine only ever adds time, in episodes lasting seconds (the
first repeat also pays for caches and heap growth).  With --trace 1 the
workload runs once to warm up, once untraced and once under the tracer, and
the per-layer metrics are reported.

Either way the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it name the
workload's own metrics, the machine, and any failures, and the full record
goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import common

# setup_s is the median of three rounds of this many fresh interpreters,
# taken at the start, the middle and the end of the run: on a shared machine
# the set-up time switches between levels 50% apart for ten seconds or more
SETUP_ROUND = 3
IMPORT_SAMPLES = 3
SHOWN_FAILURES = 10

# a fresh interpreter imports the CLI and finishes the lazy set-up (the
# rank-two normalization, which also fills the Gauss-Legendre cache)
SETUP_CHILD = """
import json, time
start = time.perf_counter()
import kuznetsov_lab.cli
imported = time.perf_counter()
from kuznetsov_lab import mellin
mellin.gl3_normalization()
print(json.dumps({"import_s": imported - start}))
"""


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters doing the set-up, and their import times."""
    walls, imports = [], []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            env=common.child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        walls.append(time.perf_counter() - start)
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return walls, imports


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        import mpmath

        mpmath_version = mpmath.__version__
    except ImportError:  # optional: only the oracle generator needs it
        mpmath_version = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (common.ROOT / ".git").exists():  # a plain checkout has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath_version,
        "commit": commit,
    }


def lazy_setup() -> None:
    """The set-up every CLI call pays once; measured apart as setup_s."""
    from kuznetsov_lab import mellin

    mellin.gl3_normalization()


def run_untraced(workload, inputs, seconds: float) -> dict:
    """Repeat the workload for ``seconds``; check the first iteration and
    require every later one to reproduce it.  Set-up samples are taken
    before, halfway through and after the repeats."""
    samples: dict[str, list[float]] = {}
    walls = []
    setup_walls = measure_setup(SETUP_ROUND)[0]
    first = verdict = None
    deterministic = True
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        timings, out = workload.run(inputs)
        walls.append(time.perf_counter() - t0)
        for op, dt in timings.items():
            samples.setdefault(op, []).append(dt)
        if first is None:
            first = workload.fingerprint(out)
            verdict = workload.check(inputs, out)
        elif workload.fingerprint(out) != first:
            deterministic = False
        elapsed = time.perf_counter() - start
        if len(setup_walls) == SETUP_ROUND and elapsed >= seconds / 2:
            setup_walls += measure_setup(SETUP_ROUND)[0]
        if elapsed >= seconds:
            break
    setup_walls += measure_setup(3 * SETUP_ROUND - len(setup_walls))[0]
    return {
        "setup_walls": setup_walls,
        "verdict": verdict,
        "deterministic": deterministic,
        "iterations": len(walls),
        "iteration_walls": walls,
        "samples": samples,
        "time_s": sum(min(v) for v in samples.values()),
        "median_time_s": sum(statistics.median(v) for v in samples.values()),
    }


def _per_layer(names, workload, tracer, untraced, traced, import_s) -> dict:
    """Per-layer metrics of one traced iteration; unexercised layers read 0."""
    counts, durations = tracer.counts, tracer.durations
    sweep_s = tracer.total("trace.kloosterman_sweep")
    nodes = counts.get("quadrature.nodes", 0)
    out = traced["out"]
    runtimes = {r.name: r.runtime for r in out["reports"]} if workload.name == "battery" else {}
    fixed = {
        "testfunctions.grid_points": counts.get("testfunctions.grid_points", 0),
        "testfunctions.p_y_gl3_s": tracer.total("testfunctions.p_y_gl3"),
        "testfunctions.p_y_batch_s": tracer.total("testfunctions.p_y_batch"),
        "trace.sweep_s": sweep_s,
        "trace.moduli_per_s": counts.get("trace.moduli", 0) / sweep_s if sweep_s else 0.0,
        "trace.tail_s": tracer.total("trace.kloosterman_tail"),
        "trace.kloosterman_gl2_calls": tracer.count("trace.kloosterman_gl2"),
        "quadrature.line_integrals": tracer.count("quadrature.vertical_line_integral"),
        "quadrature.plane_integrals": tracer.count("quadrature.vertical_plane_integral"),
        "quadrature.nodes": nodes,
        "quadrature.window_doublings": counts.get("quadrature.window_doublings", 0),
        "quadrature.useful_node_ratio": counts.get("quadrature.accepted_nodes", 0) / nodes if nodes else 0.0,
        "quadrature.self_s": tracer.layer_self_s("quadrature"),
        "mellin.self_s": tracer.layer_self_s("mellin"),
        "special.loggamma_evals": counts.get("special.loggamma_evals", 0),
        "special.log_gamma_calls": tracer.count("special.log_gamma"),
        "special.loggamma_self_s": tracer.self_s.get("special.loggamma", 0.0),
        "combinatorics.kappa_orbit_s": tracer.total("combinatorics.kappa_orbit"),
        "geometry.self_s": tracer.layer_self_s("geometry"),
        "suite.jobs2_s": traced.get("jobs2_s", 0.0),
        "reporting.render_s": tracer.total("reporting.render_reports"),
        "cli.import_s": statistics.median(import_s),
        "bench.trace_overhead_s": traced["wall"] - untraced["wall"],
    }
    for n in (3, 4):
        d = durations.get(f"mellin.mellin_recursive:n{n}")
        fixed[f"mellin.recursive_n{n}_ms"] = 1e3 * statistics.median(d) if d else 0.0
    values = {}
    for name in names:
        if name.startswith("testfunctions.itr_log_s.T"):
            values[name] = tracer.total("testfunctions.itr_log:" + name.rsplit(".", 1)[1])
        elif name.startswith("testfunctions.main_term_log_s.T"):
            values[name] = tracer.total("testfunctions.main_term_log:n3." + name.rsplit(".", 1)[1])
        elif name.startswith("suite.check_s."):
            values[name] = runtimes.get(name[len("suite.check_s."):], 0.0)
        else:
            values[name] = fixed[name]
    return values


def run_traced(names, workload, inputs) -> dict:
    from tracing import Tracer

    # the first pass pays for deferred imports, caches and the allocator
    # growing its heap; only the second is the untraced reference
    workload.run(inputs)
    t0 = time.perf_counter()
    workload.run(inputs)
    untraced = {"wall": time.perf_counter() - t0}
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        _, out = workload.run(inputs)
        traced = {"wall": time.perf_counter() - t0, "out": out}
    verdict = workload.check(inputs, out)
    if workload.name == "battery":
        # threads: measured untraced, since the tracer keeps one call stack
        from kuznetsov_lab import reporting, suite

        cfg = reporting.RunConfig(seed=inputs["seed"], jobs=2)
        t0 = time.perf_counter()
        suite.run_suite(inputs["selector"], cfg)
        traced["jobs2_s"] = time.perf_counter() - t0
    _, import_s = measure_setup(IMPORT_SAMPLES)
    values = _per_layer(names, workload, tracer, untraced, traced, import_s)
    return {"verdict": verdict, "deterministic": True, "values": values, "tracer": tracer,
            "untraced_wall": untraced["wall"], "traced_wall": traced["wall"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kuznetsov-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken inputs, for the self-test")
    args = parser.parse_args(argv)

    try:
        common.import_library()
    except common.MissingLibrary as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = common.load_spec()

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.make_inputs(args.seed, args.smoke)
    facts = machine_facts()
    lazy_setup()

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "machine": facts, "inputs": inputs}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result = run_traced(list(units), workload, inputs)
        metrics = result["values"]
        record["trace"] = result["tracer"].dump()
        named = {"untraced_s": result["untraced_wall"], "traced_s": result["traced_wall"]}
    else:
        result = run_untraced(workload, inputs, args.seconds)
        walls = result["setup_walls"]
        verdict = result["verdict"]
        metrics = {
            "setup_s": statistics.median(walls),
            "workload_s": result["time_s"],
            "max_err": verdict.max_err,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        named = {workload.time_name: result["time_s"], "median_based_s": result["median_time_s"],
                 workload.err_name: verdict.max_err,
                 "setup_s": metrics["setup_s"], "fastest_setup_s": min(walls),
                 "peak_rss_mb": metrics["peak_rss_mb"],
                 "iterations": result["iterations"]}
        record.update(setup_walls=walls, iteration_walls=result["iteration_walls"],
                      op_samples=result["samples"])
    verdict = result["verdict"]
    named.update(verdict.named)
    finite = all(math.isfinite(v) for v in metrics.values())
    summary = {
        "correct": bool(result["deterministic"] and finite),
        "attempted": int(verdict.attempted),
        "failed": len({f["op"] for f in verdict.failures}),
        # JSON has no infinity or NaN; such a figure already made correct false
        "metrics": {
            k: {"value": float(v) if math.isfinite(v) else sys.float_info.max, "unit": units[k]}
            for k, v in metrics.items()
        },
    }
    record.update(named=named, failures=verdict.failures, result=summary)

    out_dir = common.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}{suffix}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)

    print(f"machine {json.dumps(facts)}")
    print(f"{workload.name} seed {args.seed}: " + ", ".join(f"{k} {v:.6g}" for k, v in named.items()))
    print(f"operations: {summary['attempted']} attempted, {summary['failed']} failed")
    for f in verdict.failures[:SHOWN_FAILURES]:
        print(f"  failed {f['op']} [{f['kind']}] {f['message']}")
    if len(verdict.failures) > SHOWN_FAILURES:
        print(f"  ... {len(verdict.failures) - SHOWN_FAILURES} more in {path.relative_to(common.ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
