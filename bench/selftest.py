"""Smoke-size self-test of the benchmark.

    python3 bench/selftest.py

Run from the repository root.  It checks that
  * every workload emits every metric BENCHMARK.json names, in both modes;
  * two traced runs give identical counts;
  * another seed changes each workload's inputs but not their sizes;
  * the contour probe at Re s = 0.02 is counted as a failed operation;
  * without the library (only BENCHMARK.json and bench/) the benchmark
    exits non-zero and prints no result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common

FAILURES: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        FAILURES.append(message)


def run_bench(workload: str, seed: int, trace: int, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd or common.ROOT, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _shape(value):
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return len(value)
    return type(value).__name__


def main() -> int:
    common.import_library()
    import workloads

    spec = common.load_spec()
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}

    for name, cls in workloads.WORKLOADS.items():
        for trace in (0, 1):
            proc = run_bench(name, 1, trace)
            ok = proc.returncode == 0
            expect(ok, f"{name} trace {trace} exits 0")
            if not ok:
                print(proc.stderr[-2000:])
                continue
            result = result_of(proc)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} trace {trace} result keys")
            expect(set(result["metrics"]) == names[trace], f"{name} trace {trace} emits every named metric")
            expect(result["attempted"] >= 1 and result["correct"], f"{name} trace {trace} attempted and correct")
            if trace == 0:
                expect(f"{cls.time_name} " in proc.stdout and f"{cls.err_name} " in proc.stdout,
                       f"{name} prints {cls.time_name} and {cls.err_name}")
                if name == "contour":
                    record = json.loads((common.BENCH_DIR / "out" / "contour-seed1-trace0-smoke.json").read_text())
                    probes = common.load_refs("contour")["probes"]
                    tiny = {f"probe.{i}" for i, p in enumerate(probes) if p["s"][0][0] == 0.02}
                    failed = {f["op"] for f in record["failures"]}
                    expect(bool(tiny) and tiny <= failed, "contour probes at Re s = 0.02 are counted as failed")
            else:
                again = result_of(run_bench(name, 1, trace))
                same = all(result["metrics"][k]["value"] == again["metrics"][k]["value"] for k in counts)
                expect(same, f"{name}: two traced runs give identical counts")

        w = cls()
        for smoke in (True, False):
            a, b = w.make_inputs(1, smoke), w.make_inputs(2, smoke)
            expect(a != b and _shape(a) == _shape(b) and a == w.make_inputs(1, smoke),
                   f"{name} (smoke={smoke}): seed changes inputs, not their sizes")

    stripped = common.BENCH_DIR / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(common.BENCH_DIR, stripped / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", stripped)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "contour", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=stripped, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(stripped)

    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
