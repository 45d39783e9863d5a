"""Shared set-up for the benchmark scripts: library import path, thread
pinning and the frozen reference files.

Every script runs from the root of a checkout and imports the library from
its ``src/`` directory, never from an installed copy, so the numbers always
describe the source tree being measured.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"

# one thread everywhere: the workloads are serial by definition, and BLAS or
# OpenMP pools would make timings depend on the core count
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class MissingLibrary(RuntimeError):
    """The checkout has no importable ``src/kuznetsov_lab``."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_library():
    """Import ``kuznetsov_lab`` from ``./src`` and return the package."""
    os.environ.update(THREAD_ENV)
    if not (SRC / "kuznetsov_lab" / "__init__.py").is_file():
        raise MissingLibrary(f"no kuznetsov_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kuznetsov_lab

    if Path(kuznetsov_lab.__file__).resolve().parent != SRC / "kuznetsov_lab":
        raise MissingLibrary(f"kuznetsov_lab imported from {kuznetsov_lab.__file__}")
    return kuznetsov_lab


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units every run reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def to_complex(pair) -> complex:
    return complex(pair[0], pair[1])


def from_complex(z: complex) -> list[float]:
    return [z.real, z.imag]
