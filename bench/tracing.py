"""Span and count tracing of the library, installed from outside it.

The tracer replaces public functions of ``kuznetsov_lab`` modules with
wrappers that time each call.  A name bound by ``from .x import f`` is a
separate reference in the importing module, so every module attribute that
is the original function object is replaced, not just the defining one.

Each call opens a frame; when it closes, its self time (duration minus the
time spent in traced callees) is added to its name, and its duration is
charged to the caller as child time.  Calls of non-leaf functions are also
kept as spans (name, start, end, parent) in memory and written out at the
end of a run.  Leaf wrappers (scipy ``loggamma``, the scalar ``log_gamma``)
only aggregate, because they run hundreds of thousands of times.

Not thread-safe: install it only around serial work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# modules whose public functions are wrapped, in layer order
LAYERS = (
    "combinatorics",
    "geometry",
    "special",
    "quadrature",
    "mellin",
    "testfunctions",
    "trace",
    "reporting",
    "suite",
)

# scipy loggamma as bound in each namespace that evaluates it
LOGGAMMA_BINDINGS = (("special", "_loggamma"), ("mellin", "loggamma"), ("testfunctions", "loggamma"))


def _param_T(params) -> float:
    return float(params.T) if hasattr(params, "T") else float(params[0])


# extra label on a call, from its bound arguments, for metrics kept per size
LABELS = {
    "testfunctions.itr_log": lambda a: f"T{_param_T(a['params']):g}",
    "testfunctions.main_term_log": lambda a: f"n{a['n']}.T{float(a['T']):g}",
    "mellin.mellin_recursive": lambda a: f"n{a['n']}",
}

# work counted from a call's bound arguments: function -> (counter, amount)
COUNTERS = {
    "trace.kloosterman_sweep": ("trace.moduli", lambda a: int(a["c_max"])),
}


class _Frame:
    __slots__ = ("name", "start", "child", "span")

    def __init__(self, name: str, start: float, span: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Collects spans, per-name time and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self._stack: list[_Frame] = []
        self._integrals: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- frames --------------------------------------------------------------

    def _enter(self, name: str, keep_span: bool) -> _Frame:
        span = -1
        if keep_span:
            parent = self._stack[-1].span if self._stack else -1
            span = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
        frame = _Frame(name, time.perf_counter(), span)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        self.calls[frame.name] += 1
        self.total_s[frame.name] += dur
        self.self_s[frame.name] += dur - frame.child
        if frame.span >= 0:
            name, _, _, parent = self.spans[frame.span]
            self.spans[frame.span] = (name, frame.start, end, parent)
            self.durations[frame.name].append(dur)
        if self._stack:
            self._stack[-1].child += dur

    def _call(self, name, fn, args, kwargs, keep_span=True):
        frame = self._enter(name, keep_span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def inside(self, *names: str) -> bool:
        return bool(self._stack) and self._stack[-1].name.split(":")[0] in names

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        label = LABELS.get(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if label or counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = name
            if signature:
                bound = signature.bind(*args, **kwargs).arguments
                if label:
                    full += ":" + label(bound)
                if counter:
                    self.counts[counter[0]] += counter[1](bound)
            return self._call(full, fn, args, kwargs)

        return wrapper

    def _wrap_leaf(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, keep_span=False)

        return wrapper

    def _wrap_loggamma(self, fn):
        def wrapper(z, *args, **kwargs):
            self.counts["special.loggamma_evals"] += np.size(z)
            return self._call("special.loggamma", fn, (z, *args), kwargs, keep_span=False)

        return wrapper

    def _wrap_integral(self, fn, name: str):
        # records the nodes evaluated per window of one adaptive integral;
        # the integrand is traced under the module that defined it
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            windows: list[int] = []
            layer = getattr(f, "__module__", "?").rsplit(".", 1)[-1]

            def integrand(*z):
                if windows:
                    windows[-1] += np.broadcast(*z).size
                return self._call(f"{layer}.integrand", f, z, {})

            self._integrals.append(windows)
            try:
                out = self._call(name, fn, (integrand, *args), kwargs)
            finally:
                self._integrals.pop()
                self.counts["quadrature.nodes"] += sum(windows)
                self.counts["quadrature.window_doublings"] += max(0, len(windows) - 1)
            # only a returned integral has an accepted window
            self.counts["quadrature.accepted_nodes"] += windows[-1] if windows else 0
            return out

        return wrapper

    def _wrap_line_nodes(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._integrals and self.inside(
                "quadrature.vertical_line_integral", "quadrature.vertical_plane_integral"
            ):
                self._integrals[-1].append(0)
            return self._call(name, fn, args, kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("kuznetsov_lab"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap the public functions of every library layer."""
        modules = {name: importlib.import_module(f"kuznetsov_lab.{name}") for name in LAYERS}
        testfunctions = modules["testfunctions"]
        special_cases = {
            "quadrature.vertical_line_integral": self._wrap_integral,
            "quadrature.vertical_plane_integral": self._wrap_integral,
            "quadrature.line_nodes": self._wrap_line_nodes,
            "special.log_gamma": self._wrap_leaf,
        }
        originals = []
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                originals.append((f"{layer}.{attr}", value))
        for name, fn in originals:
            make = special_cases.get(name, self._wrap_function)
            self._replace_everywhere(fn, make(fn, name))
        # collected before replacing: the bindings share one ufunc, which must
        # be wrapped once
        loggammas = {id(f): f for f in (getattr(modules[m], a) for m, a in LOGGAMMA_BINDINGS)}
        for fn in loggammas.values():
            self._replace_everywhere(fn, self._wrap_loggamma(fn))
        self._patches.append((testfunctions, "np", testfunctions.np))
        testfunctions.np = _CountingNumpy(self)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def total(self, name: str) -> float:
        return self.total_s.get(name, 0.0)

    def count(self, name: str) -> float:
        return self.calls.get(name, 0)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


class _CountingNumpy:
    """Stands in for ``numpy`` inside ``testfunctions``: counts the elements
    exponentiated by the norm integrals (their grid points) and forwards
    everything else."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def exp(self, x, *args, **kwargs):
        if self._tracer.inside("testfunctions.itr_log", "testfunctions.main_term_log"):
            self._tracer.counts["testfunctions.grid_points"] += np.size(x)
        return np.exp(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np, name)
