"""Command-line front end: one subcommand per module plus the suite driver.

Structured output goes to stdout (JSON by default, CSV where tabular);
diagnostics go to stderr.  The handlers print and decide no outcome: exit
code 1 means a verification failed, either a top-level section of a module
subcommand's output with ``passed`` false (read by `_emit`) or a failed
check of `run` (`suite_exit_code`); 2 means a usage error or any exception,
which `main` alone catches and prints as one ``error:`` line; else 0.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import combinatorics as comb
from . import geometry, mellin, special, testfunctions, trace
from .reporting import (
    CONFIG_ENV_VAR,
    CONFIG_PARSERS,
    FORMATS,
    emit_scaling_csv,
    load_config,
    render_reports,
)
from .suite import SELECTORS, run_suite, suite_exit_code


def _jsonable(value):
    if isinstance(value, comb.Composition):
        return list(value.parts)
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _emit(out: dict) -> tuple[str, int]:
    """The JSON text of out, and exit code 1 exactly when one of its
    sections reports ``passed`` false."""
    sections = _jsonable(out)
    failed = any(section.get("passed") is False for section in sections.values())
    return json.dumps(sections, indent=2) + "\n", int(failed)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_complex(raw, imaginary: bool = True) -> list[complex]:
    # a list whose entries are [re, im] pairs or bare numbers: the imaginary
    # parts of a tempered parameter, or real values with imaginary=False
    if not isinstance(raw, list):
        raise ValueError(f"expected a list of numbers or [re, im] pairs, got {raw!r}")
    out = []
    for entry in raw:
        pair = ([0, entry] if imaginary else [entry, 0]) if _is_real(entry) else entry
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_real, pair))):
            raise ValueError(f"entry {entry!r} is neither a number nor an [re, im] pair")
        if any(isinstance(v, int) and abs(v) > sys.float_info.max for v in pair):
            raise ValueError("entries must be finite, got an integer too large for a float")
        out.append(complex(float(pair[0]), float(pair[1])))
    if not all(map(cmath.isfinite, out)):
        raise ValueError(f"entries must be finite, got {raw}")
    return out


def _comp_from_spec(spec: str) -> comb.Composition:
    # each part an optionally signed run of decimal digits
    parts = [p.strip() for p in spec.split(",")]
    if not all((p[1:] if p[:1] in ("+", "-") else p).isdecimal() for p in parts):
        raise ValueError(f"bad composition spec {spec!r}")
    return comb.Composition(tuple(map(int, parts)))


def _doubling_grid(t_min: float, t_max: float) -> tuple[float, ...]:
    t_min, t_max = special.require_positive((t_min, t_max), "Tmin and Tmax")
    if not t_min < t_max:
        raise ValueError("need 0 < Tmin < Tmax")
    out = [float(t_min)]
    while out[-1] * 2.0 <= t_max + 1e-9:
        out.append(out[-1] * 2.0)
    if len(out) < 4:
        raise ValueError("need at least four doublings between Tmin and Tmax")
    return tuple(out)


# the largest N of `trace --exponents`: its composition (1,) * N is built and
# printed part by part
_EXPONENTS_MAX_N = 1000
# the largest modulus of `trace --kloosterman`, which enumerates its units,
# and of `--kloosterman-sweep` and `--tail`, which sweep every modulus up to
# it; at these bounds the calls take about 0.7 s each (the sweep to 10^5
# takes 17 s)
_KLOOSTERMAN_MAX_C = 10**6
_SWEEP_MAX_C = 20000
# the largest N of `combinatorics --dn` and of `--verify-lemmas`: D(N) sums N
# binomials of N-digit size, and the lemmas check the parts of all 2^(n-1)
# compositions of each n <= N; at these bounds the calls take about 0.05 s
# and 0.4 s
_DN_MAX_N = 1000
_LEMMAS_MAX_N = 16
# the largest length N of an alpha that reaches the pair polynomial (`special
# --fr`, `testfn --p-sharp` and `--h`): its D(N) subset pairs grow about 4x
# per step of N, and at N = 10 a call takes about 0.7 s, at N = 11 about 2 s
_PAIR_MAX_N = 10
# the largest TMAX of `testfn --itr-scaling`, T of `--p-y`, R of
# `--main-term-scaling` and DELTA of `whittaker --residue`: at these bounds
# itr_log takes about 1 s and 270 MB (its memory grows like T) and p_y_batch
# about 0.03 s on a 2-CPU Xeon (its time grows like T^2); the main-term grid grows like
# sqrt(R), and the residue's factorial and pole loop like DELTA
_ITR_MAX_T = 16384
_P_Y_MAX_T = 64
_MAIN_TERM_MAX_R = 64
_RESIDUE_MAX_DELTA = 64

# the flag that sets each config key, and its help; the key's parser types it
_CONFIG_FLAGS = {
    "format": ("--format", "output format"),
    "seed": ("--seed", "seed for randomized verifier inputs"),
    "identity_tol": ("--tol", "identity residual tolerance"),
    "quad_tol": ("--quad-tol", "quadrature tolerance"),
    "jobs": ("--jobs", "parallel verifier execution"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuznetsov-lab",
        description="identity suites and desk-scale numerics for the trace-formula toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *keys) -> argparse.ArgumentParser:
        # --config and one flag per config key the handler reads, none if it reads none
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, config_keys=keys, usage_error=p.error, operations=[], modifiers=[])
        if keys:
            p.add_argument("--config", help=f"key=value config file (default ${CONFIG_ENV_VAR})")
        for key in keys:
            flag, help_text = _CONFIG_FLAGS[key]
            p.add_argument(flag, dest=key, type=CONFIG_PARSERS[key], choices=FORMATS if key == "format" else None, help=help_text)
        return p

    def operation(p, *args, **kwargs):
        # an operation flag: a call of p must give at least one
        p.get_default("operations").append(p.add_argument(*args, **kwargs))

    def modifier(p, *args, read_by, default=None, **kwargs):
        # a flag that only the operations read_by (their dests) read: given
        # without any of them it is an error, and absent it takes default
        p.get_default("modifiers").append((p.add_argument(*args, **kwargs), read_by, default))

    p = command("run", _cmd_run, "run a verification suite", *_CONFIG_FLAGS)
    p.add_argument("selector", choices=SELECTORS)
    p.add_argument("--timings", action="store_true", help="include wall times in output")

    p = command("combinatorics", _cmd_combinatorics, "degree counts and composition functionals")
    operation(p, "--dn", type=int, metavar="N", help=f"degree count D(N), 2 <= N <= {_DN_MAX_N}")
    operation(p, "--phi", metavar="n1,n2,...", help="exponent functional of a composition")
    operation(p, "--verify-lemmas", type=int, metavar="N_MAX", help=f"exhaustive composition identities, 2 <= N_MAX <= {_LEMMAS_MAX_N}")

    p = command("geometry", _cmd_geometry, "Iwasawa data attached to Weyl elements")
    operation(p, "--xi", nargs=2, metavar=("W_SPEC", "U_JSON"), help="xi values of w u")
    operation(p, "--conj-y", nargs=2, metavar=("W_SPEC", "Y_CSV"), help="conjugated torus coordinates")

    p = command("special", _cmd_special, "pair polynomial and contour-gain bound")
    operation(p, "--fr", nargs=3, metavar=("N", "R", "ALPHA_JSON"), help=f"pair polynomial value, 2 <= N <= {_PAIR_MAX_N}")
    operation(p, "--bound-B", type=float, metavar="A", help="contour gain at shift A")

    p = command("whittaker", _cmd_whittaker, "Mellin transforms, shifts, residues", "seed", "identity_tol", "quad_tol")
    operation(p, "--mellin", nargs=3, metavar=("N", "ALPHA_JSON", "S_JSON"), help="transform value")
    operation(p, "--residue", nargs=3, type=int, metavar=("N", "M", "DELTA"), help=f"residue vs contour oracle, 0 <= DELTA <= {_RESIDUE_MAX_DELTA}")
    operation(p, "--check-shift", nargs=3, type=int, metavar=("N", "M", "DELTA"), help="shift identity and degree ledger")
    modifier(p, "--alpha", read_by=("residue",), help="alpha JSON file for --residue")

    p = command("testfn", _cmd_testfn, "spectral test functions and scaling laws")
    operation(p, "--p-sharp", action="store_true", help="transform-side value at alpha")
    operation(p, "--h", action="store_true", help="normalized square at alpha")
    operation(p, "--p-y", type=float, metavar="Y", help=f"rank-one avatar at y, 0 < T <= {_P_Y_MAX_T}")
    operation(p, "--itr-scaling", nargs=4, metavar=("R", "A", "TMIN", "TMAX"), help=f"shifted-line slope fit, 0 < TMAX <= {_ITR_MAX_T}")
    operation(p, "--main-term-scaling", nargs=2, type=int, metavar=("N", "R"), help=f"norm-integral slope fit, 1 <= R <= {_MAIN_TERM_MAX_R}")
    modifier(p, "--alpha", read_by=("p_sharp", "h"), help=f"alpha JSON file of length 2 <= N <= {_PAIR_MAX_N} (default 0)")
    modifier(p, "--T", read_by=("p_sharp", "h", "p_y"), default=10.0, type=float, help="spectral scale (default 10)")
    modifier(p, "--R", read_by=("p_sharp", "h", "p_y"), default=1, type=int, help="smoothing order (default 1)")
    modifier(p, "--out", read_by=("itr_scaling", "main_term_scaling"), help="write the one scaling fit's data CSV (plus JSON sidecar) here")

    p = command("trace", _cmd_trace, "Kloosterman sums, tails, exponents, orthogonality", "format")
    operation(p, "--kloosterman", nargs=3, type=int, metavar=("M", "L", "C"), help=f"one exact sum, 1 <= C <= {_KLOOSTERMAN_MAX_C}")
    operation(p, "--kloosterman-sweep", type=int, metavar="CMAX", help=f"all moduli up to CMAX, 1 <= CMAX <= {_SWEEP_MAX_C}")
    operation(p, "--tail", nargs=3, metavar=("RHO", "EPS", "CMAX"), help=f"modulus-sum tail report, 4 <= CMAX <= {_SWEEP_MAX_C}")
    operation(p, "--exponents", nargs=2, metavar=("N", "RHO"), help=f"exponent ledger at the long element of GL(N), 2 <= N <= {_EXPONENTS_MAX_N}")
    operation(p, "--cuspidal", nargs=5, metavar=("DATA_CSV", "T", "R", "L", "M"), help="orthogonality statistic over ingested spectral data")
    return parser


def _cmd_run(args, cfg) -> tuple[str, int]:
    reports = run_suite(args.selector, cfg)
    return render_reports(reports, cfg, include_runtime=args.timings), suite_exit_code(reports)


def _cmd_combinatorics(args) -> tuple[str, int]:
    out = {}
    if args.dn is not None:
        value = comb.degree_D(_in_range("--dn", "N", args.dn, 2, _DN_MAX_N))
        oracle = math.comb(2 * args.dn, args.dn) // 2 - args.dn * (args.dn - 1) // 2 - 2 ** (args.dn - 1)
        out["dn"] = {"input": args.dn, "value": value, "oracle_value": oracle, "passed": value == oracle}
    if args.phi is not None:
        c = _comp_from_spec(args.phi)
        value = comb.phi(c)
        flipped = comb.phi(comb.Composition(c.parts[::-1]))
        out["phi"] = {
            "input": list(c.parts),
            "value": value,
            "oracle_value": flipped,
            "passed": value == flipped,
        }
    if args.verify_lemmas is not None:
        rep = comb.verify_partition_identities(_in_range("--verify-lemmas", "N_MAX", args.verify_lemmas, 2, _LEMMAS_MAX_N))
        out["verify_lemmas"] = {
            "input": args.verify_lemmas,
            "value": rep["checked"],
            "oracle_value": rep["first_counterexample"],
            "passed": rep["passed"],
        }
    return _emit(out)


def _cmd_geometry(args) -> tuple[str, int]:
    out = {}
    if args.xi is not None:
        w = geometry.WeylElement(_comp_from_spec(args.xi[0]))
        u = np.asarray(_read_json(args.xi[1]), dtype=float)
        out["xi"] = {"w": w.composition, "values": geometry.xi_values(w, u)}
    if args.conj_y is not None:
        w = geometry.WeylElement(_comp_from_spec(args.conj_y[0]))
        y = [float(v) for v in args.conj_y[1].split(",")]
        out["conj_y"] = {"w": w.composition, "values": geometry.weyl_conjugate_y(w, y)}
    return _emit(out)


def _cmd_special(args) -> tuple[str, int]:
    out = {}
    if args.fr is not None:
        n, R = _in_range("--fr", "N", int(args.fr[0]), 2, _PAIR_MAX_N), int(args.fr[1])
        alpha = _parse_complex(_read_json(args.fr[2]))
        if len(alpha) != n:
            raise ValueError(f"alpha has length {len(alpha)}, expected {n}")
        out["fr"] = {"n": n, "R": R, "value": special.f_R_poly(alpha, R)}
    if args.bound_B is not None:
        out["bound_B"] = {"a": args.bound_B, "value": special.bound_B(args.bound_B)}
    return _emit(out)


def _cmd_whittaker(args, cfg) -> tuple[str, int]:
    out = {}
    if args.mellin is not None:
        n = int(args.mellin[0])
        alpha = _parse_complex(_read_json(args.mellin[1]))
        s = _parse_complex(_read_json(args.mellin[2]), imaginary=False)
        out["mellin"] = {"n": n, "value": mellin.mellin_value(n, alpha, s, tol=cfg.quad_tol)}
    if args.residue is not None:
        n, m, delta = args.residue
        delta = _in_range("--residue", "DELTA", delta, 0, _RESIDUE_MAX_DELTA)
        alpha = (
            _parse_complex(_read_json(args.alpha))
            if args.alpha
            else mellin.separated_tempered_alpha(n, np.random.default_rng(cfg.seed))
        )
        out["residue"] = mellin.residue_check(n, alpha, m=m, delta=delta)
    if args.check_shift is not None:
        n, m, delta = args.check_shift
        out["check_shift"] = mellin.shift_identity_check(
            n, m, delta, rng=np.random.default_rng(cfg.seed), tol=cfg.identity_tol
        )
    return _emit(out)


def _cmd_testfn(args) -> tuple[str, int]:
    # the scaling CSV holds one fit; a second would be dropped
    scalings = (args.itr_scaling, args.main_term_scaling)
    if args.out and sum(op is not None for op in scalings) != 1:
        raise ValueError("--out needs exactly one scaling operation: --itr-scaling or --main-term-scaling")
    if args.p_y is not None:
        _in_range("--p-y", "T", args.T, 0, _P_Y_MAX_T, lo_open=True)
    out = {}
    params = testfunctions.TestFunctionParams(T=args.T, R=args.R)
    alpha = _parse_complex(_read_json(args.alpha)) if args.alpha else [0j, 0j]
    _in_range("--alpha", "N", len(alpha), 2, _PAIR_MAX_N)
    if args.p_sharp:
        out["p_sharp"] = {"T": args.T, "R": args.R, "value": testfunctions.p_sharp(alpha, params)}
    if args.h:
        out["h"] = {"T": args.T, "R": args.R, "value": testfunctions.h_value(alpha, params)}
    if args.p_y is not None:
        out["p_y"] = {"T": args.T, "R": args.R, "y": args.p_y, "value": testfunctions.p_y_batch([args.p_y], params)[0]}
    fit = None
    if args.itr_scaling is not None:
        R, a = int(args.itr_scaling[0]), float(args.itr_scaling[1])
        t_max = _in_range("--itr-scaling", "TMAX", float(args.itr_scaling[3]), 0, _ITR_MAX_T, lo_open=True)
        grid = _doubling_grid(float(args.itr_scaling[2]), t_max)
        fit = testfunctions.itr_scaling(a, R, grid)
        out["itr_scaling"] = fit
    if args.main_term_scaling is not None:
        n, R = args.main_term_scaling
        R = _in_range("--main-term-scaling", "R", R, 1, _MAIN_TERM_MAX_R)
        fit = testfunctions.main_term_scaling(n, R)
        out["main_term_scaling"] = fit
    if args.out:
        emit_scaling_csv(fit, args.out)
    return _emit(out)


def _cmd_trace(args, cfg) -> tuple[str, int]:
    # the sweep is the one tabular result; CSV would drop any other
    if cfg.format == "csv" and _chosen(args) != ["kloosterman_sweep"]:
        raise ValueError("format csv needs --kloosterman-sweep as the only operation")
    out = {}
    if args.kloosterman is not None:
        m, l, c = args.kloosterman
        c = _in_range("--kloosterman", "C", c, 1, _KLOOSTERMAN_MAX_C)
        out["kloosterman"] = {"m": m, "l": l, "c": c, "value": trace.kloosterman_gl2(m, l, c)}
    if args.kloosterman_sweep is not None:
        values = trace.kloosterman_sweep(_in_range("--kloosterman-sweep", "CMAX", args.kloosterman_sweep, 1, _SWEEP_MAX_C))
        if cfg.format == "csv":
            lines = ["c,value"] + [
                f"{c},{float(v.real)!r}" for c, v in enumerate(values, start=1)
            ]
            return "\n".join(lines) + "\n", 0
        out["kloosterman_sweep"] = {"c_max": args.kloosterman_sweep, "values": [v.real for v in values]}
    if args.tail is not None:
        rho, eps, cmax = float(args.tail[0]), float(args.tail[1]), int(args.tail[2])
        out["tail"] = trace.tail_from_rho(rho, eps, _in_range("--tail", "CMAX", cmax, 4, _SWEEP_MAX_C))
    if args.exponents is not None:
        n, rho = _in_range("--exponents", "N", int(args.exponents[0]), 2, _EXPONENTS_MAX_N), args.exponents[1]
        out["exponents"] = trace.iwbounds_exponent(rho, comb.Composition((1,) * n))
    if args.cuspidal is not None:
        path = args.cuspidal[0]
        T, R = float(args.cuspidal[1]), int(args.cuspidal[2])
        l, m = int(args.cuspidal[3]), int(args.cuspidal[4])
        forms = trace.ingest_maass_csv(path)
        params = testfunctions.TestFunctionParams(T=T, R=R)
        rep = trace.cuspidal_sum(forms, params, l, m)
        out["cuspidal"] = {"forms": len(forms), "l": l, "m": m, **_jsonable(rep)}
    return _emit(out)


def _in_range(flag: str, name: str, value, lo, hi, *, lo_open: bool = False):
    """value, checked against the range its flag's help states; lo_open
    leaves lo itself out."""
    if not (lo < value if lo_open else lo <= value) or not value <= hi:
        raise ValueError(f"{flag} needs {lo} {'<' if lo_open else '<='} {name} <= {hi}, got {value}")
    return value


def _chosen(args) -> list[str]:
    """The dests of the operation flags given on the command line."""
    return [a.dest for a in args.operations if getattr(args, a.dest) != a.default]


def main(argv: list[str] | None = None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # the subcommand's usage line names the flags it does take
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        config_arg = ()  # a handler that reads no config key is called without one
        if args.config_keys:
            config_arg = (load_config(args.config, {key: getattr(args, key) for key in args.config_keys}),)
        chosen = _chosen(args)
        if args.operations and not chosen:
            raise ValueError(f"choose at least one of {', '.join(a.option_strings[0] for a in args.operations)}")
        flags = {a.dest: a.option_strings[0] for a in args.operations}
        for action, read_by, default in args.modifiers:
            if getattr(args, action.dest) is None:
                setattr(args, action.dest, default)
            elif not set(read_by) & set(chosen):
                raise ValueError(f"{action.option_strings[0]} has no effect without {' or '.join(map(flags.get, read_by))}")
        text, code = args.handler(args, *config_arg)
    except Exception as exc:  # any fault is a runtime error, exit 2
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
