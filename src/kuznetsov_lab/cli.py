"""Command-line front end: one subcommand per module plus the suite driver.

Structured output goes to stdout (JSON by default, CSV where tabular);
diagnostics go to stderr.  Exit codes: 0 success / all checks passed,
1 a verification failed, 2 usage or runtime error.
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
from .quadrature import AccuracyError
from .reporting import (
    CONFIG_ENV_VAR,
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


def _emit(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2) + "\n"


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_complex(raw, imaginary: bool = True) -> list[complex]:
    # entries are [re, im] pairs or bare numbers: the imaginary parts of a
    # tempered parameter, or real values with imaginary=False
    out = []
    for entry in raw:
        if isinstance(entry, (int, float)):
            out.append(complex(0.0, float(entry)) if imaginary else complex(entry))
        else:
            out.append(complex(float(entry[0]), float(entry[1])))
    if not all(map(cmath.isfinite, out)):
        raise ValueError(f"entries must be finite, got {raw}")
    return out


def _comp_from_spec(spec: str) -> comb.Composition:
    try:
        parts = tuple(int(p) for p in spec.split(","))
    except ValueError as exc:
        raise ValueError(f"bad composition spec {spec!r}") from exc
    return comb.Composition(parts)


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


# the flag that sets each config key
_CONFIG_FLAGS = {
    "format": ("--format", {"choices": ("json", "csv"), "help": "output format"}),
    "seed": ("--seed", {"type": int, "help": "seed for randomized verifier inputs"}),
    "identity_tol": ("--tol", {"type": float, "help": "identity residual tolerance"}),
    "quad_tol": ("--quad-tol", {"type": float, "help": "quadrature tolerance"}),
    "jobs": ("--jobs", {"type": int, "help": "parallel verifier execution"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kuznetsov-lab",
        description="identity suites and desk-scale numerics for the trace-formula toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, *keys) -> argparse.ArgumentParser:
        # --config and one flag per config key the handler reads; a handler
        # that reads no key takes no config flag and is called without a config
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, config_keys=keys, usage_error=p.error)
        if keys:
            p.add_argument("--config", help=f"key=value config file (default ${CONFIG_ENV_VAR})")
        for key in keys:
            flag, kwargs = _CONFIG_FLAGS[key]
            p.add_argument(flag, dest=key, **kwargs)
        return p

    p = command("run", _cmd_run, "run a verification suite", *_CONFIG_FLAGS)
    p.add_argument("selector", choices=SELECTORS)
    p.add_argument("--timings", action="store_true", help="include wall times in output")

    p = command("combinatorics", _cmd_combinatorics, "degree counts and composition functionals")
    p.add_argument("--dn", type=int, metavar="N", help="degree count D(N)")
    p.add_argument("--phi", metavar="n1,n2,...", help="exponent functional of a composition")
    p.add_argument("--verify-lemmas", type=int, metavar="N_MAX", help="exhaustive composition identities")

    p = command("geometry", _cmd_geometry, "Iwasawa data attached to Weyl elements")
    p.add_argument("--xi", nargs=2, metavar=("W_SPEC", "U_JSON"), help="xi values of w u")
    p.add_argument("--conj-y", nargs=2, metavar=("W_SPEC", "Y_CSV"), help="conjugated torus coordinates")

    p = command("special", _cmd_special, "pair polynomial and contour-gain bound")
    p.add_argument("--fr", nargs=3, metavar=("N", "R", "ALPHA_JSON"), help="pair polynomial value")
    p.add_argument("--bound-B", type=float, metavar="A", help="contour gain at shift A")

    p = command("whittaker", _cmd_whittaker, "Mellin transforms, shifts, residues", "seed", "identity_tol", "quad_tol")
    p.add_argument("--mellin", nargs=3, metavar=("N", "ALPHA_JSON", "S_JSON"), help="transform value")
    p.add_argument("--residue", nargs=3, type=int, metavar=("N", "M", "DELTA"), help="residue vs contour oracle")
    p.add_argument("--check-shift", nargs=3, type=int, metavar=("N", "M", "DELTA"), help="shift identity and degree ledger")
    p.add_argument("--alpha", help="alpha JSON file for --residue")

    p = command("testfn", _cmd_testfn, "spectral test functions and scaling laws")
    p.add_argument("--p-sharp", action="store_true", help="transform-side value at alpha")
    p.add_argument("--h", action="store_true", help="normalized square at alpha")
    p.add_argument("--p-y", type=float, metavar="Y", help="rank-one avatar at y")
    p.add_argument("--itr-scaling", nargs=4, metavar=("R", "A", "TMIN", "TMAX"), help="shifted-line slope fit")
    p.add_argument("--main-term-scaling", nargs=2, type=int, metavar=("N", "R"), help="norm-integral slope fit")
    p.add_argument("--alpha", help="alpha JSON file (default 0)")
    p.add_argument("--T", type=float, default=10.0, help="spectral scale")
    p.add_argument("--R", type=int, default=1, help="smoothing order")
    p.add_argument("--out", help="write the one scaling fit's data CSV (plus JSON sidecar) here")

    p = command("trace", _cmd_trace, "Kloosterman sums, tails, exponents, orthogonality", "format")
    p.add_argument("--kloosterman", nargs=3, type=int, metavar=("M", "L", "C"), help="one exact sum")
    p.add_argument("--kloosterman-sweep", type=int, metavar="CMAX", help="all moduli up to CMAX")
    p.add_argument("--tail", nargs=3, metavar=("RHO", "EPS", "CMAX"), help="modulus-sum tail report")
    p.add_argument("--exponents", nargs=2, metavar=("N", "RHO"), help="exponent ledger at the long element")
    p.add_argument("--cuspidal", nargs=5, metavar=("DATA_CSV", "T", "R", "L", "M"), help="orthogonality statistic over ingested spectral data")
    return parser


def _cmd_run(args, cfg) -> tuple[str, int]:
    reports = run_suite(args.selector, cfg)
    return render_reports(reports, cfg, include_runtime=args.timings), suite_exit_code(reports)


def _cmd_combinatorics(args) -> tuple[str, int]:
    out = {}
    code = 0
    if args.dn is not None:
        value = comb.degree_D(args.dn)
        oracle = math.comb(2 * args.dn, args.dn) // 2 - args.dn * (args.dn - 1) // 2 - 2 ** (args.dn - 1)
        out["dn"] = {"input": args.dn, "value": value, "oracle_value": oracle, "pass": value == oracle}
    if args.phi is not None:
        c = _comp_from_spec(args.phi)
        value = comb.phi(c)
        flipped = comb.phi(comb.Composition(c.parts[::-1]))
        out["phi"] = {
            "input": list(c.parts),
            "value": value,
            "oracle_value": flipped,
            "pass": value == flipped,
        }
    if args.verify_lemmas is not None:
        rep = comb.verify_partition_identities(args.verify_lemmas)
        out["verify_lemmas"] = {
            "input": args.verify_lemmas,
            "value": rep["checked"],
            "oracle_value": rep["first_counterexample"],
            "pass": rep["passed"],
        }
    if not out:
        raise ValueError("choose at least one of --dn, --phi, --verify-lemmas")
    if any(not v["pass"] for v in out.values()):
        code = 1
    return _emit(out), code


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
    if not out:
        raise ValueError("choose at least one of --xi, --conj-y")
    return _emit(out), 0


def _cmd_special(args) -> tuple[str, int]:
    out = {}
    if args.fr is not None:
        n, R = int(args.fr[0]), int(args.fr[1])
        alpha = _parse_complex(_read_json(args.fr[2]))
        if len(alpha) != n:
            raise ValueError(f"alpha has length {len(alpha)}, expected {n}")
        out["fr"] = {"n": n, "R": R, "value": special.f_R_poly(alpha, R)}
    if args.bound_B is not None:
        out["bound_B"] = {"a": args.bound_B, "value": special.bound_B(args.bound_B)}
    if not out:
        raise ValueError("choose at least one of --fr, --bound-B")
    return _emit(out), 0


def _cmd_whittaker(args, cfg) -> tuple[str, int]:
    out = {}
    code = 0
    if args.mellin is not None:
        n = int(args.mellin[0])
        alpha = _parse_complex(_read_json(args.mellin[1]))
        s = _parse_complex(_read_json(args.mellin[2]), imaginary=False)
        out["mellin"] = {"n": n, "value": mellin.mellin_value(n, alpha, s, tol=cfg.quad_tol)}
    if args.residue is not None:
        n, m, delta = args.residue
        alpha = (
            _parse_complex(_read_json(args.alpha))
            if args.alpha
            else mellin.separated_tempered_alpha(n, np.random.default_rng(cfg.seed))
        )
        rep = mellin.residue_check(n, alpha, m=m, delta=delta)
        out["residue"] = rep
        code = max(code, 0 if rep["passed"] else 1)
    if args.check_shift is not None:
        n, m, delta = args.check_shift
        rep = mellin.shift_identity_check(
            n, m, delta, rng=np.random.default_rng(cfg.seed), tol=cfg.identity_tol
        )
        out["check_shift"] = rep
        code = max(code, 0 if rep["passed"] else 1)
    if not out:
        raise ValueError("choose at least one of --mellin, --residue, --check-shift")
    return _emit(out), code


def _cmd_testfn(args) -> tuple[str, int]:
    # the scaling CSV holds one fit; a second would be dropped
    scalings = (args.itr_scaling, args.main_term_scaling)
    if args.out and sum(op is not None for op in scalings) != 1:
        raise ValueError("--out needs exactly one scaling operation: --itr-scaling or --main-term-scaling")
    out = {}
    params = testfunctions.TestFunctionParams(T=args.T, R=args.R)
    alpha = _parse_complex(_read_json(args.alpha)) if args.alpha else [0j, 0j]
    if args.p_sharp:
        out["p_sharp"] = {"T": args.T, "R": args.R, "value": testfunctions.p_sharp(alpha, params)}
    if args.h:
        out["h"] = {"T": args.T, "R": args.R, "value": testfunctions.h_value(alpha, params)}
    if args.p_y is not None:
        out["p_y"] = {"T": args.T, "R": args.R, "y": args.p_y, "value": testfunctions.p_y_batch([args.p_y], params)[0]}
    fit = None
    if args.itr_scaling is not None:
        R, a = int(args.itr_scaling[0]), float(args.itr_scaling[1])
        grid = _doubling_grid(float(args.itr_scaling[2]), float(args.itr_scaling[3]))
        fit = testfunctions.itr_scaling(a, R, grid)
        out["itr_scaling"] = _fit_summary(fit)
    if args.main_term_scaling is not None:
        n, R = args.main_term_scaling
        fit = testfunctions.main_term_scaling(n, R)
        out["main_term_scaling"] = _fit_summary(fit)
    if not out:
        raise ValueError(
            "choose at least one of --p-sharp, --h, --p-y, --itr-scaling, --main-term-scaling"
        )
    if args.out:
        emit_scaling_csv(fit, args.out)
    return _emit(out), 0


def _fit_summary(fit) -> dict:
    return {**_jsonable(fit), "local_slopes": fit.local_slopes, "residual": fit.residual}


def _cmd_trace(args, cfg) -> tuple[str, int]:
    # the sweep is the one tabular result; CSV would drop any other
    others = (args.kloosterman, args.tail, args.exponents, args.cuspidal)
    sweep_alone = args.kloosterman_sweep is not None and all(op is None for op in others)
    if cfg.out_format == "csv" and not sweep_alone:
        raise ValueError("format csv needs --kloosterman-sweep as the only operation")
    out = {}
    if args.kloosterman is not None:
        m, l, c = args.kloosterman
        out["kloosterman"] = {"m": m, "l": l, "c": c, "value": trace.kloosterman_gl2(m, l, c)}
    if args.kloosterman_sweep is not None:
        values = trace.kloosterman_sweep(args.kloosterman_sweep)
        if cfg.out_format == "csv":
            lines = ["c,value"] + [
                f"{c},{float(v.real)!r}" for c, v in enumerate(values, start=1)
            ]
            return "\n".join(lines) + "\n", 0
        out["kloosterman_sweep"] = {"c_max": args.kloosterman_sweep, "values": [v.real for v in values]}
    if args.tail is not None:
        rho, eps, cmax = float(args.tail[0]), float(args.tail[1]), int(args.tail[2])
        out["tail"] = trace.tail_from_rho(rho, eps, cmax)
    if args.exponents is not None:
        n, rho = int(args.exponents[0]), Fraction(args.exponents[1])
        out["exponents"] = trace.iwbounds_exponent(n, rho, comb.Composition((1,) * n))
    if args.cuspidal is not None:
        path = args.cuspidal[0]
        T, R = float(args.cuspidal[1]), int(args.cuspidal[2])
        l, m = int(args.cuspidal[3]), int(args.cuspidal[4])
        forms = trace.ingest_maass_csv(path)
        params = testfunctions.TestFunctionParams(T=T, R=R)
        rep = trace.cuspidal_sum(forms, params, l, m)
        out["cuspidal"] = {"forms": len(forms), "l": l, "m": m, **_jsonable(rep)}
    if not out:
        raise ValueError(
            "choose at least one of --kloosterman, --kloosterman-sweep, --tail, "
            "--exponents, --cuspidal"
        )
    return _emit(out), 0


def main(argv: list[str] | None = None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # the subcommand's usage line names the flags it does take
        args.usage_error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.config_keys:
            cfg = load_config(args.config, {key: getattr(args, key) for key in args.config_keys})
            text, code = args.handler(args, cfg)
        else:
            text, code = args.handler(args)
    except (ValueError, OSError, NotImplementedError, AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
