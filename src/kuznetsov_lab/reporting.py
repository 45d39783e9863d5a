"""Run configuration, structured verification reports, and scaling-data files.

The report serializers are byte-stable: identical configuration and seed
produce identical output, so diffing two runs is a meaningful check.  Wall
times are therefore kept out of the canonical payload and only appear when
explicitly requested.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, fields, replace

from .testfunctions import ScalingFit, fit_scaling

CONFIG_ENV_VAR = "KUZNETSOV_LAB_CONFIG"

_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every verifier in the suite.

    quad_tol feeds the adaptive quadratures, identity_tol raises the
    floating-point floors of the suite's residual bounds (it stays below 1,
    the error a failed side condition reads as), and seed fixes every
    randomized sample draw so failures are reproducible.
    """

    quad_tol: float = 1e-8
    identity_tol: float = 1e-9
    jobs: int = 1
    out_format: str = "json"
    seed: int = 0

    def __post_init__(self):
        if self.quad_tol <= 0 or self.identity_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.identity_tol >= 1:
            raise ValueError("identity_tol must be below 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.out_format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if self.seed != int(self.seed):
            raise ValueError("seed must be an integer")


# config files and flags use "format"; the field avoids shadowing the builtin
_KEY_TO_FIELD = {f.name: f.name for f in fields(RunConfig)} | {"format": "out_format"}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(field_name: str, raw):
    if isinstance(raw, str):
        raw = raw.strip()
    t = _FIELD_TYPES[field_name]
    if t == "int":
        return int(raw)
    if t == "float":
        return float(raw)
    return str(raw)


def parse_config_file(path: str) -> dict:
    """key=value lines; blank lines and #-comments ignored; unknown keys
    rejected so typos fail loudly."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path} line {lineno}: expected key=value")
            key, _, value = text.partition("=")
            key = key.strip()
            if key not in _KEY_TO_FIELD:
                raise ValueError(f"{path} line {lineno}: unknown key {key!r}")
            field_name = _KEY_TO_FIELD[key]
            out[field_name] = _coerce(field_name, value)
    return out


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file (explicit path, else the environment
    variable), then CLI overrides; later layers win.  None-valued overrides
    are treated as absent so unset flags do not mask the file.
    """
    cfg = RunConfig()
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is not None:
        cfg = replace(cfg, **parse_config_file(path))
    if overrides:
        cleaned = {}
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _KEY_TO_FIELD:
                raise ValueError(f"unknown config key {key!r}")
            cleaned[_KEY_TO_FIELD[key]] = _coerce(_KEY_TO_FIELD[key], value)
        cfg = replace(cfg, **cleaned)
    return cfg


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check.

    anchor names the library identity the check verifies (module.function);
    digest fingerprints the inputs (name, seed, tolerances) so two reports
    are comparable only when their digests match.  runtime is wall seconds
    and is excluded from canonical serialized output.  error is
    "<ExceptionType>: <message>" when the check raised instead of returning
    a verdict; it is serialized only when set.
    """

    name: str
    anchor: str
    digest: str
    passed: bool
    max_error: float
    runtime: float
    error: str | None = None

    def payload(self, include_runtime: bool = False) -> dict:
        out = {
            "name": self.name,
            "anchor": self.anchor,
            "digest": self.digest,
            "passed": self.passed,
            "max_error": self.max_error,
        }
        if self.error is not None:
            out["error"] = self.error
        if include_runtime:
            out["runtime"] = self.runtime
        return out


def input_digest(name: str, cfg: RunConfig) -> str:
    # 16 is the Gauss-Legendre panel size of the Mellin contours; it stays
    # in the tuple so digests keep the bytes they had when it was a config key
    blob = repr((name, cfg.seed, cfg.quad_tol, cfg.identity_tol, 16)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def reports_to_json(reports, include_runtime: bool = False) -> str:
    payload = [r.payload(include_runtime) for r in reports]
    return json.dumps(payload, indent=2) + "\n"


def reports_to_csv(reports, include_runtime: bool = False) -> str:
    names = ["name", "anchor", "digest", "passed", "max_error"]
    if include_runtime:
        names.append("runtime")
    if any(r.error is not None for r in reports):
        names.append("error")
    buf = io.StringIO()
    # an exception message may hold commas or quotes, so quote as needed
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for r in reports:
        row = r.payload(include_runtime)
        writer.writerow([row.get(k, "") for k in names])
    return buf.getvalue()


def render_reports(reports, cfg: RunConfig, include_runtime: bool = False) -> str:
    if cfg.out_format == "csv":
        return reports_to_csv(reports, include_runtime)
    return reports_to_json(reports, include_runtime)


def _sidecar_path(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".json"


def emit_scaling_csv(fit: ScalingFit, path: str) -> None:
    """CSV `T,value,log_value` plus a JSON sidecar with the fit summary,
    both plain enough for any plotting tool."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "value", "log_value"])
        for T, lv in zip(fit.T_values, fit.log_values):
            writer.writerow([repr(T), repr(math.exp(lv)), repr(lv)])
    sidecar = {
        "slope": fit.slope,
        "predicted": fit.predicted,
        "residual": fit.residual,
    }
    with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def read_scaling_csv(path: str) -> ScalingFit:
    """Re-ingest an emitted CSV (with its sidecar) into a ScalingFit; the
    fit is recomputed from the data rows, so a round trip reproduces the
    slope to machine precision."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["T", "value", "log_value"]:
        raise ValueError(f"{path}: not a scaling CSV")
    T_values = [float(r[0]) for r in rows[1:]]
    log_values = [float(r[2]) for r in rows[1:]]
    with open(_sidecar_path(path), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    return fit_scaling(T_values, log_values, sidecar["predicted"])
