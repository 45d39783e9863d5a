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

from .combinatorics import require_integer
from .special import require_positive
from .testfunctions import ScalingFit, fit_scaling

CONFIG_ENV_VAR = "KUZNETSOV_LAB_CONFIG"

FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every verifier in the suite; the field names are the
    config keys.

    quad_tol feeds the adaptive quadratures, identity_tol raises the
    floating-point floors of the suite's residual bounds (it stays below 1,
    the error a failed side condition reads as), and seed fixes every
    randomized sample draw so failures are reproducible.
    """

    quad_tol: float = 1e-8
    identity_tol: float = 1e-9
    jobs: int = 1
    format: str = "json"
    seed: int = 0

    def __post_init__(self):
        require_positive(self.quad_tol, "quad_tol")
        if require_positive(self.identity_tol, "identity_tol") >= 1:
            raise ValueError("identity_tol must be below 1")
        require_integer(self.jobs, "jobs", positive=True)
        require_integer(self.seed, "seed")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")


# each config key's text parser, from its field's type; config files and flags both use it
CONFIG_PARSERS = {f.name: {"int": int, "float": float, "str": str}[f.type] for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """key=value lines; blank lines and #-comments ignored; unknown keys
    and values their key's parser rejects raise ValueError naming the line."""
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
            if key not in CONFIG_PARSERS:
                raise ValueError(f"{path} line {lineno}: unknown key {key!r}")
            try:
                out[key] = CONFIG_PARSERS[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: bad value for {key!r}: {exc}") from None
    return out


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file (explicit path, else the environment
    variable), then CLI overrides, already parsed; later layers win.
    None-valued overrides are treated as absent so unset flags do not mask the file.
    """
    cfg = RunConfig()
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is not None:
        cfg = replace(cfg, **parse_config_file(path))
    return replace(cfg, **{key: value for key, value in (overrides or {}).items() if value is not None})


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
    # the literal 16 was once a config key; it stays in the tuple so every
    # digest keeps its bytes, which test_seed_7_digests_are_pinned pins
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
    if cfg.format == "csv":
        return reports_to_csv(reports, include_runtime)
    return reports_to_json(reports, include_runtime)


def _sidecar_path(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".json"


def emit_scaling_csv(fit: ScalingFit, path: str) -> None:
    """CSV `T,value,log_value` plus a JSON sidecar with the fit summary,
    both plain enough for any plotting tool.  Both files are written or
    neither: both texts are built before either file is opened, so a value
    exp(log_value) past the float range raises ValueError naming its T and
    writes nothing, and the CSV is removed when the sidecar cannot be
    written."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["T", "value", "log_value"])
    for T, lv in zip(fit.T_values, fit.log_values):
        try:
            value = math.exp(lv)
        except OverflowError:
            raise ValueError(f"scaling CSV: the value at T = {T!r} is exp({lv!r}), past the float range") from None
        writer.writerow([repr(T), repr(value), repr(lv)])
    sidecar = {
        "slope": fit.slope,
        "predicted": fit.predicted,
        "residual": fit.residual,
    }
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    try:
        with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    except OSError:
        os.remove(path)
        raise


def read_scaling_csv(path: str) -> ScalingFit:
    """Re-ingest an emitted CSV (with its sidecar) into a ScalingFit; the
    fit is recomputed from the data rows, so a round trip reproduces the
    slope to machine precision.  Each data row must hold three finite
    numbers; a row that does not raises ValueError naming its 1-based line."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["T", "value", "log_value"]:
        raise ValueError(f"{path}: not a scaling CSV")
    T_values, log_values = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            vals = [float(t) for t in row]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number in {row}") from None
        if len(vals) != 3 or not all(map(math.isfinite, vals)):
            raise ValueError(f"{path}: line {lineno}: need three finite numbers, got {row}")
        T_values.append(vals[0])
        log_values.append(vals[2])
    with open(_sidecar_path(path), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    return fit_scaling(T_values, log_values, sidecar["predicted"])
