"""Report plumbing: check results, run manifests, JSON/CSV output, trend fits.

JSON payloads are dumped with sorted keys so that re-running a command with
the same inputs and seed reproduces byte-identical files (wall-time fields in
the manifest are the only sanctioned difference).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
VERSION = "0.1.0"


@dataclass
class CheckResult:
    """Outcome of one verification suite item."""

    name: str
    passed: bool
    cases: int
    max_err: float
    first_failure: str | None = None
    data: dict = field(default_factory=dict)


@dataclass
class RunManifest:
    """Provenance header embedded in every report."""

    command: str
    fields: list[dict]
    seed: int | None
    tolerance_abs: float
    tolerance_rel: float
    version: str = VERSION
    schema_version: int = SCHEMA_VERSION
    timings: dict = field(default_factory=dict)


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n")


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def report_name(command: str, p: int, s: int, ext: str = "json") -> str:
    return f"{command}-{p}-{s}.{ext}"


def fit_slope_vs_logq(qs, values) -> float:
    """Least-squares slope of values against log q (trend diagnostics); 0.0
    when fewer than two distinct q leave the slope undetermined."""
    if len(set(qs)) < 2:
        return 0.0
    x = np.log(np.asarray(qs, dtype=float))
    y = np.asarray(values, dtype=float)
    return float(np.polyfit(x, y, 1)[0])


def relative_error(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / denom
