"""Report plumbing: check results, run manifests, JSON/CSV output, trend fits.

Every two-route comparison builds its ``CheckResult`` through ``error_check``
(or ``stacked_error_check`` for one error grid per h), which names the first
failing entry in index order.  Tolerances are constants,
recorded in every manifest.

JSON payloads are dumped with sorted keys so that re-running a command with
the same inputs and seed reproduces byte-identical files (wall-time fields in
the manifest are the only sanctioned difference).
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1
VERSION = "0.1.0"

# kernel and orthogonality checks (absolute); Parseval (relative; Gauss unit 10x)
TOLERANCE_ABS = 1e-6
TOLERANCE_REL = 1e-9


@dataclass
class CheckResult:
    """Outcome of one verification suite item."""

    name: str
    passed: bool
    cases: int
    max_err: float
    first_failure: str | None = None
    data: dict = field(default_factory=dict)


def error_check(name: str, err, tol: float, cell) -> CheckResult:
    """Pass when every entry of the error array ``err`` is below ``tol``.

    Cases are its entries (an empty array passes with max_err 0.0).  The
    first failure is the first entry not below ``tol`` in index order, named
    by ``cell(*index)``.
    """
    return stacked_error_check(name, [(err, cell)], tol)


def stacked_error_check(name: str, blocks, tol: float) -> CheckResult:
    """``error_check`` on error arrays stacked along a new leading axis, read
    one at a time so that only one is held: ``blocks`` yields ``(err, cell)``
    pairs, each ``cell`` naming an index of its own ``err``."""
    cases, max_err, first = 0, 0.0, None
    for err, cell in blocks:
        err = np.asarray(err, dtype=float)
        cases += err.size
        max_err = float(np.max([max_err, err.max(initial=0.0)]))  # a NaN stays NaN
        bad = np.flatnonzero(~(err < tol))
        if first is None and bad.size:
            index = np.unravel_index(int(bad[0]), err.shape)
            first = f"{cell(*map(int, index))} err={err[index]:.3e}"
    return CheckResult(name, max_err < tol, cases, max_err, first)


@dataclass
class RunManifest:
    """Provenance header embedded in every report."""

    command: str
    fields: list[dict]
    seed: int | None
    tolerance_abs: float = TOLERANCE_ABS
    tolerance_rel: float = TOLERANCE_REL
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


def write_csv(path: Path, header: list[str], rows: Iterable[tuple]) -> None:
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


def relative_error(a, b):
    """|a - b| / max(|a|, |b|, 1e-300), elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
