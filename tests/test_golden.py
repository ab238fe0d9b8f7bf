"""Pinned reports of the deviation routes, rerun in-process.

The files under ``golden/deviation`` were written by

    qprog scan delta --q-list 27,243 --trials 4 --seed 1 --format both
    qprog verify operators --p 3 --s 3 --trials 8 --seed 1
    qprog verify operators --p 3 --s 5 --trials 8 --seed 1
    qprog scan delta --q-list 27 --trials 1 --alternating --seed 1

with one BLAS thread: the two CSVs, the verify reports less the manifest's
timings and versions, and the alternating report's summary.  Names, case
counts, ``passed``, ``first_failure`` and every integer must match exactly.
A float must match within 1e-12 relative, since BLAS rounds differently
across CPUs; a check's ``max_err`` is rounding noise near 1e-16, so it also
passes within 1e-14 absolute.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from qprog.cli import main

GOLDEN = Path(__file__).parent / "golden" / "deviation"


def _assert_matches(got, want, where="report"):
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:  # ints, bools, strings and None, exactly and of the same type
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _csv(path: Path) -> list[list]:
    with path.open(newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def test_scan_delta_csvs_match_the_pins(tmp_path):
    assert main(["scan", "delta", "--q-list", "27,243", "--trials", "4", "--seed", "1",
                 "--format", "both", "--out", str(tmp_path)]) == 0
    for name in ("scan-delta-3-3.csv", "scan-delta-3-5.csv"):
        _assert_matches(_csv(tmp_path / name), _csv(GOLDEN / name), name)


@pytest.mark.parametrize("s", [3, 5])
def test_verify_operators_reports_match_the_pins(tmp_path, s):
    assert main(["verify", "operators", "--p", "3", "--s", str(s), "--trials", "8", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    report = _json(tmp_path / f"verify-3-{s}.json")
    for key in ("timings", "version", "schema_version"):
        del report["manifest"][key]
    _assert_matches(report, _json(GOLDEN / f"verify-3-{s}.json"), f"verify-3-{s}")


def test_alternating_summary_matches_the_pin(tmp_path):
    assert main(["scan", "delta", "--q-list", "27", "--trials", "1", "--alternating", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    summary = _json(tmp_path / "scan-delta-3-3.json")["summary"]
    _assert_matches(summary, _json(GOLDEN / "scan-delta-alternating-3-3.json"), "summary")
