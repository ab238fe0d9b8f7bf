"""Each output check passes on real qprog reports and rejects a tampered one.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import csv
import json
import math

import numpy as np
import pytest

import checks
import gf
import workloads
from qprog import cli, get_field


def _run(tmp_path_factory, *argv):
    out = tmp_path_factory.mktemp("reports")
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out


def _json(path):
    return json.loads(path.read_text())


def _csv(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def verify_dir(tmp_path_factory):
    return _run(tmp_path_factory, "verify", "--q-list", "5,9", "--trials", "3")


@pytest.fixture(scope="module")
def weil_report(tmp_path_factory):
    return _json(_run(tmp_path_factory, "scan", "weil", "--q-list", "27") / "scan-weil-3-3.json")


@pytest.fixture(scope="module")
def delta_dir(tmp_path_factory):
    return _run(tmp_path_factory, "scan", "delta", "--q-list", "9", "--trials", "2", "--format", "both")


@pytest.fixture(scope="module")
def slices_dir(tmp_path_factory):
    return _run(tmp_path_factory, "scan", "slices", "--q-list", "9,11", "--format", "both")


@pytest.fixture(scope="module")
def line_report(tmp_path_factory):
    return _json(_run(tmp_path_factory, "construct", "line", "--p", "5") / "construct-line-5-1.json")


@pytest.fixture(scope="module")
def greedy_report(tmp_path_factory):
    return _json(_run(tmp_path_factory, "construct", "greedy", "--p", "13") / "construct-greedy-13-1.json")


# -- the benchmark's own arithmetic ------------------------------------------------


@pytest.mark.parametrize("p,s", [(3, 1), (5, 2), (3, 3), (7, 2)])
def test_gf_matches_qprog_fields(p, s):
    ctx = get_field(p, s)
    f = gf.GF(p, ctx.modulus, ctx.g)
    a = np.arange(ctx.q)
    assert np.array_equal(f.mul(a[:, None], a[None, :]), ctx.mul_vec(a[:, None], a[None, :]))
    assert np.array_equal(f.add(a[:, None], a[None, :]), ctx.add_vec(a[:, None], a[None, :]))
    assert np.array_equal(f.trace(a), ctx.trace_table)


def test_gf_rejects_a_reducible_modulus():
    with pytest.raises(ValueError):
        gf.GF(3, [1, 0, 0, 1], 2)  # X^3 + 1 = (X + 1)^3 over F_3


# -- verify reports ------------------------------------------------------------------


@pytest.mark.parametrize("q", [5, 9])
@pytest.mark.parametrize("suite", workloads.SUITES)
def test_verify_reports_pass(verify_dir, q, suite):
    p, s = checks.prime_power(q)
    report = _json(verify_dir / f"verify-{p}-{s}.json")
    assert checks.check_verify(report, suite, q, 3) == []


def test_verify_rejects_tampered_reports(verify_dir):
    report = _json(verify_dir / "verify-3-2.json")
    wrong_count = copy.deepcopy(report)
    wrong_count["suites"]["kernels"][0]["cases"] -= 1
    assert checks.check_verify(wrong_count, "kernels", 9, 3)
    failed = copy.deepcopy(report)
    failed["passed"] = False
    assert checks.check_verify(failed, "weil", 9, 3)
    dropped = copy.deepcopy(report)
    dropped["suites"]["weil"].pop(1)
    assert checks.check_verify(dropped, "weil", 9, 3)
    census = copy.deepcopy(report)
    plane = next(c for c in census["suites"]["constructions"] if c["name"] == "plane-census")
    plane["data"]["containing_one"] += 1
    assert checks.check_verify(census, "constructions", 9, 3)


# -- weil scan ---------------------------------------------------------------------


def test_weil_report_passes(weil_report):
    assert checks.check_weil(weil_report, seed=1) == []


def test_weil_rejects_sums_scaled_by_q_to_the_005(weil_report):
    bad = copy.deepcopy(weil_report)
    scale = 27**0.05
    bad["summary"]["max_abs_sum"] *= scale
    bad["summary"]["max_ratio"] *= scale
    errors = checks.check_weil(bad, seed=1)
    assert any("above min(3" in e for e in errors)
    assert any("report says" in e for e in errors)


def test_weil_rejects_a_wrong_argmax(weil_report):
    bad = copy.deepcopy(weil_report)
    bad["summary"]["argmax_lambda"] = bad["summary"]["argmax_lambda"] % 26 + 1
    assert checks.check_weil(bad, seed=1)


# -- delta scan ----------------------------------------------------------------------


def test_delta_report_passes_and_rejects_a_ratio_above_one(delta_dir):
    summary = _json(delta_dir / "scan-delta-3-2.json")["summary"]
    rows = _csv(delta_dir / "scan-delta-3-2.csv")
    assert checks.check_delta(summary, rows, 9, 2) == []
    bad = copy.deepcopy(rows)
    bad[0]["ratio"] = "1.2"
    assert checks.check_delta(summary, bad, 9, 2)
    assert checks.check_delta(summary, rows[:-1], 9, 2)


# -- slice norms ---------------------------------------------------------------------


@pytest.mark.parametrize("q", [9, 11])
def test_slices_report_passes(slices_dir, q):
    p, s = checks.prime_power(q)
    summary = _json(slices_dir / f"scan-slices-{p}-{s}.json")["summary"]
    assert checks.check_slices(summary, _csv(slices_dir / f"scan-slices-{p}-{s}.csv"), q) == []


def test_slices_reject_a_norm_out_of_band(slices_dir):
    summary = _json(slices_dir / "scan-slices-3-2.json")["summary"]
    rows = _csv(slices_dir / "scan-slices-3-2.csv")
    rows[2]["norm"] = repr(0.9 / math.sqrt(9))
    assert any("outside" in e for e in checks.check_slices(summary, rows, 9))


def test_slices_reject_a_norm_the_brute_force_disagrees_with(slices_dir):
    summary = _json(slices_dir / "scan-slices-11-1.json")["summary"]
    rows = _csv(slices_dir / "scan-slices-11-1.csv")
    rows[0]["norm"] = repr(float(rows[0]["norm"]) + 1e-6)  # h = 1, still inside the band
    errors = checks.check_slices(summary, rows, 11)
    assert errors and all("brute force" in e for e in errors)


# -- constructions -------------------------------------------------------------------


def test_line_report_passes(line_report):
    assert checks.check_line(line_report, 5) == []


def test_line_rejects_an_extra_element(line_report):
    bad = copy.deepcopy(line_report)
    codes = bad["set"]["codes"]
    codes.append(next(c for c in range(25) if c not in codes))
    bad["size"] = len(codes)
    errors = checks.check_line(bad, 5)
    assert any("closed under addition" in e for e in errors)


def test_line_rejects_a_set_with_y_and_y_squared(line_report):
    bad = copy.deepcopy(line_report)
    bad["set"]["codes"] = list(range(5))  # the prime field: closed, and 1 = 1^2
    assert any("y^2" in e for e in checks.check_line(bad, 5))


def test_greedy_report_passes_and_rejects_a_progression(greedy_report):
    assert checks.check_greedy(greedy_report, 13) == []
    bad = copy.deepcopy(greedy_report)
    bad["set"]["codes"].append((bad["set"]["codes"][0] + 1) % 13)  # x, x+1, x+1 with y = 1
    bad["size"] += 1
    assert any("progression" in e for e in checks.check_greedy(bad, 13))
