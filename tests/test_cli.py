"""CLI contract: exit codes, report files, determinism."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qprog import characters, constructions, kernels, operators, weil
from qprog.characters import ComplexFn, random_fn
from qprog import cli
from qprog.cli import main
from qprog.field import DESK_CAP, get_field
from qprog.reporting import fit_slope_vs_logq


def _scrub(payload):
    """Drop wall-time fields, the only sanctioned nondeterminism."""
    payload["manifest"].pop("timings", None)
    return payload


def test_verify_kernels_passes(tmp_path):
    rc = main(["verify", "kernels", "--p", "7", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify-7-1.json").read_text())
    assert report["passed"] is True
    names = {c["name"]: c for suite in report["suites"].values() for c in suite}
    assert names["quad-kernel-equivalence"]["cases"] == 49
    n_adm = 7 - 2
    assert names["pair-kernel-equivalence"]["cases"] == 6 * n_adm * n_adm


def test_verify_rejects_even_characteristic(tmp_path, capsys):
    rc = main(["verify", "--p", "2", "--s", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "odd characteristic" in capsys.readouterr().err


def test_verify_rejects_unknown_target(tmp_path):
    rc = main(["verify", "bogus", "--p", "7", "--out", str(tmp_path)])
    assert rc == 2


def test_verify_weil_vacuous_at_q3(tmp_path):
    rc = main(["verify", "weil", "--p", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify-3-1.json").read_text())
    names = {c["name"]: c for c in report["suites"]["weil"]}
    assert names["scan-term-count"]["data"]["terms"] == 0


def test_verify_cap_exceeded(tmp_path):
    rc = main(["verify", "--p", "101", "--s", "3", "--out", str(tmp_path)])
    assert rc == 2


def test_verify_cap_above_desk_cap_is_honoured(tmp_path):
    rc = main(["verify", "constructions", "--p", "101", "--cap", "20000", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify-101-1.json").read_text())
    names = {c["name"]: c for c in report["suites"]["constructions"]}
    assert names["line-certified"]["passed"] and names["line-certified"]["cases"] == 101


def test_verify_weil_gates_on_weil_bound(tmp_path, monkeypatch, capsys):
    """Sums inflated by q^0.05 stay under the old 4 sqrt(q) + 3 envelope at
    q = 27 but break the proven 3 sqrt(q)."""
    scan = weil.weil_scan

    def inflated(ctx, keep_grid=False):
        rep = scan(ctx, keep_grid)
        f = ctx.q**0.05
        return dataclasses.replace(rep, max_abs_sum=rep.max_abs_sum * f, max_ratio=rep.max_ratio * f)

    monkeypatch.setattr(weil, "weil_scan", inflated)
    rc = main(["verify", "weil", "--p", "3", "--s", "3", "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "verify-3-3.json").read_text())
    assert report["first_failure"]["name"] == "weil-envelope"
    assert "weil-envelope" in capsys.readouterr().out


def test_scan_weil_writes_reports_and_csv(tmp_path):
    rc = main(["scan", "weil", "--q-list", "5,7", "--out", str(tmp_path), "--format", "both"])
    assert rc == 0
    summary = json.loads((tmp_path / "scan-weil-summary.json").read_text())
    assert summary["cross_q"]["q"] == [5, 7]
    per_field = json.loads((tmp_path / "scan-weil-5-1.json").read_text())
    assert per_field["summary"]["max_ratio"] < 4
    csv_text = (tmp_path / "scan-weil-5-1.csv").read_text().splitlines()
    assert csv_text[0] == "q,t,lambda,abs_sum,ratio"
    assert len(csv_text) == 1 + (5 - 1) ** 2


def test_scan_weil_csv_rows_are_not_held_at_once(tmp_path, monkeypatch):
    """At q = 729 a list of the (q-1)^2 CSV rows takes about 70 MB; the rows
    reach ``write_csv`` one at a time, next to a 4.2 MB grid (the field's
    tables are built before tracing starts).  The writer here only counts
    the rows, so that the trace times no float formatting."""
    counted = []
    monkeypatch.setattr(cli, "write_csv", lambda path, header, rows: counted.append(sum(1 for _ in rows)))
    argv = ["scan", "weil", "--q-list", "729", "--format", "csv", "--out", str(tmp_path)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted == [728**2] * 2
    assert peak < 25e6, peak


def test_scan_and_verify_weil_report_the_orbit_rows(tmp_path):
    """q = 3^5: the group of lambda -> lambda^p, lambda -> -lambda has order
    10, so 25 rows of 242 are summed; both reports say so, and the envelope
    check still counts every cell."""
    assert main(["scan", "weil", "--q-list", "243", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "scan-weil-3-5.json").read_text())["summary"]
    assert summary["orbit_rows"] == 25
    assert main(["verify", "weil", "--p", "3", "--s", "5", "--out", str(tmp_path)]) == 0
    check = json.loads((tmp_path / "verify-3-5.json").read_text())["suites"]["weil"][0]
    assert check["name"] == "weil-envelope" and check["cases"] == 242**2
    assert check["data"]["orbit_rows"] == 25


@pytest.mark.parametrize("argv, reports", [
    (["verify", "--p", "3", "--s", "2"], ["verify-3-2.json"]),
    (["scan", "delta", "--q-list", "9", "--trials", "4", "--seed", "7"],
     ["scan-delta-3-2.json", "scan-delta-summary.json"]),
    (["scan", "weil", "--q-list", "9"], ["scan-weil-3-2.json", "scan-weil-summary.json"]),
    (["scan", "slices", "--q-list", "9"], ["scan-slices-3-2.json", "scan-slices-summary.json"]),
    (["construct", "line", "--p", "5"], ["construct-line-5-1.json"]),
], ids=["verify", "scan-delta", "scan-weil", "scan-slices", "construct-line"])
def test_rerun_is_deterministic(tmp_path, argv, reports):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for d in (a_dir, b_dir):
        assert main(argv + ["--out", str(d)]) == 0
    for name in reports:
        a = _scrub(json.loads((a_dir / name).read_text()))
        b = _scrub(json.loads((b_dir / name).read_text()))
        assert a == b


def test_scan_slices_band(tmp_path):
    rc = main(["scan", "slices", "--q-list", "9,25", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "scan-slices-summary.json").read_text())
    assert summary["cross_q"]["band_ratio"] < 2.0


def test_scan_slope_is_zero_for_one_distinct_q(tmp_path):
    """Two copies of one field leave the cross-q slope undetermined: it is
    0.0, not the fit of a rank-deficient system (which warned and gave 0.35)."""
    assert fit_slope_vs_logq([9, 9], [1.0, 2.0]) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["scan", "slices", "--q-list", "9,9", "--out", str(tmp_path)])
    assert rc == 0
    cross = json.loads((tmp_path / "scan-slices-summary.json").read_text())["cross_q"]
    assert cross["slope_vs_log_q"] == 0.0 and cross["band_ratio"] == 1.0


def test_construct_plane_report(tmp_path):
    rc = main(["construct", "plane", "--p", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "construct-plane-3-1.json").read_text())
    assert report["certified"] is True
    assert report["size"] == 9
    assert report["census"] == {
        "q": 3, "total": 13, "containing_one": 4, "avoiding_one": 9,
        "bad": 6, "good": 3, "min_bad_witnesses": 4,
    }
    assert len(report["set"]["codes"]) == 9


def test_construct_line_and_greedy(tmp_path):
    rc = main(["construct", "line", "--p", "7", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "construct-line-7-1.json").read_text())
    assert report["size"] == 7
    rc = main(["construct", "greedy", "--p", "101", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "construct-greedy-101-1.json").read_text())
    assert report["size"] >= 0.55 * 101**0.5


def test_construct_requires_p(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "greedy", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "fourier", "--p", "5", "--trials", "-3"],
    ["verify", "fourier", "--p", "5", "--trials", "0"],
    ["scan", "delta", "--q-list", "5", "--trials", "-2"],
])
def test_trials_below_one_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "kernels", "--p", "3", "--jobs", "0"],
    ["verify", "kernels", "--q-list", "3,5", "--jobs", "-2"],
    ["scan", "delta", "--q-list", "5", "--jobs", "0"],
])
def test_jobs_below_one_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "weil", "--p", "5", "--q-list", "7"],
    ["scan", "weil", "--p", "5", "--q-list", "7"],
    ["construct", "greedy", "--p", "5", "--q-list", "7"],
    ["construct", "greedy", "--q-list", "7"],
])
def test_conflicting_field_flags_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--p" in err and "--q-list" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "weil", "--q-list", "7", "--s", "2"],
    ["scan", "weil", "--q-list", "7", "--s", "2"],
    ["verify", "weil", "--s", "2"],  # the default q list
])
def test_extension_degree_requires_p(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--s" in err and "--q-list" in err
    assert not any(tmp_path.iterdir())


def test_extension_degree_zero_is_rejected(tmp_path, capsys):
    assert main(["verify", "weil", "--p", "7", "--s", "0", "--out", str(tmp_path)]) == 2
    assert "extension degree must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["weil", "slices"])
def test_alternating_applies_to_scan_delta_only(tmp_path, capsys, kind):
    with pytest.raises(SystemExit) as exc:
        main(["scan", kind, "--q-list", "7", "--alternating", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--alternating" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_verify_parallel_jobs_matches_serial(tmp_path):
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    for d, jobs in ((serial, "1"), (parallel, "2")):
        rc = main(["verify", "kernels", "--q-list", "5,7", "--jobs", jobs, "--out", str(d)])
        assert rc == 0
    for name in ("verify-5-1.json", "verify-7-1.json"):
        a = _scrub(json.loads((serial / name).read_text()))
        b = _scrub(json.loads((parallel / name).read_text()))
        assert a == b


def test_scan_parallel_jobs_write_the_serial_csv(tmp_path):
    """--jobs workers write their own CSVs, whose rows are made one at a time."""
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    for d, jobs in ((serial, "1"), (parallel, "2")):
        assert main(["scan", "weil", "--q-list", "5,7", "--format", "csv", "--jobs", jobs,
                     "--out", str(d)]) == 0
    for name in ("scan-weil-5-1.csv", "scan-weil-7-1.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_verify_operators_at_q3(tmp_path):
    rc = main(["verify", "operators", "--p", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify-3-1.json").read_text())
    names = {c["name"]: c for c in report["suites"]["operators"]}
    assert list(names) == ["averaging-two-routes", "slice-expansion-identity",
                           "slice-point-mass-modulus"]
    assert names["slice-point-mass-modulus"]["cases"] == 3


def _verify_operators_failure(tmp_path):
    rc = main(["verify", "operators", "--p", "7", "--trials", "3", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "verify-7-1.json").read_text())
    passed = {c["name"]: c["passed"] for c in report["suites"]["operators"]}
    return rc, report["first_failure"]["name"], passed


def _corrupt_coefficient_pass(monkeypatch, part: int):
    """Scale one output of the suite's one pass over the coefficient rows by
    1 + 1e-6: the Fourier route's coefficients (0) or the slices (1)."""
    one_pass = operators._coefficient_pass

    def corrupted(pairs):
        out = list(one_pass(pairs))
        out[part] = out[part] * (1 + 1e-6)
        return tuple(out)

    monkeypatch.setattr(operators, "_coefficient_pass", corrupted)


def test_verify_operators_catches_a_wrong_slice_expansion(tmp_path, monkeypatch):
    _corrupt_coefficient_pass(monkeypatch, 1)
    rc, first, passed = _verify_operators_failure(tmp_path)
    assert (rc, first) == (1, "slice-expansion-identity")
    assert passed["averaging-two-routes"]


def test_verify_operators_catches_a_wrong_averaging_route(tmp_path, monkeypatch):
    _corrupt_coefficient_pass(monkeypatch, 0)
    rc, first, passed = _verify_operators_failure(tmp_path)
    assert (rc, first) == (1, "averaging-two-routes")
    assert passed["slice-expansion-identity"]


def test_a_wrong_direct_route_fails_the_two_route_checks(tmp_path, monkeypatch):
    """One cell of the direct route's output, pair 0 at x = 1, moved by 1e-3:
    the suite's route comparison fails, and so does ``deviation_norm``'s."""
    averages = operators._averages

    def corrupted(pairs):
        out = averages(pairs)
        out[0, 1] += 1e-3
        return out

    monkeypatch.setattr(operators, "_averages", corrupted)
    rc, first, passed = _verify_operators_failure(tmp_path)
    assert (rc, first) == (1, "averaging-two-routes")
    assert not passed["averaging-two-routes"]
    ctx, rng = get_field(7, 1), np.random.default_rng(7)
    with pytest.raises(RuntimeError, match="deviation-norm routes disagree"):
        operators.deviation_norm(random_fn(ctx, rng), random_fn(ctx, rng))


def test_verify_fourier_names_the_first_bad_trial(tmp_path, monkeypatch):
    inverse = characters.fourier_inverse
    monkeypatch.setattr(characters, "fourier_inverse",
                        lambda fh: ComplexFn(fh.ctx, inverse(fh).values * (1 + 1e-6)))
    rc = main(["verify", "fourier", "--p", "7", "--trials", "3", "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "verify-7-1.json").read_text())
    assert report["first_failure"]["name"] == "transform-round-trip"
    assert report["first_failure"]["first_failure"].startswith("(trial=0, additive) err=")
    assert [c["passed"] for c in report["suites"]["fourier"]] == [True, True, True, False, True]


def test_verify_fourier_at_cap_edge_holds_no_square_table(tmp_path):
    """q = 3^8 = 6561 runs the additive FFT over s = 8 digit axes; no cached
    array reaches q^2 entries (a q x q complex table would be 690 MB)."""
    rc = main(["verify", "fourier", "--p", "3", "--s", "8", "--trials", "4", "--out", str(tmp_path)])
    assert rc == 0
    q = 3**8
    cache = get_field(3, 8, DESK_CAP)._cache  # same cache key as the CLI worker
    assert "trace_index" in cache
    assert all(v.size < q * q for v in cache.values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("argv", [
    ["scan", "slices", "--q-list", "2187"],
    ["scan", "delta", "--q-list", "2187", "--trials", "1"],
    ["verify", "operators", "--p", "3", "--s", "7", "--trials", "1"],
], ids=["scan-slices", "scan-delta", "verify-operators"])
def test_scan_slices_holds_no_kernel_table(tmp_path, argv):
    """Slice norms come from the Weil sums, and the deviation's coefficients
    and slices from blocks of kernel rows: at q = 2187 no cached array
    reaches q^2 entries (the q x q complex quad-kernel table the dense routes
    built was 76 MB)."""
    rc = main(argv + ["--out", str(tmp_path)])
    assert rc == 0
    q = 3**7
    cache = get_field(3, 7, DESK_CAP)._cache  # same cache key as the CLI worker
    assert all(v.size < q * q for v in cache.values() if isinstance(v, np.ndarray))


def test_out_of_memory_exits_cleanly(tmp_path, monkeypatch, capsys):
    def exhausted(ctx, h):
        raise MemoryError("pair grid")

    monkeypatch.setattr(kernels, "pair_kernel_grid_brute", exhausted)
    assert main(["verify", "kernels", "--p", "5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: out of memory in verify kernels: pair grid\n"


def test_bare_verify_passes(tmp_path):
    assert main(["verify", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("argv, sets", [
    (["construct", "line", "--p", "5"], 1),
    (["construct", "greedy", "--p", "13"], 1),
    (["construct", "plane", "--p", "3"], 1),
    (["verify", "constructions", "--p", "3"], 3),  # greedy, line, plane
])
def test_each_set_certified_once(tmp_path, monkeypatch, argv, sets):
    calls = []
    count = constructions.count_progressions

    def counting(ctx, members):
        calls.append(ctx.q)
        return count(ctx, members)

    monkeypatch.setattr(constructions, "count_progressions", counting)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == sets


def test_main_reuses_one_parser_with_a_fresh_namespace(tmp_path, monkeypatch):
    """Two calls in a row share the cached parser; the second call's
    namespace holds nothing of the first (``scan delta --alternating``) and
    equals a new parser's."""
    parser = cli.build_parser()
    parsed = []

    def recording_parse(argv=None):
        args = parse(argv)
        parsed.append(dict(vars(args)))
        return args

    parse = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", recording_parse)
    first = ["scan", "delta", "--alternating", "--q-list", "3", "--trials", "1",
             "--seed", "7", "--out", str(tmp_path)]
    second = ["verify", "fourier", "--p", "5", "--trials", "2", "--out", str(tmp_path)]
    assert main(first) == 0 and main(second) == 0
    assert cli.build_parser() is parser and len(parsed) == 2
    assert parsed[0]["alternating"] and parsed[0]["seed"] == 7
    assert "alternating" not in parsed[1] and "kind" not in parsed[1]
    assert parsed[1] == vars(cli.build_parser.__wrapped__().parse_args(second))
