"""The one error helper behind every two-route check."""

import numpy as np

from qprog.reporting import error_check, stacked_error_check


def test_error_check_names_the_first_bad_entry_in_index_order():
    err = np.array([[0.0, 2e-6, 0.0], [5e-6, 0.0, 3e-6]])
    res = error_check("grid", err, 1e-6, lambda i, j: f"(i={i}, j={j})")
    assert (res.name, res.passed, res.cases, res.max_err) == ("grid", False, 6, 5e-6)
    assert res.first_failure == "(i=0, j=1) err=2.000e-06"


def test_error_check_passes_an_empty_grid():
    res = error_check("empty", np.zeros((2, 0, 0)), 1e-6, lambda h, y, z: "unused")
    assert (res.passed, res.cases, res.max_err, res.first_failure) == (True, 0, 0.0, None)


def test_error_check_fails_on_nan():
    res = error_check("nan", [0.0, np.nan], 1e-6, lambda i: f"(i={i})")
    assert not res.passed
    assert res.first_failure == "(i=1) err=nan"


def test_error_check_takes_a_scalar():
    res = error_check("unit", 0.5, 1e-6, lambda: "(sigma)")
    assert (res.passed, res.cases, res.max_err) == (False, 1, 0.5)
    assert res.first_failure == "(sigma) err=5.000e-01"


def test_stacked_error_check_matches_error_check_on_the_stack():
    grids = [np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 2e-6], [5e-6, np.nan]])]
    cell = lambda h, i, j: f"(h={h}, i={i}, j={j})"
    whole = error_check("grid", np.stack(grids), 1e-6, cell)
    blocks = ((g, lambda i, j, h=h: cell(h, i, j)) for h, g in enumerate(grids))
    res = stacked_error_check("grid", blocks, 1e-6)
    assert (res.passed, res.cases, res.first_failure) == (whole.passed, 8, whole.first_failure)
    assert res.first_failure == "(h=1, i=0, j=1) err=2.000e-06"
    assert np.isnan(res.max_err) and np.isnan(whole.max_err)
