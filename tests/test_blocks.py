"""``row_blocks``: every pass it blocks gives the same answer in blocks of one
row as under its default budget -- bit for bit where the pass sums its rows
in order, to rounding where a BLAS product sums them."""

import numpy as np
import pytest

from qprog import characters, constructions, field, kernels, operators, weil
from qprog.characters import fourier_checks, random_fn
from qprog.constructions import plane_census
from qprog.field import get_field, row_blocks, subfield_embed
from qprog.kernels import quad_kernel_check
from qprog.reporting import error_check, stacked_error_check
from qprog.weil import weil_scan

from conftest import field_for

BUDGETS = [(field, "ROW_BLOCK_CELLS"), (operators, "_AVERAGE_BLOCK_CELLS"),
           (operators, "_COEFFICIENT_ROWS"), (operators, "_SLICE_BLOCK_CELLS"),
           (operators, "_PAIR_BLOCK"), (weil, "_BLOCK_CELLS")]


def test_row_blocks_cover_the_rows_in_order():
    assert list(row_blocks(7, 3, 7)) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 7)]
    assert list(row_blocks(5, 10, 1)) == [slice(i, i + 1) for i in range(5)]  # at least one row
    assert list(row_blocks(5, 1, 100)) == [slice(0, 5)]  # at most n rows
    assert list(row_blocks(0, 0, 1)) == []


def test_row_blocks_read_the_default_budget_at_the_call(monkeypatch):
    monkeypatch.setattr(field, "ROW_BLOCK_CELLS", 6)
    assert list(row_blocks(4, 3)) == [slice(0, 2), slice(2, 4)]


def _pairs(ctx, k=3):
    rng = np.random.default_rng(ctx.q)
    return [(random_fn(ctx, rng), random_fn(ctx, rng)) for _ in range(k)]


def _side_images(ctx, side):
    rng = np.random.default_rng(ctx.q + 1)
    g = rng.standard_normal((3, ctx.q)) + 1j * rng.standard_normal((3, ctx.q))
    return [operators._side_images(ctx, g, _pairs(ctx), side)]


def _fourier_checks(ctx):
    """Every error array of the suite: the orthogonality sums, and Parseval
    and the round trips of 11 trials, taken 8 at a time by default."""
    errs = []

    def kept(label, err, tol, cell):
        errs.append(np.asarray(err))
        return error_check(label, err, tol, cell)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(characters, "error_check", kept)
        results = fourier_checks(ctx, seed=3, trials=11)
    return [*errs, np.array([r.max_err for r in results])]


def _quad_kernel_check(ctx):
    """The error at every (b, a), rows b joined across blocks."""
    errs = []

    def kept(label, blocks, tol):
        blocks = list(blocks)
        errs.extend(err for err, _ in blocks)
        return stacked_error_check(label, blocks, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "stacked_error_check", kept)
        result = quad_kernel_check(ctx)
    return [np.concatenate(errs), np.array([result.max_err])]


def _weil_scan(ctx):
    rep = weil_scan(ctx, keep_grid=True)
    return [rep.grid, np.array([rep.max_abs_sum, rep.argmax_t, rep.argmax_lambda])]


def _count_progressions(ctx):
    mask = np.random.default_rng(ctx.q).random(ctx.q) < 0.5
    count, witness = operators.count_progressions(ctx, mask)
    return [np.array([count, *witness])]


def _plane_search(ctx):
    """The good plane of F_p's cubic extension."""
    census = plane_census(subfield_embed(get_field(ctx.p, 1), get_field(ctx.p, 3)))
    return [census.good_example.elements]


EXACT = {
    "fourier-checks": _fourier_checks,
    "weil-rows": _weil_scan,
    "quad-kernel-check": _quad_kernel_check,
    "count-progressions": _count_progressions,
    "plane-search": _plane_search,
}
ROUNDED = {
    "averages": lambda ctx: [operators._averages(_pairs(ctx))],
    "coefficient-pass": lambda ctx: list(operators._coefficient_pass(_pairs(ctx))),
    "slice-norms": lambda ctx: [operators._slice_norms(ctx, ctx.units())],
    "f1-side-images": lambda ctx: _side_images(ctx, 0),
    "f2-side-images": lambda ctx: _side_images(ctx, 1),
}


@pytest.mark.parametrize("q", [5, 27])
@pytest.mark.parametrize("name", [*EXACT, *ROUNDED])
def test_one_row_blocks_give_the_default_answer(name, q, monkeypatch):
    """Each pass under its default budget, then with every budget at one
    cell, so that each block is one row; the spy shows the blocks drawn."""
    ctx = field_for(q)
    sizes = []

    def spy(n, width, cells=None):
        for rows in row_blocks(n, width, cells):
            sizes.append(rows.stop - rows.start)
            yield rows

    for module in (characters, constructions, kernels, operators, weil):
        monkeypatch.setattr(module, "row_blocks", spy)
    run = {**EXACT, **ROUNDED}[name]
    default = run(ctx)
    assert max(sizes) > 1
    sizes.clear()
    for module, budget in BUDGETS:
        monkeypatch.setattr(module, budget, 1)
    one_row = run(ctx)
    assert sizes and set(sizes) == {1}
    assert len(one_row) == len(default)
    for got, want in zip(one_row, default):
        if name in EXACT:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
