"""Kernel closed forms vs brute force, case analysis, the decomposition identity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qprog import field, kernels
from qprog.field import get_field
from qprog.characters import additive_char_table, gauss_sum, quadratic_char_table
from qprog.kernels import (
    _pair_closed,
    _quad_kernel,
    _slice_phase_columns,
    _twist,
    decomposition_check,
    half_shift,
    pair_kernel_check,
    pair_kernel_grid_brute,
    pair_kernel_grid_closed,
    quad_kernel_check,
    quad_kernel_rows_brute,
    ratio_kernel_table,
    twisted_prefactor,
)

from conftest import Q_FULL, Q_MEDIUM, field_for
from kernel_oracles import (
    pair_kernel_coeffs,
    quad_kernel_table,
    quad_kernel_table_brute,
    ratio_kernel_table_by_mul,
)


# ---------------------------------------------------------------------------
# quad kernel
# ---------------------------------------------------------------------------


def test_quad_kernel_degenerate_cases(ctx_small):
    ctx = ctx_small
    assert _quad_kernel(ctx, 0, 0) == 1
    assert not _quad_kernel(ctx, ctx.units(), 0).any()
    assert abs(quad_kernel_rows_brute(ctx, np.array([0]))[0, 0] - 1) < 1e-12


def test_quad_kernel_f3_value():
    # brute oracle: (1/3) sum e(y^2) over F_3 equals i/sqrt(3)
    ctx = get_field(3, 1)
    assert abs(_quad_kernel(ctx, 0, 1) - 1j / math.sqrt(3)) < 1e-12


def test_quad_kernel_closed_equals_brute(ctx_medium):
    res = quad_kernel_check(ctx_medium)
    assert res.passed, res
    assert res.max_err < 1e-9, res
    assert res.cases == ctx_medium.q**2


def test_quad_kernel_check_names_the_first_bad_cell(monkeypatch):
    """The first failing cell in (b, a) order, not the worst one (nor the
    first in (a, b) order), named across blocks of two rows b."""
    brute = kernels.quad_kernel_rows_brute
    blocks = []

    def perturbed(ctx, bs):
        blocks.append(bs.tolist())
        rows = brute(ctx, bs)
        rows[bs == 3, 2] += 1e-3
        rows[bs == 4, 1] += 1.0
        return rows

    monkeypatch.setattr(kernels, "quad_kernel_rows_brute", perturbed)
    monkeypatch.setattr(field, "ROW_BLOCK_CELLS", 10)
    res = quad_kernel_check(get_field(5, 1))
    assert blocks == [[0, 1], [2, 3], [4]]
    assert not res.passed
    assert res.cases == 25
    assert res.first_failure.startswith("(a=2, b=3) err=1.000e-03")
    assert res.max_err == pytest.approx(1.0)


@pytest.mark.parametrize("q", Q_FULL + [125, 243])
def test_quad_kernel_rows_brute_match_loop_oracle(q):
    """The literal K by one inverse transform per row b against the sum
    accumulated one y at a time."""
    ctx = field_for(q)
    rows = quad_kernel_rows_brute(ctx, ctx.elements())  # rows b, columns a
    assert np.abs(rows.T - quad_kernel_table_brute(ctx)).max() <= 1e-12


def test_quad_kernel_rows_brute_takes_a_list():
    """A plain list of rows b gives the array call's rows."""
    ctx = get_field(7, 1)
    assert np.array_equal(quad_kernel_rows_brute(ctx, [1]), quad_kernel_rows_brute(ctx, np.array([1])))
    assert np.array_equal(quad_kernel_rows_brute(ctx, [0, 3, 6]),
                          quad_kernel_rows_brute(ctx, np.array([0, 3, 6])))


def test_pair_kernel_check_names_the_first_bad_cell_across_h(monkeypatch):
    """The first failing (h, y, z) in h-major order, not the worst one."""
    brute = kernels.pair_kernel_grid_brute

    def perturbed(ctx, h):
        ys, grid = brute(ctx, h)
        grid = grid.copy()
        if h == 2:
            grid[0, 1] += 1e-3
        if h == 3:
            grid[0, 0] += 1.0
        return ys, grid

    monkeypatch.setattr(kernels, "pair_kernel_grid_brute", perturbed)
    res = pair_kernel_check(get_field(5, 1))
    assert not res.passed
    assert res.cases == 4 * 3 * 3
    assert res.first_failure.startswith("(h=2, y=1, z=2) err=1.000e-03")
    assert res.max_err == pytest.approx(1.0)


@pytest.mark.parametrize("check", [pair_kernel_check, decomposition_check])
def test_per_h_checks_hold_one_error_grid_at_a_time(check):
    """At q = 81 the q - 1 stacked error grids would take 8 (q-1) (q-2)^2
    bytes, about 4 MB; reduced grid by grid the check stays well below."""
    ctx = get_field(3, 4)
    check(ctx)  # warm the per-field tables
    tracemalloc.start()
    try:
        check(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak

def test_quad_kernel_modulus_on_generic(ctx_small):
    ctx = ctx_small
    tab = quad_kernel_table(ctx)
    generic = np.abs(tab[:, 1:])
    assert np.abs(generic - 1 / math.sqrt(ctx.q)).max() < 1e-12


# ---------------------------------------------------------------------------
# pair kernel
# ---------------------------------------------------------------------------


def test_pair_kernel_diagonal_and_antidiagonal():
    ctx = get_field(7, 1)
    ys, brute = pair_kernel_grid_brute(ctx, 1)
    assert ys.tolist() == [1, 2, 3, 4, 5]  # row and column y at index y - 1
    assert abs(brute[1, 1] - 7) < 1e-12
    assert abs(_pair_closed(ctx, 1, 2, 2) - 7) == 0
    # h + y + z = 1 + 2 + 4 = 0 mod 7
    assert abs(brute[1, 3]) < 1e-12
    assert _pair_closed(ctx, 1, 2, 4) == 0


def test_pair_kernel_generic_modulus():
    ctx = get_field(7, 1)
    v = pair_kernel_grid_brute(ctx, 1)[1][1, 2]  # (y, z) = (2, 3)
    assert abs(abs(v) - math.sqrt(7)) < 1e-12


@pytest.mark.parametrize("q", Q_MEDIUM)
def test_pair_kernel_closed_equals_brute_exhaustive(q):
    res = pair_kernel_check(field_for(q))
    assert res.passed, res
    n_adm = q - 2
    assert res.cases == (q - 1) * n_adm * n_adm


def test_pair_kernel_case_partition():
    ctx = get_field(5, 1)
    for h in range(1, 5):
        ys, grid = pair_kernel_grid_closed(ctx, h)
        for y, row in zip(ys, grid):
            for z, v in zip(ys, row):
                if y == z:
                    assert v == 5
                elif (h + y + z) % 5 == 0:
                    assert v == 0
                else:
                    assert abs(abs(v) - math.sqrt(5)) < 1e-12


def test_pair_kernel_coeffs_reconstruct_brute():
    """The summand phase really is A x^2 + B x + C: resumming the quadratic
    phase reproduces the kernel (independent reconstruction oracle)."""
    ctx = get_field(9 // 3, 2)  # F_9
    for h, y, z in [(1, 2, 5), (2, 4, 7), (5, 3, 8)]:
        if y in (0, ctx.neg(h)) or z in (0, ctx.neg(h)):
            continue
        A, B, C = pair_kernel_coeffs(ctx, h, y, z)
        total = 0j
        for x in range(ctx.q):
            phase = ctx.add(
                ctx.add(ctx.mul(A, ctx.mul(x, x)), ctx.mul(B, x)), C
            )
            total += additive_char_table(ctx)[phase]
        cols = _slice_phase_columns(ctx, h, np.array([y, z]))
        assert abs(total - cols[:, 0] @ cols[:, 1].conj()) < 1e-9


def test_recentering_substitution_identities():
    """h+y+z = Y+Z, y-z = Y-Z, (h+y)y = Y^2 - c^2 under Y = y+c, Z = z+c."""
    ctx = get_field(7, 2)
    rng = np.random.default_rng(17)
    for _ in range(200):
        h = int(rng.integers(1, ctx.q))
        y, z = int(rng.integers(0, ctx.q)), int(rng.integers(0, ctx.q))
        c = half_shift(ctx, h)
        Y, Z = ctx.add(y, c), ctx.add(z, c)
        assert ctx.add(ctx.add(h, y), z) == ctx.add(Y, Z)
        assert ctx.sub(y, z) == ctx.sub(Y, Z)
        assert ctx.mul(ctx.add(h, y), y) == ctx.sub(ctx.mul(Y, Y), ctx.mul(c, c))


# ---------------------------------------------------------------------------
# ratio kernel and twisted kernel
# ---------------------------------------------------------------------------


def test_ratio_kernel_zeros_and_modulus(ctx_small):
    ctx = ctx_small
    for h in (1, ctx.q - 1):
        tab = ratio_kernel_table(ctx, [h])[0]
        assert tab[1] == 0 and tab[ctx.neg(1)] == 0
        mods = np.abs(tab)
        for r in range(ctx.q):
            if r in (1, ctx.neg(1)):
                assert mods[r] == 0
            else:
                assert abs(mods[r] - 1.0) < 1e-12


@pytest.mark.parametrize("q", Q_FULL)
def test_ratio_kernel_table_matches_mul_vec_oracle(q):
    """Phases read from the phase table at log h + log((r-1)/(r+1)): the
    mul_vec route's table exactly, for every h and r."""
    ctx = field_for(q)
    hs = ctx.units()
    assert np.array_equal(ratio_kernel_table(ctx, hs), ratio_kernel_table_by_mul(ctx, hs))


def test_ratio_kernel_f7_value():
    """L_1(2) = sigma chi(1) chi(-3) e(5) in F_7 (1/3 = 5, -3 = 4 a square)."""
    ctx = get_field(7, 1)
    sigma = gauss_sum(ctx).sigma
    expected = sigma * 1 * additive_char_table(ctx)[5]
    assert quadratic_char_table(ctx)[4] == 1
    assert abs(ratio_kernel_table(ctx, [1])[0, 2] - expected) < 1e-12


def test_ratio_kernel_from_twisted_kernel():
    """Cross-check: sqrt(q) L_h(Z/Y) = B_{h,0}(Y,Z) off the diagonal."""
    ctx = get_field(7, 1)
    h = 1
    c = half_shift(ctx, h)
    Ys = ctx.codes_outside(0, c, ctx.neg(c))
    d, ys = _twist(ctx, c, Ys), ctx.sub_vec(Ys, c)
    twisted = d[:, None] * _pair_closed(ctx, h, ys[:, None], ys[None, :]) * d[None, :]
    lhs = math.sqrt(7) * ratio_kernel_table(ctx, [h])[0][ctx.div_vec(Ys[None, :], Ys[:, None])]
    off = Ys[:, None] != Ys[None, :]
    assert np.abs(twisted - lhs)[off].max() < 1e-9


def test_twisted_kernel_diagonal_and_antidiagonal():
    ctx = get_field(11, 1)
    h = 3
    c = half_shift(ctx, h)
    Ys = ctx.codes_outside(c, ctx.neg(c))
    d, ys = _twist(ctx, c, Ys), ctx.sub_vec(Ys, c)
    twisted = d[:, None] * _pair_closed(ctx, h, ys[:, None], ys[None, :]) * d[None, :]
    assert np.abs(np.diag(twisted) - ctx.q).max() < 1e-9
    nonzero = np.flatnonzero(Ys)
    neg = np.searchsorted(Ys, ctx.neg_vec(Ys[nonzero]))  # -Y lies outside {c, -c} too
    assert np.abs(twisted[nonzero, neg]).max() < 1e-9


@pytest.mark.parametrize("q", Q_MEDIUM)
def test_decomposition_identity_exhaustive(q):
    res = decomposition_check(field_for(q))
    assert res.passed, res


def test_twisted_prefactor_unimodular(ctx_small):
    ctx = ctx_small
    for h in range(1, ctx.q):
        assert abs(abs(twisted_prefactor(ctx, h)) - 1.0) < 1e-12
    batch = twisted_prefactor(ctx, ctx.units())
    assert batch.tolist() == [twisted_prefactor(ctx, h) for h in range(1, ctx.q)]
    for bad in (0, ctx.q, -1):
        with pytest.raises(ValueError, match="h must be nonzero"):
            twisted_prefactor(ctx, bad)


@given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_pair_kernel_brute_matches_closed_random(h, y, z):
    ctx = get_field(13, 1)
    if y in (0, ctx.neg(h)) or z in (0, ctx.neg(h)):
        return
    cols = _slice_phase_columns(ctx, h, np.array([y, z]))
    assert abs(cols[:, 0] @ cols[:, 1].conj() - _pair_closed(ctx, h, y, z)) < 1e-9
