"""Mixed character-sum scans, the reindexing identity, the ratio-sum bridge."""

import math

import numpy as np
import pytest

from qprog import weil
from qprog.field import get_field
from qprog.characters import quadratic_char_table, additive_char_table
from qprog.weil import (
    _char_sums,
    _mixed_terms,
    _ratio_terms,
    envelope,
    envelope_check,
    ratio_sum_check,
    substitution_check,
    weil_scan,
)
from qprog.kernels import ratio_kernel_table, twisted_prefactor

from conftest import Q_FULL, Q_MEDIUM, field_for
from kernel_oracles import ratio_kernel_table_by_mul
from transform_oracles import char_sums_dense, mult_char_table, mixed_weights_by_code
from weil_oracles import weil_scan_every_row


def test_empty_sum_at_q3():
    ctx = get_field(3, 1)
    sums = _char_sums(_mixed_terms(ctx, np.array([1, 2])))  # rows t, columns lambda
    assert sums[0, 0] == 0 and sums[1, 1] == 0
    rep = weil_scan(ctx)
    assert rep.max_abs_sum == 0 and rep.grid_count == 4


def test_trivial_character_grouped_oracle(ctx_small):
    """Independent route for eta trivial: group terms by s = (r-1)/(r+1)."""
    ctx = ctx_small
    if ctx.q == 3:
        return
    chi, e = quadratic_char_table(ctx), additive_char_table(ctx)
    sums = _char_sums(_mixed_terms(ctx, np.array([1, 2])))
    for j, lam in enumerate((1, 2)):
        direct = sums[0, j]
        groups: dict[int, complex] = {}
        for r in range(ctx.q):
            if r in (0, 1, ctx.neg(1)):
                continue
            s = ctx.div(ctx.sub(r, 1), ctx.add(r, 1))
            groups[s] = groups.get(s, 0) + chi[ctx.sub(1, ctx.mul(r, r))]
        regrouped = sum(c * e[ctx.mul(lam, s)] for s, c in groups.items())
        assert abs(direct - regrouped) < 1e-12


def test_every_summand_is_unimodular(ctx_small):
    """Structural check: |eta chi phase| = 1, so |sum| <= q - 3 a priori."""
    ctx = ctx_small
    eta, chi = mult_char_table(ctx, 1), quadratic_char_table(ctx)
    for r in range(ctx.q):
        if r in (0, 1, ctx.neg(1)):
            continue
        term = eta[r] * chi[ctx.sub(1, ctx.mul(r, r))]
        assert abs(abs(term) - 1.0) < 1e-12
    assert abs(_char_sums(_mixed_terms(ctx, np.array([1])))[1, 0]) <= ctx.q - 3 + 1e-9


@pytest.mark.parametrize("q", Q_MEDIUM)
def test_substitution_identity_full_grid(q):
    res = substitution_check(field_for(q))
    assert res.passed, res
    assert res.cases == (q - 1) ** 2


def test_substitution_term_counts(ctx_small):
    ctx = ctx_small
    rs = [r for r in range(ctx.q) if r not in (0, 1, ctx.neg(1))]
    assert len(rs) == ctx.q - 3


def test_substitution_single_term_spot_check():
    """F_7: r = 2 maps to s = 1/3 = 5 with an identical summand."""
    ctx = get_field(7, 1)
    r, lam, t = 2, 3, 2
    s = ctx.div(ctx.sub(r, 1), ctx.add(r, 1))
    assert s == 5
    eta, chi, e = mult_char_table(ctx, t), quadratic_char_table(ctx), additive_char_table(ctx)
    lhs = eta[r] * chi[ctx.sub(1, ctx.mul(r, r))] * e[ctx.mul(lam, s)]
    r_back = ctx.div(ctx.add(1, s), ctx.sub(1, s))
    assert r_back == r
    neg4 = ctx.neg(ctx.from_int(4))
    chi_arg = ctx.div(ctx.mul(neg4, s), ctx.mul(ctx.sub(1, s), ctx.sub(1, s)))
    rhs = eta[r_back] * chi[chi_arg] * e[ctx.mul(lam, s)]
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27, 49])
def test_ratio_char_sum_identity(q):
    res = ratio_sum_check(field_for(q))
    assert res.passed, res


def test_substitution_check_names_first_bad_cell(monkeypatch):
    """Corrupt the reindexed route: eta taken at -r(s) flips the sign of every
    odd t (eta_t(-1) = (-1)^t), and the last lambda's sums are doubled.
    In (t, lambda) loop order the first bad cell is (t=0, lambda=6), not the
    (t=1, lambda=1) a lambda-major order would name."""
    ctx = get_field(7, 1)
    terms = weil._reindexed_terms
    transform = weil.fourier_inverse_rows

    def corrupted_terms(ctx):
        ss, r_of_s, c = terms(ctx)
        return ss, ctx.neg_vec(r_of_s), c

    def corrupted_transform(ctx, rows):
        out = transform(ctx, rows)
        out[:, 6] *= 2
        return out

    monkeypatch.setattr(weil, "_reindexed_terms", corrupted_terms)
    monkeypatch.setattr(weil, "fourier_inverse_rows", corrupted_transform)
    res = substitution_check(ctx)
    assert not res.passed and res.cases == 36
    assert res.first_failure.startswith("(t=0, lambda=6) ")
    bad_too = _char_sums(_mixed_terms(ctx, np.array([1])))[1, 0]  # (t=1, lambda=1)
    assert abs(bad_too) > 1e-9


def test_substitution_check_catches_a_summation_fault(monkeypatch):
    """The two sides are summed by different transforms, so a fault in the
    multiplicative FFT route (sums for eta_t read at -t) fails the check."""
    ctx = get_field(7, 1)
    sums = weil._char_sums
    monkeypatch.setattr(weil, "_char_sums", lambda w: sums(w).conj())
    res = substitution_check(ctx)
    assert not res.passed and res.cases == 36


def test_ratio_sum_check_names_first_bad_cell(monkeypatch):
    """Corrupt the ratio route: conjugate L_1 and double L_6.  In (h, t) loop
    order the first bad cell is (h=1, t=1), not the (h=6, t=0) a t-major
    order would name."""
    ctx = get_field(7, 1)
    table = weil.ratio_kernel_table

    def corrupted(ctx, hs):
        out = table(ctx, hs)
        hs = np.asarray(hs)
        out[hs == 1] = out[hs == 1].conj()
        out[hs == 6] *= 2
        return out

    monkeypatch.setattr(weil, "ratio_kernel_table", corrupted)

    def err(h, t):
        hs = np.array([h])
        ratio, mixed = _char_sums(_ratio_terms(ctx, hs)), _char_sums(_mixed_terms(ctx, hs))
        return abs(ratio[t, 0] - twisted_prefactor(ctx, h) * mixed[t, 0])

    assert err(1, 0) < 1e-9 and err(1, 1) >= 1e-9 and err(6, 0) >= 1e-9
    res = ratio_sum_check(ctx)
    assert not res.passed and res.cases == 36
    assert res.first_failure == f"(h=1, t=1) err={err(1, 1):.3e}"


def test_ratio_char_sum_brute():
    """Scalar oracle: sum the ratio kernel against a character directly."""
    ctx = get_field(9 // 3, 2)
    for h, t in [(1, 0), (2, 3), (5, 7)]:
        expected = (ratio_kernel_table(ctx, [h])[0] * mult_char_table(ctx, t)).sum()
        assert abs(_char_sums(_ratio_terms(ctx, np.array([h])))[t, 0] - expected) < 1e-12


def test_ratio_char_sum_envelope(ctx_medium):
    ctx = ctx_medium
    sums = _char_sums(_ratio_terms(ctx, np.array([1, ctx.q - 1])))  # every t
    assert np.abs(sums).max() <= envelope(ctx.q) + 1e-9


def test_scan_grid_and_envelope(ctx_medium):
    ctx = ctx_medium
    rep = weil_scan(ctx)
    assert rep.grid_count == (ctx.q - 1) ** 2
    assert rep.max_abs_sum <= envelope(ctx.q) + 1e-9
    assert rep.max_ratio < 4.0
    res = envelope_check(ctx)
    assert res.passed


def test_scan_chi_subgrid_cross_check():
    """The scan's eta = chi row matches a recomputation from the +-1 table."""
    ctx = get_field(13, 1)
    rep = weil_scan(ctx, keep_grid=True)
    t_chi = (ctx.q - 1) // 2
    chi = quadratic_char_table(ctx)
    e = additive_char_table(ctx)
    for j, lam in enumerate(ctx.units()):
        total = 0j
        for r in range(ctx.q):
            if r in (0, 1, ctx.neg(1)):
                continue
            total += (
                chi[r]
                * chi[ctx.sub(1, ctx.mul(r, r))]
                * e[ctx.mul(int(lam), ctx.div(ctx.sub(r, 1), ctx.add(r, 1)))]
            )
        assert abs(abs(total) - rep.grid[t_chi, j]) < 1e-9


def test_scan_argmax_is_lexicographically_first():
    """Cells within 1e-9 of the maximum tie; the least (t, lambda) wins.  At
    q = 27 and 243 tied cells differ in the last digits, where rounding used
    to pick the winner."""
    for q in (5, 27, 243):
        ctx = field_for(q)
        rep = weil_scan(ctx, keep_grid=True)
        best = rep.grid.max()
        hits = [
            (t, int(lam))
            for t in range(q - 1)
            for j, lam in enumerate(ctx.units())
            if rep.grid[t, j] >= best - 1e-9
        ]
        assert (rep.argmax_t, rep.argmax_lambda) == min(hits), q
        assert rep.max_abs_sum == best


def _substituted_terms(ctx, lams):
    """The reindexed sum's weights per lambda row, by log: c_k e(lambda_j s_k)
    at the log of r(s_k), zero at the logs of 1 and -1."""
    ss, r_of_s, c = weil._reindexed_terms(ctx)
    w = np.zeros((len(lams), ctx.q - 1), dtype=complex)
    w[:, ctx.log_table[r_of_s]] = additive_char_table(ctx)[ctx.mul_vec(lams[:, None], ss[None, :])] * c
    return w


TERMS = {
    "_mixed_terms": weil._mixed_terms,
    "_substituted_terms": _substituted_terms,
    "_ratio_terms": weil._ratio_terms,
}


def _count_blocks(monkeypatch) -> list[int]:
    """The rows of each block of mixed weights built from now on, in order."""
    rows = []
    mixed = weil._mixed_terms

    def counted(ctx, lams):
        rows.append(len(lams))
        return mixed(ctx, lams)

    monkeypatch.setattr(weil, "_mixed_terms", counted)
    return rows


@pytest.mark.parametrize("q", [3, 5, 27, 49, 125])
def test_blocked_scan_matches_single_block(q, monkeypatch):
    """One orbit row per block, three rows per block and one block give the
    same grid, maximum and first tied cell."""
    ctx = field_for(q)
    rows = len(weil.weil_orbits(ctx).reps())
    reports = []
    blocks = _count_blocks(monkeypatch)
    for cells, n_blocks in ((1, rows), (3 * q, -(-rows // 3)), (q * q, 1)):
        monkeypatch.setattr(weil, "_BLOCK_CELLS", cells)
        reports.append(weil_scan(ctx, keep_grid=True))
        assert weil_scan(ctx).argmax_lambda == reports[-1].argmax_lambda
        assert len(blocks) == 2 * n_blocks and sum(blocks) == 2 * rows
        blocks.clear()
    one = reports[-1]
    for rep in reports[:-1]:
        assert np.array_equal(rep.grid, one.grid)
        assert (rep.max_abs_sum, rep.argmax_t, rep.argmax_lambda) == (
            one.max_abs_sum, one.argmax_t, one.argmax_lambda)


@pytest.mark.parametrize("q, cell", [(27, (13, 1)), (243, (121, 3)), (2187, (1093, 12))])
def test_scan_argmax_across_blocks(q, cell, monkeypatch):
    """The first tied cell survives blocking: the small fields are split
    row by row; at q = 2187 the 157 orbit rows fit one default block of 479."""
    if q < 2187:
        monkeypatch.setattr(weil, "_BLOCK_CELLS", 1)
    blocks = _count_blocks(monkeypatch)
    rep = weil_scan(field_for(q))
    assert (rep.argmax_t, rep.argmax_lambda) == cell
    assert len(blocks) == (rep.orbit_rows if q < 2187 else 1)


@pytest.mark.parametrize("q", Q_FULL + [125, 243])
@pytest.mark.parametrize("terms", list(TERMS))
def test_char_sums_match_dense_oracle(q, terms):
    """Every Weil grid (mixed, reindexed, ratio): the inverse FFT over the
    discrete log equals the eta-matrix product, for every t and every row."""
    ctx = field_for(q)
    w = TERMS[terms](ctx, ctx.units())
    dense = char_sums_dense(ctx, ctx.exp_table, w)
    fft_route = weil._char_sums(w)  # in place: w is overwritten
    assert fft_route.shape == (q - 1, q - 1)
    assert np.abs(fft_route - dense).max() <= 1e-10


@pytest.mark.parametrize("q", Q_FULL + [125, 243])
def test_by_log_weights_are_code_order_weights_at_exp_table(q):
    """The mixed and ratio weights built by discrete log equal the
    code-order weights read at exp_table, cell for cell."""
    ctx = field_for(q)
    lams = ctx.units()
    by_code = mixed_weights_by_code(ctx, lams)[:, ctx.exp_table]
    assert np.array_equal(weil._mixed_terms(ctx, lams), by_code)
    by_code = ratio_kernel_table_by_mul(ctx, lams)[:, ctx.exp_table]
    assert np.array_equal(weil._ratio_terms(ctx, lams), by_code)


def test_scan_ratio_behavior_across_q():
    """Per field, the grid maximum obeys the Weil bound 3 sqrt(q) and the
    term-count bound q - 3.  The ratio climbs toward 3 while the term count
    binds (q <= 13) and reaches it at q = 27 and 81 (eta = chi), so a cross-q
    slope is no test of square-root cancellation; the per-q bound is."""
    qs = [5, 7, 9, 11, 13, 25, 27, 49, 81, 101, 121]
    for q in qs:
        rep = weil_scan(field_for(q))
        assert rep.max_ratio <= min(3.0, (q - 3) / math.sqrt(q)) + 1e-9, (q, rep)


@pytest.mark.parametrize("q", Q_FULL + [125, 243, 343, 729])
def test_orbit_table_partitions_the_units(q):
    """Every unit is (-1)^neg rep^(p^frob) by ctx.pow and ctx.neg, its rep is
    the least code of its orbit, and each orbit is the full set of images of
    its rep under lambda -> lambda^p and lambda -> -lambda, of a size that
    divides 2s."""
    ctx = field_for(q)
    orbits = weil.weil_orbits(ctx)
    assert (orbits.rep[0], orbits.frob[0], orbits.neg[0]) == (0, 0, False)
    members: dict[int, set[int]] = {}
    for lam in range(1, q):
        rep = int(orbits.rep[lam])
        image = ctx.pow(rep, ctx.p ** int(orbits.frob[lam]))
        assert (ctx.neg(image) if orbits.neg[lam] else image) == lam
        assert 1 <= rep <= lam and orbits.rep[rep] == rep
        members.setdefault(rep, set()).add(lam)
    assert sorted(members) == orbits.reps().tolist()
    for rep, orbit in members.items():
        images = {ctx.pow(rep, ctx.p**j) for j in range(ctx.s)}
        assert orbit == images | {ctx.neg(x) for x in images}
        assert (2 * ctx.s) % len(orbit) == 0


@pytest.mark.parametrize("q", Q_FULL + [125, 243, 2187])
def test_orbit_filled_grid_matches_every_row_oracle(q):
    """The grid read from one row per orbit equals the all-rows scan's to
    1e-12, with the same maximum and the same first tied cell."""
    ctx = field_for(q)
    rep = weil_scan(ctx, keep_grid=True)
    oracle = weil_scan_every_row(ctx)
    assert rep.orbit_rows == len(weil.weil_orbits(ctx).reps()) < q - 1
    assert rep.grid_count == oracle.grid_count == (q - 1) ** 2
    assert np.abs(rep.grid - oracle.grid).max() <= 1e-12
    assert abs(rep.max_abs_sum - oracle.max_abs_sum) <= 1e-12 * max(oracle.max_abs_sum, 1.0)
    assert (rep.argmax_t, rep.argmax_lambda) == (oracle.argmax_t, oracle.argmax_lambda)
    plain = weil_scan(ctx)
    assert plain.grid is None
    assert (plain.max_abs_sum, plain.argmax_t, plain.argmax_lambda) == (
        rep.max_abs_sum, rep.argmax_t, rep.argmax_lambda)
