"""Averaging operator identities, sliced norms, progression counting, thresholds."""

import math
import tracemalloc

import numpy as np
import pytest

from qprog.field import build_field, get_field, prime_power
from qprog.characters import ComplexFn, additive_char_table, random_fn
from qprog import field, operators
from qprog.kernels import _quad_kernel, pair_kernel_grid_closed
from qprog.weil import weil_orbits, weil_scan
from qprog.operators import (
    _coefficient_pass,
    _deviation_coeffs,
    _side_images,
    _slice_norms,
    alternating_max_ratio,
    averaging_apply,
    averaging_apply_fourier,
    averaging_checks,
    count_progressions,
    density_threshold,
    deviation_norm,
    deviation_scan,
    sliced_norm_scan,
    triple_average_chain,
)

from averaging_oracles import (
    alternating_max_ratio_per_start,
    alternating_max_ratio_svd,
    averaging_apply_per_y,
    averaging_checks_per_trial,
    coefficient_rows_by_code,
    deviation_per_trial_by_pair,
    side_image_per_y,
)
from conftest import Q_FULL, field_for
from kernel_oracles import kernel_coeffs_table, quad_kernel_table_brute
from progression_oracles import count_progressions_field_scan
from slice_oracles import (
    full_weights,
    ratio_sum_rows,
    slice_norms_by_ratio_sums,
    slice_norms_every_row,
    sliced_operator_apply,
    sliced_operator_matrix,
    sliced_operator_norm_svd,
    sliced_square_form_dense,
    top_secular_root_bisect,
)

# the test ladder plus larger extension fields, for the two-route count test
Q_COUNT = Q_FULL + [125, 243, 343]
# the test ladder plus two extension fields, for the coefficient-row routes
Q_ROWS = Q_FULL + [125, 243]
# the test ladder plus 125 = 5^3, the prime 127 and 243 = 3^5, for the slice-norm routes
Q_SLICES = Q_FULL + [125, 127, 243]


# ---------------------------------------------------------------------------
# averaging operator
# ---------------------------------------------------------------------------


def test_averaging_of_constants(ctx_small):
    ctx = ctx_small
    one = ComplexFn(ctx, np.ones(ctx.q))
    out = averaging_apply(one, one)
    assert np.abs(out.values - 1.0).max() < 1e-12


def test_averaging_against_constant_gives_mean(ctx_small):
    ctx = ctx_small
    rng = np.random.default_rng(2)
    f = random_fn(ctx, rng)
    one = ComplexFn(ctx, np.ones(ctx.q))
    out = averaging_apply(f, one)
    assert np.abs(out.values - f.mean()).max() < 1e-12


def test_averaging_two_routes_random(ctx_medium):
    ctx = ctx_medium
    rng = np.random.default_rng(23)
    for _ in range(10):
        f1, f2 = random_fn(ctx, rng), random_fn(ctx, rng)
        d = averaging_apply(f1, f2).values
        v = averaging_apply_fourier(f1, f2).values
        assert np.abs(d - v).max() < 1e-9


@pytest.mark.parametrize("q", Q_ROWS)
def test_averaging_apply_matches_per_y_oracle(q):
    """Summed over u = x + y in blocks: on +-1 and 0/1 inputs every partial
    sum is an exact integer, so any order gives the per-y sum exactly and a
    wrong index cannot hide; on Gaussian inputs the sum moves only at
    rounding level (at most 7.4e-16 max|A| measured on these fields)."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    for kind in ("pm1", "indicator"):
        f1, f2 = random_fn(ctx, rng, kind), random_fn(ctx, rng, kind)
        assert np.array_equal(averaging_apply(f1, f2).values, averaging_apply_per_y(f1, f2).values)
    f1, f2 = random_fn(ctx, rng), random_fn(ctx, rng)
    oracle = averaging_apply_per_y(f1, f2).values
    assert np.abs(averaging_apply(f1, f2).values - oracle).max() <= 1e-13 * np.abs(oracle).max()


@pytest.mark.parametrize("q, k", [(27, 9), (243, 9), (2187, 9), (9973, 2)])
def test_averages_on_a_batch_match_one_pair_at_a_time(q, k):
    """k pairs through one pass, the index rows of each block of u shared:
    each pair's average is its one-pair average bit for bit."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    pairs = [(random_fn(ctx, rng), random_fn(ctx, rng)) for _ in range(k)]
    for pair, row in zip(pairs, operators._averages(pairs)):
        assert np.array_equal(row, operators._averages([pair])[0])


@pytest.mark.parametrize("q", [7, 27])
def test_averages_take_one_row_when_a_row_exceeds_the_budget(q, monkeypatch):
    """A budget under one row of q cells (the default's case above q = 2^15)
    still takes one row u a block, to the default budget's averages."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    pairs = [(random_fn(ctx, rng), random_fn(ctx, rng)) for _ in range(3)]
    default = operators._averages(pairs)
    monkeypatch.setattr(operators, "_AVERAGE_BLOCK_CELLS", q - 1)
    assert np.abs(operators._averages(pairs) - default).max() <= 1e-12 * np.abs(default).max()


def test_averaging_apply_holds_no_square_array():
    """At q = 2187 a q x q complex array takes 76 MB; the blocks of u stay far
    below (the field's tables are built before tracing starts)."""
    ctx = get_field(3, 7)
    rng = np.random.default_rng(7)
    f1, f2 = random_fn(ctx, rng), random_fn(ctx, rng)
    averaging_apply(f1, f2)  # warm the per-field tables
    tracemalloc.start()
    try:
        averaging_apply(f1, f2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


@pytest.mark.parametrize("q", Q_ROWS)
def test_coefficient_rows_are_the_code_order_rows_reflected(q):
    """Column j of each pair's yielded rows is the code-order oracle's column
    n = -j, column 0 exactly zero, rows m = 0..q-1 in order; a pair's rows in
    a batch of three are its rows alone."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    pairs = [(random_fn(ctx, rng), random_fn(ctx, rng)) for _ in range(3)]

    def blocks(pairs):  # each block's coefficient rows, copied out of the reused buffer
        _, fhat1s, weights = operators._spectra(pairs)
        return [(i, m0, rows * weights[i]) for i, m0, rows in operators._coefficient_rows(ctx, fhat1s)]

    batch = blocks(pairs)
    assert [i for i, _, _ in batch] == [0, 1, 2] * (len(batch) // 3)  # each block, pair by pair
    for k, (f1, f2) in enumerate(pairs):
        rows = np.concatenate([block for i, _, block in batch if i == k])
        lengths = [len(block) for i, _, block in batch if i == k]
        assert [m0 for i, m0, _ in batch if i == k] == np.cumsum([0] + lengths[:-1]).tolist()
        expected = coefficient_rows_by_code(f1, f2)[:, ctx.neg_table]
        assert rows.shape == (q, q) and not rows[:, 0].any()
        assert np.abs(rows - expected).max() <= 1e-15 * np.abs(expected).max()
        alone = np.concatenate([block for _, _, block in blocks([(f1, f2)])])
        assert np.array_equal(rows, alone)


@pytest.mark.parametrize("q", [27, 243, 729, 2401])
def test_coefficient_pass_sums_are_the_deviation_coeffs(q):
    """The suite's one pass takes each block's row sums as ``_deviation_coeffs``
    does, one pair at a time where it takes a batch: the same bits."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    pairs = [(random_fn(ctx, rng), random_fn(ctx, rng)) for _ in range(3)]
    assert np.array_equal(_coefficient_pass(pairs)[0], _deviation_coeffs(pairs))


@pytest.mark.parametrize("q", Q_ROWS)
def test_kernel_coeffs_match_table_oracle(q):
    """Coefficients built in blocks of rows against the q x q table route."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    for _ in range(2):
        f1, f2 = random_fn(ctx, rng), random_fn(ctx, rng)
        assert np.abs(_deviation_coeffs([(f1, f2)])[0] - kernel_coeffs_table(f1, f2)).max() <= 1e-12


def test_averaging_on_origin_indicators():
    """Independent enumeration: A(1_0, 1_0)(x) = #{y : x+y = 0 = x+y^2} / q."""
    ctx = get_field(7, 1)
    delta = np.zeros(7)
    delta[0] = 1.0
    f = ComplexFn(ctx, delta)
    direct = averaging_apply(f, f).values
    expected = np.zeros(7)
    for x in range(7):
        n = sum(
            1
            for y in range(7)
            if ctx.add(x, y) == 0 and ctx.add(x, ctx.mul(y, y)) == 0
        )
        expected[x] = n / 7
    assert np.abs(direct - expected).max() < 1e-12
    via = averaging_apply_fourier(f, f).values
    assert np.abs(via - expected).max() < 1e-9


def test_averaging_zero_and_bilinear():
    ctx = get_field(9 // 3, 2)
    zero = ComplexFn(ctx, np.zeros(ctx.q))
    rng = np.random.default_rng(4)
    f = random_fn(ctx, rng)
    assert np.abs(averaging_apply(zero, f).values).max() == 0
    g1, g2, h2 = random_fn(ctx, rng), random_fn(ctx, rng), random_fn(ctx, rng)
    lhs = averaging_apply(g1, ComplexFn(ctx, 2 * g2.values + 3j * h2.values)).values
    rhs = 2 * averaging_apply(g1, g2).values + 3j * averaging_apply(g1, h2).values
    assert np.abs(lhs - rhs).max() < 1e-12


# ---------------------------------------------------------------------------
# deviation norm
# ---------------------------------------------------------------------------


def test_deviation_vanishes_for_constant_second_argument(ctx_small):
    """A(f, const) averages f over a full orbit, so the deviation is 0; a
    constant FIRST argument leaves a quadratic-character convolution and the
    deviation generically survives."""
    ctx = ctx_small
    rng = np.random.default_rng(6)
    f = random_fn(ctx, rng)
    one = ComplexFn(ctx, np.ones(ctx.q))
    assert deviation_norm(f, one).direct < 1e-9
    both = deviation_norm(one, one)
    assert both.direct < 1e-9


def test_deviation_of_character_pair():
    """f1 = f2 = e(xi .): the deviation reduces to the single multiplier
    K(xi, xi), so its norm is exactly q^{-1/2}."""
    ctx = get_field(11, 1)
    e = additive_char_table(ctx)
    for xi in (1, 3):
        vals = e[ctx.mul_vec(xi, ctx.elements())]
        f = ComplexFn(ctx, vals)
        norms = deviation_norm(f, f)
        expected = abs(_quad_kernel(ctx, xi, xi))
        assert abs(norms.direct - expected) < 1e-9
        assert abs(norms.fourier_side - expected) < 1e-9
        assert abs(expected - 1 / math.sqrt(11)) < 1e-12


def test_deviation_ratio_order_at_q49():
    ctx = get_field(7, 2)
    rng = np.random.default_rng(9)
    f1, f2 = random_fn(ctx, rng, "pm1"), random_fn(ctx, rng, "pm1")
    ratio = deviation_norm(f1, f2).direct / (f1.norm_avg() * f2.norm_avg())
    # scan statistic, no fixed ground truth; order q^{-1/4} ~ 0.38
    assert 0.0 < ratio < 1.0


# ---------------------------------------------------------------------------
# sliced expansion
# ---------------------------------------------------------------------------


def test_sliced_square_form_equals_deviation_square(ctx_medium):
    ctx = ctx_medium
    rng = np.random.default_rng(31)
    for _ in range(5):
        f1, f2 = random_fn(ctx, rng), random_fn(ctx, rng)
        norms = deviation_norm(f1, f2)
        form = _coefficient_pass([(f1, f2)])[1][0].sum()
        assert abs(form.imag) < 1e-9
        target = norms.fourier_side**2
        assert abs(form.real - target) <= 1e-8 * max(1.0, target)


def test_sliced_square_form_zero_slice_bound(ctx_small):
    ctx = ctx_small
    rng = np.random.default_rng(37)
    from qprog.characters import fourier

    f1, f2 = random_fn(ctx, rng), random_fn(ctx, rng)
    slices = _coefficient_pass([(f1, f2)])[1][0]
    l1 = (np.abs(fourier(f1).values) ** 2).sum()
    l2 = (np.abs(fourier(f2).values) ** 2).sum()
    assert slices[0].real <= l1 * l2 / ctx.q + 1e-12
    assert abs(slices[0].imag) < 1e-12


def test_sliced_square_form_of_zero():
    ctx = get_field(5, 1)
    zero = ComplexFn(ctx, np.zeros(5))
    assert np.abs(_coefficient_pass([(zero, zero)])[1]).max() == 0
    other = ComplexFn(build_field(5, 1), np.zeros(5))  # the same q, another context
    with pytest.raises(ValueError, match="different fields"):
        _coefficient_pass([(zero, other)])


@pytest.mark.parametrize("q", Q_ROWS)
def test_slices_match_dense_loop_oracle(q):
    """Every slice, by autocorrelation of the coefficient rows, against one
    bilinear form with the dense slice matrix per h."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    f1, f2 = random_fn(ctx, rng), random_fn(ctx, rng)
    assert np.abs(_coefficient_pass([(f1, f2)])[1][0] - sliced_square_form_dense(f1, f2)).max() <= 1e-12


@pytest.mark.parametrize("q", [243, 729])
def test_sliced_square_form_of_a_batch_is_each_pair_alone(q):
    """Each pair's sums and slices in a pass over three pairs are its
    one-pair pass bit for bit: each pair's power is added block by block."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    pairs = [(random_fn(ctx, rng), random_fn(ctx, rng)) for _ in range(3)]
    sums, slices = _coefficient_pass(pairs)
    for i, pair in enumerate(pairs):
        one_sums, one_slices = _coefficient_pass([pair])
        assert np.array_equal(sums[i], one_sums[0]) and np.array_equal(slices[i], one_slices[0])


def test_coefficient_pass_holds_no_square_array():
    """At q = 729 a q x q complex array takes 8.5 MB; the pass transforms its
    rows a block at a time (the first call fills the per-field tables)."""
    ctx = get_field(3, 6)
    rng = np.random.default_rng(1)
    pair = (random_fn(ctx, rng), random_fn(ctx, rng))
    _coefficient_pass([pair])
    tracemalloc.start()
    try:
        _coefficient_pass([pair])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_coefficient_rows_come_in_blocks_of_at_least_eight(monkeypatch):
    """Where ROW_BLOCK_CELLS holds fewer than 8 rows, a pass over three pairs
    draws one run of blocks, 8 rows each but the last."""
    ctx = field_for(27)
    rng = np.random.default_rng(27)
    pairs = [(random_fn(ctx, rng), random_fn(ctx, rng)) for _ in range(3)]
    runs = []

    def spy(n, width, cells=None):
        runs.append([])
        for rows in field.row_blocks(n, width, cells):
            runs[-1].append(rows.stop - rows.start)
            yield rows

    monkeypatch.setattr(field, "ROW_BLOCK_CELLS", 27)
    monkeypatch.setattr(operators, "row_blocks", spy)
    _coefficient_pass(pairs)
    assert runs == [[8, 8, 8, 3]]


@pytest.mark.parametrize("q", [3, 9, 27, 49])
def test_averaging_checks_batches_match_the_per_trial_loop(q):
    """Eleven pairs, a full batch and a partial one, through both routes a
    batch at a time: the one-pair-at-a-time checks exactly."""
    ctx = field_for(q)
    checks = {c.name: c for c in averaging_checks(ctx, seed=q, trials=11)}
    for oracle in averaging_checks_per_trial(ctx, q, 11):
        assert checks[oracle.name] == oracle


# ---------------------------------------------------------------------------
# sliced operator
# ---------------------------------------------------------------------------


def test_sliced_apply_zero_and_linearity():
    ctx = get_field(9 // 3, 2)
    zero = ComplexFn(ctx, np.zeros(ctx.q))
    assert np.abs(sliced_operator_apply(ctx, 2, zero).values).max() == 0
    rng = np.random.default_rng(41)
    g1, g2 = random_fn(ctx, rng), random_fn(ctx, rng)
    lhs = sliced_operator_apply(ctx, 2, ComplexFn(ctx, g1.values + 5 * g2.values)).values
    rhs = sliced_operator_apply(ctx, 2, g1).values + 5 * sliced_operator_apply(ctx, 2, g2).values
    assert np.abs(lhs - rhs).max() < 1e-12
    with pytest.raises(ValueError):
        sliced_operator_apply(ctx, 0, g1)


def test_sliced_apply_point_mass_modulus(ctx_small):
    """A point mass at v0 gives K(u,v0) conj(K(u-h, v0+h)), modulus 1/q."""
    ctx = ctx_small
    h = 1
    v0 = next(v for v in range(1, ctx.q) if v != ctx.neg(h))
    g = np.zeros(ctx.q)
    g[v0] = 1.0
    out = sliced_operator_apply(ctx, h, ComplexFn(ctx, g)).values
    codes = ctx.elements()
    expected = _quad_kernel(ctx, codes, v0) * np.conj(
        _quad_kernel(ctx, ctx.sub_vec(codes, h), ctx.add(v0, h)))
    assert np.abs(out - expected).max() < 1e-12
    assert np.abs(np.abs(out) - 1.0 / ctx.q).max() < 1e-12


@pytest.mark.parametrize("q", [9, 25])
def test_opnorm_matches_brute_svd(q):
    """The slice matrix rebuilt from the literal-average K gives the same norm."""
    ctx = field_for(q)
    K = quad_kernel_table_brute(ctx)
    codes = np.arange(q)
    for h in range(1, q):
        rows = [ctx.sub(u, h) for u in codes]
        cols = [ctx.add(v, h) for v in codes]
        M = K * K[np.ix_(rows, cols)].conj()
        M[:, [0, ctx.neg(h)]] = 0.0
        expected = np.linalg.svd(M, compute_uv=False)[0]
        assert abs(_slice_norms(ctx, np.array([h]))[0] - expected) < 1e-10


@pytest.mark.parametrize("q", Q_FULL + [125, 127])
def test_spectral_norms_match_svd_oracle(q):
    """The spectral scan against the dense SVD of every slice matrix."""
    ctx = field_for(q)
    norms = np.array(sliced_norm_scan(ctx).norms)
    dense = np.array([sliced_operator_norm_svd(ctx, h) for h in range(1, q)])
    assert np.all(np.abs(norms - dense) <= 1e-12 * dense)
    assert _slice_norms(ctx, np.array([1, q - 1])).tolist() == [norms[0], norms[-1]]


def _pair_kernel_top(ctx, h):
    return np.linalg.eigvalsh(pair_kernel_grid_closed(ctx, h)[1])[-1]


@pytest.mark.parametrize("q", [25, 27, 49, 81, 121])
def test_slice_norm_is_pair_kernel_top_at_quarter_h(q):
    """q^2 ||T_h||^2 = lambda_max(B_{h/4}): the slice matrix carries the /4
    that the pair kernel's rescaled phase absorbed."""
    ctx = field_for(q)
    quarter = ctx.inv(ctx.from_int(4))
    for h in range(1, q):
        top = _pair_kernel_top(ctx, ctx.mul(h, quarter))
        assert abs(q * q * sliced_operator_norm_svd(ctx, h) ** 2 - top) <= 1e-10 * top, h


@pytest.mark.parametrize("q", [49, 121])
def test_pair_kernel_top_at_h_misses(q):
    """With B_h in place of B_{h/4} the identity fails (4 is not 1 or -1 here)."""
    ctx = field_for(q)
    miss = max(
        abs(q * q * sliced_operator_norm_svd(ctx, h) ** 2 / _pair_kernel_top(ctx, h) - 1)
        for h in range(1, q)
    )
    assert miss > 1e-2


@pytest.mark.parametrize("q", Q_FULL + [243, 343])
def test_slice_norms_obey_weil_certificate(q):
    """|S_t| <= 3 sqrt(q) for t != 0 and |S_0| <= sqrt(q) + 2 put every
    eigenvalue of N_h at or below 4q, so ||T_h|| sqrt(q) <= 2 for every h."""
    rep = sliced_norm_scan(field_for(q))
    assert rep.max_norm_times_sqrt_q <= 2 + 1e-9


@pytest.mark.parametrize("q", Q_SLICES)
def test_slice_norms_from_mixed_sums_match_ratio_sum_route(q):
    """The scan twists the mixed sums at h/4 by the prefactor; the ratio-kernel
    rows give the same sums, and through the same sectors the same norms."""
    ctx = field_for(q)
    hs = ctx.units()
    ratio_route = np.sqrt(operators._slice_eigenvalues(operators._slice_sectors(q, ratio_sum_rows(ctx, hs)))) / q
    assert np.all(np.abs(operators._slice_norms(ctx, hs) - ratio_route) <= 1e-12 * ratio_route)


@pytest.mark.parametrize("q", Q_SLICES)
@pytest.mark.parametrize("rows_per_block", [1, 3])
def test_slice_norms_across_blocks_match_ratio_sum_route(q, rows_per_block, monkeypatch):
    """Blocks of one and of three h: each block's prefactor and norms land at
    its own offset, against the ratio-sum route and the bisection."""
    ctx = field_for(q)
    hs = ctx.units()
    old = slice_norms_by_ratio_sums(ctx, hs)
    blocks, mixed = [], operators._mixed_terms

    def counted(ctx, lams):
        blocks.append(len(lams))
        return mixed(ctx, lams)

    monkeypatch.setattr(operators, "_mixed_terms", counted)
    monkeypatch.setattr(operators, "_SLICE_BLOCK_CELLS", rows_per_block * q)
    assert np.all(np.abs(operators._slice_norms(ctx, hs) - old) <= 1e-12 * old)
    assert blocks[:-1] == [rows_per_block] * (len(blocks) - 1) and 0 < blocks[-1] <= rows_per_block


@pytest.mark.parametrize("q", Q_FULL + [125, 243, 2187])
def test_orbit_slice_norms_match_every_row_route(q):
    """One solve per orbit of h/4, scattered to every h, against one row of
    mixed sums and one solve per h."""
    ctx = field_for(q)
    hs = ctx.units()
    every = slice_norms_every_row(ctx, hs)
    assert np.all(np.abs(operators._slice_norms(ctx, hs) - every) <= 1e-12 * every)


@pytest.mark.parametrize("q", [9, 27, 49, 125, 243])
def test_sliced_operator_norm_is_constant_on_orbits(q):
    """||T_h|| at every h of an orbit of h -> h^p, h -> -h (the orbits of h/4,
    as 4^p = 4) is the every-row route's value at the orbit's representative."""
    ctx = field_for(q)
    rep = weil_orbits(ctx).rep
    for h in range(1, q):
        expected = slice_norms_every_row(ctx, rep[h : h + 1])[0]
        assert abs(_slice_norms(ctx, np.array([h]))[0] - expected) <= 1e-12 * expected, h


def test_slice_norms_match_ratio_bisection_route_on_every_field_to_243():
    """On every odd prime power q <= 243: the mixed sums and the rational step
    against the ratio sums and the bisection, every h."""
    for q in range(3, 244, 2):
        try:
            ctx = get_field(*prime_power(q))
        except ValueError:  # not a prime power
            continue
        new = np.array(sliced_norm_scan(ctx).norms)
        old = slice_norms_by_ratio_sums(ctx, ctx.units())
        assert np.all(np.abs(new - old) <= 1e-12 * old), q


@pytest.mark.parametrize("q", Q_SLICES)
def test_rational_secular_roots_match_bisection(q):
    """Every sector row of every h: the rational step's root against the bisection's."""
    ctx = field_for(q)
    for lam, tail_w in operators._slice_sectors(q, ratio_sum_rows(ctx, ctx.units())):
        fast, _ = operators._top_secular_root(lam, tail_w)
        slow = top_secular_root_bisect(lam, full_weights(lam, tail_w))
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow))


@pytest.mark.parametrize("q", Q_SLICES + [2187])
def test_rational_secular_step_converges_in_few_evaluations(q, monkeypatch):
    """No row of the scan falls back to bisection for long: at most 8
    evaluations of the secular function per row (4 or 5 on these fields)."""
    counts = []
    solve = operators._top_secular_root

    def counted(lam, tail_w):
        roots, evals = solve(lam, tail_w)
        counts.append(evals)
        return roots, evals

    monkeypatch.setattr(operators, "_top_secular_root", counted)
    ctx = field_for(q)
    sliced_norm_scan(ctx)
    evals = np.concatenate(counts)
    orbits = len(weil_orbits(ctx).reps())
    assert len(evals) == orbits * (2 if q > 3 else 1)  # a row per orbit of h/4 and sector
    assert evals.max() <= 8


def _secular_edge_rows():
    """Synthetic secular rows (lam, tail_w) at the solver's edges."""
    above_one = np.nextafter(1.0, 2.0)
    return {
        # a repeated top eigenvalue: the bracket starts collapsed
        "repeated-top": (np.array([[0.0, 1.0, 3.0, 3.0]]), np.empty((1, 0))),
        # q = 3: one sector of two poles, where the model is exact
        "q3": (np.array([[3.0, 7.0]]), np.array([[0.2, 0.8]])),
        # the root is within an ulp of the top pole, and the model root lands on it
        "tiny-top-weight": (np.array([[0.0, 1.0, 2.0]]), np.array([[1e-30]])),
        # the first midpoint is the pole at lam_2 itself
        "x-on-a-pole": (np.array([[0.0, 1.0, above_one]]), np.empty((1, 0))),
    }


@pytest.mark.parametrize("name", list(_secular_edge_rows()))
def test_rational_secular_step_edge_rows(name):
    """Every edge row gives the bisection's root, and the secular function is
    never evaluated at a pole (any division by zero would raise)."""
    lam, tail_w = _secular_edge_rows()[name]
    with np.errstate(all="raise"):
        fast, evals = operators._top_secular_root(lam.copy(), tail_w)
        slow = top_secular_root_bisect(lam.copy(), full_weights(lam, tail_w))
    assert abs(fast[0] - slow[0]) <= 1e-15 * abs(slow[0]), (fast, slow)
    top2 = np.sort(lam[0])[-2:]
    assert top2[0] <= fast[0] <= top2[1]
    if name in ("repeated-top", "x-on-a-pole"):
        assert evals[0] == 0 and fast[0] == top2[0]
    if name == "q3":
        assert evals[0] <= 2 and abs(fast[0] - 3.8) <= 1e-15 * 3.8


def test_slice_scan_holds_one_half_size_block():
    """The slice scan's blocks hold half of weil_scan's cells, and it drops
    each block before the roots and the next block, so at q = 3^8 (423 orbit
    rows: 3 of weil_scan's blocks, 6 of the slice scan's) its traced peak is
    about half of weil_scan's: 12.6 MB against 26.1 MB.  (At q = 2187, before
    the scans summed one row per orbit, holding the previous block gave 20 MB
    against 12 MB, and the ratio-sum route peaked at 64 MB.)"""
    ctx = get_field(3, 8)
    sliced_norm_scan(ctx)  # warm the per-field tables
    weil_scan(ctx)
    peaks = []
    for scan in (sliced_norm_scan, weil_scan):
        tracemalloc.start()
        try:
            scan(ctx)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.6 * peaks[1], peaks


def test_opnorm_bound_at_q9():
    ctx = get_field(3, 2)
    assert _slice_norms(ctx, ctx.units()).max() <= 4 / math.sqrt(9)


def test_opnorm_invariant_under_unimodular_column_twist():
    """Absorbing a unimodular v-dependent factor into G leaves the norm fixed."""
    from qprog.characters import quadratic_char_table

    ctx = get_field(7, 1)
    chi = quadratic_char_table(ctx)
    for h in (1, 3):
        M = sliced_operator_matrix(ctx, h)
        twist = np.ones(ctx.q, dtype=complex)
        for v in range(ctx.q):
            if v != 0 and v != ctx.neg(h):
                twist[v] = chi[v] * chi[ctx.add(v, h)]
        twisted = M * twist[None, :]
        a = np.linalg.svd(M, compute_uv=False)[0]
        b = np.linalg.svd(twisted, compute_uv=False)[0]
        assert abs(a - b) < 1e-10


def test_opnorm_rejects_h_zero():
    ctx = get_field(5, 1)
    with pytest.raises(ValueError):
        _slice_norms(ctx, np.array([0]))


# ---------------------------------------------------------------------------
# progression counting
# ---------------------------------------------------------------------------


def test_count_progressions_full_field(ctx_small):
    ctx = ctx_small
    count, witness = count_progressions(ctx, np.ones(ctx.q, dtype=bool))
    assert count == ctx.q * (ctx.q - 1)
    assert witness == (0, 1)


def test_count_progressions_small_sets():
    ctx = get_field(7, 1)
    assert count_progressions(ctx, []) == (0, None)
    assert count_progressions(ctx, [4]) == (0, None)
    count, witness = count_progressions(ctx, [4, 5])
    assert count >= 1
    assert witness == (4, 1)  # (4, 5, 5)


def test_count_progressions_brute_oracle():
    """Independent triple-loop oracle on a random subset."""
    ctx = get_field(11, 1)
    rng = np.random.default_rng(53)
    members = set(int(x) for x in rng.choice(11, size=6, replace=False))
    expected = sum(
        1
        for x in range(11)
        for y in range(1, 11)
        if x in members
        and ctx.add(x, y) in members
        and ctx.add(x, ctx.mul(y, y)) in members
    )
    count, _ = count_progressions(ctx, members)
    assert count == expected


@pytest.mark.parametrize("q", Q_COUNT)
@pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.5, 1.0])
def test_count_progressions_matches_field_scan(q, density):
    """Member-pair search against the O(q^2) field scan: count and witness."""
    ctx = field_for(q)
    rng = np.random.default_rng((q, int(density * 100)))
    for _ in range(3):
        mask = rng.random(q) < density
        assert count_progressions(ctx, mask) == count_progressions_field_scan(ctx, mask)


@pytest.mark.parametrize("q", Q_COUNT)
def test_count_progressions_planted(q):
    """Sparse sets with planted triples (x, x+y, x+y^2): both routes agree and
    the witness is no later than the least planted (x, y)."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    for _ in range(4):
        mask = rng.random(q) < 0.02
        planted = []
        for _ in range(2):
            x, y = int(rng.integers(q)), int(rng.integers(1, q))
            mask[[x, ctx.add(x, y), ctx.add(x, ctx.mul(y, y))]] = True
            planted.append((x, y))
        count, witness = count_progressions(ctx, mask)
        assert (count, witness) == count_progressions_field_scan(ctx, mask)
        assert count >= 1 and witness <= min(planted)


# ---------------------------------------------------------------------------
# threshold arithmetic
# ---------------------------------------------------------------------------


def test_threshold_exponent_values():
    res = density_threshold(0.25, 1.0, 121)
    assert abs(res.exponent - 5.0 / 6.0) < 1e-12
    res = density_threshold(0.75 - 1e-9, 1.0, 121)
    assert abs(res.exponent - 0.5) < 1e-8


def test_threshold_c_zero_limit():
    for q in (25, 121, 2197):
        res = density_threshold(0.25, 0.0, q)
        assert abs(res.alpha - q**-0.5) < 1e-12


def test_threshold_root_is_positivity_boundary():
    res = density_threshold(0.25, 1.0, 49)
    a, C, q = res.alpha, res.coefficient, res.q

    def lhs(alpha):
        return alpha**3 - C * q**-0.25 * alpha**1.5 - alpha / q

    assert abs(lhs(a)) < 1e-12
    assert lhs(a * 1.01) > 0 > lhs(a * 0.99)


def test_threshold_rejections():
    with pytest.raises(ValueError):
        density_threshold(0.0, 1.0, 49)
    with pytest.raises(ValueError):
        density_threshold(0.75, 1.0, 49)
    with pytest.raises(ValueError):
        density_threshold(0.5, -1.0, 49)


# ---------------------------------------------------------------------------
# the counting chain and the deviation scan
# ---------------------------------------------------------------------------


def test_triple_average_chain_on_random_sets():
    ctx = get_field(13, 1)
    rng = np.random.default_rng(61)
    for _ in range(5):
        members = rng.random(13) < 0.4
        rep = triple_average_chain(ctx, members)
        assert rep.holds
        assert rep.alpha == members.sum() / 13


def test_deviation_scan_reproducible_and_monotone():
    ctx = get_field(5, 2)
    a = deviation_scan(ctx, trials=6, seed=99)
    b = deviation_scan(ctx, trials=6, seed=99)
    assert a.max_ratio == b.max_ratio and a.witness == b.witness
    bigger = deviation_scan(ctx, trials=12, seed=99)
    assert bigger.max_ratio >= a.max_ratio  # same seed sequence, more trials
    assert abs(a.ratio_times_q_delta - a.max_ratio * 25**0.25) < 1e-12


@pytest.mark.parametrize("q, trials", [(5, 3), (27, 5), (243, 6)])
def test_deviation_scan_batches_match_per_pair_norms(q, trials):
    """Norms taken a batch of pairs at a time (a partial batch last): the
    per-trial record of one deviation_norm call per pair, exactly."""
    ctx = field_for(q)
    assert deviation_scan(ctx, trials, seed=q).per_trial == deviation_per_trial_by_pair(ctx, trials, q)


def test_alternating_exceeds_random_lower_bound():
    ctx = get_field(5, 1)
    rng = np.random.default_rng(3)
    alt = alternating_max_ratio(ctx, rng, starts=4, rounds=8)
    scan = deviation_scan(ctx, trials=8, seed=3)
    assert alt >= scan.max_ratio * 0.9  # a certified lower envelope, usually larger


@pytest.mark.parametrize("q, rounds", [(5, 80), (27, 20), (243, 3)])
def test_alternating_lock_step_matches_per_start_oracle(q, rounds):
    """Eleven starts, a full batch and a partial one, stepped in lock step:
    the per-start route's ratio exactly, and the same draws after it."""
    ctx = field_for(q)
    rng, oracle_rng = np.random.default_rng(q), np.random.default_rng(q)
    alt = alternating_max_ratio(ctx, rng, starts=11, rounds=rounds)
    assert alt == alternating_max_ratio_per_start(ctx, oracle_rng, starts=11, rounds=rounds)
    assert rng.random() == oracle_rng.random()


def test_alternating_lock_step_drops_vanishing_starts():
    """Starts 0, 4 and 9 of eleven draw constant f1 and f2, so their deviation
    is exactly 0 at once and they leave their batches while the others step
    on: the per-start route's ratio exactly."""

    class PartlyConstantRng:
        def __init__(self):
            self.rng, self.calls = np.random.default_rng(27), 0

        def standard_normal(self, n):  # four calls per start: f1, then f2, each real and imaginary
            start = self.calls // 4
            self.calls += 1
            return np.ones(n) if start in (0, 4, 9) else self.rng.standard_normal(n)

    ctx = field_for(27)
    alt = alternating_max_ratio(ctx, PartlyConstantRng(), starts=11, rounds=10)
    assert alt > 0.0
    assert alt == alternating_max_ratio_per_start(ctx, PartlyConstantRng(), starts=11, rounds=10)


@pytest.mark.parametrize("q", Q_FULL + [125, 243, 2187])
def test_side_images_match_per_y_oracle(q):
    """Both side images of a batch of two, through the square rows and the
    coefficient rows, against the sums taken one y at a time."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    pairs = [[random_fn(ctx, rng), random_fn(ctx, rng)] for _ in range(2)]
    g = np.array([random_fn(ctx, rng).values for _ in pairs])
    for side in (0, 1):
        for image, gi, pair in zip(_side_images(ctx, g, pairs, side), g, pairs):
            expected = side_image_per_y(ctx, gi, pair, side)
            assert np.abs(image - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("q", Q_FULL + [125, 243, 9409])
def test_side_images_are_the_adjoints(q):
    """sum conj(g) D(f1,f2) = sum u1 f1 = sum u2 f2, D the deviation and u the
    two side images of g, for an arbitrary g, per pair of a batch of two (at
    9409 each coefficient block is one row)."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    pairs = [[random_fn(ctx, rng), random_fn(ctx, rng)] for _ in range(2)]
    g = np.array([random_fn(ctx, rng).values for _ in pairs])
    forms = [np.vdot(gi, averaging_apply(f1, f2).values - f1.mean() * f2.mean())
             for gi, (f1, f2) in zip(g, pairs)]
    for side in (0, 1):
        images = _side_images(ctx, g, pairs, side)
        for image, pair, form in zip(images, pairs, forms):
            assert abs(np.sum(image * pair[side].values) - form) <= 1e-12 * abs(form)


def test_alternating_is_monotone_in_rounds(monkeypatch):
    """Each exact one-sided step cannot lower the form: along one start every
    pair's ratio is at least the one before it, so the last is the best, and
    with a fixed seed more rounds never give less."""
    ctx = get_field(3, 3)
    ratios = []
    averages = operators._averages

    def recording_averages(pairs):
        out = averages(pairs)
        for (f1, f2), average in zip(pairs, out):
            dev = ComplexFn(ctx, average - f1.mean() * f2.mean())
            ratios.append(dev.norm_avg() / (f1.norm_avg() * f2.norm_avg()))
        return out

    monkeypatch.setattr(operators, "_averages", recording_averages)
    values = [alternating_max_ratio(ctx, np.random.default_rng(5), starts=1, rounds=r)
              for r in (1, 2, 4, 8, 16)]
    assert values == sorted(values), values
    steps = ratios[-32:]  # the 16-round start, one pair per half-round
    assert all(b >= a * (1 - 1e-12) for a, b in zip(steps, steps[1:])), steps
    assert values[-1] == pytest.approx(steps[-1], rel=1e-12)


@pytest.mark.parametrize("q", [3, 5, 9, 25])
def test_alternating_reaches_svd_oracle(q):
    """At the default budget and seed 1 the matrix-free alternation ends no
    lower than the dense side-matrix SVD route, and the ratio stays <= 1."""
    ctx = field_for(q)
    alt = alternating_max_ratio(ctx, np.random.default_rng(1))
    oracle = alternating_max_ratio_svd(ctx, np.random.default_rng(1))
    assert oracle * (1 - 1e-9) <= alt <= 1.0, (alt, oracle)


def test_alternating_stops_on_vanishing_deviation():
    """Constant f2 gives A(f1,f2) = E f1 E f2, so the deviation is 0: the start
    records 0 and stops without dividing by the zero image."""

    class ConstantRng:
        def standard_normal(self, n):
            return np.ones(n)

    with np.errstate(all="raise"):
        assert alternating_max_ratio(get_field(7, 1), ConstantRng(), starts=2) == 0.0
        assert alternating_max_ratio_per_start(get_field(7, 1), ConstantRng(), starts=2) == 0.0


def test_alternating_drops_a_start_whose_image_vanishes():
    """f2 = 1 + i everywhere, f1 Gaussian: the deviation is rounding noise,
    not exactly 0, and its f1-side image is exactly 0.  The start ends there,
    with no division by the zero norm, in both routes alike."""

    class OnesForF2:
        def __init__(self):
            self.rng, self.calls = np.random.default_rng(27), 0

        def standard_normal(self, n):  # per start: f1's real and imaginary draws, then f2's
            self.calls += 1
            return np.ones(n) if (self.calls - 1) // 2 % 2 else self.rng.standard_normal(n)

    ctx = field_for(27)
    with np.errstate(all="raise"):
        alt = alternating_max_ratio(ctx, OnesForF2(), starts=11, rounds=3)
        assert alt == alternating_max_ratio_per_start(ctx, OnesForF2(), starts=11, rounds=3)
    assert 0.0 < alt < 1e-12


def test_alternating_holds_no_square_array():
    """At q = 729 a q x q complex array takes 8.1 MB; every step gathers in
    blocks of rows (the first call fills the per-field tables)."""
    ctx = get_field(3, 6)
    alternating_max_ratio(ctx, np.random.default_rng(1), starts=1, rounds=1)
    tracemalloc.start()
    try:
        alternating_max_ratio(ctx, np.random.default_rng(1), starts=1, rounds=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak
