"""Field construction, arithmetic axioms, traces, embeddings, minimal polynomials."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qprog
from qprog.field import (
    DESK_CAP,
    _check_embedding,
    build_field,
    factorize,
    get_field,
    prime_power,
    sqrt_pairs,
    subfield_embed,
)

from conftest import Q_FULL, field_for
from field_oracles import (
    add_digitwise,
    cubic_min_poly,
    exp_table_by_loop,
    field_from_descriptor,
    min_poly_embedding_map,
    mul_direct,
)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_prime_fields():
    assert get_field(3, 1).g == 2  # 2 has order 2 in F_3
    assert get_field(5, 1).g == 2  # order of 2 mod 5 is 4
    assert get_field(3, 1).modulus == (0, 1)


def test_build_rejections():
    with pytest.raises(ValueError):
        build_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        build_field(2, 3)  # even characteristic
    with pytest.raises(ValueError):
        build_field(101, 3)  # cap exceeded
    with pytest.raises(ValueError):
        build_field(7, 0)


def test_deterministic_modulus_and_generator():
    F9 = get_field(3, 2)
    assert F9.modulus == (1, 0, 1)  # X^2 + 1 is the least irreducible quadratic
    assert F9.g == 4  # element 1 + X
    assert F9.mul(3, 3) == 2  # X * X = -1
    F27 = get_field(3, 3)
    assert F27.modulus == (1, 2, 0, 1)  # X^3 + 2X + 1


def test_descriptor_round_trip():
    ctx = get_field(7, 2)
    assert field_from_descriptor(ctx.descriptor()) is ctx
    bad = ctx.descriptor()
    bad["generator"] = 1
    with pytest.raises(ValueError):
        field_from_descriptor(bad)


def test_prime_power_parsing():
    assert prime_power(49) == (7, 2)
    assert prime_power(27) == (3, 3)
    with pytest.raises(ValueError):
        prime_power(12)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_arith_examples():
    F5 = get_field(5, 1)
    assert F5.mul(2, 3) == 1
    assert F5.inv(4) == 4
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        F5.div(3, 0)
    assert F5.pow(0, 0) == 1
    assert F5.pow(0, 3) == 0


@pytest.mark.parametrize("q", Q_FULL)
def test_pairwise_axioms_exhaustive(q):
    """Commutativity, inverses, and the log/exp round trip on all pairs (q <= 121)."""
    ctx = field_for(q)
    codes = ctx.elements()
    a = np.repeat(codes, q)
    b = np.tile(codes, q)
    assert np.array_equal(ctx.add_vec(a, b), ctx.add_vec(b, a))
    assert np.array_equal(ctx.mul_vec(a, b), ctx.mul_vec(b, a))
    assert np.array_equal(ctx.add_vec(a, ctx.neg_vec(a)), np.zeros_like(a))
    units = ctx.units()
    assert np.array_equal(ctx.mul_vec(units, ctx.inv_vec(units)), np.ones_like(units))
    assert [int(v) for v in ctx.sq_vec(codes)] == [mul_direct(ctx, int(c), int(c)) for c in codes]
    # log/exp round trip for every nonzero element
    assert np.array_equal(ctx.exp_table[ctx.log_table[units]], units)
    assert len(ctx.exp_table) == ctx.q - 1
    assert sorted(ctx.log_table[1:]) == list(range(ctx.q - 1))


@pytest.mark.parametrize("q", [9, 27, 121])
def test_triple_axioms_random(q):
    """Associativity and distributivity on random triples."""
    ctx = field_for(q)
    rng = np.random.default_rng(7)
    n = 10_000
    a, b, c = (rng.integers(0, q, n) for _ in range(3))
    assert np.array_equal(
        ctx.mul_vec(a, ctx.mul_vec(b, c)), ctx.mul_vec(ctx.mul_vec(a, b), c)
    )
    assert np.array_equal(
        ctx.add_vec(a, ctx.add_vec(b, c)), ctx.add_vec(ctx.add_vec(a, b), c)
    )
    assert np.array_equal(
        ctx.mul_vec(a, ctx.add_vec(b, c)),
        ctx.add_vec(ctx.mul_vec(a, b), ctx.mul_vec(a, c)),
    )


@given(st.integers(0, 48), st.integers(0, 48))
@settings(max_examples=60, deadline=None)
def test_table_mul_matches_polynomial_mul(a, b):
    ctx = get_field(7, 2)
    assert ctx.mul(a, b) == mul_direct(ctx, a, b)


def test_frobenius_is_field_automorphism(ctx_medium):
    ctx = ctx_medium
    codes = ctx.elements()
    frob = ctx.pow_vec(codes, ctx.p)
    assert sorted(frob) == sorted(codes)  # bijection
    rng = np.random.default_rng(3)
    a = rng.integers(0, ctx.q, 200)
    b = rng.integers(0, ctx.q, 200)
    assert np.array_equal(ctx.pow_vec(ctx.add_vec(a, b), ctx.p), ctx.add_vec(frob[a], frob[b]))
    assert np.array_equal(ctx.pow_vec(ctx.mul_vec(a, b), ctx.p), ctx.mul_vec(frob[a], frob[b]))
    # s-th iterate is the identity
    it = codes
    for _ in range(ctx.s):
        it = ctx.pow_vec(it, ctx.p)
    assert np.array_equal(it, codes)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def test_trace_prime_field_is_identity():
    F7 = get_field(7, 1)
    assert [F7.trace(a) for a in range(7)] == list(range(7))


def test_trace_linear_and_surjective(ctx_medium):
    ctx = ctx_medium
    codes = ctx.elements()
    tr = ctx.trace_table
    assert tr[0] == 0
    # F_p-linearity on all pairs
    a = np.repeat(codes, ctx.q)
    b = np.tile(codes, ctx.q)
    assert np.array_equal(tr[ctx.add_vec(a, b)], (tr[a] + tr[b]) % ctx.p)
    assert set(tr.tolist()) == set(range(ctx.p))


@pytest.mark.parametrize("q", Q_FULL + [3**7, 17**3])
def test_trace_is_sum_of_conjugates(q):
    """trace_table[a] = a + a^p + ... + a^{p^(s-1)}, summed with scalar ops.
    Any F_p-linear surjection passes the linearity test above; this pins Tr."""
    ctx = field_for(q)
    expected = []
    for a in range(q):
        acc, conj = a, a
        for _ in range(ctx.s - 1):
            conj = ctx.pow(conj, ctx.p)
            acc = ctx.add(acc, conj)
        expected.append(acc)
    assert ctx.trace_table.tolist() == expected


def test_trace_orthogonality_f9():
    """Sum over F_9 of the cube-root character of the trace vanishes."""
    ctx = get_field(3, 2)
    total = sum(np.exp(2j * np.pi * ctx.trace(a) / 3) for a in range(9))
    assert abs(total) < 1e-12


@pytest.mark.parametrize("q", Q_FULL + [243])
def test_sqrt_pairs(q):
    ctx = field_for(q)
    r1, r2 = sqrt_pairs(ctx)
    for d in range(q):
        roots = [y for y in range(q) if ctx.mul(y, y) == d]
        got = [r for r in (int(r1[d]), int(r2[d])) if r >= 0]
        assert sorted(got) == sorted(roots)


@pytest.mark.parametrize("p, s", [(7, 1), (3, 4)])
def test_scalar_add_and_sub_build_no_add_table(p, s):
    """Scalar sums and differences leave no q x q array in the field's cache."""
    ctx = build_field(p, s)
    pairs = [(a, b) for a in (0, 1, 5, ctx.q - 1) for b in (0, 2, ctx.q - 2)]
    sums = [ctx.add(a, b) for a, b in pairs]
    diffs = [ctx.sub(a, b) for a, b in pairs]
    arrays = [x for v in ctx._cache.values() for x in (v if isinstance(v, tuple) else (v,))
              if isinstance(x, np.ndarray)]
    assert all(x.size < ctx.q**2 for x in arrays)
    assert sums == [int(ctx.add_vec(a, b)) for a, b in pairs]
    assert diffs == [int(ctx.sub_vec(a, b)) for a, b in pairs]


def test_per_field_tables_are_built_once():
    """Each cached table is built on the first call and stored under its key;
    later calls return that same object."""
    from qprog.characters import (
        _trace_index,
        additive_char_table,
        gauss_sum,
        phase_table,
        quadratic_char_table,
        unit_root_powers,
    )
    from qprog.kernels import _log_squares

    ctx = build_field(5, 2)  # a fresh field: only the mul tables and the add gather are built
    tables = {
        "mul_tables": lambda c: c._mul_tables(),
        "sq_table": lambda c: c._squares(),
        "sqrt_pairs": sqrt_pairs,
        "e_table": additive_char_table,
        "root_powers": unit_root_powers,
        "chi_table": quadratic_char_table,
        "trace_index": _trace_index,
        "gauss_sum": gauss_sum,
        "phase_table": phase_table,
        "log_squares": _log_squares,
        "add_gather": lambda c: c._add_gather(),
        "square_gather": lambda c: c._square_gather(),
    }
    for key, table in tables.items():
        first = table(ctx)
        assert ctx._cache[key] is first, key
        assert table(ctx) is first, key
    assert all(ctx._cache[key] is not None for key in tables)


# ---------------------------------------------------------------------------
# embeddings and minimal polynomials
# ---------------------------------------------------------------------------


EMBED_CASES = [(3, 1, 2), (3, 1, 3), (5, 1, 2), (5, 1, 3), (7, 1, 2), (7, 1, 3),
               (3, 2, 2), (3, 2, 3), (11, 1, 2), (13, 1, 3)]


@pytest.mark.parametrize("p,s,m", EMBED_CASES)
def test_subfield_embedding_is_field_hom(p, s, m):
    small = get_field(p, s)
    big = get_field(p, m * s)
    emb = subfield_embed(small, big)
    f = emb.map_
    assert f[0] == 0 and f[1] == 1
    assert len(set(f.tolist())) == small.q  # injective, image size q
    # additive and multiplicative on every pair
    codes = small.elements()
    a = np.repeat(codes, small.q)
    b = np.tile(codes, small.q)
    assert np.array_equal(f[small.add_vec(a, b)], big.add_vec(f[a], f[b]))
    assert np.array_equal(f[small.mul_vec(a, b)], big.mul_vec(f[a], f[b]))
    # image is exactly the Frobenius-fixed set
    fixed = np.flatnonzero(big.pow_vec(big.elements(), small.q) == big.elements())
    assert np.array_equal(np.sort(f), fixed)


# every odd prime power q with q^m within the desk cap, for m = 2 and 3
ORACLE_EMBED_CASES = [(q, m) for m in (2, 3) for q in range(3, 101, 2)
                      if q**m <= DESK_CAP and len(factorize(q)) == 1]


def test_oracle_embed_cases_cover_the_cap():
    assert len(ORACLE_EMBED_CASES) == 37


@pytest.mark.parametrize("q,m", ORACLE_EMBED_CASES)
def test_subfield_embed_matches_min_poly_oracle(q, m):
    """The power map found by phi(x + 1) = phi(x) + 1 sends the generator to
    the least root of its minimal polynomial, as the old solver did."""
    p, s = prime_power(q)
    small, big = get_field(p, s), get_field(p, m * s)
    assert np.array_equal(subfield_embed(small, big).map_, min_poly_embedding_map(small, big))


def test_subfield_embed_rejections():
    with pytest.raises(ValueError):
        subfield_embed(get_field(3, 1), get_field(5, 2))  # wrong characteristic
    with pytest.raises(ValueError):
        subfield_embed(get_field(3, 2), get_field(3, 3))  # not an extension of F_9


def test_embedding_check_rejects_a_map_that_is_not_injective():
    small, big = get_field(3, 1), get_field(3, 2)
    emb = subfield_embed(small, big)
    emb.map_ = np.array([0, 1, 1])
    with pytest.raises(RuntimeError, match="embedding is not injective"):
        _check_embedding(emb)


def test_subfield_embed_leaves_numpy_ma_and_random_unimported():
    """np.unique imports numpy.ma on its first call, 10-14 ms cold, and
    numpy.random takes 16 ms to import; the embedding check needs neither."""
    script = (
        "import sys\n"
        "from qprog.field import get_field, subfield_embed\n"
        "subfield_embed(get_field(7, 1), get_field(7, 2))\n"
        "print(sorted({'numpy.ma', 'numpy.random'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(qprog.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cubic_min_poly_of_modulus_root():
    """The image of X in F_27 satisfies the modulus relation X^3 = X + 2."""
    emb = subfield_embed(get_field(3, 1), get_field(3, 3))
    assert cubic_min_poly(emb, 3) == (0, 1, 2)


@pytest.mark.parametrize("p,s", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_cubic_min_poly_random(p, s):
    small = get_field(p, s)
    big = get_field(p, 3 * s)
    emb = subfield_embed(small, big)
    rng = np.random.default_rng(p * 100 + s)
    outside = np.flatnonzero(~emb.image_mask)
    for y in rng.choice(outside, size=min(100, len(outside)), replace=False):
        y = int(y)
        A, B, C = cubic_min_poly(emb, y)
        assert C != 0
        lhs = big.pow(y, 3)
        rhs = big.add(
            big.add(big.mul(emb.map_[A], big.mul(y, y)), big.mul(emb.map_[B], y)),
            emb.map_[C],
        )
        assert lhs == rhs


def test_cubic_min_poly_rejects_subfield_points():
    emb = subfield_embed(get_field(3, 1), get_field(3, 3))
    with pytest.raises(ValueError):
        cubic_min_poly(emb, 1)
    quad_emb = subfield_embed(get_field(3, 1), get_field(3, 2))
    with pytest.raises(ValueError):
        cubic_min_poly(quad_emb, 3)


@pytest.mark.parametrize("q", Q_FULL)
def test_mul_vec_matches_polynomial_product_on_every_pair(q):
    """The padded-log gather against polynomial products, zeros included, as
    a (k,1) x (1,n) broadcast and as scalar x array; log_table[0] stays -1."""
    ctx = field_for(q)
    codes = ctx.elements()
    expected = np.array([[mul_direct(ctx, a, b) for b in range(q)] for a in range(q)])
    assert np.array_equal(ctx.mul_vec(codes[:, None], codes[None, :]), expected)
    for a in range(q):
        assert np.array_equal(ctx.mul_vec(a, codes), expected[a])
    assert ctx.log_table[0] == -1


def test_mul_vec_gathers_in_place_without_writing_its_inputs():
    """The in-place gather gives the two-gather products, int64, on a
    256 x 2187 block, a broadcast and scalars, and leaves the caller's arrays
    and the field's tables as they were."""
    ctx = build_field(3, 7)
    log0, exp_ext = ctx._mul_tables()
    tables = [ctx.exp_table.copy(), log0.copy(), exp_ext.copy()]
    codes = ctx.elements()
    a, b = np.repeat(codes[:256, None], ctx.q, axis=1), np.tile(codes, (256, 1))
    a_before, b_before = a.copy(), b.copy()
    for x, y in ((a, b), (codes[:256, None], codes[None, :]), (a, 7), (ctx.exp_table, codes[:0:-1])):
        got = ctx.mul_vec(x, y)
        assert got.dtype == np.int64 and np.array_equal(got, exp_ext[log0[x] + log0[y]])
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)
    assert all(np.array_equal(t, u) for t, u in zip(tables, [ctx.exp_table, log0, exp_ext]))
    assert ctx.mul_vec(5, 7) == exp_ext[log0[5] + log0[7]] and ctx.mul_vec(0, 7) == 0


@pytest.mark.parametrize("p, s", [(3, 1), (5, 1), (3, 2), (7, 1), (3, 3), (7, 2), (3, 4), (11, 2),
                                  (5, 3), (3, 7), (3, 8), (97, 2), (9973, 1)])
def test_exp_table_by_doubling_matches_polynomial_loop(p, s):
    """The exp table built by doubling with powers of the multiplication-by-g
    matrix equals g^k built one polynomial product at a time, and the log
    table inverts it."""
    ctx = build_field(p, s)
    assert np.array_equal(ctx.exp_table, exp_table_by_loop(ctx))
    assert np.array_equal(ctx.log_table[ctx.exp_table], np.arange(ctx.q - 1))
    assert ctx.log_table[0] == -1


@pytest.mark.parametrize("q", Q_FULL)
def test_add_vec_matches_digitwise_on_every_pair(q):
    """The one gather at offset[a] + offset[b] against the digitwise oracle,
    as a (k,1) x (1,n) broadcast and as scalar x array, in int64."""
    ctx = field_for(q)
    codes = ctx.elements()
    expected = add_digitwise(ctx, codes[:, None], codes[None, :])
    got = ctx.add_vec(codes[:, None], codes[None, :])
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    for a in range(q):
        assert np.array_equal(ctx.add_vec(a, codes), expected[a])


@pytest.mark.parametrize("p, s", [(5, 5), (3, 8), (97, 2), (9973, 1)])
def test_add_vec_above_the_table_matches_digitwise(p, s):
    """Seeded pairs, 0 and q - 1 included, on fields with large tensors."""
    ctx = build_field(p, s)
    rng = np.random.default_rng(ctx.q)
    a = np.concatenate([[0, 0, ctx.q - 1, ctx.q - 1], rng.integers(0, ctx.q, 4096)])
    b = np.concatenate([[0, ctx.q - 1, 0, ctx.q - 1], rng.integers(0, ctx.q, 4096)])
    got = ctx.add_vec(a, b)
    assert got.dtype == np.int64 and np.array_equal(got, add_digitwise(ctx, a, b))
    grid = ctx.add_vec(a[:64, None], b[None, :64])
    assert np.array_equal(grid, add_digitwise(ctx, a[:64, None], b[None, :64]))
    assert np.array_equal(ctx.add_vec(ctx.q - 1, b), add_digitwise(ctx, ctx.q - 1, b))


def test_add_vec_builds_no_q_squared_array():
    """Sums over every pair of F_2401 leave no array of q^2 entries in the
    field's cache."""
    ctx = build_field(7, 4)
    codes = ctx.elements()
    for a0 in range(0, ctx.q, 256):
        ctx.add_vec(codes[a0 : a0 + 256, None], codes[None, :])
    arrays = [x for v in ctx._cache.values() for x in (v if isinstance(v, tuple) else (v,))
              if isinstance(x, np.ndarray)]
    assert arrays and all(x.size < ctx.q**2 for x in arrays)


def _add_rows_expected(ctx, shifts):
    return add_digitwise(ctx, shifts[:, None], ctx.elements()[None, :])


@pytest.mark.parametrize("q", Q_FULL)
def test_add_rows_match_add_vec_on_both_branches(q):
    """Every shift, and no shift, through the wrapped windows: exactly the
    digitwise codes, as intp."""
    ctx = field_for(q)
    codes = ctx.elements()
    expected = _add_rows_expected(ctx, codes)
    rows = ctx.add_rows(codes)
    assert rows.dtype == np.intp and np.array_equal(rows, expected)
    assert np.array_equal(ctx.add_rows(codes[:0]), expected[:0])


@pytest.mark.parametrize("p, s", [(p, s) for p, s in map(prime_power, Q_FULL)]
                         + [(3, 7), (13, 3), (7, 4), (5, 5), (3, 8), (97, 2), (9973, 1)])
def test_add_rows_above_the_table_match_digitwise(p, s):
    """Seeded shifts, 0 and q - 1 included, on every ladder field and the
    large ones up to the cap."""
    ctx = build_field(p, s)
    shifts = np.concatenate([[0, ctx.q - 1], np.random.default_rng(ctx.q).integers(0, ctx.q, 6)])
    assert np.array_equal(ctx.add_rows(shifts), _add_rows_expected(ctx, shifts))
    assert ctx._add_gather()[0].shape == ((2 * p - 1) ** s,)


@pytest.mark.parametrize("p, s", [(3, 1), (5, 2), (3, 5), (3, 8), (97, 2), (9973, 1)])
def test_square_rows_match_digitwise(p, s):
    """(u + j)^2 - j for seeded shifts u, 0 and q - 1 included, against digitwise
    sums, written into the given buffer."""
    ctx = build_field(p, s)
    shifts = np.concatenate([[0, ctx.q - 1], np.random.default_rng(ctx.q).integers(0, ctx.q, 6)])
    sums = _add_rows_expected(ctx, shifts)
    expected = add_digitwise(ctx, ctx.sq_vec(sums), ctx.neg_vec(ctx.elements())[None, :])
    out = np.empty((len(shifts), ctx.q), dtype=np.intp)
    assert ctx.square_rows(shifts, out=out) is out and np.array_equal(out, expected)
