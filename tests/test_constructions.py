"""Progression-free constructions: greedy, extension line, plane census."""

import numpy as np
import pytest

from qprog.field import get_field, prime_power, subfield_embed
from qprog.constructions import (
    ElementSet,
    _additions_blocked,
    _plane_witness_counts,
    greedy_progression_free,
    is_progression_free,
    plane_census,
    quadratic_extension_line,
)

from conftest import Q_FULL, Q_SMALL, field_for
from field_oracles import cubic_min_poly
from progression_oracles import (
    addition_blocked_field_scan,
    enumerate_planes,
    greedy_field_scan,
    greedy_one_at_a_time,
    plane_census_by_enumeration,
    witnesses,
)

# frozen greedy calibration: min of size/sqrt(q) over the prime fields q <= 121
# (attained at q = 3 with ratio 1/sqrt(3) = 0.577)
GREEDY_MIN_RATIO = 0.55


def _embedding(p, s, m):
    return subfield_embed(get_field(p, s), get_field(p, m * s))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_progression_free_trivial_sets():
    ctx = get_field(7, 1)
    assert is_progression_free(ElementSet.from_codes(ctx, []))[0]
    assert is_progression_free(ElementSet.from_codes(ctx, [3]))[0]
    ok, witness = is_progression_free(ElementSet.from_codes(ctx, np.ones(7, bool)))
    assert not ok and witness == (0, 1)


def test_adjacent_pair_is_never_free(ctx_small):
    ctx = ctx_small
    for a in (0, 2):
        ok, witness = is_progression_free(ElementSet.from_codes(ctx, [a, ctx.add(a, 1)]))
        assert not ok
        assert witness == (a, 1)  # (a, a+1, a+1)


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_greedy_certified_and_calibrated(p):
    ctx = get_field(p, 1)
    out = greedy_progression_free(ctx)
    assert is_progression_free(out)[0]
    assert out.codes()[0] == 0  # the element 0 alone is progression-free
    assert out.size >= GREEDY_MIN_RATIO * np.sqrt(p)


def test_greedy_maximality():
    """No element outside the greedy set can be added back (local maximality),
    every non-member tested in one call."""
    for q in (11, 2187, 4999):
        ctx = field_for(q)
        out = greedy_progression_free(ctx)
        assert _additions_blocked(ctx, out.mask, out.codes(), np.flatnonzero(~out.mask)).all(), q


@pytest.mark.parametrize("q", Q_FULL + [125, 243])
def test_greedy_matches_field_scan(q):
    """Member enumeration builds the same greedy set as the O(q) field scan
    per candidate."""
    ctx = field_for(q)
    out = greedy_progression_free(ctx)
    assert out.codes().tolist() == np.flatnonzero(greedy_field_scan(ctx)).tolist()


@pytest.mark.parametrize("q", Q_FULL + [125, 243, 4999, 9409])
def test_greedy_matches_one_candidate_at_a_time(q):
    """Batches of candidates, with blocked ones never retested, build the same
    greedy set as testing each candidate in its own call."""
    ctx = field_for(q)
    out = greedy_progression_free(ctx)
    assert out.codes().tolist() == np.flatnonzero(greedy_one_at_a_time(ctx)).tolist()


@pytest.mark.parametrize("q", [9, 11, 25, 27])
def test_addition_blocked_matches_field_scan(q):
    """On arbitrary sets, not only progression-free ones: the codes outside
    the set in one call, and each code inside it with it taken out (the scan
    puts e in the set either way)."""
    ctx = field_for(q)
    rng = np.random.default_rng(q)
    for density in (0.05, 0.2, 0.5):
        mask = rng.random(q) < density
        before = mask.copy()
        outside = np.flatnonzero(~mask)
        blocked = _additions_blocked(ctx, mask, np.flatnonzero(mask), outside)
        assert blocked.tolist() == [addition_blocked_field_scan(ctx, mask, e) for e in outside]
        for e in np.flatnonzero(mask):
            rest = mask.copy()
            rest[e] = False
            blocked = _additions_blocked(ctx, rest, np.flatnonzero(rest), np.array([e]))
            assert blocked.tolist() == [addition_blocked_field_scan(ctx, mask, e)]
        assert np.array_equal(mask, before)


def test_greedy_size_at_4999():
    out = greedy_progression_free(get_field(4999, 1))
    assert out.size == 105


# ---------------------------------------------------------------------------
# quadratic-extension line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", Q_SMALL)
def test_line_certified(q):
    p, s = prime_power(q)
    emb = _embedding(p, s, 2)
    line = quadratic_extension_line(emb)
    assert line.size == q  # |L| = sqrt(|K|)
    assert is_progression_free(line)[0]
    overlap = np.flatnonzero(line.mask & emb.image_mask)
    assert overlap.tolist() == [0]  # L meets the subfield only at 0


def test_line_requires_quadratic_extension():
    with pytest.raises(ValueError):
        quadratic_extension_line(_embedding(3, 1, 3))


# ---------------------------------------------------------------------------
# planes
# ---------------------------------------------------------------------------


def test_enumerate_planes_q3():
    emb = _embedding(3, 1, 3)
    planes = list(enumerate_planes(emb))
    assert len(planes) == 13  # q^2 + q + 1
    containing = sum(1 for pl in planes if pl.mask[1])
    assert containing == 4  # q + 1
    assert len(planes) - containing == 9  # q^2
    for pl in planes:
        assert len(pl.elements) == 9
        b1, b2 = pl.basis
        assert pl.mask[b1] and pl.mask[b2]
        assert b1 == pl.elements[pl.elements != 0][0]
    # planes are pairwise distinct
    keys = {tuple(pl.elements.tolist()) for pl in planes}
    assert len(keys) == 13


def test_plane_closed_under_linear_combinations():
    emb = _embedding(5, 1, 3)
    big = emb.big
    plane = next(enumerate_planes(emb))
    b1, b2 = plane.basis
    combos = {
        big.add(big.mul(emb.map_[a], b1), big.mul(emb.map_[b], b2))
        for a in range(5)
        for b in range(5)
    }
    assert combos == set(plane.elements.tolist())


def test_bad_plane_from_squaring_pair():
    """The span of {y, y^2} avoiding 1 is bad with witness y, and the derived
    element z = y^2 - (A/2) y is an independent witness whose square stays in
    the plane."""
    emb = _embedding(3, 1, 3)
    big, small = emb.big, emb.small
    found = 0
    for y in range(big.q):
        if emb.image_mask[y]:
            continue
        y2 = big.mul(y, y)
        mask = np.zeros(big.q, dtype=bool)
        for a in range(small.q):
            for b in range(small.q):
                mask[big.add(big.mul(emb.map_[a], y), big.mul(emb.map_[b], y2))] = True
        if mask[1]:
            continue
        plane = next(pl for pl in enumerate_planes(emb) if np.array_equal(pl.mask, mask))
        assert y in witnesses(big, plane)  # the plane is bad, with witness y
        A, _, _ = cubic_min_poly(emb, y)
        half_a = small.div(A, small.from_int(2))
        z = big.sub(y2, big.mul(emb.map_[half_a], y))
        assert plane.mask[z]
        assert plane.mask[big.mul(z, z)]
        # z is not a scalar multiple of y
        assert all(z != big.mul(emb.map_[a], y) for a in range(small.q))
        found += 1
        if found >= 5:
            break
    assert found


@pytest.mark.parametrize("q", [3, 5])
def test_plane_census_counts(q):
    p, s = prime_power(q)
    emb = _embedding(p, s, 3)
    census = plane_census(emb)
    assert census.total_planes == q * q + q + 1
    assert census.planes_containing_one == q + 1
    assert census.planes_avoiding_one == q * q
    assert census.bad_count <= q * (q + 1) // 2
    assert census.min_bad_witnesses >= 2 * (q - 1)
    good = census.good_example
    assert len(good.elements) == q * q
    assert is_progression_free(ElementSet(emb.big, good.mask))[0]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19])
def test_plane_census_equals_the_enumeration_oracle(q):
    """Every cubic extension of the ladder under the default cap (q = 9 has a
    non-prime base): the counts, the least bad witness count, the good
    example and each plane's witness count, by spans and by enumeration."""
    p, s = prime_power(q)
    emb = _embedding(p, s, 3)
    census = plane_census(emb)
    oracle = plane_census_by_enumeration(emb)
    assert {
        "total": census.total_planes,
        "containing_one": census.planes_containing_one,
        "avoiding_one": census.planes_avoiding_one,
        "bad": census.bad_count,
        "good": census.good_count,
        "min_bad_witnesses": census.min_bad_witnesses,
    } == {k: oracle[k] for k in ("total", "containing_one", "avoiding_one", "bad", "good",
                                 "min_bad_witnesses")}
    assert census.good_example.basis == oracle["good_example"].basis
    assert np.array_equal(census.good_example.elements, oracle["good_example"].elements)
    assert np.array_equal(census.good_example.mask, oracle["good_example"].mask)
    assert _plane_witness_counts(emb).tolist() == oracle["witness_counts"]


def test_good_plane_is_not_bad():
    emb = _embedding(5, 1, 3)
    census = plane_census(emb)
    assert not witnesses(emb.big, census.good_example).size


@pytest.mark.parametrize("q", Q_SMALL)
def test_one_y_squared_independence(q):
    """{1, y, y^2} is linearly independent over the base field for y outside
    it: y^2 never lands in the plane spanned by {1, y} (10^3 random y)."""
    p, s = prime_power(q)
    emb = _embedding(p, s, 3)
    big = emb.big
    rng = np.random.default_rng(73 + q)
    outside = np.flatnonzero(~emb.image_mask)
    sample = rng.choice(outside, size=min(1000, len(outside)), replace=False)
    for y in sample:
        y = int(y)
        y2 = big.mul(y, y)
        # y^2 = a + b*y for a, b in F_q would need y^2 - b*y inside the image
        shifted = big.sub_vec(y2, big.mul_vec(emb.map_, y))
        assert not emb.image_mask[shifted].any()


def test_element_set_serialization():
    ctx = get_field(5, 1)
    eset = ElementSet.from_codes(ctx, [0, 2])
    blob = eset.to_json()
    assert blob["codes"] == [0, 2]
    assert blob["field"]["p"] == 5
