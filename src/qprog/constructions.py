"""Progression-free set constructions with exhaustive certification.

Three constructions, in increasing size order:

* a greedy set of order sqrt(q) in any field, built in ascending code order,
* the line omega * F_q inside a quadratic extension, of size exactly q, for
  the least omega outside the subfield whose square lies in it,
* a plane inside a cubic extension avoiding 1 whose nonzero elements never
  square back into it, of size exactly q^2 -- found by a census of all
  q^2 + q + 1 planes in O(q^3): each witness y (nonzero, with y^2 in a plane
  avoiding 1) is counted at its plane, span(y, y^2), by one bincount, and
  only the good planes through the least code that any good plane holds are
  built.  The enumeration of every plane is kept in the tests as the oracle.

Every emitted set is certified once, by ``is_progression_free``, before
being returned; a certification failure is a bug signal, not a data
condition.  The search runs over ordered pairs of members, O(|A|^2) for a
set A: q^2 pairs for the line in F_{q^2}, q^4 for the plane in F_{q^3}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldCtx, SubfieldEmbedding, row_blocks, sqrt_pairs
from .operators import count_progressions, membership_mask


@dataclass
class ElementSet:
    """A subset of F_q as a membership bitset."""

    ctx: FieldCtx
    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (self.ctx.q,):
            raise ValueError("mask length must equal q")

    @classmethod
    def from_codes(cls, ctx: FieldCtx, codes) -> "ElementSet":
        return cls(ctx, membership_mask(ctx, codes))

    @property
    def size(self) -> int:
        return int(self.mask.sum())

    def codes(self) -> np.ndarray:
        return np.flatnonzero(self.mask).astype(np.int64)

    def to_json(self) -> dict:
        return {"field": self.ctx.descriptor(), "codes": self.codes().tolist()}


def is_progression_free(eset: ElementSet) -> tuple[bool, tuple[int, int] | None]:
    """True iff the set contains no triple (x, x+y, x+y^2) with y != 0.

    Repeated values count: any pair {a, a+1} already fails via y = 1.  The
    witness, when present, is the first (x, y) in lexicographic code order.
    Costs O(|A|^2) (see ``count_progressions``).
    """
    count, witness = count_progressions(eset.ctx, eset.mask)
    return count == 0, witness


def _certify(eset: ElementSet, label: str) -> ElementSet:
    ok, witness = is_progression_free(eset)
    if not ok:
        raise RuntimeError(f"{label} construction failed certification: witness {witness}")
    return eset


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------


# Candidates tested per call of ``_additions_blocked``.  The batch must stay
# small: early on the set is tiny, so a batch sized to fill a block of cells
# spans much of the field and is redone after every addition.  Greedy at
# q = 4999 on a warm field (2 vCPU, certification included) took
# 0.023/0.020/0.020/0.024/0.035 s with 16/32/64/128/256 candidates a batch,
# against 0.052 s one candidate at a time and 0.048 s with ROW_BLOCK_CELLS // |A|.
_GREEDY_BATCH = 32


def _additions_blocked(
    ctx: FieldCtx, mask: np.ndarray, members: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Would adding e to the set ``mask`` create a progression, for each
    candidate e outside the set?  One bool per candidate.

    The new element must occupy one of the three positions; the other two
    entries are drawn from the set including e itself.  Since y != 0, the
    entry x or x + y next to e is always a member (``members`` lists them),
    so the test runs on the (candidates, members) grid d = e - m, never 0:
    O(|A|) per candidate, not O(q).  A third entry equal to e counts as a
    member.  It arises only at d = 1, as (m, m + 1, m + 1), which holds e
    in the middle and the last position both; the middle case counts it.
    """
    e = candidates[:, None]
    d = ctx.sub_vec(e, members)
    d2 = ctx.sq_vec(d)
    r1, r2 = sqrt_pairs(ctx)
    roots = np.stack((r1[d], r2[d]))  # -1 where d is not a square
    usable = roots > 0
    # (e, e + y, e + y^2) with e + y a member (y = -d), (x, e, x + y^2) with
    # x a member (y = d), and (x, x + y, e) with x a member and y^2 = d
    first = mask[ctx.add_vec(e, d2)]  # never e, as d != 0
    middle = ctx.add_vec(members, d2)
    last = mask[ctx.add_vec(members, np.where(usable, roots, 0))]
    hit = first | mask[middle] | (middle == e) | (usable & last).any(axis=0)
    return hit.any(axis=1)


def greedy_progression_free(ctx: FieldCtx) -> ElementSet:
    """Greedily add elements, in ascending code order, whose addition keeps
    the set progression-free.

    Candidates are tested ``_GREEDY_BATCH`` at a time against the members
    only, O(q |A|) in all.  A candidate blocked by the set stays blocked by
    every larger set, so it is marked and never tested again; the first free
    candidate of a batch joins the set and the next batch starts just past
    it, which adds the same codes as testing one candidate at a time.
    """
    mask = np.zeros(ctx.q, dtype=bool)
    blocked = np.zeros(ctx.q, dtype=bool)
    members = np.empty(ctx.q, dtype=np.int64)
    size = start = 0
    while True:
        batch = start + np.flatnonzero(~blocked[start:])[:_GREEDY_BATCH]
        if not batch.size:
            break
        hit = _additions_blocked(ctx, mask, members[:size], batch)
        blocked[batch[hit]] = True
        free = batch[~hit]
        if free.size:
            mask[free[0]] = True
            members[size] = free[0]
            size += 1
            start = int(free[0]) + 1
        else:
            start = int(batch[-1]) + 1
    return _certify(ElementSet(ctx, mask), "greedy")


# ---------------------------------------------------------------------------
# quadratic-extension line
# ---------------------------------------------------------------------------


def quadratic_extension_line(emb: SubfieldEmbedding) -> ElementSet:
    """The set omega * (embedded F_q) for the least omega with omega^2 inside
    the subfield and omega outside it; size exactly q, certified free."""
    if emb.degree != 2:
        raise ValueError("quadratic extension required")
    big, small = emb.big, emb.small
    directions = np.flatnonzero(~emb.image_mask & emb.image_mask[big.sq_vec(big.elements())])
    if not directions.size:
        # cannot happen in odd characteristic: a square root of any nonsquare
        # of the subfield qualifies
        raise RuntimeError("no line direction found (hard invariant violated)")
    members = big.mul_vec(int(directions[0]), emb.map_)
    eset = ElementSet.from_codes(big, members)
    if eset.size != small.q:
        raise RuntimeError("line has wrong cardinality")
    overlap = np.flatnonzero(eset.mask & emb.image_mask)
    if overlap.tolist() != [0]:
        raise RuntimeError("line meets the subfield beyond 0")
    return _certify(eset, "quadratic-line")


# ---------------------------------------------------------------------------
# cubic-extension planes
# ---------------------------------------------------------------------------


@dataclass
class Plane:
    """A 2-dimensional subspace of the cubic extension over the base field.

    ``basis`` is canonical: the least nonzero code in the plane, then the
    least code independent of it -- the lexicographically least generating
    pair.  ``elements`` holds all q^2 member codes, ascending.
    """

    basis: tuple[int, int]
    elements: np.ndarray
    mask: np.ndarray


def _coordinates(emb: SubfieldEmbedding) -> np.ndarray:
    """(c0, c1, c2) at column x, the base-field coordinates of the big-field
    code x = c0 + c1 b + c2 b^2, where b is the least code outside the
    subfield (a cubic generator)."""
    cached = emb.big._cache.get(("plane_coords", emb.small.q))
    if cached is None:
        big, q = emb.big, emb.small.q
        beta = int(np.flatnonzero(~emb.image_mask)[0])
        beta2 = big.mul(beta, beta)
        idx = np.arange(q**3)
        c0, c1, c2 = idx % q, (idx // q) % q, idx // (q * q)
        codes = big.add_vec(
            big.add_vec(emb.map_[c0], big.mul_vec(emb.map_[c1], beta)),
            big.mul_vec(emb.map_[c2], beta2),
        )
        cached = np.full((3, big.q), -1)
        cached[:, codes] = c0, c1, c2
        if (cached < 0).any():
            raise RuntimeError("coordinate map is not bijective")
        emb.big._cache[("plane_coords", emb.small.q)] = cached
    return cached


def _canonical_basis(emb: SubfieldEmbedding, mask: np.ndarray) -> tuple[int, int]:
    big = emb.big
    members = np.flatnonzero(mask)
    b1 = int(members[members != 0][0])
    span1 = np.zeros(big.q, dtype=bool)
    span1[big.mul_vec(emb.map_, b1)] = True
    b2 = int(members[~span1[members]][0])
    return b1, b2


def _on_plane(emb: SubfieldEmbedding, xs, planes) -> np.ndarray:
    """Whether the code x lies in the plane avoiding 1 at index b q + c, the
    kernel of the functional (1, b, c) on coordinates; broadcast."""
    small = emb.small
    c0, c1, c2 = _coordinates(emb)[:, xs]
    b, c = np.divmod(planes, small.q)
    return small.add_vec(small.add_vec(c0, small.mul_vec(b, c1)), small.mul_vec(c, c2)) == 0


def _plane_witness_counts(emb: SubfieldEmbedding) -> np.ndarray:
    """The witnesses (nonzero y with y^2 in the plane) of every plane avoiding
    1, at the index b q + c of its functional (1, b, c): O(q^3).

    Such a plane holds no nonzero base-field element, since with one it
    would hold 1.  So a witness y lies outside the subfield, y and y^2 are
    independent, and the plane is span(y, y^2), whose functional is the
    cross product of their coordinates.  Conversely span(y, y^2) avoids 1
    for every y outside the subfield, as {1, y, y^2} is a basis of the cubic
    extension.  So counting each such y at its span counts every witness once.
    """
    small, big = emb.small, emb.big
    ys = np.flatnonzero(~emb.image_mask)
    coords = _coordinates(emb)
    y, z = coords[:, ys], coords[:, big.sq_vec(ys)]

    def minor(i, j):
        return small.sub_vec(small.mul_vec(y[i], z[j]), small.mul_vec(y[j], z[i]))

    n0 = minor(1, 2)  # nonzero: span(y, y^2) avoids 1 = (1, 0, 0)
    b, c = small.div_vec(minor(2, 0), n0), small.div_vec(minor(0, 1), n0)
    return np.bincount(b * small.q + c, minlength=small.q**2)


@dataclass
class PlaneCensus:
    """Exact plane counts over a cubic extension, with one certified witness.

    All counts are integer identities: total = q^2+q+1, containing-1 = q+1,
    avoiding-1 = q^2, and bad_count <= q(q+1)/2.  ``good_example`` is the
    least-basis plane avoiding 1 that is not bad; its q^2 elements form a
    certified progression-free subset of the cubic extension.
    """

    q: int
    total_planes: int
    planes_containing_one: int
    planes_avoiding_one: int
    bad_count: int
    good_count: int
    min_bad_witnesses: int | None
    good_example: Plane | None


def plane_census(emb: SubfieldEmbedding) -> PlaneCensus:
    """Count every plane's witnesses by their spans; certify the
    least-basis good plane.

    The q + 1 planes containing 1 are the functionals (0, 1, c) and
    (0, 0, 1); the q^2 avoiding it are the (1, b, c).  The least-basis good
    plane's first basis element is the least nonzero code that lies in a good
    plane, so only the good planes through that code are built."""
    if emb.degree != 3:
        raise ValueError("cubic extension required")
    q = emb.small.q
    big = emb.big

    witnesses = _plane_witness_counts(emb)
    bad = int(np.count_nonzero(witnesses))
    good = np.flatnonzero(witnesses == 0)
    min_witnesses = int(witnesses[witnesses > 0].min()) if bad else None
    if bad > q * (q + 1) // 2:
        raise RuntimeError(f"bad planes {bad} exceed q(q+1)/2 = {q * (q + 1) // 2}")
    if min_witnesses is not None and min_witnesses < 2 * (q - 1):
        raise RuntimeError(
            f"a bad plane has only {min_witnesses} witnesses (< 2(q-1) = {2 * (q - 1)})"
        )
    if not good.size:
        raise RuntimeError("no good plane found, contradicting the counting bound")

    # the good planes through the least nonzero code in any good plane; codes
    # of the subfield lie in none
    outside = np.flatnonzero(~emb.image_mask)
    for i in row_blocks(outside.size, good.size):
        hit = _on_plane(emb, outside[i, None], good)
        rows = np.flatnonzero(hit.any(axis=1))
        if rows.size:
            break
    else:
        raise RuntimeError("no code lies in a good plane")
    masks = _on_plane(emb, big.elements(), good[hit[rows[0]], None])
    bases = [_canonical_basis(emb, m) for m in masks]
    least = bases.index(min(bases))
    example = Plane(bases[least], np.flatnonzero(masks[least]), masks[least])
    if len(example.elements) != q * q:
        raise RuntimeError("good plane has wrong cardinality")
    _certify(ElementSet(big, example.mask), "plane")

    return PlaneCensus(
        q=q,
        total_planes=q * q + q + 1,
        planes_containing_one=q + 1,
        planes_avoiding_one=q * q,
        bad_count=bad,
        good_count=int(good.size),
        min_bad_witnesses=min_witnesses,
        good_example=example,
    )
