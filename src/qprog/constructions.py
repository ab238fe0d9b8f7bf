"""Progression-free set constructions with exhaustive certification.

Three constructions, in increasing size order:

* a greedy set of order sqrt(q) in any field, built in ascending code order,
* the line omega * F_q inside a quadratic extension, of size exactly q, for
  the least omega outside the subfield whose square lies in it,
* a plane inside a cubic extension avoiding 1 whose nonzero elements never
  square back into it, of size exactly q^2 -- found by full census of all
  q^2 + q + 1 planes, which counts each bad plane's witnesses (nonzero y
  with y^2 in the plane) in the same pass that classifies it.

Every emitted set is certified once, by ``is_progression_free``, before
being returned; a certification failure is a bug signal, not a data
condition.  The search runs over ordered pairs of members, O(|A|^2) for a
set A: q^2 pairs for the line in F_{q^2}, q^4 for the plane in F_{q^3}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldCtx, SubfieldEmbedding, sqrt_pairs
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


def _addition_blocked(
    ctx: FieldCtx, mask: np.ndarray, e: int, members: np.ndarray | None = None
) -> bool:
    """Would adding e to a progression-free set create a progression?

    The new element must occupy one of the three positions; the other two
    entries are drawn from the set including e itself.  Since y != 0, the
    entry x or x + y next to e is always a member other than e, so only the
    members are enumerated (``members`` lists them, e excluded, when the
    caller keeps them): O(|A|) per candidate, not O(q).  ``mask`` is left
    as it was.
    """
    if members is None:
        members = np.flatnonzero(mask)
        members = members[members != e]
    had = mask[e]
    mask[e] = True
    try:
        d = ctx.sub_vec(e, members)  # never 0
        d2 = ctx.sq_vec(d)
        # (e, e + y, e + y^2) with e + y a member (y = -d), or
        # (x, e, x + y^2) with x a member (y = d)
        if np.any(mask[ctx.add_vec(e, d2)] | mask[ctx.add_vec(members, d2)]):
            return True
        # (x, x + y, e) with x a member and y^2 = d
        r1, r2 = sqrt_pairs(ctx)
        roots = np.stack((r1[d], r2[d]))  # -1 where d is not a square
        usable = roots > 0
        return bool(np.any(usable & mask[ctx.add_vec(members, np.where(usable, roots, 0))]))
    finally:
        mask[e] = had


def greedy_progression_free(ctx: FieldCtx) -> ElementSet:
    """Greedily add elements, in ascending code order, whose addition keeps
    the set progression-free.  Each of the q candidates is tested against the
    members only: O(q |A|) in all.
    """
    mask = np.zeros(ctx.q, dtype=bool)
    members = np.empty(ctx.q, dtype=np.int64)
    size = 0
    for e in range(ctx.q):
        if not _addition_blocked(ctx, mask, e, members[:size]):
            mask[e] = True
            members[size] = e
            size += 1
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


def _coordinate_codes(emb: SubfieldEmbedding) -> tuple[np.ndarray, ...]:
    """Big-field codes of c0 + c1 b + c2 b^2 for every coefficient triple,
    where b is the least code outside the subfield (a cubic generator)."""
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
        if len(np.unique(codes)) != big.q:
            raise RuntimeError("coordinate map is not bijective")
        cached = (c0, c1, c2, codes)
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


def enumerate_planes(emb: SubfieldEmbedding):
    """Yield each 2-dimensional subspace exactly once (q^2 + q + 1 planes).

    Planes are kernels of nonzero base-linear functionals on coordinates,
    one per projectively normalized functional.
    """
    if emb.degree != 3:
        raise ValueError("cubic extension required")
    small, big = emb.small, emb.big
    q = small.q
    c0, c1, c2, codes = _coordinate_codes(emb)

    functionals = [(1, b, c) for b in range(q) for c in range(q)]
    functionals += [(0, 1, c) for c in range(q)]
    functionals.append((0, 0, 1))

    for a0, a1, a2 in functionals:
        val = small.add_vec(
            small.add_vec(small.mul_vec(a0, c0), small.mul_vec(a1, c1)),
            small.mul_vec(a2, c2),
        )
        members = np.sort(codes[val == 0])
        mask = np.zeros(big.q, dtype=bool)
        mask[members] = True
        yield Plane(_canonical_basis(emb, mask), members, mask)


def _witnesses(big: FieldCtx, plane: Plane) -> np.ndarray:
    """The nonzero y in the plane with y^2 in the plane, ascending."""
    ys = plane.elements[plane.elements != 0]
    return ys[plane.mask[big.sq_vec(ys)]]


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
    """Classify every plane; certify the least-basis good plane."""
    if emb.degree != 3:
        raise ValueError("cubic extension required")
    q = emb.small.q
    big = emb.big

    total = containing = bad = 0
    min_witnesses: int | None = None
    good_planes: list[Plane] = []
    for plane in enumerate_planes(emb):
        total += 1
        if plane.mask[1]:
            containing += 1
            continue
        w = len(_witnesses(big, plane))
        if w:
            bad += 1
            min_witnesses = w if min_witnesses is None else min(min_witnesses, w)
        else:
            good_planes.append(plane)

    avoiding = total - containing
    if total != q * q + q + 1:
        raise RuntimeError(f"plane total {total} != q^2+q+1 = {q * q + q + 1}")
    if containing != q + 1:
        raise RuntimeError(f"planes containing 1: {containing} != q+1 = {q + 1}")
    if avoiding != q * q:
        raise RuntimeError(f"planes avoiding 1: {avoiding} != q^2 = {q * q}")
    if bad > q * (q + 1) // 2:
        raise RuntimeError(f"bad planes {bad} exceed q(q+1)/2 = {q * (q + 1) // 2}")
    if min_witnesses is not None and min_witnesses < 2 * (q - 1):
        raise RuntimeError(
            f"a bad plane has only {min_witnesses} witnesses (< 2(q-1) = {2 * (q - 1)})"
        )
    if not good_planes:
        raise RuntimeError("no good plane found, contradicting the counting bound")

    good_planes.sort(key=lambda pl: pl.basis)
    good = good_planes[0]
    if len(good.elements) != q * q:
        raise RuntimeError("good plane has wrong cardinality")
    _certify(ElementSet(big, good.mask), "plane")

    return PlaneCensus(
        q=q,
        total_planes=total,
        planes_containing_one=containing,
        planes_avoiding_one=avoiding,
        bad_count=bad,
        good_count=len(good_planes),
        min_bad_witnesses=min_witnesses,
        good_example=good,
    )
