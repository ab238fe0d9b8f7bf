"""Slow routes for the progression search and the plane census, kept as
test oracles.

The field scans loop over every element of the field, O(q^2) for a count
and O(q) per greedy candidate, whatever the size of the set; the package
enumerates members instead.  ``greedy_one_at_a_time`` tests each greedy
candidate against the members in its own call, where the package tests a
batch of candidates at once and never retests a blocked one.
``plane_census_by_enumeration`` builds every one of the q^2 + q + 1 planes
of a cubic extension and tests each of its q^2 members, O(q^5); the package
counts each witness at its span instead.
Two-route tests compare the two on small fields.
"""

from __future__ import annotations

import numpy as np

from qprog.constructions import Plane, _canonical_basis, _coordinates
from qprog.field import FieldCtx, SubfieldEmbedding, sqrt_pairs
from qprog.operators import membership_mask


def count_progressions_field_scan(ctx: FieldCtx, members) -> tuple[int, tuple[int, int] | None]:
    """Count (x, y), y != 0, with x, x+y, x+y^2 all members, scanning every
    y and every x; the witness is the least (x, y) in code order."""
    mask = membership_mask(ctx, members)
    codes = ctx.elements()
    count = 0
    witness: tuple[int, int] | None = None
    for y in range(1, ctx.q):
        hit = mask & mask[ctx.add_vec(codes, y)] & mask[ctx.add_vec(codes, ctx.mul(y, y))]
        c = int(hit.sum())
        if c:
            count += c
            x0 = int(np.flatnonzero(hit)[0])
            if witness is None or (x0, y) < witness:
                witness = (x0, y)
    return count, witness


def addition_blocked_field_scan(ctx: FieldCtx, mask: np.ndarray, e: int) -> bool:
    """Would adding e create a progression?  Tries e in each of the three
    positions against every code of the field."""
    m = mask.copy()
    m[e] = True
    codes = ctx.elements()
    ys = ctx.units()
    # e = x
    if np.any(m[ctx.add_vec(e, ys)] & m[ctx.add_vec(e, ctx.sq_vec(ys))]):
        return True
    # e = x + y, y = e - x != 0
    y = ctx.sub_vec(e, codes)
    if np.any(m[codes] & (y != 0) & m[ctx.add_vec(codes, ctx.sq_vec(y))]):
        return True
    # e = x + y^2, y a nonzero square root of e - x
    r1, r2 = sqrt_pairs(ctx)
    d = ctx.sub_vec(e, codes)
    for roots in (r1, r2):
        rv = roots[d]
        safe = np.where(rv < 1, 0, rv)  # rv <= 0 means no usable root
        if np.any(m[codes] & (rv > 0) & m[ctx.add_vec(codes, safe)]):
            return True
    return False


def greedy_field_scan(ctx: FieldCtx) -> np.ndarray:
    """The greedy set's mask, in ascending code order, each candidate tested
    by the field scan."""
    mask = np.zeros(ctx.q, dtype=bool)
    for e in range(ctx.q):
        if not addition_blocked_field_scan(ctx, mask, e):
            mask[e] = True
    return mask


def addition_blocked_by_members(ctx: FieldCtx, mask: np.ndarray, e: int) -> bool:
    """Would adding e create a progression?  The entry next to e is always
    a member other than e, so only the members are enumerated: O(|A|).
    ``mask`` is left as it was."""
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


def greedy_one_at_a_time(ctx: FieldCtx) -> np.ndarray:
    """The greedy set's mask, in ascending code order, each candidate tested
    against the members in its own call."""
    mask = np.zeros(ctx.q, dtype=bool)
    for e in range(ctx.q):
        if not addition_blocked_by_members(ctx, mask, e):
            mask[e] = True
    return mask


def enumerate_planes(emb: SubfieldEmbedding):
    """Yield each 2-dimensional subspace exactly once (q^2 + q + 1 planes).

    Planes are kernels of nonzero base-linear functionals on coordinates,
    one per projectively normalized functional: (1, b, c) for every b, c,
    then (0, 1, c) for every c, then (0, 0, 1).
    """
    if emb.degree != 3:
        raise ValueError("cubic extension required")
    small = emb.small
    q = small.q
    c0, c1, c2 = _coordinates(emb)

    functionals = [(1, b, c) for b in range(q) for c in range(q)]
    functionals += [(0, 1, c) for c in range(q)]
    functionals.append((0, 0, 1))

    for a0, a1, a2 in functionals:
        val = small.add_vec(
            small.add_vec(small.mul_vec(a0, c0), small.mul_vec(a1, c1)),
            small.mul_vec(a2, c2),
        )
        mask = val == 0
        yield Plane(_canonical_basis(emb, mask), np.flatnonzero(mask), mask)


def witnesses(big: FieldCtx, plane: Plane) -> np.ndarray:
    """The nonzero y in the plane with y^2 in the plane, ascending."""
    ys = plane.elements[plane.elements != 0]
    return ys[plane.mask[big.sq_vec(ys)]]


def plane_census_by_enumeration(emb: SubfieldEmbedding) -> dict:
    """The census of every plane, one plane at a time: the counts, the
    least witness count of a bad plane, each avoiding plane's witness count
    in enumeration order, and the least-basis good plane."""
    total = containing = 0
    counts, good = [], []
    for plane in enumerate_planes(emb):
        total += 1
        if plane.mask[1]:
            containing += 1
            continue
        w = len(witnesses(emb.big, plane))
        counts.append(w)
        if not w:
            good.append(plane)
    bad = [w for w in counts if w]
    return {
        "total": total,
        "containing_one": containing,
        "avoiding_one": total - containing,
        "bad": len(bad),
        "good": len(good),
        "min_bad_witnesses": min(bad, default=None),
        "witness_counts": counts,
        "good_example": min(good, key=lambda pl: pl.basis),
    }
