"""Slow field-scan routes for the progression search, kept as test oracles.

They loop over every element of the field, O(q^2) for a count and O(q) per
greedy candidate, whatever the size of the set; the package enumerates
members instead.  Two-route tests compare the two on small fields.
"""

from __future__ import annotations

import numpy as np

from qprog.field import FieldCtx, sqrt_pairs
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
