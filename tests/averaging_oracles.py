"""The direct averaging route one y at a time, kept as a test oracle.

``averaging_apply_per_y`` adds the row y -> f1(x+y) f2(x+y^2) for one y per
step, with two scalar-offset additions of length q each.  The package
gathers the same rows in blocks of y and adds them in the same y order, so
the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from qprog.characters import ComplexFn


def averaging_apply_per_y(f1: ComplexFn, f2: ComplexFn) -> ComplexFn:
    """(1/q) sum_y f1(x+y) f2(x+y^2) for every x, one y at a time."""
    ctx = f1.ctx
    codes = ctx.elements()
    squares = ctx.sq_vec(codes)
    v1, v2 = f1.values, f2.values
    acc = np.zeros(ctx.q, dtype=complex)
    for y in range(ctx.q):
        acc += v1[ctx.add_vec(codes, y)] * v2[ctx.add_vec(codes, squares[y])]
    return ComplexFn(ctx, acc / ctx.q)
