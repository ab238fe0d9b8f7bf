"""The dense slice matrix and the routes built on it, kept as test oracles.

``sliced_operator_matrix`` is the q x q matrix of T_h, read from the
closed-form K table.  ``sliced_operator_norm_svd`` takes its largest
singular value: O(q^3) per h, O(q^4) per scan.  ``sliced_square_form_dense``
evaluates every slice of the deviation square as one bilinear form per h:
O(q^3) per pair.  The package computes the norms from the Weil sums and the
slices as an autocorrelation of the deviation's coefficient rows; two-route
tests compare them on small fields.
"""

from __future__ import annotations

import numpy as np

from qprog.characters import ComplexFn, fourier
from qprog.field import FieldCtx

from kernel_oracles import quad_kernel_table


def sliced_operator_matrix(ctx: FieldCtx, h: int) -> np.ndarray:
    """Matrix of K(u, v) conj(K(u-h, v+h)) with columns v in {0, -h} zeroed."""
    h = ctx.check_element(h)
    Kt = quad_kernel_table(ctx)
    codes = ctx.elements()
    rows = ctx.sub_vec(codes, h)
    cols = ctx.add_vec(codes, h)
    M = Kt * Kt[np.ix_(rows, cols)].conj()
    M[:, 0] = 0.0
    M[:, ctx.neg(h)] = 0.0
    return M


def sliced_operator_apply(ctx: FieldCtx, h: int, G: ComplexFn) -> ComplexFn:
    """T_h G at u: sum over v outside {0, -h} of G(v) K(u,v) conj(K(u-h, v+h))."""
    h = ctx.check_element(h)
    if h == 0:
        raise ValueError("the h = 0 slice is handled inside sliced_square_form")
    return ComplexFn(ctx, sliced_operator_matrix(ctx, h) @ G.values)


def sliced_operator_norm_svd(ctx: FieldCtx, h: int) -> float:
    """||T_h|| as the top singular value of ``sliced_operator_matrix(ctx, h)``."""
    return float(np.linalg.svd(sliced_operator_matrix(ctx, h), compute_uv=False)[0])


def sliced_square_form_dense(f1: ComplexFn, f2: ComplexFn) -> np.ndarray:
    """Every slice of the deviation square, slice h as F_h . (M_h G_h)."""
    ctx = f1.ctx
    fh1, fh2 = fourier(f1).values, fourier(f2).values
    codes = ctx.elements()
    slices = np.zeros(ctx.q, dtype=complex)
    for h in range(ctx.q):
        Fh = fh1 * fh1[ctx.sub_vec(codes, h)].conj()
        Gh = fh2 * fh2[ctx.add_vec(codes, h)].conj()
        slices[h] = Fh @ (sliced_operator_matrix(ctx, h) @ Gh)
    return slices
