"""The dense slice matrix and the routes built on it, kept as test oracles.

``sliced_operator_matrix`` is the q x q matrix of T_h, read from the
closed-form K table.  ``sliced_operator_norm_svd`` takes its largest
singular value: O(q^3) per h, O(q^4) per scan.  ``sliced_square_form_dense``
evaluates every slice of the deviation square as one bilinear form per h:
O(q^3) per pair.  The package computes the norms from the Weil sums and the
slices as an autocorrelation of the deviation's coefficient rows; two-route
tests compare them on small fields.

``top_secular_root_bisect`` is the bisection the rational secular step
replaced, and ``slice_norms_by_ratio_sums`` the route the package took
before it read the mixed sums: the ratio sums at h/4 (one ratio-kernel row
per h) and the bisection on every sector.  ``slice_norms_every_row`` is the
route the package took before it solved one h per orbit of h/4: the mixed
sums and the rational step on every h.
"""

from __future__ import annotations

import math

import numpy as np

from qprog.characters import ComplexFn, fourier
from qprog.field import FieldCtx
from qprog.kernels import twisted_prefactor
from qprog.operators import _SLICE_BLOCK_CELLS, _slice_eigenvalues, _slice_sectors
from qprog.weil import _blocked_char_sums, _char_sums, _mixed_terms, _ratio_terms

from kernel_oracles import quad_kernel_table


def sliced_operator_matrix(ctx: FieldCtx, h: int) -> np.ndarray:
    """Matrix of K(u, v) conj(K(u-h, v+h)) with columns v in {0, -h} zeroed."""
    h = int(h)
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
    h = int(h)
    if h == 0:
        raise ValueError("T_h is defined for h != 0 only")
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


def top_secular_root_bisect(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per row i, the top eigenvalue of diag(lam[i]) compressed to the
    complement of a unit vector v with |v_k|^2 = w[i, k] > 0.

    It is the root of sum_k w_k / (lam_k - x) = 0 between the row's two
    largest lam, where the sum increases from -inf to +inf; bisect there.
    A row leaves once its midpoint is no longer strictly inside its bracket,
    so no division ever happens at an endpoint; a bracket that starts
    collapsed (a repeated top eigenvalue) returns that eigenvalue.
    """
    top2 = np.partition(lam, -2, axis=1)[:, -2:]
    lo, hi = top2[:, 0].copy(), top2[:, 1].copy()
    rows = np.arange(len(lam))
    while rows.size:
        mid = 0.5 * (lo[rows] + hi[rows])
        inside = (lo[rows] < mid) & (mid < hi[rows])
        if not inside.all():
            rows, mid = rows[inside], mid[inside]
            lam, w = lam[inside], w[inside]
        d = lam - mid[:, None]
        above = (np.divide(w, d, out=d)).sum(axis=1) > 0  # the root lies below mid
        hi[rows[above]] = mid[above]
        lo[rows[~above]] = mid[~above]
    return lo


def full_weights(lam: np.ndarray, tail_w: np.ndarray) -> np.ndarray:
    """The weights of a (lam, tail_w) secular row, one per column: 1 on the
    bulk, tail_w on the last columns."""
    w = np.ones(lam.shape)
    w[:, lam.shape[1] - tail_w.shape[1] :] = tail_w
    return w


def ratio_sum_rows(ctx: FieldCtx, hs: np.ndarray) -> np.ndarray:
    """S[i, t] = sum_r L_{h_i/4}(r) eta_t(r), from the ratio-kernel rows."""
    quarters = ctx.div_vec(hs, ctx.from_int(4))
    return np.ascontiguousarray(_char_sums(_ratio_terms(ctx, quarters)).real.T)


def slice_norms_by_ratio_sums(ctx: FieldCtx, hs: np.ndarray) -> np.ndarray:
    """||T_h|| for every h in ``hs``: the ratio sums at h/4, and the bisection
    on each sector with every weight written out (2/n per eta_t)."""
    q, n = ctx.q, ctx.q - 1
    S = ratio_sum_rows(ctx, hs)
    rq = math.sqrt(q)
    # the {0, eta_0} block [[q, b], [conj(b), q + sqrt(q) S_0]], |b|^2 = q(q-1)
    d = rq * S[:, :1]
    rad = np.sqrt(d * d + 4.0 * q * n)
    shift = np.concatenate([(d + rad) / 2, (d - rad) / 2], axis=1)  # mu - q
    w_unit = shift**2 / (shift**2 + q * n)  # weight of each mu's vector on eta_0
    lam = q + rq * S
    even = np.concatenate([lam[:, 2::2], q + shift], axis=1)
    even_w = np.concatenate([np.full((len(S), (n - 2) // 2), 2.0 / n), 2.0 * w_unit / n], axis=1)
    top = top_secular_root_bisect(even, even_w)
    odd = lam[:, 1::2]
    if odd.shape[1] > 1:  # at q = 3 the odd sector is the deleted direction alone
        top = np.maximum(top, top_secular_root_bisect(odd, np.full(odd.shape, 2.0 / n)))
    return np.sqrt(top) / q


def slice_norms_every_row(ctx: FieldCtx, hs: np.ndarray) -> np.ndarray:
    """||T_h|| for every h in ``hs``: one row of mixed sums at h/4 and one
    solve of each sector per h, in the package's blocks."""
    quarters = ctx.div_vec(hs, ctx.from_int(4))
    eig = np.empty(len(hs))
    for i0, sums in _blocked_char_sums(ctx, _mixed_terms, quarters, _SLICE_BLOCK_CELLS):
        ratio = sums.T  # rows h, columns t
        i1 = i0 + len(ratio)
        ratio *= twisted_prefactor(ctx, quarters[i0:i1])[:, None]
        eig[i0:i1] = _slice_eigenvalues(_slice_sectors(ctx.q, ratio.real))
    return np.sqrt(eig) / ctx.q
