"""Kernel helpers that only the tests use.

``pair_kernel_coeffs`` writes the pair kernel's summand phase as a quadratic
A x^2 + B x + C in x; resumming that quadratic phase is an oracle for the
pair kernel independent of both package routes.

``quad_kernel_table`` is the closed-form K on the whole q x q grid and
``quad_kernel_table_brute`` the literal average accumulated one y at a time;
``kernel_coeffs_table`` is the deviation's coefficients read from that
table, one column n != 0 at a time.  The package builds K in blocks of
rows and never holds the grid.

``ratio_kernel_table_by_mul`` is the ratio kernel with its phase read
through ``mul_vec`` and (r-1)/(r+1) by division, where the package reads
one phase-table entry at a log sum.
"""

from __future__ import annotations

import numpy as np

from qprog.characters import ComplexFn, additive_char_table, fourier, quadratic_char_table
from qprog.field import FieldCtx, per_field
from qprog.kernels import _quad_kernel, twisted_prefactor


def pair_kernel_coeffs(ctx: FieldCtx, h: int, y: int, z: int) -> tuple[int, int, int]:
    """Quadratic-phase coefficients (A, B, C): the summand phase is A x^2 + B x + C,
    for h != 0 and y, z outside {0, -h}."""
    ymz = ctx.sub(y, z)
    hy, hz = ctx.add(h, y), ctx.add(h, z)
    denom = ctx.mul(hy, hz)
    a = ctx.div(ctx.mul(ctx.mul(h, ymz), ctx.add(hy, z)), ctx.mul(denom, ctx.mul(y, z)))
    b = ctx.div(ctx.mul(ctx.from_int(2), ctx.mul(h, ymz)), denom)
    c = ctx.div(ctx.mul(ctx.mul(h, h), ctx.neg(ymz)), denom)
    return a, b, c


@per_field("quad_kernel_table")
def quad_kernel_table(ctx: FieldCtx) -> np.ndarray:
    """Closed-form K on the whole q x q grid (cached; rows a, columns b)."""
    tab = np.zeros((ctx.q, ctx.q), dtype=complex)
    tab[:, 1:] = _quad_kernel(ctx, ctx.elements()[:, None], ctx.units()[None, :])
    tab[0, 0] = 1.0
    return tab


def quad_kernel_table_brute(ctx: FieldCtx) -> np.ndarray:
    """Brute-force K grid, accumulated one y at a time (testing oracle)."""
    q = ctx.q
    codes = ctx.elements()
    squares = ctx.sq_vec(codes)
    e = additive_char_table(ctx)
    acc = np.zeros((q, q), dtype=complex)
    for y in range(q):
        ay = ctx.mul_vec(codes, y)
        by2 = ctx.mul_vec(codes, squares[y])
        acc += e[ctx.add_vec(ay[:, None], by2[None, :])]
    return acc / q


def kernel_coeffs_table(f1: ComplexFn, f2: ComplexFn) -> np.ndarray:
    """sum_{n != 0} fhat1(m-n) fhat2(n) K(m-n, n), for every m, from the table."""
    ctx = f1.ctx
    fh1, fh2 = fourier(f1).values, fourier(f2).values
    Kt = quad_kernel_table(ctx)
    codes = ctx.elements()
    coeffs = np.zeros(ctx.q, dtype=complex)
    for n in range(1, ctx.q):
        mn = ctx.sub_vec(codes, n)
        coeffs += fh1[mn] * fh2[n] * Kt[mn, n]
    return coeffs


def ratio_kernel_table_by_mul(ctx: FieldCtx, hs: np.ndarray) -> np.ndarray:
    """sigma chi(h) chi(1 - r^2) e(h (r-1)/(r+1)) at [h, r], zero at r = +-1."""
    rs = ctx.codes_outside(1, ctx.neg(1))
    chi_part = quadratic_char_table(ctx)[ctx.sub_vec(1, ctx.sq_vec(rs))]
    u = ctx.div_vec(ctx.sub_vec(rs, 1), ctx.add_vec(rs, 1))
    phase = additive_char_table(ctx)[ctx.mul_vec(hs[:, None], u[None, :])]
    out = np.zeros((len(hs), ctx.q), dtype=complex)
    out[:, rs] = twisted_prefactor(ctx, hs)[:, None] * chi_part[None, :] * phase
    return out
