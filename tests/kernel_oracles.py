"""Kernel helpers that only the tests use.

``pair_kernel_coeffs`` writes the pair kernel's summand phase as a quadratic
A x^2 + B x + C in x; resumming that quadratic phase is an oracle for the
pair kernel independent of both package routes.
"""

from __future__ import annotations

from qprog.field import FieldCtx
from qprog.kernels import _check_pair_args


def pair_kernel_coeffs(ctx: FieldCtx, h: int, y: int, z: int) -> tuple[int, int, int]:
    """Quadratic-phase coefficients (A, B, C): the summand phase is A x^2 + B x + C."""
    h, y, z = _check_pair_args(ctx, h, y, z)
    ymz = ctx.sub(y, z)
    hy, hz = ctx.add(h, y), ctx.add(h, z)
    denom = ctx.mul(hy, hz)
    a = ctx.div(ctx.mul(ctx.mul(h, ymz), ctx.add(hy, z)), ctx.mul(denom, ctx.mul(y, z)))
    b = ctx.div(ctx.mul(ctx.from_int(2), ctx.mul(h, ymz)), denom)
    c = ctx.div(ctx.mul(ctx.mul(h, h), ctx.neg(ymz)), denom)
    return a, b, c
