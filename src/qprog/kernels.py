"""Kernels of the quadratic averaging operator, closed-form and brute-force.

Four kernels, each with an exhaustive two-route check:

* K(a, b)      -- the Fourier multiplier avg_y e(a y + b y^2) (``_quad_kernel``),
* B_h(y, z)    -- the Gram sum over x of paired slice phases (``_pair_closed``),
* the twisted kernel D(Y) B_h(Y-c, Z-c) D(Z), the pair kernel conjugated by
  the square-shifted quadratic-character twist D = ``_twist``,
* L_h(r)       -- the rank-one profile of the twisted kernel as a function of
  the column/row ratio (``ratio_kernel_table``).

The pair kernel is evaluated with the rescaled phase -x^2/y + (x-h)^2/(y+h)
+ x^2/z - (x-h)^2/(z+h) (the additive character absorbed the invertible
factor 4); the decomposition identity and the ratio-kernel character sums
all live in this convention.

All closed forms share the single measured Gauss-sum unit ``sigma``; the
exhaustive equivalence checks double as the verification that one constant
serves every case.  Each closed form is one vectorised function of code
arrays (``_quad_kernel``, ``_pair_closed``, ``ratio_kernel_table``) that
carries its special cases: K's point mass at (0, 0), B_h's diagonal and
vanishing antidiagonal, L_h's zeros at r = +-1.  The grids and the checks
index into it.  No q x q table of K is held: both routes of its check run
in blocks of rows b.  K reads its phases at a sum of discrete logs; the ratio
kernel is field arithmetic, so ``weil.ratio_sum_check`` compares two routes.
One literal B_h per h serves the pair and the decomposition checks.
"""

from __future__ import annotations

import math

import numpy as np

from .field import FieldCtx, per_field, row_blocks
from .characters import (
    additive_char_table,
    fourier_inverse_rows,
    gauss_sum,
    phase_table,
    quadratic_char_table,
)
from .reporting import TOLERANCE_ABS, CheckResult, stacked_error_check


# ---------------------------------------------------------------------------
# quad kernel K: the Fourier multiplier of the averaging operator
# ---------------------------------------------------------------------------

def _quad_columns(ctx: FieldCtx, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts of K(a, b) that depend on b alone: the prefactor
    sigma q^{-1/2} chi(b) and the log of -1/(4b), log(-1/4) - log(b) mod q-1.
    At b = 0 the prefactor is 0 and the log some unit's."""
    sigma = gauss_sum(ctx).sigma
    prefactor = (sigma / math.sqrt(ctx.q)) * quadratic_char_table(ctx)[b]
    log0 = ctx.log0
    neg_quarter = ctx.neg(ctx.inv(ctx.from_int(4)))
    return prefactor, (log0[neg_quarter] - log0[b]) % (ctx.q - 1)


@per_field("log_squares")
def _log_squares(ctx: FieldCtx) -> np.ndarray:
    """log0(a^2) for every code a."""
    return ctx.log0[ctx.sq_vec(ctx.elements())]


def _quad_phases(ctx: FieldCtx, a: np.ndarray, log_col: np.ndarray) -> np.ndarray:
    """K's phase e(a^2 (-1/(4b))) from the log of -1/(4b): the phase table
    read at log0(a^2) + log(-1/(4b))."""
    return phase_table(ctx)[_log_squares(ctx)[a] + log_col]


def _quad_kernel(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K(a, b) on broadcast code arrays a and b: sigma q^{-1/2} chi(b)
    e(-a^2/(4b)), whose prefactor vanishes on b = 0, plus the point mass 1
    at (0, 0)."""
    prefactor, log_col = _quad_columns(ctx, b)
    return prefactor * _quad_phases(ctx, a, log_col) + ((a == 0) & (b == 0))


def quad_kernel_rows_brute(ctx: FieldCtx, bs) -> np.ndarray:
    """Literal K, rows b in ``bs`` and columns a: row b is the additive
    inverse transform of y -> e(b y^2)/q.  It never completes the square, so
    it is independent of the closed form."""
    bs = np.asarray(bs, dtype=np.int64)
    e = additive_char_table(ctx)
    terms = e[ctx.mul_vec(bs[:, None], ctx.sq_vec(ctx.elements()))]
    return fourier_inverse_rows(ctx, terms / ctx.q)


# ---------------------------------------------------------------------------
# pair kernel B: Gram sums of paired slice phases
# ---------------------------------------------------------------------------


def _slice_phase_columns(ctx: FieldCtx, h: int, ys: np.ndarray) -> np.ndarray:
    """Matrix e(-x^2/y + (x-h)^2/(y+h)) with rows x in F_q, columns y in ys."""
    xs = ctx.elements()
    x2 = ctx.sq_vec(xs)
    xh2 = ctx.sq_vec(ctx.sub_vec(xs, h))
    neg_inv_y = ctx.neg_vec(ctx.inv_vec(ys))
    inv_yh = ctx.inv_vec(ctx.add_vec(ys, h))
    codes = ctx.add_vec(
        ctx.mul_vec(x2[:, None], neg_inv_y[None, :]),
        ctx.mul_vec(xh2[:, None], inv_yh[None, :]),
    )
    return additive_char_table(ctx)[codes]


def admissible_codes(ctx: FieldCtx, h: int) -> np.ndarray:
    """Codes outside {0, -h}, ascending."""
    return ctx.codes_outside(0, ctx.neg(h))


def pair_kernel_grid_brute(ctx: FieldCtx, h: int) -> tuple[np.ndarray, np.ndarray]:
    """(codes, grid) with grid[i, j] the brute pair kernel at (codes[i], codes[j])."""
    ys = admissible_codes(ctx, h)
    cols = _slice_phase_columns(ctx, h, ys)
    return ys, cols.T @ cols.conj()


def _pair_closed(ctx: FieldCtx, h: int, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """B_h(y, z) on broadcast code arrays of admissible y, z: q on the diagonal
    y = z, and sigma sqrt(q) chi(h(h+y+z)(y-z)/((h+y)(h+z)yz)) e(h(z-y)/(h+y+z))
    elsewhere, which the character's zero makes 0 on the antidiagonal
    h + y + z = 0 (its phase is read there at h + y + z = 1)."""
    hyz = ctx.add_vec(ctx.add_vec(h, y), z)
    ymz = ctx.sub_vec(y, z)
    denom = ctx.mul_vec(ctx.mul_vec(ctx.add_vec(h, y), ctx.add_vec(h, z)), ctx.mul_vec(y, z))
    chi_arg = ctx.div_vec(ctx.mul_vec(ctx.mul_vec(h, hyz), ymz), denom)
    phase = ctx.div_vec(ctx.mul_vec(h, ctx.neg_vec(ymz)), np.where(hyz == 0, 1, hyz))
    sigma = gauss_sum(ctx).sigma
    chi = quadratic_char_table(ctx)
    e = additive_char_table(ctx)
    return np.where(ymz == 0, complex(ctx.q), sigma * math.sqrt(ctx.q) * chi[chi_arg] * e[phase])


# ---------------------------------------------------------------------------
# twisted kernel and its ratio profile
# ---------------------------------------------------------------------------


def twisted_prefactor(ctx: FieldCtx, h):
    """The unimodular constant sigma * chi(h) carried by the twisted kernel,
    at a nonzero code h or at each code of an array of them."""
    h = np.asarray(h, dtype=np.int64)
    if np.any((h <= 0) | (h >= ctx.q)):
        raise ValueError(f"h must be nonzero, a code in 1..{ctx.q - 1}")
    return gauss_sum(ctx).sigma * quadratic_char_table(ctx)[h]


def ratio_kernel_table(ctx: FieldCtx, hs) -> np.ndarray:
    """L_h(r) = sigma chi(h) chi(1 - r^2) e(h (r-1)/(r+1)) for every h in
    ``hs`` (nonzero codes) and every code r, by field arithmetic: rows h,
    columns r, zeros at r = +-1 from chi (the quotient read at r + 1 = 1)."""
    hs = np.asarray(hs, dtype=np.int64)
    prefactor = twisted_prefactor(ctx, hs)  # rejects h = 0 and codes out of range
    rs = ctx.elements()
    chi_part = quadratic_char_table(ctx)[ctx.sub_vec(1, ctx.sq_vec(rs))]
    rp1 = ctx.add_vec(rs, 1)
    u = ctx.div_vec(ctx.sub_vec(rs, 1), np.where(rp1 == 0, 1, rp1))
    phase = additive_char_table(ctx)[ctx.mul_vec(hs[:, None], u[None, :])]
    return prefactor[:, None] * chi_part[None, :] * phase


def half_shift(ctx: FieldCtx, h: int) -> int:
    """c = h/2, the recentering shift of the twisted kernel."""
    return ctx.div(h, ctx.from_int(2))


def _twist(ctx: FieldCtx, c: int, Y: np.ndarray) -> np.ndarray:
    """D(Y) = chi(Y^2 - c^2) on a code array Y, as floats."""
    return quadratic_char_table(ctx)[ctx.sub_vec(ctx.sq_vec(Y), ctx.mul(c, c))].astype(float)


# ---------------------------------------------------------------------------
# exhaustive equivalence checks
# ---------------------------------------------------------------------------


def quad_kernel_check(ctx: FieldCtx) -> CheckResult:
    """Closed form vs literal average on every (a, b) pair, in blocks of rows b."""
    codes = ctx.elements()

    def blocks():
        for b in row_blocks(ctx.q, ctx.q):
            closed = _quad_kernel(ctx, codes[None, :], codes[b, None])  # rows b, columns a
            err = np.abs(closed - quad_kernel_rows_brute(ctx, codes[b]))
            yield err, lambda i, a, b0=b.start: f"(a={a}, b={b0 + i})"

    return stacked_error_check("quad-kernel-equivalence", blocks(), TOLERANCE_ABS)


def pair_kernel_checks(ctx: FieldCtx) -> list[CheckResult]:
    """Two checks from one literal Gram grid per h: the closed form against it
    on every admissible (h, y, z) triple, and the twisted kernel built on it
    against the rank-one profile, B_{h,0}(Y,Z) = q 1_{Y=Z} + sqrt(q) L_h(Z/Y)
    for Y = y + c, Z = z + c outside {0, c, -c}."""
    q = ctx.q
    ratio_tables = ratio_kernel_table(ctx, ctx.units())  # row h - 1 is L_h

    def blocks():  # per h, a (q-2)^2 pair grid and its (q-3)^2 twisted sub-grid
        for h in range(1, q):
            ys, brute = pair_kernel_grid_brute(ctx, h)
            pair_err = np.abs(_pair_closed(ctx, h, ys[:, None], ys[None, :]) - brute)
            c = half_shift(ctx, h)
            shifted = ctx.add_vec(ys, c)  # y = -c gives Y = 0, the least code
            order = np.argsort(shifted)[1:]  # Y outside {0, c, -c}, ascending; none at q = 3
            Ys = shifted[order]
            d = _twist(ctx, c, Ys)
            twisted = d[:, None] * brute[np.ix_(order, order)] * d[None, :]
            ratios = ctx.div_vec(Ys[None, :], Ys[:, None])  # r = Z/Y at [i, j] = (Y, Z)
            predicted = math.sqrt(q) * ratio_tables[h - 1][ratios]
            predicted[Ys[:, None] == Ys[None, :]] += q
            yield ((pair_err, lambda j, k, h=h, ys=ys: f"(h={h}, y={int(ys[j])}, z={int(ys[k])})"),
                   (np.abs(twisted - predicted),
                    lambda j, k, h=h, Ys=Ys: f"(h={h}, Y={int(Ys[j])}, Z={int(Ys[k])})"))

    return stacked_error_check(("pair-kernel-equivalence", "twisted-decomposition"), blocks(),
                               TOLERANCE_ABS)
