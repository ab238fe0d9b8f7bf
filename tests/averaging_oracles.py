"""Slow averaging routes kept as test oracles.

``averaging_apply_per_y`` adds the row y -> f1(x+y) f2(x+y^2) for one y per
step, with two scalar-offset additions of length q each.  The package sums
over u = x + y in blocks of rows u, by BLAS products: on +-1 and 0/1 inputs
every partial sum is an exact integer and the two agree bit for bit, on
Gaussian inputs to rounding.

``coefficient_rows_by_code`` is the deviation's coefficient rows on the whole
q x q grid, columns n in code order, with K's phase e(a^2 (-1/(4b))) read
through ``mul_vec``.  The package yields the same rows with reflected
columns (n = -j at column j) and reads the phase from the phase table.

``alternating_max_ratio_svd`` is the alternating maximization by dense
q x q side matrices: with one argument fixed, the deviation is linear in
the other, and each half-step takes that matrix's top singular pair.  The
package runs the same alternation matrix-free, through the adjoint of the
trilinear form.

``side_image_per_y`` sums each side image of the deviation one y at a time,
over the rows x + s(y).  The package sums the f1 side over the square rows
and the f2 side down the columns of the coefficient rows, by BLAS products.

``alternating_max_ratio_per_start`` is that matrix-free alternation one start
at a time, each start drawn just before it runs, with the one-pair
``averaging_apply`` and ``_side_images``.  The package draws the same starts
in the same order and steps them in lock step, a batch at a time: each
pair's average and side image are its one-pair ones bit for bit.

``deviation_per_trial_by_pair`` is the random scan's per-trial record with
one ``deviation_norm`` call per pair; the package takes the norms in batches.

``averaging_checks_per_trial`` is the seeded half of ``averaging_checks``
one pair at a time: one-pair calls of both averaging routes and of the pass
over the coefficient rows.  The package takes the pairs a batch at a time,
and its FFT calls and final transforms serve every pair of a batch.
"""

from __future__ import annotations

import math

import numpy as np

from qprog.characters import (
    ComplexFn,
    additive_char_table,
    fourier,
    gauss_sum,
    quadratic_char_table,
    random_fn,
)
from qprog.field import FieldCtx, sqrt_pairs
from qprog.operators import (
    _coefficient_pass,
    _side_images,
    averaging_apply,
    averaging_apply_fourier,
    deviation_norm,
)
from qprog.reporting import CheckResult, error_check


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


def coefficient_rows_by_code(f1: ComplexFn, f2: ComplexFn) -> np.ndarray:
    """c(m, n) = fhat1(m-n) fhat2(n) K(m-n, n) at [m, n], column n = 0 zeroed,
    with K(a, b) = sigma q^{-1/2} chi(b) e(a^2 (-1/(4b)))."""
    ctx = f1.ctx
    fh1, fh2 = fourier(f1).values, fourier(f2).values
    ns = ctx.units()
    a = ctx.sub_vec(ctx.elements()[:, None], ns[None, :])  # m - n
    prefactor = (gauss_sum(ctx).sigma / math.sqrt(ctx.q)) * quadratic_char_table(ctx)[ns]
    neg_inv4b = ctx.neg_vec(ctx.inv_vec(ctx.mul_vec(ctx.from_int(4), ns)))
    kernel = prefactor * additive_char_table(ctx)[ctx.mul_vec(ctx.sq_vec(a), neg_inv4b)]
    rows = np.zeros((ctx.q, ctx.q), dtype=complex)
    rows[:, 1:] = fh1[a] * fh2[1:] * kernel
    return rows


def f1_side_matrix(ctx: FieldCtx, f2_vals: np.ndarray) -> np.ndarray:
    """N with (A(f1,f2) - E f1 E f2)(x) = sum_a N[x,a] f1(a), f2 fixed."""
    codes = ctx.elements()
    mean2 = f2_vals.mean()
    d = ctx.sub_vec(codes[None, :], codes[:, None])  # a - x at [x, a]
    idx = ctx.add_vec(codes[:, None], ctx.sq_vec(d))
    return (f2_vals[idx] - mean2) / ctx.q


def f2_side_matrix(ctx: FieldCtx, f1_vals: np.ndarray) -> np.ndarray:
    """N with (A(f1,f2) - E f1 E f2)(x) = sum_b N[x,b] f2(b), f1 fixed."""
    codes = ctx.elements()
    mean1 = f1_vals.mean()
    r1, r2 = sqrt_pairs(ctx)
    d = ctx.sub_vec(codes[None, :], codes[:, None])  # b - x at [x, b]
    out = np.zeros((ctx.q, ctx.q), dtype=complex)
    for roots in (r1, r2):
        rv = roots[d]
        safe = np.where(rv < 0, 0, rv)
        vals = f1_vals[ctx.add_vec(codes[:, None], safe)]
        out += np.where(rv < 0, 0.0, vals)
    return (out - mean1) / ctx.q


def _top_right_singular(N: np.ndarray) -> tuple[float, np.ndarray]:
    _, s, vh = np.linalg.svd(N)
    return float(s[0]), vh[0].conj()


def alternating_max_ratio_svd(
    ctx: FieldCtx, rng: np.random.Generator, starts: int = 32, rounds: int = 20
) -> float:
    """Lower bound for the bilinear deviation sup: per start a random f2,
    then each half-step the top singular pair of one side matrix."""
    best = 0.0
    for _ in range(starts):
        f2 = rng.standard_normal(ctx.q) + 1j * rng.standard_normal(ctx.q)
        for _ in range(rounds):
            s1, f1 = _top_right_singular(f1_side_matrix(ctx, f2))
            n2 = float(np.sqrt((np.abs(f2) ** 2).mean()))
            best = max(best, s1 / n2)
            s2, f2 = _top_right_singular(f2_side_matrix(ctx, f1))
            n1 = float(np.sqrt((np.abs(f1) ** 2).mean()))
            best = max(best, s2 / n1)
    return best


def side_image_per_y(ctx: FieldCtx, g: np.ndarray, pair: list[ComplexFn], side: int) -> np.ndarray:
    """u with sum_x conj(g(x)) D(x) = sum_a u(a) pair[side](a), D the pair's
    deviation, summed one y at a time:
    (1/q) sum_y conj(g)(a-y) f2(a-y+y^2) - E f2 sum conj(g)/q for f1, and
    (1/q) sum_y conj(g)(a-y^2) f1(a-y^2+y) - E f1 sum conj(g)/q for f2."""
    codes = ctx.elements()
    own, their = (codes, ctx.sq_vec(codes)) if side == 0 else (ctx.sq_vec(codes), codes)
    s1, s2 = ctx.neg_vec(own), ctx.sub_vec(their, own)
    g_bar, other = np.conj(g), pair[1 - side]
    acc = np.zeros(ctx.q, dtype=complex)
    for y in range(ctx.q):
        acc += g_bar[ctx.add_vec(codes, s1[y])] * other.values[ctx.add_vec(codes, s2[y])]
    return (acc - other.mean() * g_bar.sum()) / ctx.q


def alternating_max_ratio_per_start(
    ctx: FieldCtx, rng: np.random.Generator, starts: int = 32, rounds: int = 80
) -> float:
    """The alternation one start at a time: per start draw f1, then f2; each
    round, for f1 and then f2, record the deviation's ratio and replace that
    side by the normalized conjugate of its image; D = 0, or an image that
    is exactly 0, ends a start."""
    best = 0.0
    for _ in range(starts):
        pair = [random_fn(ctx, rng), random_fn(ctx, rng)]
        for step in range(2 * rounds):
            f1, f2 = pair
            dev = ComplexFn(ctx, averaging_apply(f1, f2).values - f1.mean() * f2.mean())
            best = max(best, dev.norm_avg() / (f1.norm_avg() * f2.norm_avg()))
            if not dev.values.any():
                break
            u = _side_images(dev.values[None], f1, f2, step % 2)[0]
            norm = np.linalg.norm(u)
            if not norm:
                break
            pair[step % 2] = ComplexFn(ctx, np.conj(u) / norm)
    return best


def deviation_per_trial_by_pair(ctx: FieldCtx, trials: int, seed: int) -> list:
    """(kind, trial, ratio) per drawn pair with a nonzero norm product, one
    ``deviation_norm`` call per pair, in the scan's draw order."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(trials):
        for kind in ("pm1", "indicator"):
            f1, f2 = random_fn(ctx, rng, kind), random_fn(ctx, rng, kind)
            denom = f1.norm_avg() * f2.norm_avg()
            if denom != 0.0:
                out.append((kind, i, deviation_norm(f1, f2).direct / denom))
    return out


def averaging_checks_per_trial(ctx: FieldCtx, seed: int, trials: int) -> list[CheckResult]:
    """``averaging_checks``' two seeded checks, one pair at a time: the
    direct and Fourier routes pointwise, and the slices' sum against the
    mean of |direct - E f1 E f2|^2."""
    rng = np.random.default_rng(seed)
    routes = np.empty(trials)
    form = np.empty(trials)
    for i in range(trials):
        f1, f2 = random_fn(ctx, rng), random_fn(ctx, rng)
        direct = averaging_apply(f1, f2).values
        routes[i] = np.abs(direct - averaging_apply_fourier(f1, f2).values).max()
        square = float((np.abs(direct - f1.mean() * f2.mean()) ** 2).mean())
        form[i] = abs(_coefficient_pass(f1, f2)[1][0].sum() - square)
    return [
        error_check("averaging-two-routes", routes, 1e-8, lambda i: f"(trial={i})"),
        error_check("slice-expansion-identity", form, 1e-8, lambda i: f"(trial={i})"),
    ]
