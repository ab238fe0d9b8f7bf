"""Dense character transforms, kept as test oracles.

Each builds the full character matrix, q x q for the additive transforms and
(q-1) x (q-1) for the multiplicative ones and the Weil grids, and sums term
by term: O(q^2) memory and O(q^2)-O(q^3) time.  The package computes the
same objects by FFT; two-route tests compare the two on small fields.

``mixed_weights_by_code`` gives the mixed sum's weights with columns in code
order, computed by division and ``mul_vec``; the package builds them by
discrete log.

``fourier_trial_checks_per_trial`` is the seeded half of
``fourier_checks`` one trial at a time, through the one-function
transforms; the package draws the same functions in the same order and
transforms them a batch of trials at a time.

Also here: ``mult_char_table``, one multiplicative character on every code,
and a JSON round trip for ``ComplexFn`` values; only tests use them.
"""

from __future__ import annotations

import numpy as np

from qprog.characters import (
    FULL,
    MULTIPLICATIVE,
    ComplexFn,
    additive_char_table,
    fourier,
    fourier_inverse,
    mult_fourier,
    mult_fourier_inverse,
    quadratic_char_table,
    random_fn,
    unit_root_powers,
)
from qprog.field import FieldCtx
from qprog.reporting import TOLERANCE_REL, CheckResult, error_check, relative_error


def mult_char_table(ctx: FieldCtx, t: int) -> np.ndarray:
    """eta_t on every code, extended by zero at 0 (length-q vector)."""
    if not 0 <= t <= ctx.q - 2:
        raise ValueError(f"character index t={t} out of range 0..{ctx.q - 2}")
    out = np.zeros(ctx.q, dtype=complex)
    units = ctx.units()
    k = (t * ctx.log_table[units]) % (ctx.q - 1)
    out[units] = unit_root_powers(ctx)[k]
    return out


def complexfn_to_json(f: ComplexFn) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in f.values]


def complexfn_from_json(ctx: FieldCtx, data, domain: str = FULL) -> ComplexFn:
    return ComplexFn(ctx, np.array([complex(re, im) for re, im in data]), domain)


def char_matrix(ctx: FieldCtx) -> np.ndarray:
    """The q x q synthesis matrix E[x, xi] = e(x*xi)."""
    codes = ctx.elements()
    return additive_char_table(ctx)[ctx.mul_vec(codes[:, None], codes[None, :])]


def fourier_dense(f: ComplexFn) -> ComplexFn:
    """fhat(xi) = (1/q) sum_x f(x) e(-x xi), as a matrix product."""
    ctx = f.ctx
    return ComplexFn(ctx, char_matrix(ctx).conj() @ f.values / ctx.q)


def fourier_inverse_dense(fhat: ComplexFn) -> ComplexFn:
    """f(x) = sum_xi fhat(xi) e(x xi), as a matrix product."""
    ctx = fhat.ctx
    return ComplexFn(ctx, char_matrix(ctx) @ fhat.values)


def _root_matrix(ctx: FieldCtx, sign: int) -> np.ndarray:
    """zeta^{sign * t k} for t, k in 0..q-2."""
    n = ctx.q - 1
    idx = np.arange(n)
    return unit_root_powers(ctx)[(sign * np.outer(idx, idx)) % n]


def mult_fourier_dense(f: ComplexFn) -> np.ndarray:
    """M_f(t) = sum_k f(g^k) zeta^{-tk}, as a matrix product."""
    ctx = f.ctx
    return _root_matrix(ctx, -1) @ f.values[ctx.exp_table]


def mult_fourier_inverse_dense(ctx: FieldCtx, coeffs: np.ndarray) -> ComplexFn:
    """f(g^k) = (1/(q-1)) sum_t M(t) zeta^{tk}, as a matrix product."""
    vals = np.zeros(ctx.q, dtype=complex)
    vals[ctx.exp_table] = _root_matrix(ctx, 1) @ np.asarray(coeffs, dtype=complex) / (ctx.q - 1)
    return ComplexFn(ctx, vals, MULTIPLICATIVE)


def char_sums_dense(ctx: FieldCtx, at: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k eta_t(at[k]) weights[j, k] for every t (rows) and j (columns):
    the eta matrix eta_t(at[k]) times the transposed weight matrix."""
    n = ctx.q - 1
    eta = unit_root_powers(ctx)[(np.arange(n)[:, None] * ctx.log_table[at][None, :]) % n]
    return eta @ weights.T


def mixed_weights_by_code(ctx: FieldCtx, lams: np.ndarray) -> np.ndarray:
    """chi(1 - r^2) e(lambda_j (r-1)/(r+1)) at [j, r] for r outside {0, +-1},
    zero at those three codes."""
    rs = ctx.codes_outside(0, 1, ctx.neg(1))
    chi_part = quadratic_char_table(ctx)[ctx.sub_vec(1, ctx.sq_vec(rs))]
    u = ctx.div_vec(ctx.sub_vec(rs, 1), ctx.add_vec(rs, 1))
    out = np.zeros((len(lams), ctx.q), dtype=complex)
    phases = additive_char_table(ctx)[ctx.mul_vec(lams[:, None], u[None, :])]
    out[:, rs] = phases * chi_part.astype(complex)[None, :]
    return out


def fourier_trial_checks_per_trial(ctx: FieldCtx, seed: int, trials: int) -> list[CheckResult]:
    """``fourier_checks``' Parseval and round-trip checks, one trial at a
    time: per trial a random f for the additive transform, then a random g,
    zeroed at 0, for the multiplicative one."""
    n = ctx.q - 1
    rng = np.random.default_rng(seed)
    parseval = np.empty((trials, 2))
    round_trip = np.empty((trials, 2))
    for i in range(trials):
        f = random_fn(ctx, rng)
        fh = fourier(f)
        parseval[i, 0] = relative_error(f.norm_avg(), fh.norm_count())
        round_trip[i, 0] = np.abs(fourier_inverse(fh).values - f.values).max()
        g = random_fn(ctx, rng).values
        g[0] = 0.0
        coeffs = mult_fourier(ComplexFn(ctx, g))
        lhs = float((np.abs(coeffs) ** 2).sum() / n)
        parseval[i, 1] = relative_error(lhs, float((np.abs(g) ** 2).sum()))
        round_trip[i, 1] = np.abs(mult_fourier_inverse(ctx, coeffs).values - g).max()

    def sampled(i, j):
        return f"(trial={i}, {('additive', 'multiplicative')[j]})"

    return [
        error_check("parseval-both-conventions", parseval, TOLERANCE_REL, sampled),
        error_check("transform-round-trip", round_trip, 1e-9, sampled),
    ]
