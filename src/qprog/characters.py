"""Characters and Fourier transforms on F_q, with both norm conventions.

Conventions (the highest-risk bookkeeping in this package, stated once):

* physical side carries the averaged norm  ||f||_r = ((1/q) sum |f|^r)^{1/r},
* frequency side carries the counting norm ||g||_l2 = (sum |g|^2)^{1/2},
* the transform is fhat(xi) = (1/q) sum_x f(x) e(-x xi), inversion is the
  plain sum f(x) = sum_xi fhat(xi) e(x xi), and Parseval reads
  ||f||_2 = ||fhat||_l2.

The additive character is fixed as e(x) = exp(2 pi i Tr(x)/p); any nontrivial
choice gives a unitarily equivalent theory, and fixing one keeps reports
deterministic.  A phase e(a b) is read by discrete log: ``phase_table`` is e
at every entry of the field's padded exp table, so e(a b) is the one entry
at log0[a] + log0[b], zeros included.  Unit roots are computed from rational
angles directly, never by repeated multiplication, so q-term sums carry no
accumulated phase error.

Both transforms are FFTs, O(q log q) with no q x q table: the additive one
runs along the s base-p digit axes of the code (see ``_trace_index``), the
multiplicative one along the discrete log.  ``fourier_checks`` verifies both
orthogonality relations, Parseval, both round trips and the Gauss unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import field
from .field import FieldCtx, per_field, row_blocks
from .reporting import TOLERANCE_ABS, TOLERANCE_REL, CheckResult, error_check, relative_error

TAU = 2.0 * math.pi

# pairs (or trials) that the O(q^2) routes and the seeded checks take through
# one pass: each block's index rows and K phases are built once for them all,
# and each pair holds a few rows of q.  The 32 alternating starts took 2.37 s
# one pair a pass, 0.76 s with 8 and 0.43-0.63 s with 16 at q = 243
# (10 rounds), and 2.68, 1.1 and 0.97 s at q = 729 (2 rounds), on 2 vCPU with
# one BLAS thread
_PAIR_BATCH = 8

FULL = "full"
MULTIPLICATIVE = "multiplicative"


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------


@per_field("e_table")
def additive_char_table(ctx: FieldCtx) -> np.ndarray:
    """e(x) for every code x, as a cached complex vector."""
    return np.exp((TAU * 1j / ctx.p) * ctx.trace_table)


@per_field("phase_table")
def phase_table(ctx: FieldCtx) -> np.ndarray:
    """e at every entry of the mul tables' exp_ext, so that e(a b) =
    phase_table[log0[a] + log0[b]] for all codes a, b, zeros included: one
    gather where e[mul_vec(a, b)] takes four, with the same values."""
    return additive_char_table(ctx)[ctx._mul_tables()[1]]


@per_field("root_powers")
def unit_root_powers(ctx: FieldCtx) -> np.ndarray:
    """Powers of the primitive (q-1)-th root of unity, index k -> zeta^k:
    eta_t(x) = zeta^(t log_g(x)) for nonzero x is entry t log_g(x) mod q-1."""
    return np.exp((TAU * 1j / (ctx.q - 1)) * np.arange(ctx.q - 1))


@per_field("chi_table")
def quadratic_char_table(ctx: FieldCtx) -> np.ndarray:
    """chi at every code: +1 on nonzero squares, -1 on nonsquares, 0 at 0."""
    tab = np.zeros(ctx.q, dtype=np.int8)
    units = ctx.units()
    tab[units] = np.where(ctx.log_table[units] & 1, -1, 1)
    return tab


# ---------------------------------------------------------------------------
# functions on the field
# ---------------------------------------------------------------------------


@dataclass
class ComplexFn:
    """A complex-valued function on F_q as a dense length-q vector, or a
    stack of such functions along leading axes: the transforms act along the
    last axis, and ``mean`` and the norms take a single function.

    ``domain`` distinguishes full-field functions from punctured ones that
    live on the multiplicative group and carry value 0 at code 0.
    """

    ctx: FieldCtx
    values: np.ndarray
    domain: str = FULL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[-1:] != (self.ctx.q,):
            raise ValueError(f"expected {self.ctx.q} values, got shape {self.values.shape}")
        if self.domain not in (FULL, MULTIPLICATIVE):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        if self.domain == MULTIPLICATIVE and np.any(self.values[..., 0] != 0):
            raise ValueError("punctured functions must vanish at 0")

    def mean(self) -> complex:
        return complex(self.values.sum(axis=-1) / self.ctx.q)

    def norm_avg(self) -> float:
        return float((np.abs(self.values) ** 2).mean(axis=-1) ** 0.5)

    def norm_count(self) -> float:
        return float(np.sqrt((np.abs(self.values) ** 2).sum(axis=-1)))


def random_fn(ctx: FieldCtx, rng: np.random.Generator, kind: str = "gaussian") -> ComplexFn:
    """Deterministic pseudo-random test functions (seeded by the caller)."""
    if kind == "gaussian":
        v = rng.standard_normal(ctx.q) + 1j * rng.standard_normal(ctx.q)
    elif kind == "pm1":
        v = rng.choice([-1.0, 1.0], size=ctx.q).astype(complex)
    elif kind == "indicator":
        v = (rng.random(ctx.q) < 0.5).astype(complex)
    else:
        raise ValueError(f"unknown random function kind {kind!r}")
    return ComplexFn(ctx, v)


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------


@per_field("trace_index")
def _trace_index(ctx: FieldCtx) -> np.ndarray:
    """k[xi] = sum_j Tr(X^j xi) p^j, cached per field.

    Tr is F_p-linear, so Tr(x xi) = sum_j x_j Tr(X^j xi): the base-p digits
    of x dotted with those of k[xi], mod p (the trace dual basis).  Hence
    e(x xi) = exp(2 pi i d(x).d(k[xi])/p), and every additive transform is
    a length-p DFT along each of the s digit axes, read through k.
    """
    codes = ctx.elements()
    return sum(ctx.trace_table[ctx.mul_vec(ctx.p**j, codes)] * ctx.p**j for j in range(ctx.s))


def fourier(f: ComplexFn) -> ComplexFn:
    """fhat(xi) = (1/q) sum_x f(x) e(-x xi); averaged analysis convention."""
    if f.domain != FULL:
        raise ValueError("fourier expects a full-field function")
    ctx, rows = f.ctx, f.values
    lead = rows.shape[:-1]
    digits = rows.reshape(lead + (ctx.p,) * ctx.s)
    axes = tuple(range(len(lead), len(lead) + ctx.s))
    spectrum = np.fft.fftn(digits, axes=axes, norm="forward").reshape(rows.shape)
    # ``take`` keeps each row contiguous, so that a row's sum is the pairwise
    # sum of a single function's; ``spectrum[..., k]`` would be column-major
    return ComplexFn(ctx, spectrum.take(_trace_index(ctx), axis=-1))


def fourier_inverse(fhat: ComplexFn) -> ComplexFn:
    """f(x) = sum_xi fhat(xi) e(x xi); plain-sum synthesis convention."""
    return ComplexFn(fhat.ctx, fourier_inverse_rows(fhat.ctx, fhat.values))


def fourier_inverse_rows(ctx: FieldCtx, rows: np.ndarray) -> np.ndarray:
    """``fourier_inverse`` along the last axis of an (..., q) array:
    out[..., x] = sum_xi rows[..., xi] e(x xi)."""
    rows = np.asarray(rows)
    lead = rows.shape[:-1]
    spectrum = np.empty(rows.shape, dtype=complex)
    spectrum[..., _trace_index(ctx)] = rows
    digits = spectrum.reshape(lead + (ctx.p,) * ctx.s)
    axes = tuple(range(len(lead), len(lead) + ctx.s))
    return np.fft.ifftn(digits, axes=axes, norm="forward").reshape(rows.shape)


def mult_fourier(f: ComplexFn) -> np.ndarray:
    """Multiplicative coefficients M_f(t) = sum_{Y != 0} f(Y) conj(eta_t(Y)).

    Requires f(0) = 0.  Indexed by t = 0..q-2; counting normalization on both
    sides, so (1/(q-1)) sum_t |M_f(t)|^2 = sum_Y |f(Y)|^2.  With Y = g^k this
    is the DFT of the by-log vector k -> f(g^k), taken in place in the
    gathered rows so that they stay contiguous (see ``fourier``).
    """
    if np.any(f.values[..., 0] != 0):
        raise ValueError("multiplicative transform requires f(0) = 0")
    by_log = f.values.take(f.ctx.exp_table, axis=-1)
    return np.fft.fft(by_log, out=by_log)


def mult_fourier_inverse(ctx: FieldCtx, coeffs: np.ndarray) -> ComplexFn:
    """f(Y) = (1/(q-1)) sum_t M(t) eta_t(Y), extended by zero at 0."""
    n = ctx.q - 1
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[-1:] != (n,):
        raise ValueError(f"expected {n} coefficients")
    vals = np.zeros(coeffs.shape[:-1] + (ctx.q,), dtype=complex)
    vals[..., ctx.exp_table] = np.fft.ifft(coeffs)
    return ComplexFn(ctx, vals, MULTIPLICATIVE)


# ---------------------------------------------------------------------------
# Gauss sum
# ---------------------------------------------------------------------------


@dataclass
class GaussSumInfo:
    """The measured quadratic Gauss sum: raw_sum = sigma * sqrt(q), |sigma| = 1."""

    raw_sum: complex
    sigma: complex


@per_field("gauss_sum")
def gauss_sum(ctx: FieldCtx) -> GaussSumInfo:
    """Brute-force sum of e(y^2) over the field; sigma is measured, not assumed."""
    raw = complex(additive_char_table(ctx)[ctx.sq_vec(ctx.elements())].sum())
    sigma = raw / math.sqrt(ctx.q)
    if abs(abs(sigma) - 1.0) > 1e-9:
        raise RuntimeError(f"gauss sum modulus check failed: |sigma| = {abs(sigma)}")
    return GaussSumInfo(raw_sum=raw, sigma=sigma)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _gathered_row_sums(values: np.ndarray, blocks) -> np.ndarray:
    """sum_k values[at[i, k]] for every row i of each index block ``at``, in
    order.  Every block gathers into one reused buffer: a fresh result-sized
    array per block can be re-faulted page by page (at q = 9973, 4.6e5 minor
    faults and twice the time)."""
    sums, buf = [], None
    for at in blocks:
        if buf is None:
            buf = np.empty(at.shape, dtype=values.dtype)
        sums.append(values.take(at, out=buf[: len(at)], mode="clip").sum(axis=1))
    return np.concatenate(sums)


def fourier_checks(ctx: FieldCtx, seed: int, trials: int) -> list[CheckResult]:
    """Orthogonality exhaustive in a and in t; Parseval and round trips on
    ``trials`` seeded random functions per transform, transformed a stack of
    trials at a time; the Gauss unit."""
    q, n = ctx.q, ctx.q - 1
    e = additive_char_table(ctx)
    codes = ctx.elements()
    roots = unit_root_powers(ctx)
    logs = ctx.log_table[ctx.units()]
    ts = np.arange(n)
    additive = _gathered_row_sums(e, (ctx.mul_vec(codes[a, None], codes) for a in row_blocks(q, q)))
    additive[0] -= q
    multiplicative = _gathered_row_sums(roots, (ts[t, None] * logs % n for t in row_blocks(n, q)))
    multiplicative[0] -= n
    rng = np.random.default_rng(seed)
    parseval = np.empty((trials, 2))
    round_trip = np.empty((trials, 2))
    # _PAIR_BATCH trials (f, then g, per trial, as drawn one by one) per pass, at most a
    # block of cells: at q = 9973 a pass of 8 traced 10.8 MB at its peak, one 2.3 MB, as fast
    for i in row_blocks(trials, q, min(_PAIR_BATCH * q, field.ROW_BLOCK_CELLS)):
        draws = np.array([random_fn(ctx, rng).values for _ in range(2 * (i.stop - i.start))])
        f, g = ComplexFn(ctx, draws[0::2]), draws[1::2]
        g[:, 0] = 0.0
        fh = fourier(f)
        parseval[i, 0] = relative_error(np.sqrt((np.abs(f.values) ** 2).mean(axis=1)),
                                        np.sqrt((np.abs(fh.values) ** 2).sum(axis=1)))
        round_trip[i, 0] = np.abs(fourier_inverse(fh).values - f.values).max(axis=1)
        coeffs = mult_fourier(ComplexFn(ctx, g))
        parseval[i, 1] = relative_error((np.abs(coeffs) ** 2).sum(axis=1) / n,
                                        (np.abs(g) ** 2).sum(axis=1))
        round_trip[i, 1] = np.abs(mult_fourier_inverse(ctx, coeffs).values - g).max(axis=1)

    def sampled(i, j):
        return f"(trial={i}, {('additive', 'multiplicative')[j]})"

    return [
        error_check("additive-orthogonality", np.abs(additive), TOLERANCE_ABS, lambda a: f"(a={a})"),
        error_check("multiplicative-orthogonality", np.abs(multiplicative), TOLERANCE_ABS,
                    lambda t: f"(t={t})"),
        error_check("parseval-both-conventions", parseval, TOLERANCE_REL, sampled),
        error_check("transform-round-trip", round_trip, 1e-9, sampled),
        error_check("gauss-unit-modulus", abs(abs(gauss_sum(ctx).sigma) - 1.0),
                    10 * TOLERANCE_REL, lambda: "(sigma)"),
    ]
