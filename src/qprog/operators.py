"""The quadratic averaging operator, its sliced pieces, and threshold arithmetic.

Normalization bookkeeping (every cross-route comparison below states its
conventions explicitly):

* ``averaging_apply`` returns the physical-side average
  (1/q) sum_y f1(x+y) f2(x+y^2); its norms are the averaged ||.||_2.  It
  sums over u = x + y, per block of u one gather at ``FieldCtx.square_rows`` and
  one BLAS product a pair, as the f1-side adjoint of the deviation does; its
  f2-side adjoint sums the coefficient rows below down their columns.  Index
  rows serve a batch of pairs: ``alternating_max_ratio`` steps 8 starts in lock
  step (q^2 work per start, O(8q) memory), ``deviation_scan`` 8 pairs a pass.
* Fourier coefficients always carry the counting l2 norm; the two-route
  deviation check equates an averaged physical norm with a counting
  frequency-side norm, which is exactly what the transform conventions give.
* the sliced operator acts on frequency-side vectors, so its operator norm is
  a plain spectral norm in the counting l2 on both sides.
* ``averaging_checks`` compares the two averaging routes, and the slice
  expansion with the direct route, on seeded random pairs.

The Fourier route and the slice expansion read one builder, the deviation's
coefficient rows c(m, n) = fhat1(m-n) fhat2(n) K(m-n, n) with column n = 0
zeroed, built from the closed form of K in blocks of m (O(q) memory per
row).  The columns are reflected, column j holding n = -j, so that m - n =
m + j is one row of ``add_rows``; each block's phases, one phase-table
gather per cell, are built once for every pair of a batch, and a block's
row sums are one BLAS product with the column weight fhat2(n) times K's
prefactor.  Since K(a, 0) is the point mass at a = 0, the row sums are the
coefficients of A(f1,f2) - E[f1] E[f2].  Slice h of the deviation square is
the rows' additive autocorrelation at lag -h (lag h in code order): with C_m
the inverse transform of row m, every slice is the inverse transform of
sum_m |C_m|^2 over q, read at -h, so all q slices cost O(q^2 log q), one
FFT call per block of rows (at least 8 rows).  The suite reads the rows once
per batch of trials: one pass gives both the row sums and the slices.

Slice norms come from the Weil sums, not from the slice matrix.  With
h' = h/4, q^2 ||T_h||^2 is the top eigenvalue of the pair-kernel Gram matrix
B_{h'} (``kernels.pair_kernel_grid_closed``).  Twisted by a +-1 diagonal, B_{h'}
is the compression, to the complement of {c, -c} (c = h'/2), of an operator
N on {0} and the units: q 1_{Y=Z} + sqrt(q) L_{h'}(Z/Y) between units, q at
(0, 0) and a constant of modulus sqrt(q) on the rest of row and column 0.
Multiplicative characters diagonalise N: eta_t (t != 0) has eigenvalue
q + sqrt(q) S_t with S_t = sum_r L_{h'}(r) eta_t(r), and eta_0 with the point
0 spans a 2 x 2 block.  Every eigenvector is even or odd under Y -> -Y, since
eta_t(-1) = (-1)^t, so the deleted points split into one even and one odd
direction, and each sector's top eigenvalue is the largest root of a secular
equation.  The ratio sums at h' are twisted_prefactor(h') times the mixed
sums at lambda = h' (``weil.ratio_sum_check``), so one FFT grid of mixed sums
per block of h gives every S_t.  A safeguarded rational step finds each
root in a few O(q) evaluations of the secular function (at most 5 on the
fields up to 9973 tried), so a whole scan costs O(q^2 log q).

The Weil grid's symmetries make ||T_h|| constant on orbits.  Under
h' -> h'^p the twisted sums S_t go to S_{pt}, and under h' -> -h' to
S_{-t} (chi(-h') = chi(-1) chi(h') cancels the chi(-1) of the mixed sums).
Both maps permute the t within each parity sector and fix t = 0, so the
sectors' roots do not move.  Since 4 lies in the prime field, h/4 and
h'/4 share an orbit of ``weil.weil_orbits`` exactly when h and h' do, and
the scan solves each orbit once, at its representative's mixed sums:
(q-1)/2 rows at prime q, about (q-1)/2s over F_{p^s}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import field
from .field import FieldCtx, row_blocks
from .characters import _PAIR_BATCH, ComplexFn, fourier, fourier_inverse_rows, random_fn
from .kernels import _quad_columns, _quad_kernel, _quad_phases, twisted_prefactor
from .reporting import CheckResult, error_check
from .weil import _BLOCK_CELLS, _blocked_char_sums, _mixed_terms, weil_orbits


# ---------------------------------------------------------------------------
# the averaging operator, two routes
# ---------------------------------------------------------------------------


def _common_field(pairs) -> FieldCtx:
    ctx = pairs[0][0].ctx
    if any(f.ctx is not ctx for pair in pairs for f in pair):
        raise ValueError("functions live on different fields")
    return ctx


_AVERAGE_BLOCK_CELLS = 1 << 15  # cells per block of rows u: one-row products are slower


def _square_gathers(ctx: FieldCtx, values):
    """Yield (i, u, rows), rows[r, j] = values[i]((u.start + r + j)^2 - j), the
    value at x + (u - x)^2 for x = -j: blocks of u in order, each gathered at one
    ``square_rows`` block for every row i in turn, into a buffer the next reuses."""
    index = gathered = None
    for u in row_blocks(ctx.q, ctx.q, _AVERAGE_BLOCK_CELLS):
        us = np.arange(u.start, u.stop)
        if index is None:  # the first block is the largest
            index, gathered = (np.empty((len(us), ctx.q), dtype=t) for t in (np.intp, complex))
        at, rows = ctx.square_rows(us, out=index[: len(us)]), gathered[: len(us)]
        for i, v in enumerate(values):
            yield i, u, v.take(at, out=rows, mode="clip")


def _averages(pairs) -> np.ndarray:
    """(1/q) sum_u f1(u) f2(x + (u-x)^2) for every x (u = x + y), row i for the pair i;
    a block's index rows (column j at x = -j) serve all the pairs."""
    ctx = _common_field(pairs)
    v1 = np.array([f1.values for f1, _ in pairs])
    acc = np.zeros(v1.shape, dtype=complex)
    for i, u, rows in _square_gathers(ctx, [f2.values for _, f2 in pairs]):
        acc[i] += v1[i, u] @ rows
    return acc.take(ctx.neg_table, axis=1) / ctx.q


def averaging_apply(f1: ComplexFn, f2: ComplexFn) -> ComplexFn:
    """Direct route: (1/q) sum_y f1(x+y) f2(x+y^2) for every x (q^2 work)."""
    return ComplexFn(f1.ctx, _averages([(f1, f2)])[0])


# least rows in a block of ``_coefficient_rows`` (ROW_BLOCK_CELLS alone gives
# fewer above q = 2048, one above 2^13): each block is one FFT call of the slice
# pass, and one prime-length call per row is its largest cost; at q = 9973
# (2 vCPU) a pass took 16.5-18.5 s with 8, 13 or 26 rows per call, 27.7 s with one
_COEFFICIENT_ROWS = 8


def _coefficient_rows(ctx: FieldCtx, fhat1s):
    """Yield (i, m0, rows): rows[r, j] = fhat1s[i](m-n) times K's phase at (m-n, n),
    m = m0 + r, with reflected columns (n = -j at column j, so m - n = m + j is one
    row of ``add_rows``), in blocks of m, each for every i in turn; the phases are
    built once a block.  Times the column weights of ``_spectra`` they are the
    rows c(m, n); ``rows`` is a buffer the next block overwrites."""
    log_col = _quad_columns(ctx, ctx.neg_table)[1]
    gathered = None
    for m in row_blocks(ctx.q, ctx.q, max(field.ROW_BLOCK_CELLS, _COEFFICIENT_ROWS * ctx.q)):
        a = ctx.add_rows(np.arange(m.start, m.stop))  # m - n
        if gathered is None:  # the first block is the largest
            gathered = np.empty(a.shape, dtype=complex)
        phases = _quad_phases(ctx, a, log_col)
        for i, fh1 in enumerate(fhat1s):
            rows = fh1.take(a, out=gathered[: len(a)], mode="clip")
            rows *= phases
            yield i, m.start, rows


def _spectra(pairs):
    """(ctx, fhat1s, weights): each pair's fhat1, and its column weight at
    column j (n = -j), fhat2(n) times K's prefactor, which is 0 at n = 0."""
    ctx = _common_field(pairs)
    prefactor = _quad_columns(ctx, ctx.neg_table)[0]
    return (ctx, [fourier(f1).values for f1, _ in pairs],
            [fourier(f2).values[ctx.neg_table] * prefactor for _, f2 in pairs])


def _deviation_coeffs(pairs) -> np.ndarray:
    """The coefficients of A(f1,f2) - E[f1] E[f2], row i for the pair i: the
    row sums over n != 0, each block's as one matrix-vector product."""
    ctx, fhat1s, weights = _spectra(pairs)
    coeffs = np.empty((len(pairs), ctx.q), dtype=complex)
    for i, m0, rows in _coefficient_rows(ctx, fhat1s):
        np.matmul(rows, weights[i], out=coeffs[i, m0 : m0 + len(rows)])
    return coeffs


def _synthesize(pairs, coeffs: np.ndarray) -> np.ndarray:
    """A(f1, f2) from the deviation's coefficients, row i for the pair i: the
    n = 0 column adds fhat1(0) fhat2(0) = E[f1] E[f2] at m = 0 alone (K(., 0)
    is a point mass), in place, and sum_m e(mx) coeffs[i, m] is synthesized."""
    coeffs[:, 0] += [f1.mean() * f2.mean() for f1, f2 in pairs]
    return fourier_inverse_rows(pairs[0][0].ctx, coeffs)


def averaging_apply_fourier(f1: ComplexFn, f2: ComplexFn) -> ComplexFn:
    """Fourier route: synthesize sum_m e(mx) sum_n fhat1(m-n) fhat2(n) K(m-n, n)."""
    pairs = [(f1, f2)]
    return ComplexFn(f1.ctx, _synthesize(pairs, _deviation_coeffs(pairs))[0])


class DeviationNorms(NamedTuple):
    direct: float
    fourier_side: float


def _deviation_norms(pairs) -> list[DeviationNorms]:
    """``deviation_norm`` of every pair, both routes taken in one pass over the pairs."""
    out = []
    for (f1, f2), average, coeffs in zip(pairs, _averages(pairs), _deviation_coeffs(pairs)):
        dev = average - f1.mean() * f2.mean()
        direct = float(np.sqrt((np.abs(dev) ** 2).mean()))
        fourier_side = float(np.sqrt((np.abs(coeffs) ** 2).sum()))
        if abs(direct - fourier_side) > 1e-8 * max(1.0, direct, fourier_side):
            raise RuntimeError(
                f"deviation-norm routes disagree: direct={direct!r} fourier={fourier_side!r}"
            )
        out.append(DeviationNorms(direct, fourier_side))
    return out


def deviation_norm(f1: ComplexFn, f2: ComplexFn) -> DeviationNorms:
    """Averaged 2-norm of the mean-corrected average, by both routes.

    direct      = || A(f1,f2) - E[f1] E[f2] ||_2      (averaged, physical side)
    fourier_side = counting l2 norm over m of sum_{n != 0} fhat1(m-n) fhat2(n) K(m-n, n)

    The two routes agree identically in exact arithmetic; a relative
    mismatch beyond 1e-8 raises (internal-consistency failure, not an input
    error).
    """
    return _deviation_norms([(f1, f2)])[0]


# ---------------------------------------------------------------------------
# sliced representation of the deviation square
# ---------------------------------------------------------------------------


def _coefficient_pass(pairs) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the coefficient rows of every pair, row i for the pair i:
    the row sums of ``_deviation_coeffs``, from the same blocks by the same
    operations, and the deviation square expanded over difference slices h,
    whose entry h is

    sum_{u; v outside {0,-h}} fhat1(u) conj(fhat1(u-h)) fhat2(v)
    conj(fhat2(v+h)) K(u,v) conj(K(u-h, v+h)),

    the coefficient rows' autocorrelation sum_m sum_n c(m, n) conj(c(m, n+h)).
    The rows come with reflected columns (n = -j at column j), so slice h is
    the inverse transform of their power read at -h.  The slices sum to
    || A(f1,f2) - E[f1] E[f2] ||_2^2 exactly (the averaged norm squared, which
    matches the counting-norm square of the deviation's coefficients).

    Each block of rows comes once for every pair, as in ``_deviation_coeffs``:
    its sums are taken, the rows scaled by the column weight in place, and the
    power of their inverse transforms, one FFT call a block, added to the
    pair's; the last inverse transform runs once on the stack of powers.
    """
    ctx, fhat1s, weights = _spectra(pairs)
    sums = np.empty((len(pairs), ctx.q), dtype=complex)
    power = np.zeros((len(pairs), ctx.q))
    for i, m0, rows in _coefficient_rows(ctx, fhat1s):
        np.matmul(rows, weights[i], out=sums[i, m0 : m0 + len(rows)])
        rows *= weights[i]
        power[i] += (np.abs(fourier_inverse_rows(ctx, rows)) ** 2).sum(axis=0)
    return sums, fourier_inverse_rows(ctx, power).take(ctx.neg_table, axis=-1) / ctx.q


def averaging_checks(ctx: FieldCtx, seed: int, trials: int) -> list[CheckResult]:
    """Per seeded random pair: both averaging routes pointwise, and
    the slices' sum against the mean of |direct - E f1 E f2|^2; the Fourier
    route and the slices read one pass over the coefficient rows.  Both
    routes take the pairs ``_PAIR_BATCH`` at a time.
    Then T_1 on a point mass, whose image has modulus 1/q everywhere."""
    rng = np.random.default_rng(seed)
    routes = np.empty(trials)
    form = np.empty(trials)
    drawn = ((random_fn(ctx, rng), random_fn(ctx, rng)) for _ in range(trials))
    i = 0
    while pairs := list(islice(drawn, _PAIR_BATCH)):
        direct = _averages(pairs)
        coeffs, slices = _coefficient_pass(pairs)
        i1 = i + len(pairs)
        routes[i:i1] = np.abs(direct - _synthesize(pairs, coeffs)).max(axis=1)
        direct -= np.array([[f1.mean() * f2.mean()] for f1, f2 in pairs])
        gap = slices.sum(axis=1) - (np.abs(direct) ** 2).mean(axis=1)
        form[i:i1] = np.hypot(gap.real, gap.imag)  # a complex scalar's abs; np.abs may differ by an ulp
        i = i1
    # the point mass sits at the first v >= 2 other than -1; F_3 has none,
    # and v = 1 serves there.  Its image under T_1 is K(u, v0) conj(K(u-1, v0+1))
    v0 = next((v for v in range(2, ctx.q) if v != ctx.neg(1)), 1)
    codes = ctx.elements()
    image = _quad_kernel(ctx, codes, v0) * np.conj(
        _quad_kernel(ctx, ctx.sub_vec(codes, 1), ctx.add(v0, 1)))
    return [
        error_check("averaging-two-routes", routes, 1e-8, lambda i: f"(trial={i})"),
        error_check("slice-expansion-identity", form, 1e-8, lambda i: f"(trial={i})"),
        error_check("slice-point-mass-modulus", np.abs(np.abs(image) - 1.0 / ctx.q), 1e-9,
                    lambda u: f"(u={u})"),
    ]


# a row of ``_top_secular_root`` stops once its step is at most this many
# ulps of x: rounding in the secular sum leaves steps of about an ulp, which a
# bracket test alone would never accept
_SECULAR_ULPS = 4


def _top_secular_root(lam: np.ndarray, tail_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row i, the top eigenvalue of diag(lam[i]) compressed to the
    complement of a vector v with |v_k|^2 proportional to w_k: w_k = 1, except
    on the last columns, which carry tail_w[i] > 0.  Returns the roots and each
    row's number of secular-function evaluations.

    The root of f(x) = sum_k w_k / (lam_k - x) lies between the row's two
    largest lam, lam_2 <= lam_1, where f increases from -inf to +inf.  Each
    step (Bunch, Nielsen and Sorensen 1978, in R.-C. Li's form, 1994) keeps
    the top pole exact and models the other poles by a + s / (lam_2 - x),
    with their sum's value and slope at x; the model's root is the root of a
    quadratic in the step, taken in its stable form.  The sign of f at x
    narrows the bracket, and a model root outside it is replaced by the
    midpoint.  A row stops once its step is within a few ulps of x, or when
    no float lies strictly inside its bracket (a repeated top eigenvalue
    starts so and returns it), so f is never evaluated at a pole.
    """
    k, m = lam.shape
    bulk = m - tail_w.shape[1]
    rows = np.arange(k)
    top = lam.argmax(axis=1)
    lam1 = lam[rows, top]
    lam[rows, top] = -np.inf  # masked in place for the second maximum, then restored
    lam2 = lam.max(axis=1)
    lam[rows, top] = lam1
    w1 = np.ones(k)
    in_tail = top >= bulk
    w1[in_tail] = tail_w[in_tail, top[in_tail] - bulk]
    root = lam2.copy()
    evals = np.zeros(k, dtype=np.int64)
    x = 0.5 * (lam2 + lam1)
    act = rows[(lam2 < x) & (x < lam1)]
    # the active rows' state, compressed whenever rows leave
    lam, tail_w, top = lam[act], tail_w[act], top[act]
    lo, hi, x, lam1, lam2, w1 = lam2[act], lam1[act], x[act], lam1[act], lam2[act], w1[act]
    it = 0
    while act.size:
        it += 1
        r = lam - x[:, None]
        np.reciprocal(r, out=r)
        r[:, bulk:] *= tail_w  # r_k = w_k / (lam_k - x)
        at = np.arange(len(act))
        r1 = r[at, top]
        r[at, top] = 0.0  # the top pole is kept out of the model
        phi = r.sum(axis=1)
        dphi = np.einsum("ij,ij->i", r[:, :bulk], r[:, :bulk]) + (r[:, bulk:] ** 2 / tail_w).sum(axis=1)
        f = phi + r1
        above = f > 0  # the root lies below x
        lo, hi = np.where(above, lo, x), np.where(above, x, hi)
        # with s = dphi d2^2 and a = phi - dphi d2, the model w1/(d1 - tau) + a + s/(d2 - tau)
        # = 0 in the step tau, times (d1 - tau)(d2 - tau), is a tau^2 - b tau + c = 0, whose
        # root in (d2, d1) is (b - sqrt(disc)) / 2a = 2c / (b + sqrt(disc)); the sign of b
        # picks the form without cancellation
        d1, d2 = lam1 - x, lam2 - x
        a = phi - dphi * d2
        b = a * (d1 + d2) + w1 + dphi * d2 * d2
        c = d1 * d2 * f
        disc = np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0))
        num = np.where(b > 0, 2.0 * c, b - disc)
        den = np.where(b > 0, b + disc, 2.0 * a)
        tau = np.divide(num, den, out=np.full(len(act), np.inf), where=den != 0)
        done = np.abs(tau) <= _SECULAR_ULPS * np.finfo(float).eps * np.abs(x)
        step = x + tau
        x = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        stuck = ~done & ~((lo < x) & (x < hi))
        leave = done | stuck
        if leave.any():
            root[act[leave]] = np.where(done, step, lo)[leave]
            evals[act[leave]] = it
            keep = ~leave
            act, lam, tail_w, top = act[keep], lam[keep], tail_w[keep], top[keep]
            lo, hi, x, lam1, lam2, w1 = lo[keep], hi[keep], x[keep], lam1[keep], lam2[keep], w1[keep]
    return root, evals


def _slice_sectors(q: int, S: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The secular rows (lam, tail_w) of ``_top_secular_root`` for the even and
    the odd sector of N_h, for each row of the ratio sums
    S[i, t] = sum_r L_{h_i/4}(r) eta_t(r).

    Each eta_t carries the same weight on the deleted direction, so weights
    are 1 but for the two eigenvalues mu of the {0, eta_0} block, appended to
    the even sector with their weight relative to one eta_t.  At q = 3 the odd
    sector is the deleted direction alone and has no row."""
    n = q - 1
    rq = math.sqrt(q)
    # the {0, eta_0} block [[q, b], [conj(b), q + sqrt(q) S_0]], |b|^2 = q(q-1)
    d = rq * S[:, :1]
    rad = np.sqrt(d * d + 4.0 * q * n)
    shift = np.concatenate([(d + rad) / 2, (d - rad) / 2], axis=1)  # mu - q
    even = np.empty((len(S), n // 2 + 1))
    np.multiply(S[:, 2::2], rq, out=even[:, :-2])
    even[:, :-2] += q
    even[:, -2:] = q + shift
    sectors = [(even, shift**2 / (shift**2 + q * n))]  # each mu's weight on eta_0
    if n > 2:
        odd = np.multiply(S[:, 1::2], rq)
        odd += q
        sectors.append((odd, np.empty((len(S), 0))))
    return sectors


def _slice_eigenvalues(sectors: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """q^2 ||T_h||^2 for each row: the larger of the sectors' top eigenvalues."""
    return np.max([_top_secular_root(lam, tail_w)[0] for lam, tail_w in sectors], axis=0)


# cells per block of the slice scan's mixed sums: half of weil_scan's, since
# the sectors and the solver's work arrays add about a block's bytes again;
# at q = 9973 full blocks peaked at 66-70 MB RSS against weil_scan's 59 MB, and
# half blocks at 49 MB in the same time
_SLICE_BLOCK_CELLS = _BLOCK_CELLS // 2


def _slice_norms(ctx: FieldCtx, hs: np.ndarray) -> np.ndarray:
    """||T_h|| for every h in ``hs`` (nonzero codes), from the mixed sums at
    h/4: the ratio sums there are twisted_prefactor(h/4) times them.  Each
    orbit of h/4 is solved once, at its representative (code 0 is its own
    orbit, which twisted_prefactor rejects)."""
    q = ctx.q
    rep = weil_orbits(ctx).rep[ctx.div_vec(hs, ctx.from_int(4))]
    reps = np.flatnonzero(np.bincount(rep, minlength=q))  # ascending, each once
    eig = np.empty(q)  # at the representatives' codes
    for i0, sums in _blocked_char_sums(ctx, _mixed_terms, reps, _SLICE_BLOCK_CELLS):
        ratio = sums.T  # rows h/4, columns t: a view of the block
        i1 = i0 + len(ratio)
        ratio *= twisted_prefactor(ctx, reps[i0:i1])[:, None]
        sectors = _slice_sectors(q, ratio.real)
        del sums, ratio  # the block is not held by the roots or the next block
        eig[reps[i0:i1]] = _slice_eigenvalues(sectors)
        del sectors
    return np.sqrt(eig[rep]) / q


@dataclass
class SlicedNormReport:
    """Operator norms of every nonzero slice, with the sqrt(q) scaling."""

    q: int
    norms: list[float]
    max_norm: float
    max_norm_times_sqrt_q: float


def sliced_norm_scan(ctx: FieldCtx) -> SlicedNormReport:
    """||T_h|| for every nonzero h, by the spectral route: O(q^2 log q)."""
    norms = _slice_norms(ctx, ctx.units()).tolist()
    mx = max(norms)
    return SlicedNormReport(ctx.q, norms, mx, mx * math.sqrt(ctx.q))


# ---------------------------------------------------------------------------
# progression counting and density-threshold arithmetic
# ---------------------------------------------------------------------------


def membership_mask(ctx: FieldCtx, members) -> np.ndarray:
    if isinstance(members, np.ndarray) and members.dtype == bool:
        if members.shape != (ctx.q,):
            raise ValueError("membership mask has wrong length")
        return members
    mask = np.zeros(ctx.q, dtype=bool)
    idx = np.asarray(list(members), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= ctx.q):
        raise ValueError("member code out of range")
    mask[idx] = True
    return mask


# ordered member pairs per block of rows in ``count_progressions`` (at least
# one row): small enough that a block's int64 temporaries stay in cache, which
# made a full-field search at q = 6859 twice as fast as blocks of 2^18
_PAIR_BLOCK = 1 << 13


def count_progressions(ctx: FieldCtx, members) -> tuple[int, tuple[int, int] | None]:
    """Exact number of pairs (x, y), y != 0, with x, x+y, x+y^2 all members.

    Repeated values are allowed (y = 1 gives the triple x, x+1, x+1).  Also
    returns the first witness in lexicographic (x, y) code order, if any.

    Each ordered pair of members (x, b) with b != x fixes y = b - x, so only
    x + y^2 needs a membership test: O(|A|^2) work for a set A, never more
    than the q(q-1) of a scan over the whole field.  Rows x come in ascending
    code order, in blocks of about 2^13 pairs, so memory stays O(q).
    """
    mask = membership_mask(ctx, members)
    codes = np.flatnonzero(mask).astype(np.int64)
    n = len(codes)
    count = 0
    witness: tuple[int, int] | None = None
    for i in row_blocks(n, n, _PAIR_BLOCK):
        x = codes[i, None]
        y = ctx.sub_vec(codes[None, :], x)
        hit = (y != 0) & mask[ctx.add_vec(x, ctx.sq_vec(y))]
        count += int(hit.sum())
        if witness is None and hit.any():
            r = int(np.flatnonzero(hit.any(axis=1))[0])
            witness = (int(x[r, 0]), int(y[r][hit[r]].min()))
    return count, witness


@dataclass
class ThresholdResult:
    """Density solving alpha^3 - C q^{-delta} alpha^{3/2} - alpha/q = 0.

    ``exponent`` is the asymptotic size exponent 1 - (2/3) delta; densities
    strictly above ``alpha`` make the restricted average positive.
    """

    delta: float
    coefficient: float
    q: int
    alpha: float
    size: float
    exponent: float


def density_threshold(delta: float, coefficient: float, q: int) -> ThresholdResult:
    if not 0.0 < delta < 0.75:
        raise ValueError(f"delta must lie in (0, 3/4), got {delta}")
    if coefficient < 0:
        raise ValueError("coefficient must be nonnegative")
    # substitute beta = sqrt(alpha): psi(beta) = beta^4 - C q^{-delta} beta - 1/q
    # has exactly one positive root (negative at 0+, eventually increasing).
    B = coefficient * q ** (-delta)

    def psi(beta: float) -> float:
        return beta**4 - B * beta - 1.0 / q

    hi = 1.0
    while psi(hi) <= 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    beta = 0.5 * (lo + hi)
    alpha = beta * beta
    return ThresholdResult(delta, coefficient, q, alpha, alpha * q, 1.0 - 2.0 * delta / 3.0)


@dataclass
class ChainReport:
    """The counting inequality chain instantiated on a concrete set.

    triple_average = E_x E_y 1_A(x) 1_A(x+y) 1_A(x+y^2), including y = 0;
    the lower bound alpha^3 - ||1_A||_2 * deviation is a Cauchy-Schwarz
    consequence and must hold up to float slack for every set.
    """

    q: int
    size: int
    alpha: float
    triple_average: float
    deviation: float
    lower_bound: float
    holds: bool


def triple_average_chain(ctx: FieldCtx, members) -> ChainReport:
    mask = membership_mask(ctx, members)
    size = int(mask.sum())
    alpha = size / ctx.q
    count_nonzero, _ = count_progressions(ctx, mask)
    triple_average = (count_nonzero + size) / (ctx.q * ctx.q)
    f = ComplexFn(ctx, mask.astype(complex))
    dev = deviation_norm(f, f).direct
    lower = alpha**3 - f.norm_avg() * dev
    return ChainReport(
        ctx.q, size, alpha, triple_average, dev, lower, triple_average >= lower - 1e-9
    )


# ---------------------------------------------------------------------------
# deviation-ratio scanning
# ---------------------------------------------------------------------------


@dataclass
class DeviationReport:
    """Scan record for the bilinear deviation ratio.

    ``max_ratio`` is a certified lower envelope of the true bilinear
    supremum: the best ratio seen over random trial pairs and (optionally)
    over alternating exact one-sided maximizations.
    """

    q: int
    trial_count: int
    max_ratio: float
    ratio_times_q_delta: float
    witness: dict
    seed: int
    per_trial: list = dc_field(default_factory=list)
    alternating_ratio: float | None = None


# random starts of the alternating maximization in ``deviation_scan``
ALTERNATING_STARTS = 32


def _side_images(ctx: FieldCtx, g: np.ndarray, pairs, side: int) -> np.ndarray:
    """Row i: u with sum_x conj(g[i](x)) D(x) = sum_a u(a) pairs[i][side](a), D the
    pair's deviation, by one gather and one BLAS product per block and pair.  For
    f1, u(a) = (1/q) sum_x conj(g)(x) (f2 - E f2)(x + (a-x)^2) over ``square_rows``;
    for f2, u is the transform of w(n) = q prefactor(n) sum_m conj(ghat(m)) fhat1(m-n)
    phase(m-n, n), n != 0 (K = prefactor times phase): the coefficient rows' column sums."""
    out = np.zeros(g.shape, dtype=complex)
    if side == 0:
        g_bar = np.conj(g).take(ctx.neg_table, axis=1)  # at x = -j
        centred = [f2.values - f2.mean() for _, f2 in pairs]  # f2 = 1 + i gives exact zeros
        for i, a, rows in _square_gathers(ctx, centred):
            np.matmul(rows, g_bar[i], out=out[i, a])
        return out / ctx.q
    g_hat = np.conj(fourier(ComplexFn(ctx, g)).values)
    for i, m0, rows in _coefficient_rows(ctx, [fourier(f1).values for f1, _ in pairs]):
        out[i] += g_hat[i, m0 : m0 + len(rows)] @ rows
    # n = -j at column j, so the transform of w is the inverse transform of w / q
    return fourier_inverse_rows(ctx, out * _quad_columns(ctx, ctx.neg_table)[0])


def alternating_max_ratio(
    ctx: FieldCtx, rng: np.random.Generator, starts: int = ALTERNATING_STARTS, rounds: int = 80
) -> float:
    """Lower bound for the bilinear deviation sup by alternating exact
    one-sided maximization of |sum_x conj(g(x)) D(x)|, D = A(f1,f2) - E f1 E f2
    (the higher-order power method).  Each start draws f1, then f2; each round,
    for f1 and then f2, g becomes D, whose ratio is recorded, and that side the
    normalized conjugate of its image.  No step lowers the ratio; D = 0, or an
    image that is exactly 0, ends a start.
    The starts are drawn in order and stepped in lock step, ``_PAIR_BATCH`` at a time."""
    best = 0.0
    drawn = ([random_fn(ctx, rng), random_fn(ctx, rng)] for _ in range(starts))
    while pairs := list(islice(drawn, _PAIR_BATCH)):
        for step in range(2 * rounds):  # the f1 side, the f2 side, the f1 side, ...
            devs = []
            for (f1, f2), average in zip(pairs, _averages(pairs)):
                dev = ComplexFn(ctx, average - f1.mean() * f2.mean())
                best = max(best, dev.norm_avg() / (f1.norm_avg() * f2.norm_avg()))
                devs.append(dev.values)
            live = [i for i, dev in enumerate(devs) if dev.any()]
            if not live:
                break
            pairs = [pairs[i] for i in live]
            images = _side_images(ctx, np.array([devs[i] for i in live]), pairs, step % 2)
            stepped = []
            for pair, u in zip(pairs, images):
                norm = np.linalg.norm(u)
                if norm:  # a rounding-level deviation can have an exactly zero image
                    pair[step % 2] = ComplexFn(ctx, np.conj(u) / norm)
                    stepped.append(pair)
            if not stepped:
                break
            pairs = stepped
    return best


def deviation_scan(
    ctx: FieldCtx, trials: int, seed: int, include_alternating: bool = False
) -> DeviationReport:
    """Random-ensemble (and optionally alternating-maximization) scan of
    || A(f1,f2) - E f1 E f2 ||_2 / (||f1||_2 ||f2||_2).  The pairs are drawn in
    trial order and their norms taken ``_PAIR_BATCH`` at a time."""
    rng = np.random.default_rng(seed)

    def draws():
        for i in range(trials):
            for kind in ("pm1", "indicator"):
                f1 = random_fn(ctx, rng, kind)
                f2 = random_fn(ctx, rng, kind)
                if f1.norm_avg() * f2.norm_avg() != 0.0:
                    yield kind, i, f1, f2

    per_trial = []
    max_ratio = 0.0
    witness: dict = {}
    drawn = draws()
    while batch := list(islice(drawn, _PAIR_BATCH)):
        norms = _deviation_norms([(f1, f2) for _, _, f1, f2 in batch])
        for (kind, i, f1, f2), norm in zip(batch, norms):
            ratio = norm.direct / (f1.norm_avg() * f2.norm_avg())
            per_trial.append((kind, i, ratio))
            if ratio > max_ratio:
                max_ratio = ratio
                witness = {"source": f"random-{kind}", "trial": i}
    alt = None
    if include_alternating:
        alt = alternating_max_ratio(ctx, rng)
        if alt > max_ratio:
            max_ratio = alt
            witness = {"source": "alternating", "starts": ALTERNATING_STARTS}
    return DeviationReport(
        q=ctx.q,
        trial_count=trials,
        max_ratio=max_ratio,
        ratio_times_q_delta=max_ratio * ctx.q**0.25,
        witness=witness,
        seed=seed,
        per_trial=per_trial,
        alternating_ratio=alt,
    )
