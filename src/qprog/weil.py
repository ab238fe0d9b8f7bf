"""Exhaustive scans of the mixed character sums behind the slice estimates.

The scanned object is sum over r outside {0, 1, -1} of
eta(r) chi(1 - r^2) e(lambda (r-1)/(r+1)), for every multiplicative character
eta and every nonzero lambda.  Every summand has modulus exactly one, so
|sum| <= q - 3 (the trivial bound).  The substitution s = (r-1)/(r+1) turns
the sum into chi(-1) sum_s eta(1+s) conj(eta)(1-s) chi(s) e(lambda s).  For
nontrivial eta this is a complete mixed sum with three ramified points
(0, +-1) and a linear phase, so the one-variable Weil bound gives
|sum| <= 3 sqrt(q).  For trivial eta it is a Gauss sum minus the two terms at
s = +-1, so |sum| <= sqrt(q) + 2.  The grid maximum is therefore at most
min(3 sqrt(q), q - 3); eta = chi attains 3 sqrt(q) at q = 27, 81 and 243.
``envelope_check`` asserts that bound, up to 1e-9, on the whole grid.

Two exact symmetries make most rows of the (t, lambda) grid permutations of
others.  Frobenius r -> r^p fixes {0, +-1}, chi and e, so
S(t, lambda^p) = S(pt, lambda); inversion r -> 1/r negates (r-1)/(r+1), so
S(t, -lambda) = chi(-1) S(-t, lambda).  Over F_{p^s} the group they generate
has order 2s, and ``weil_orbits`` gives each unit lambda = +-rep^{p^j} its
orbit's least code rep.  ``weil_scan`` sums only the representative rows,
(q-1)/2 at prime q and about (q-1)/2s in general, and reads every other row
as a permutation of its representative's:
|S(t, eps rep^{p^j})| = |S(eps p^j t, rep)|.  The slice scan in
``operators`` solves one h per orbit of h/4 the same way.

Every sum here is one weighted sum of eta_t over the units
(``_char_sums``): the weight builders gather each row in log order, column k
at the unit g^k (the mixed phases straight from the phase table at
log lambda + log((r-1)/(r+1))), and one in-place length-(q-1) inverse FFT
per row gives the sums for every t at once, O(q^2 log q) for a whole grid.
Grids are built in blocks of weight rows (``_blocked_char_sums``), so no
whole (q-1)^2 grid is held unless a caller asks for it, and a block is
released before the next one is built.  The mixed and ratio sums differ
only in their weights.
``substitution_check`` sums the reindexed side the other way round: for
each t, one additive FFT in lambda over the digit axes.

Sums accumulate in double precision.  The FFT's rounding error grows like
log q: at q = 2187 the grid and the term-by-term sums differ by at most
1.8e-13, far inside the 1e-9 tolerances, and no compensated summation is
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .field import FieldCtx, per_field, row_blocks
from .characters import fourier_inverse_rows, phase_table, quadratic_char_table, unit_root_powers
from .kernels import ratio_kernel_table, twisted_prefactor
from .reporting import CheckResult, error_check


def envelope(q: int) -> float:
    """The proven bound min(3 sqrt(q), q - 3) on every scanned sum."""
    return min(3.0 * math.sqrt(q), q - 3.0)


def _char_sums(weights: np.ndarray) -> np.ndarray:
    """sum_k eta_t(g^k) weights[j, k] for every t: rows t, columns j.

    Row j holds weights by discrete log (column k at the unit g^k), so its
    sums are its unnormalised inverse DFT, sum_k W_k zeta^{tk}, taken in
    place in the complex array ``weights``: the grid is held once, not twice
    (``out=`` needs numpy >= 2.0).
    """
    return np.fft.ifft(weights, norm="forward", out=weights).T


# cells (weight rows times q - 1 columns) per block of a Weil grid: 16 MB of
# complex sums, whatever q is
_BLOCK_CELLS = 1 << 20


def _blocked_char_sums(ctx: FieldCtx, terms, rows: np.ndarray, cells: int):
    """Yield (i.start, _char_sums(terms(ctx, rows[i]))) for the row_blocks i of ``rows``."""
    for i in row_blocks(len(rows), ctx.q, cells):
        yield i.start, _char_sums(terms(ctx, rows[i]))


def _ratio_parts(ctx: FieldCtx, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lambda-free parts at codes r: chi(1 - r^2), which is 0 at r = +-1,
    and the log of (r-1)/(r+1), log(r-1) - log(r+1) mod q-1 (some unit's log
    at r = +-1, where chi(1 - r^2) zeroes the term)."""
    chi_part = quadratic_char_table(ctx)[ctx.sub_vec(1, ctx.sq_vec(rs))]
    log0 = ctx.log0
    return chi_part, (log0[ctx.sub_vec(rs, 1)] - log0[ctx.add_vec(rs, 1)]) % (ctx.q - 1)


def _mixed_terms(ctx: FieldCtx, lams: np.ndarray) -> np.ndarray:
    """W[j, k] = chi(1 - r^2) e(lambda_j (r-1)/(r+1)) at r = g^k, by log:
    zero at r = +-1, the weights of the sum over r outside {0, +-1}.  The
    phases are gathered straight into the array the FFT then runs in."""
    chi_part, log_u = _ratio_parts(ctx, ctx.exp_table)
    rows = np.empty((len(lams), len(log_u)), dtype=complex)
    for row, log_lam in zip(rows, ctx.log0[lams]):  # row by row: no (k, q-1) index array
        np.take(phase_table(ctx), log_lam + log_u, out=row, mode="clip")
    rows *= chi_part.astype(complex)
    return rows


def _reindexed_terms(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, r, c): the mixed sum after the reindexing s = (r-1)/(r+1) is
    sum over s outside {-1, 0, 1} of eta(r_k) c_k e(lambda s_k), with
    r = (1+s)/(1-s) and c = chi(-4s/(1-s)^2)."""
    ss = ctx.codes_outside(0, 1, ctx.neg(1))
    chi = quadratic_char_table(ctx)
    r_of_s = ctx.div_vec(ctx.add_vec(1, ss), ctx.sub_vec(1, ss))
    neg4 = ctx.neg(ctx.from_int(4))
    chi_arg = ctx.div_vec(ctx.mul_vec(neg4, ss), ctx.sq_vec(ctx.sub_vec(1, ss)))
    return ss, r_of_s, chi[chi_arg]


def _ratio_terms(ctx: FieldCtx, hs: np.ndarray) -> np.ndarray:
    """W[j, k] = L_{h_j}(g^k), the ratio kernel (by field arithmetic) read in
    log order, over every nonzero r.  Their sums, sum_r L_h(r) eta_t(r), are
    sigma chi(h) times the mixed sums at lambda = h: L_h vanishes at +-1,
    which the mixed sum deletes."""
    return ratio_kernel_table(ctx, hs)[:, ctx.exp_table]


class Orbits(NamedTuple):
    """The orbits of lambda -> lambda^p and lambda -> -lambda, by code:
    lambda = (-1)^neg rep^(p^frob), with rep the least code of lambda's orbit.
    Code 0 is its own orbit (rep 0, frob 0, neg False)."""

    rep: np.ndarray  # int64
    frob: np.ndarray  # int8, in 0..s-1
    neg: np.ndarray  # bool

    def reps(self) -> np.ndarray:
        """The units that represent their orbits, ascending."""
        return np.flatnonzero(self.rep == np.arange(len(self.rep)))[1:]


@per_field("weil_orbits")
def weil_orbits(ctx: FieldCtx) -> Orbits:
    """The orbit table of the units under lambda -> lambda^p and
    lambda -> -lambda.  In logs the group acts as k -> k p^j + e (q-1)/2
    mod q-1; the least code over the 2s images is kept as a running minimum,
    so the table is built in O(q) memory.  An image eps lambda^(p^j) = rep
    gives lambda = eps rep^(p^(s-j)), as p^s = 1 mod q-1 and eps^p = eps."""
    p, s, n = ctx.p, ctx.s, ctx.q - 1
    logs = np.arange(n)
    least = ctx.exp_table.copy()  # by log: the least image code so far
    frob = np.zeros(n, dtype=np.int8)
    neg = np.zeros(n, dtype=bool)
    for j in range(s):
        for e in (0, 1):
            image = ctx.exp_table[(logs * pow(p, j, n) + e * (n // 2)) % n]
            less = image < least
            least[less] = image[less]
            frob[less] = (s - j) % s
            neg[less] = bool(e)
    orbits = Orbits(np.zeros(ctx.q, dtype=np.int64), np.zeros(ctx.q, dtype=np.int8),
                    np.zeros(ctx.q, dtype=bool))
    for table, by_log in zip(orbits, (least, frob, neg)):
        table[ctx.exp_table] = by_log
    return orbits


def _orbit_grid(ctx: FieldCtx, orbits: Orbits, reps: np.ndarray, rep_grid: np.ndarray) -> np.ndarray:
    """The full grid |S(t, lambda)|, rows t and columns lambda, from the
    representatives' columns of ``rep_grid``: |S(t, lambda)| = |S(m t, rep)|
    with m = (-1)^neg p^frob mod q-1, filled a block of columns at a time."""
    n = ctx.q - 1
    lams = ctx.units()
    col = np.searchsorted(reps, orbits.rep[lams])
    pj = np.array([pow(ctx.p, j, n) for j in range(ctx.s)])[orbits.frob[lams]]
    mults = np.where(orbits.neg[lams], n - pj, pj)
    grid = np.empty((n, n))
    t = np.arange(n)[:, None]
    for cs in row_blocks(n, ctx.q, _BLOCK_CELLS):
        grid[:, cs] = rep_grid[t * mults[cs] % n, col[cs]]
    return grid


@dataclass
class WeilScanReport:
    """Full (eta, lambda) grid scan of the mixed character sum."""

    q: int
    grid_count: int
    orbit_rows: int  # the lambda rows summed: one per orbit
    max_abs_sum: float
    max_ratio: float
    argmax_t: int
    argmax_lambda: int
    below_sanity_floor: bool  # recorded, not failed: max_ratio < 0.5
    grid: np.ndarray | None = None


def weil_scan(ctx: FieldCtx, keep_grid: bool = False) -> WeilScanReport:
    """Scan all (q-1)^2 pairs (t, lambda != 0) from one row per orbit of
    ``weil_orbits``.  The argmax is the smallest (t, lambda) in code order
    with |sum| within 1e-9 of the maximum, so rounding never decides between
    tied cells.

    The representative rows are summed in blocks; each block keeps its cells
    within 1e-9 of its own maximum, a superset of its cells within 1e-9 of the
    global one.  A cell (t, rep) stands for the cells (eps p^-j t, eps
    rep^(p^j)) of every group element, which hold the same |sum|, and the
    least of those images is the argmax.  Only ``keep_grid`` holds the full
    grid, filled column by column from the representatives' rows.
    """
    q, p, s = ctx.q, ctx.p, ctx.s
    n = q - 1
    orbits = weil_orbits(ctx)
    reps = orbits.reps()
    rep_grid = np.empty((n, len(reps))) if keep_grid else None
    max_abs = 0.0
    near = []  # per block: (|sum|, t, rep index) of the cells near its maximum
    for i0, sums in _blocked_char_sums(ctx, _mixed_terms, reps, _BLOCK_CELLS):
        block = np.abs(sums)  # rows t, columns rep index i0, i0 + 1, ...
        if rep_grid is not None:
            rep_grid[:, i0 : i0 + block.shape[1]] = block
        top = float(block.max())
        ts, js = np.nonzero(block >= top - 1e-9)
        near.append((block[ts, js], ts, js + i0))
        max_abs = max(max_abs, top)
        del sums, block  # not held while the next block's weights are built
    vals, ts, js = (np.concatenate(col) for col in zip(*near))
    tied = vals >= max_abs - 1e-9
    ts, tied_reps = ts[tied], reps[js[tied]]
    image_ts, image_lams = [], []  # (eps p^-j t, eps rep^(p^j)) for every group element
    for j in range(s):
        t = pow(p, s - j, n) * ts % n
        lam = ctx.pow_vec(tied_reps, p**j)
        image_ts += [t, -t % n]
        image_lams += [lam, ctx.neg_vec(lam)]
    image_ts, image_lams = np.concatenate(image_ts), np.concatenate(image_lams)
    first = np.lexsort((image_lams, image_ts))[0]
    max_ratio = max_abs / math.sqrt(q)
    return WeilScanReport(
        q=q,
        grid_count=n * n,
        orbit_rows=len(reps),
        max_abs_sum=max_abs,
        max_ratio=max_ratio,
        argmax_t=int(image_ts[first]),
        argmax_lambda=int(image_lams[first]),
        below_sanity_floor=bool(max_ratio < 0.5),
        grid=None if rep_grid is None else _orbit_grid(ctx, orbits, reps, rep_grid),
    )


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def substitution_check(ctx: FieldCtx) -> CheckResult:
    """Reindexing identity on the full (t, lambda) grid, by two summations.

    The mixed sum over r is the multiplicative FFT grid.  The reindexed sum
    is, for each t, the additive transform in lambda of
    g_t(s) = eta_t((1+s)/(1-s)) chi(-4s/(1-s)^2) (zero at s = 0, +-1): one
    inverse FFT over the digit axes per t, with eta_t read from the unit-root
    table, not placed at the discrete logs.
    """
    n = ctx.q - 1
    lams = ctx.units()
    mixed = _char_sums(_mixed_terms(ctx, lams))
    ss, r_of_s, c = _reindexed_terms(ctx)
    g = np.zeros((n, ctx.q), dtype=complex)
    g[:, ss] = unit_root_powers(ctx)[np.outer(np.arange(n), ctx.log_table[r_of_s]) % n] * c
    reindexed = fourier_inverse_rows(ctx, g)[:, lams]
    return error_check("substitution-identity", np.abs(mixed - reindexed), 1e-9,
                       lambda t, j: f"(t={t}, lambda={int(lams[j])})")


def ratio_sum_check(ctx: FieldCtx) -> CheckResult:
    """The ratio sum sum_r L_h(r) eta_t(r) equals twisted_prefactor(h) times
    the mixed sum at (t, lambda = h), on the full (h, t) grid."""
    hs = ctx.units()
    ratio = _char_sums(_ratio_terms(ctx, hs))
    mixed = _char_sums(_mixed_terms(ctx, hs))
    err = np.abs(ratio - twisted_prefactor(ctx, hs)[None, :] * mixed).T  # rows h, columns t
    return error_check("ratio-kernel-char-sum", err, 1e-9,
                       lambda j, t: f"(h={int(hs[j])}, t={t})")


def envelope_check(ctx: FieldCtx) -> CheckResult:
    """Every grid sum within the proven bound min(3 sqrt(q), q - 3)."""
    report = weil_scan(ctx)
    bound = envelope(ctx.q)
    passed = report.max_abs_sum <= bound + 1e-9
    first = None
    if not passed:
        first = (
            f"(t={report.argmax_t}, lambda={report.argmax_lambda}) "
            f"|sum|={report.max_abs_sum:.6f} > {bound:.6f}"
        )
    return CheckResult(
        "weil-envelope",
        passed,
        report.grid_count,
        report.max_abs_sum,
        first,
        data={"max_ratio": report.max_ratio, "below_sanity_floor": report.below_sanity_floor,
              "orbit_rows": report.orbit_rows},
    )
