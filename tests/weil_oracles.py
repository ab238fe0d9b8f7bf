"""The all-rows Weil scan, kept as a test oracle.

``weil_scan_every_row`` sums one length-(q-1) FFT row of mixed sums per
lambda, every unit, in the blocks ``weil_scan`` uses, and keeps the whole
grid.  The package sums one row per orbit of lambda -> lambda^p and
lambda -> -lambda and reads the others as permutations; two-route tests
compare the two on small fields.
"""

from __future__ import annotations

import math

import numpy as np

from qprog.field import FieldCtx
from qprog.weil import _BLOCK_CELLS, WeilScanReport, _blocked_char_sums, _mixed_terms


def weil_scan_every_row(ctx: FieldCtx) -> WeilScanReport:
    """The scan with every lambda row summed: the maximum, the least (t, lambda)
    in code order within 1e-9 of it, and the full grid (rows t, columns lambda)."""
    q = ctx.q
    n = q - 1
    lams = ctx.units()
    grid = np.empty((n, n))
    for j0, sums in _blocked_char_sums(ctx, _mixed_terms, lams, _BLOCK_CELLS):
        grid[:, j0 : j0 + sums.shape[1]] = np.abs(sums)
    max_abs = float(grid.max())
    ts, js = np.nonzero(grid >= max_abs - 1e-9)
    first = np.lexsort((js, ts))[0]
    max_ratio = max_abs / math.sqrt(q)
    return WeilScanReport(
        q=q,
        grid_count=n * n,
        orbit_rows=n,
        max_abs_sum=max_abs,
        max_ratio=max_ratio,
        argmax_t=int(ts[first]),
        argmax_lambda=int(lams[js[first]]),
        below_sanity_floor=bool(max_ratio < 0.5),
        grid=grid,
    )
