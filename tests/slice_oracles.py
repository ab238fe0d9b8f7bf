"""The dense slice norm, kept as a test oracle.

``sliced_operator_norm_svd`` takes the largest singular value of the q x q
slice matrix: O(q^3) per h, O(q^4) per scan.  The package computes the same
norms from the Weil sums; two-route tests compare the two on small fields.
"""

from __future__ import annotations

import numpy as np

from qprog.field import FieldCtx
from qprog.operators import sliced_operator_matrix


def sliced_operator_norm_svd(ctx: FieldCtx, h: int) -> float:
    """||T_h|| as the top singular value of ``sliced_operator_matrix(ctx, h)``."""
    return float(np.linalg.svd(sliced_operator_matrix(ctx, h), compute_uv=False)[0])
