"""Field helpers that only the tests use, kept as oracles.

``add_digitwise`` adds by s passes of digit arithmetic mod p, bypassing
the wrapped tensor of ``add_vec`` and ``add_rows``.  ``mul_direct`` multiplies by
polynomial arithmetic modulo the modulus,
bypassing the log/exp tables; ``exp_table_by_loop`` builds the exp table
with it, one power of the generator at a time (the package doubles by
matrix powers instead).  ``min_poly_embedding_map`` finds the subfield
embedding by the older route: the minimal polynomial of the small generator
over F_p, solved by Gaussian elimination mod p, then its least root among
the subfield's codes.  ``cubic_min_poly`` reads the minimal polynomial of an
element of a cubic extension off its Frobenius conjugates.
"""

from __future__ import annotations

import numpy as np

from qprog.field import FieldCtx, SubfieldEmbedding, _digits_int, _poly_mulmod, _trim, get_field


def add_digitwise(ctx: FieldCtx, a, b) -> np.ndarray:
    """Reference sum on broadcast code arrays, one base-p digit at a time."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for pi in ctx._pow_p[: ctx.s]:
        out += (((a // pi) + (b // pi)) % ctx.p) * pi
    return out


def mul_direct(ctx: FieldCtx, a: int, b: int) -> int:
    """Reference product bypassing the log/exp tables."""
    pa = _trim(_digits_int(a, ctx.p, ctx.s))
    pb = _trim(_digits_int(b, ctx.p, ctx.s))
    prod = _poly_mulmod(pa, pb, list(ctx.modulus), ctx.p)
    code = 0
    for c in reversed(prod):
        code = code * ctx.p + c
    return code


def exp_table_by_loop(ctx: FieldCtx) -> np.ndarray:
    """g^k for k = 0..q-2, one polynomial product per power."""
    exp = np.zeros(ctx.q - 1, dtype=np.int64)
    x = 1
    for k in range(ctx.q - 1):
        exp[k] = x
        x = mul_direct(ctx, x, ctx.g)
    return exp


def field_from_descriptor(d: dict) -> FieldCtx:
    """Rebuild a field from its JSON descriptor, checking for drift."""
    ctx = get_field(int(d["p"]), int(d["s"]))
    if list(ctx.modulus) != list(d["modulus"]) or ctx.g != int(d["generator"]):
        raise ValueError("field descriptor does not match deterministic construction")
    return ctx


# ---------------------------------------------------------------------------
# subfield embedding by the minimal polynomial
# ---------------------------------------------------------------------------


def _solve_mod_p(rows: list[list[int]], target: list[int], p: int) -> list[int] | None:
    """Solve sum_i x_i * rows[i] = target over F_p, or None if inconsistent."""
    k, n = len(rows), len(target)
    # augmented matrix of the transposed system: n equations, k unknowns
    aug = [[rows[i][j] % p for i in range(k)] + [target[j] % p] for j in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, n) if aug[i][c] % p != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [(v * inv) % p for v in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(vi - f * vr) % p for vi, vr in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i][k] % p != 0:
            return None
    sol = [0] * k
    for row_idx, c in enumerate(pivots):
        sol[c] = aug[row_idx][k]
    # verify (guards against free variables picked as 0)
    for j in range(n):
        if sum(sol[i] * rows[i][j] for i in range(k)) % p != target[j] % p:
            return None
    return sol


def min_poly_over_prime(ctx: FieldCtx, a: int) -> list[int]:
    """Monic minimal polynomial of a over F_p, little-endian coefficients.

    Solved by Gaussian elimination mod p on the digit vectors of the powers
    of a; for a multiplicative generator the degree is exactly s.
    """
    p, s = ctx.p, ctx.s
    powers = [1]
    for _ in range(s):
        powers.append(ctx.mul(powers[-1], a))
    for deg in range(1, s + 1):
        # try to express a^deg in the span of a^0 .. a^{deg-1}
        rows = [_digits_int(powers[i], p, s) for i in range(deg)]
        target = _digits_int(powers[deg], p, s)
        sol = _solve_mod_p(rows, target, p)
        if sol is not None:
            return [(-c) % p for c in sol] + [1]
    raise RuntimeError("no minimal polynomial found")  # unreachable


def _eval_poly(ctx: FieldCtx, coeffs: list[int], x: int) -> int:
    """Evaluate a polynomial with prime-field coefficients at a field element."""
    acc = 0
    for c in reversed(coeffs):
        acc = ctx.add(ctx.mul(acc, x), c % ctx.p)
    return acc


def min_poly_embedding_map(small: FieldCtx, big: FieldCtx) -> np.ndarray:
    """map_[a] = image of a when the small generator goes to the least-code
    root of its minimal polynomial among the subfield's units."""
    step = (big.q - 1) // (small.q - 1)
    sub_codes = [int(big.exp_table[k * step]) for k in range(small.q - 1)]
    minpoly = min_poly_over_prime(small, small.g)
    r = min(x for x in sub_codes if _eval_poly(big, minpoly, x) == 0)
    map_ = np.zeros(small.q, dtype=np.int64)
    lr = int(big.log_table[r])
    for k in range(small.q - 1):
        map_[small.exp_table[k]] = big.exp_table[(lr * k) % (big.q - 1)]
    return map_


# ---------------------------------------------------------------------------
# cubic minimal polynomials
# ---------------------------------------------------------------------------


def cubic_min_poly(emb: SubfieldEmbedding, y: int) -> tuple[int, int, int]:
    """Coefficients (A, B, C) over F_q with y^3 = A y^2 + B y + C in F_{q^3}.

    Computed from the Frobenius conjugates y, y^q, y^{q^2} via elementary
    symmetric functions.  Requires y outside the embedded subfield; then the
    constant term C = Norm(y) is nonzero.
    """
    if emb.degree != 3:
        raise ValueError("cubic extension required")
    big, q = emb.big, emb.small.q
    if emb.image_mask[y]:
        raise ValueError("y lies in the subfield; its minimal polynomial has degree < 3")
    pull_back = {int(x): a for a, x in enumerate(emb.map_)}
    y1 = big.pow(y, q)
    y2 = big.pow(y1, q)
    e1 = big.add(big.add(y, y1), y2)
    e2 = big.add(big.add(big.mul(y, y1), big.mul(y, y2)), big.mul(y1, y2))
    e3 = big.mul(big.mul(y, y1), y2)
    A, B, C = pull_back[e1], pull_back[big.neg(e2)], pull_back[e3]
    if C == 0:
        raise RuntimeError("constant coefficient vanished for y outside the subfield")
    return A, B, C
