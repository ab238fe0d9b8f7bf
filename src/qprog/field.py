"""Finite fields F_{p^s} of odd characteristic, backed by dense integer tables.

Field elements are plain integer codes in ``0..q-1``.  The base-p digits of a
code are the coefficients of the representative polynomial, constant term
first; code 0 is the additive identity and code 1 the multiplicative one.

Construction is fully deterministic so that every table is reproducible
bit-for-bit across runs and machines:

* the modulus is the monic irreducible polynomial of degree s whose
  non-leading coefficient code is smallest (for s=1 this degenerates to X),
* the generator is the smallest code of multiplicative order q-1,
* the exp table is built by doubling: the digits of g^L..g^{2L-1} are those
  of 1..g^{L-1} times the L-th power of the s x s matrix of x -> g x.

Multiplication is one gather, exp_ext[log0[a] + log0[b]], from discrete-log
tables padded so that neither a reduction mod q-1 nor a test for zero is
needed; inversion and powers run through the plain log/exp tables.  Addition
is one gather too, wrapped[offset[a] + offset[b]], from the code tensor
wrapped once along each digit axis, so digit sums need no reduction mod p.
``add_rows`` gives whole rows s + x over every x at once, as windows of the
same wrapped tensor; no q x q table is held at any q.  The
arithmetic is written once, in the vectorised methods (``add_vec`` etc.),
which accept numpy integer arrays and broadcast; the scalar methods call them
on single codes.  Per-field tables are built once, by ``per_field``.

``subfield_embed`` embeds F_q in a quadratic or cubic extension.  It finds
the image of the generator by the defining property of a field embedding
(a power map that commutes with x -> x + 1), not by solving for a minimal
polynomial; that older route is kept in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

# Largest field materialised by default.  It bounds q, not the work: in
# q = |F|, the exhaustive routes cost
#   mul_vec, one gather per product (tables of 5q words)            1 per product
#   add_vec, one gather per sum (a tensor of (2p-1)^s ints)         1 per sum
#   e(a b), one phase-table gather (4q complex)                     1 per phase
#   add_rows, windows of add_vec's wrapped tensor                   1 per code
#   square_rows, rows (u + j)^2 - j by offset gathers               3 per code
#   log/exp tables by doubling (s x s matrix powers)                q s^2
#   fourier, mult_fourier and their inverses (FFTs)                 q log q
#   fourier_checks (orthogonality; up to 8 seeded trials a pass)    q^2, and q log q per trial
#   averaging_apply, deviation_norm (a BLAS product per block)      q^2
#   deviation_scan (8 pairs a pass share index rows and K phases)   q^2 per pair
#   alternating_max_ratio (4 x rounds steps, 8 starts in lock step) q^2 per step and start
#   averaging_checks (8 pairs a pass, FFT per block of rows)        q^2 log q per pair
#   quad_kernel_check (rows of K, FFT per row)                      q^2 log q
#   substitution_check, ratio_sum_check (FFT grids)                 q^2 log q
#   weil_scan (one FFT row per orbit of lambda, >= (q-1)/2s rows)   q^2 log q / s
#   sliced_norm_scan (as weil_scan, <= 5 O(q) secular steps/orbit)  q^2 log q / s
#   pair_kernel_checks (one Gram grid per h serves both checks)     q^4
#   count_progressions on a set A                                   |A|^2
#   greedy_progression_free (32 candidates a call, each once)       q |A|
#   plane_census over F_{q^3} (witness y counted at span(y, y^2))   q^3
DESK_CAP = 10_000

# cells in one block of rows by default: fourier_checks' orthogonality sums and
# trial batches, the kernel rows, the deviation's coefficient rows (at least 8
# rows; its f2-side adjoint and the slice pass read them too) and the plane
# search.  It bounds the memory of the matrix-free passes: at q = 729 one
# alternating start peaked at 1.1 MB traced, 4.3 MB in 2^16 cells, while 8
# pairs' coefficients at q = 2187 (2 vCPU) took 0.12-0.19 s in either
ROW_BLOCK_CELLS = 1 << 14

# freeing one 4 MiB block raises glibc's mmap threshold (mallopt(3)) over every
# blocked pass's temporaries, once per process, so they reuse heap pages, not
# fresh mappings: at q = 9973 quad_kernel_check took 0.8 K minor faults, not 4.0 M
np.empty(1 << 22, np.uint8)


def row_blocks(n: int, width: int, cells: int | None = None):
    """Slices of max(1, min(n, cells // width)) rows over range(n), in order;
    ``cells`` is ROW_BLOCK_CELLS, read at the call, unless given."""
    step = max(1, min(n, (ROW_BLOCK_CELLS if cells is None else cells) // max(width, 1)))
    for i in range(0, n, step):
        yield slice(i, min(i + step, n))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs only)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == {n: 1}


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^s; raises ValueError if q is not a prime power."""
    f = factorize(q)
    if len(f) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, s),) = f.items()
    return p, s


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p (little-endian coefficient lists).  Only used
# during field construction; all later arithmetic goes through tables.
# ---------------------------------------------------------------------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    a = a[:]
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        k = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(m):
            a[i + k] = (a[i + k] - factor * c) % p
        _trim(a)
    return a


def _poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, m, p)


def _poly_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a[:], m, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a = _poly_mod(a, b, p)
        a, b = b, a
    return a


def _is_irreducible(m: list[int], p: int) -> bool:
    """Degree-s monic m is irreducible iff gcd(m, X^{p^i} - X) = 1 for i <= s/2."""
    s = len(m) - 1
    if s == 1:
        return True
    h = [0, 1]  # X
    for _ in range(s // 2):
        h = _poly_powmod(h, p, m, p)
        diff = h[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(m, diff, p)
        if len(g) > 1:
            return False
    return True


def _smallest_irreducible(p: int, s: int) -> list[int]:
    if s == 1:
        return [0, 1]  # X
    for code in range(p**s):
        coeffs = _digits_int(code, p, s) + [1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible polynomial of degree {s} over F_{p}")  # unreachable


def _digits_int(code: int, p: int, s: int) -> list[int]:
    out = []
    for _ in range(s):
        out.append(code % p)
        code //= p
    return out


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------


def per_field(key: str):
    """Decorator: build ``f(ctx)`` once per field and keep it in ``ctx._cache[key]``."""

    def decorate(build):
        @wraps(build)
        def cached(ctx):
            if key not in ctx._cache:
                ctx._cache[key] = build(ctx)
            return ctx._cache[key]

        return cached

    return decorate


def check_field_params(p: int, s: int, cap: int = DESK_CAP) -> int:
    """Validate (p, s) against odd characteristic and the cap; return q.

    Raises the ValueError that building the field would raise, without
    building it.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p == 2:
        raise ValueError("characteristic 2 is not supported (odd characteristic required)")
    if s < 1:
        raise ValueError(f"extension degree must be >= 1, got {s}")
    q = p**s
    if q > cap:
        raise ValueError(f"q = {p}^{s} = {q} exceeds the desk-scale cap {cap}")
    return q


class FieldCtx:
    """A fully materialised finite field F_{p^s} of odd characteristic.

    Immutable after construction (lazy caches aside); safe to share across
    workers.  Use :func:`build_field` or :func:`get_field` instead of
    constructing directly.
    """

    def __init__(self, p: int, s: int, cap: int = DESK_CAP):
        q = check_field_params(p, s, cap)

        self.p = p
        self.s = s
        self.q = q
        self._cache: dict = {}
        self.modulus: tuple[int, ...] = tuple(_smallest_irreducible(p, s))
        self._pow_p = [p**i for i in range(s + 1)]

        self.g = self._find_generator()
        self._build_log_exp()
        self.neg_table = self.mul_vec(p - 1, self.elements())  # -1 has code p - 1
        self._build_trace()

    # -- construction helpers ------------------------------------------------

    def _find_generator(self) -> int:
        n = self.q - 1
        prime_divisors = list(factorize(n))
        m, p, s = list(self.modulus), self.p, self.s
        for c in range(2, self.q):
            digits = _trim(_digits_int(c, p, s))
            if all(_poly_powmod(digits, n // r, m, p) != [1] for r in prime_divisors):
                return c
        raise RuntimeError("no generator found")  # unreachable for a field

    def _build_log_exp(self) -> None:
        """exp[k] = g^k by doubling.  With M the s x s matrix over F_p of
        x -> g x on digit vectors, the digits of g^L, ..., g^{2L-1} are those
        of 1, ..., g^{L-1} times M^L, and M^{2L} = (M^L)^2."""
        n, p, s = self.q - 1, self.p, self.s
        g = _trim(_digits_int(self.g, p, s))
        step = np.zeros((s, s), dtype=np.int64)  # row i: the digits of X^i g
        for i in range(s):
            row = _poly_mulmod([0] * i + [1], g, list(self.modulus), p)
            step[i, : len(row)] = row
        digits = np.zeros((n, s), dtype=np.int64)
        digits[0, 0] = 1
        power, size = step, 1
        while size < n:
            k = min(size, n - size)
            digits[size : size + k] = (digits[:k] @ power) % p
            power, size = (power @ power) % p, 2 * size
        exp = digits @ np.array(self._pow_p[:s], dtype=np.int64)
        log = np.full(self.q, -1, dtype=np.int64)
        log[exp] = np.arange(n)
        if not np.array_equal((digits[-1] @ step) % p, digits[0]) or np.any(log[1:] < 0):
            raise RuntimeError("generator does not have full order")
        self.exp_table = exp
        self.log_table = log

    def _build_trace(self) -> None:
        """Tr(a) = a + a^p + ... + a^{p^(s-1)} for every code at once."""
        tr = conj = self.elements()
        for _ in range(self.s - 1):
            conj = self.pow_vec(conj, self.p)
            tr = self.add_vec(tr, conj)
        if np.any(tr >= self.p):
            raise RuntimeError("trace left the prime field")
        self.trace_table = tr

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_vec(a, b))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, int(self.neg_table[b]))

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_vec(a, b))

    def inv(self, a: int) -> int:
        return int(self.inv_vec(a))

    def div(self, a: int, b: int) -> int:
        return int(self.div_vec(a, b))

    def pow(self, a: int, k: int) -> int:
        return int(self.pow_vec(a, k))

    def from_int(self, n: int) -> int:
        """Code of the constant n*1 (image of the integer in the prime field)."""
        return n % self.p

    def trace(self, a: int) -> int:
        """Trace down to the prime field, as a residue in 0..p-1."""
        return int(self.trace_table[a])

    def elements(self) -> np.ndarray:
        return np.arange(self.q, dtype=np.int64)

    def units(self) -> np.ndarray:
        return np.arange(1, self.q, dtype=np.int64)

    def codes_outside(self, *excluded: int) -> np.ndarray:
        """Every code not in ``excluded``, ascending."""
        codes = self.elements()
        return codes[~np.isin(codes, excluded)]

    # -- vectorised arithmetic -------------------------------------------------

    @per_field("add_gather")
    def _add_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(wrapped, offset) with a + b = wrapped[offset[a] + offset[b]]: ``wrapped``
        is the code tensor by digit (axis j the digit of p^(s-1-j)) wrapped once
        along each axis and flattened, (2p - 1)^s ints, 160 KB at q = 9973, and
        ``offset[c]`` the flat index of c's digits, so digit sums need no mod p."""
        digits = (self.p,) * self.s
        wrapped = np.pad(np.arange(self.q, dtype=np.intp).reshape(digits), (0, self.p - 1), "wrap")
        offset = np.ravel_multi_index(np.unravel_index(self.elements(), digits), wrapped.shape)
        return wrapped.ravel(), offset

    def add_vec(self, a, b) -> np.ndarray:
        wrapped, offset = self._add_gather()
        at = offset[a] + offset[b]
        # Arrays gather in place, into their index array ("clip": "raise" buffers a copy).
        # A second result-sized array is re-faulted per call: 4.1 ms, not 1.2 (256 x 2187, 2 vCPU).
        return wrapped.take(at, out=at, mode="clip") if at.ndim else wrapped[at]

    def add_rows(self, shifts) -> np.ndarray:
        """out[i, x] = shifts[i] + x for every code x, as intp codes: the
        windows of the wrapped code tensor at the shifts' digits (c + x sits
        at x's digits past c's)."""
        shifts = np.asarray(shifts, dtype=np.int64)
        wrapped = self._add_gather()[0].reshape((2 * self.p - 1,) * self.s)
        shape = (self.p,) * self.s  # the windows, a view built per call (no q^2 cache)
        windows = np.ndarray(shape * 2, np.intp, wrapped, 0, wrapped.strides * 2)
        return windows[np.unravel_index(shifts, shape)].reshape(len(shifts), self.q)

    @per_field("square_gather")
    def _square_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """(sq_offset, neg_offset): the add gather's offsets of c^2 and of -c at every code c."""
        offset = self._add_gather()[1]
        return offset[self._squares()], offset[self.neg_table]

    def square_rows(self, shifts, out: np.ndarray) -> np.ndarray:
        """out[i, j] = (shifts[i] + j)^2 - j for every code j, in the intp buffer ``out``
        (with x = -j, the rows x + (u - x)^2 at u = shifts[i]), by in-place gathers."""
        wrapped, offset = self._add_gather()
        sq_offset, neg_offset = self._square_gather()
        at = np.add(offset[np.asarray(shifts, dtype=np.int64), None], offset, out=out)
        wrapped.take(at, out=at, mode="clip")  # u + j
        sq_offset.take(at, out=at, mode="clip")
        at += neg_offset
        return wrapped.take(at, out=at, mode="clip")

    def neg_vec(self, a) -> np.ndarray:
        return self.neg_table[np.asarray(a, dtype=np.int64)]

    def sub_vec(self, a, b) -> np.ndarray:
        return self.add_vec(a, self.neg_vec(b))

    @per_field("mul_tables")
    def _mul_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log0, exp_ext) with mul(a, b) = exp_ext[log0[a] + log0[b]]: log0 is
        the log table with log0[0] = 2(q-1), exp_ext the exp table twice over
        and then zeros up to index 4(q-1), where any product with 0 lands."""
        n = self.q - 1
        log0 = self.log_table.copy()
        log0[0] = 2 * n
        exp_ext = np.concatenate([self.exp_table, self.exp_table, np.zeros(2 * n + 1, np.int64)])
        return log0, exp_ext

    @property
    def log0(self) -> np.ndarray:
        """The log table of the mul tables, with log0[0] = 2(q-1)."""
        return self._mul_tables()[0]

    def mul_vec(self, a, b) -> np.ndarray:
        log0, exp_ext = self._mul_tables()
        at = log0[np.asarray(a, dtype=np.int64)] + log0[np.asarray(b, dtype=np.int64)]
        # arrays gather in place into their fresh index array, as in add_vec
        return exp_ext.take(at, out=at, mode="clip") if at.ndim else exp_ext[at]

    @per_field("sq_table")
    def _squares(self) -> np.ndarray:
        codes = self.elements()
        return self.mul_vec(codes, codes)

    def sq_vec(self, a) -> np.ndarray:
        return self._squares()[np.asarray(a, dtype=np.int64)]

    def inv_vec(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def div_vec(self, a, b) -> np.ndarray:
        return self.mul_vec(a, self.inv_vec(b))

    def pow_vec(self, a, k: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if k == 0:
            return np.ones_like(a)
        if k < 0:
            return self.inv_vec(self.pow_vec(a, -k))
        out = self.exp_table[(self.log_table[a] * k) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    # -- serialization ----------------------------------------------------------

    def descriptor(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "modulus": list(self.modulus),
            "generator": self.g,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldCtx(p={self.p}, s={self.s}, q={self.q})"


def build_field(p: int, s: int, cap: int = DESK_CAP) -> FieldCtx:
    """Construct F_{p^s} with deterministic modulus and generator."""
    return FieldCtx(p, s, cap=cap)


@lru_cache(maxsize=None)
def get_field(p: int, s: int, cap: int = DESK_CAP) -> FieldCtx:
    """Cached field construction (contexts are immutable, sharing is safe)."""
    return build_field(p, s, cap)


@per_field("sqrt_pairs")
def sqrt_pairs(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """Square-root lookup: for each code d, the (up to two) codes y with y^2 = d.

    Returns arrays (r1, r2) of length q with -1 where no root exists; r1 < r2
    where both exist, and r2 = -1 when d = 0 (the only double root).
    """
    codes = ctx.elements()
    squares = ctx.sq_vec(codes)
    r1 = np.full(ctx.q, ctx.q, dtype=np.int64)
    r2 = np.full(ctx.q, -1, dtype=np.int64)
    np.minimum.at(r1, squares, codes)
    np.maximum.at(r2, squares, codes)
    r1[r1 == ctx.q] = -1
    r2[r2 == r1] = -1  # d = 0 and the nonsquares
    return r1, r2


# ---------------------------------------------------------------------------
# Subfield embeddings
# ---------------------------------------------------------------------------


@dataclass
class SubfieldEmbedding:
    """An embedding of F_q into F_{q^m} (m = 2 or 3).

    ``map_[a]`` is the big-field code of the image of small-field code a.
    The image is exactly the fixed set of the m-fold Frobenius x -> x^q.
    """

    small: FieldCtx
    big: FieldCtx
    map_: np.ndarray
    image_mask: np.ndarray  # bool, length big.q

    @property
    def degree(self) -> int:
        return self.big.s // self.small.s


def subfield_embed(small: FieldCtx, big: FieldCtx) -> SubfieldEmbedding:
    """Build the embedding F_q -> F_{q^m} for m in {2, 3}.

    The small generator g goes to the least code r among the units of the
    subfield (the codes G^{k(q^m-1)/(q-1)}) whose power map phi(g^k) = r^k,
    phi(0) = 0, satisfies phi(x + 1) = phi(x) + 1 for every x.  A
    multiplicative map with that property is additive, since
    phi(a + b) = phi(b) (phi(a/b) + 1), so phi is a field embedding and r is
    the least root in the big field of the minimal polynomial of g.
    """
    if small.p != big.p:
        raise ValueError("incompatible characteristics")
    m = big.s // small.s if small.s and big.s % small.s == 0 else 0
    if m not in (2, 3) or small.q**m != big.q:
        raise ValueError(
            f"big field must be a quadratic or cubic extension: got q={small.q}, Q={big.q}"
        )

    ks = np.arange(small.q - 1)
    successor = small.add_vec(small.elements(), 1)
    map_ = np.zeros(small.q, dtype=np.int64)
    for r in np.sort(big.exp_table[ks * ((big.q - 1) // (small.q - 1))]):
        map_[small.exp_table] = big.exp_table[(big.log_table[r] * ks) % (big.q - 1)]
        if np.array_equal(map_[successor], big.add_vec(map_, 1)):
            break
    else:
        raise RuntimeError("no unit of the subfield extends to an embedding")  # unreachable

    image_mask = np.zeros(big.q, dtype=bool)
    image_mask[map_] = True

    emb = SubfieldEmbedding(small, big, map_, image_mask)
    _check_embedding(emb)
    return emb


def _check_embedding(emb: SubfieldEmbedding) -> None:
    small, big, f = emb.small, emb.big, emb.map_
    if f[0] != 0 or f[1] != 1:
        raise RuntimeError("embedding must fix 0 and 1")
    if np.bincount(f, minlength=big.q).max() != 1:  # np.unique would import numpy.ma
        raise RuntimeError("embedding is not injective")
    # Frobenius-fixed image
    fixed = big.pow_vec(f, small.q)
    if not np.array_equal(fixed, f):
        raise RuntimeError("embedded image is not fixed by x -> x^q")
    # additive + multiplicative on every pair: q^2 <= Q cells, the size of one
    # table of the big field (a random sample would import numpy.random, 16 ms)
    a, b = small.elements()[:, None], small.elements()
    if not np.array_equal(f[small.add_vec(a, b)], big.add_vec(f[a], f[b])):
        raise RuntimeError("embedding is not additive")
    if not np.array_equal(f[small.mul_vec(a, b)], big.mul_vec(f[a], f[b])):
        raise RuntimeError("embedding is not multiplicative")
