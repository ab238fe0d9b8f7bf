"""Finite-field arithmetic of the benchmark's own, for checking qprog's reports.

Nothing here imports qprog.  A field is rebuilt from the modulus and the
generator that a report records, with qprog's element coding: the base-p
digits of a code are the polynomial's coefficients, constant term first.
Products are reduced polynomial products, not qprog's log/exp tables.
"""

from __future__ import annotations

import math

import numpy as np


class GF:
    """F_{p^s} = F_p[X]/(modulus), elements as integer codes 0..q-1."""

    def __init__(self, p: int, modulus, generator: int):
        modulus = [int(c) for c in modulus]
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree >= 1, got {modulus}")
        self.p = p
        self.s = len(modulus) - 1
        self.q = p**self.s
        self.modulus = np.array(modulus, dtype=np.int64)
        self.pows = p ** np.arange(self.s, dtype=np.int64)
        self.g = int(generator)
        self._build_log()

    # -- coding ----------------------------------------------------------------

    def digits(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        return (a[..., None] // self.pows) % self.p

    def code(self, d: np.ndarray) -> np.ndarray:
        return (np.asarray(d, dtype=np.int64) % self.p) @ self.pows

    # -- arithmetic ------------------------------------------------------------

    def add(self, a, b) -> np.ndarray:
        return self.code(self.digits(a) + self.digits(b))

    def neg(self, a) -> np.ndarray:
        return self.code(-self.digits(a))

    def sub(self, a, b) -> np.ndarray:
        return self.code(self.digits(a) - self.digits(b))

    def mul(self, a, b) -> np.ndarray:
        """Schoolbook product of the digit polynomials, reduced by the modulus."""
        da, db = np.broadcast_arrays(self.digits(a), self.digits(b))
        s, p = self.s, self.p
        prod = np.zeros(da.shape[:-1] + (2 * s - 1,), dtype=np.int64)
        for i in range(s):
            prod[..., i : i + s] += da[..., i : i + 1] * db
        prod %= p
        for k in range(2 * s - 2, s - 1, -1):
            lead = prod[..., k : k + 1]
            prod[..., k - s : k + 1] -= lead * self.modulus
            prod %= p
        return self.code(prod[..., :s])

    def _build_log(self) -> None:
        """Powers of the generator; they must run through every unit once,
        which also proves that the modulus makes F_p[X]/(m) a field."""
        n = self.q - 1
        exp = np.zeros(n, dtype=np.int64)
        log = np.full(self.q, -1, dtype=np.int64)
        x = 1
        for k in range(n):
            if log[x] >= 0:
                raise ValueError(f"generator {self.g} has order {k} < q-1 = {n}")
            exp[k] = x
            log[x] = k
            x = int(self.mul(x, self.g))
        if x != 1 or log[0] != -1:
            raise ValueError(f"generator {self.g} does not have order q-1 = {n}")
        self.exp, self.log = exp, log

    def pow(self, a, k: int) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        out = self.exp[(self.log[a] * k) % (self.q - 1)]
        return np.where(a == 0, 0 if k else 1, out)

    def inv(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def trace(self, a) -> np.ndarray:
        """Tr(a) = a + a^p + ... + a^{p^{s-1}}, as a residue mod p."""
        acc = np.asarray(a, dtype=np.int64)
        conj = acc
        for _ in range(self.s - 1):
            conj = self.pow(conj, self.p)
            acc = self.add(acc, conj)
        if np.any(acc >= self.p):
            raise ValueError("trace left the prime field")
        return acc

    # -- characters ------------------------------------------------------------

    def e(self, a) -> np.ndarray:
        """The additive character exp(2 pi i Tr(a) / p)."""
        return np.exp(2j * math.pi * self.trace(a) / self.p)

    def chi(self, a) -> np.ndarray:
        """Quadratic character: +1 on nonzero squares, -1 on nonsquares, 0 at 0."""
        a = np.asarray(a, dtype=np.int64)
        return np.where(a == 0, 0, np.where(self.log[a] % 2 == 0, 1, -1))

    def eta(self, t: int, a) -> np.ndarray:
        """Multiplicative character eta_t(g^k) = exp(2 pi i t k / (q-1)) on units."""
        k = self.log[np.asarray(a, dtype=np.int64)]
        return np.exp(2j * math.pi * ((t * k) % (self.q - 1)) / (self.q - 1))


def mixed_sum(f: GF, t: int, lam: int) -> complex:
    """sum over r outside {0, 1, -1} of eta_t(r) chi(1 - r^2) e(lam (r-1)/(r+1))."""
    rs = np.arange(f.q, dtype=np.int64)
    minus_one = int(f.neg(1))
    rs = rs[(rs != 0) & (rs != 1) & (rs != minus_one)]
    chi_part = f.chi(f.sub(1, f.mul(rs, rs)))
    u = f.mul(f.sub(rs, 1), f.inv(f.add(rs, 1)))
    return complex((f.eta(t, rs) * chi_part * f.e(f.mul(lam, u))).sum())


def quad_kernel_prime(p: int) -> np.ndarray:
    """K[a, b] = (1/p) sum_y exp(2 pi i (a y + b y^2) / p) on F_p, by brute force."""
    a = np.arange(p, dtype=np.int64)
    K = np.zeros((p, p), dtype=complex)
    for y in range(p):
        K += np.exp(2j * math.pi * ((a[:, None] * y + a[None, :] * (y * y)) % p) / p)
    return K / p


def sliced_norm_prime(K: np.ndarray, h: int) -> float:
    """Spectral norm of T_h: K(u, v) conj(K(u-h, v+h)), columns v in {0, -h} zeroed."""
    p = K.shape[0]
    u = np.arange(p)
    M = K * K[np.ix_((u - h) % p, (u + h) % p)].conj()
    M[:, 0] = 0.0
    M[:, (-h) % p] = 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])
