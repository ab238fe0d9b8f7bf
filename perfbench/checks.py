"""Output checks, made apart from qprog: closed-form case counts, bounds the
method must obey, and recomputation with the benchmark's own arithmetic.

Each ``check_*`` function takes parsed report data and returns a list of
error strings (empty when the output is correct).  ``check_op`` reads the
reports one operation wrote and also returns how many cases they declare.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import gf
from workloads import CAP, Op, prime_power

TOL = 1e-9


def expected_verify_cases(suite: str, q: int, trials: int) -> dict[str, int | None]:
    """Check name -> number of cases, worked out from q (None: the greedy set's size)."""
    if suite == "kernels":
        return {
            "quad-kernel-equivalence": q * q,
            "pair-kernel-equivalence": (q - 1) * (q - 2) ** 2,  # h != 0; y, z outside {0, -h}
            "twisted-decomposition": (q - 1) * (q - 3) ** 2,  # Y, Z outside {0, h/2, -h/2}
        }
    if suite == "fourier":
        return {
            "additive-orthogonality": q,
            "multiplicative-orthogonality": q - 1,
            "parseval-both-conventions": 2 * trials,
            "transform-round-trip": 2 * trials,
            "gauss-unit-modulus": 1,
        }
    if suite == "operators":
        return {
            "averaging-two-routes": trials,
            "slice-expansion-identity": trials,
            "slice-point-mass-modulus": q,
        }
    if suite == "weil":
        out = {"weil-envelope": (q - 1) ** 2}
        if q <= 49:
            out["substitution-identity"] = (q - 1) ** 2
            out["ratio-kernel-char-sum"] = (q - 1) ** 2
        out["scan-term-count"] = q - 3
        return out
    if suite == "constructions":
        out = {"greedy-certified": None}
        if q**2 <= CAP:
            out["line-certified"] = q
        if q**3 <= CAP:
            out["plane-census"] = q * q + q + 1
        return out
    raise ValueError(f"unknown suite {suite!r}")


def _field_errors(desc: dict, q: int) -> list[str]:
    if int(desc["p"]) ** int(desc["s"]) != q:
        return [f"report names field p={desc['p']} s={desc['s']}, expected q={q}"]
    return []


def check_verify(report: dict, suite: str, q: int, trials: int) -> list[str]:
    errors = _field_errors(report["manifest"]["fields"][0], q)
    if report.get("passed") is not True:
        errors.append(f"report did not pass: {report.get('first_failure')}")
    checks = report["suites"].get(suite, [])
    expected = expected_verify_cases(suite, q, trials)
    names = [c["name"] for c in checks]
    if names != list(expected):
        errors.append(f"checks {names}, expected {list(expected)}")
    for c in checks:
        if c["passed"] is not True:
            errors.append(f"{c['name']} failed: {c.get('first_failure')}")
        want = expected.get(c["name"])
        if c["name"] == "greedy-certified":
            size = c["data"]["size"]
            if c["cases"] != size or not 1 <= size <= q:
                errors.append(f"greedy-certified: cases {c['cases']}, size {size}, q {q}")
        elif c["cases"] != want:
            errors.append(f"{c['name']}: cases {c['cases']}, expected {want}")
        if c["name"] == "plane-census":
            d = c["data"]
            if (d["total"], d["containing_one"], d["avoiding_one"]) != (q * q + q + 1, q + 1, q * q):
                errors.append(f"plane census counts {d}")
            if d["bad"] + d["good"] != q * q or d["good"] < 1:
                errors.append(f"plane census bad + good != q^2: {d}")
    return errors


def check_weil(report: dict, seed: int, extra_points: int = 4) -> list[str]:
    """The Weil bound, and the reported maximum recomputed in our own F_q."""
    desc = report["manifest"]["fields"][0]
    summary = report["summary"]
    p, s = int(desc["p"]), int(desc["s"])
    q = p**s
    errors = []
    bound = min(3.0, (q - 3) / math.sqrt(q))
    if not summary["max_ratio"] <= bound + TOL:
        errors.append(f"max_ratio {summary['max_ratio']} above min(3, (q-3)/sqrt(q)) = {bound}")
    if abs(summary["max_ratio"] - summary["max_abs_sum"] / math.sqrt(q)) > TOL:
        errors.append("max_ratio != max_abs_sum / sqrt(q)")
    f = gf.GF(p, desc["modulus"], desc["generator"])
    t, lam = int(summary["argmax_t"]), int(summary["argmax_lambda"])
    if not (0 <= t < q - 1 and 0 < lam < q):
        return errors + [f"argmax (t={t}, lambda={lam}) outside the grid"]
    got = abs(gf.mixed_sum(f, t, lam))
    if abs(got - summary["max_abs_sum"]) > TOL:
        errors.append(f"|S(t={t}, lambda={lam})| = {got!r}, report says {summary['max_abs_sum']!r}")
    rng = np.random.default_rng(seed)
    for _ in range(extra_points):
        t, lam = int(rng.integers(0, q - 1)), int(rng.integers(1, q))
        if abs(gf.mixed_sum(f, t, lam)) > summary["max_abs_sum"] + TOL:
            errors.append(f"|S(t={t}, lambda={lam})| exceeds the reported maximum")
    return errors


def check_delta(summary: dict, rows: list[dict], q: int, trials: int) -> list[str]:
    """Every deviation ratio lies in (0, 1]: |K(a, b)| = q^{-1/2} for b != 0, so
    Young's inequality and Parseval bound it by 1."""
    errors = []
    ratios = [float(r["ratio"]) for r in rows]
    if len(ratios) != 2 * trials:
        errors.append(f"{len(ratios)} delta trials, expected {2 * trials}")
    bad = [r for r in ratios if not 0.0 < r <= 1.0 + TOL]
    if bad:
        errors.append(f"deviation ratios outside (0, 1]: {bad[:3]}")
    if ratios and abs(max(ratios) - summary["max_ratio"]) > TOL:
        errors.append(f"max_ratio {summary['max_ratio']} != max over trials {max(ratios)}")
    if abs(summary["ratio_times_q_delta"] - summary["max_ratio"] * q**0.25) > TOL:
        errors.append("ratio_times_q_delta != max_ratio * q^(1/4)")
    return errors


def check_slices(summary: dict, rows: list[dict], q: int) -> list[str]:
    """norm * sqrt(q) in [1, sqrt(q-2)]: every live entry of T_h has modulus 1/q
    on q-2 columns (column norm below, Frobenius norm above).  For prime q the
    norm at h = 1 and at the argmax h is recomputed from a brute-force K."""
    errors = []
    hs = [int(r["h"]) for r in rows]
    norms = [float(r["norm"]) for r in rows]
    if hs != list(range(1, q)):
        errors.append(f"q={q}: slices h = {hs[:3]}..., expected 1..{q - 1}")
    hi = math.sqrt(q - 2)
    out = [(h, n * math.sqrt(q)) for h, n in zip(hs, norms) if not 1 - TOL <= n * math.sqrt(q) <= hi + TOL]
    if out:
        errors.append(f"q={q}: norm*sqrt(q) outside [1, {hi:.6f}] at (h, value) {out[:3]}")
    if not norms:
        return errors + [f"q={q}: no slice norms"]
    if abs(max(norms) - summary["max_norm"]) > TOL:
        errors.append(f"q={q}: max_norm {summary['max_norm']} != max over slices {max(norms)}")
    if prime_power(q)[1] == 1:
        K = gf.quad_kernel_prime(q)
        h_max = hs[int(np.argmax(norms))]
        for h in sorted({1, h_max}):
            want = gf.sliced_norm_prime(K, h)
            got = norms[hs.index(h)] if h in hs else float("nan")
            if not abs(got - want) <= TOL:
                errors.append(f"q={q}: ||T_{h}|| = {got!r}, brute force gives {want!r}")
    return errors


def check_line(report: dict, p: int) -> list[str]:
    """A line of F_{p^2}: p elements, closed under addition, no y != 0 with y^2
    in the set.  A subgroup S with y^2 outside S for every nonzero y in S is
    progression-free: x, x+y, x+y^2 in S would put y and y^2 in S."""
    desc = report["set"]["field"]
    if (int(desc["p"]), int(desc["s"])) != (p, 2):
        return [f"line lives in p={desc['p']} s={desc['s']}, expected F_{p}^2"]
    f = gf.GF(p, desc["modulus"], desc["generator"])
    codes = np.asarray(report["set"]["codes"], dtype=np.int64)
    errors = []
    if len(np.unique(codes)) != len(codes) or len(codes) != p or report["size"] != len(codes):
        errors.append(f"line has {len(np.unique(codes))} distinct codes (size {report['size']}), expected {p}")
    if codes.min() < 0 or codes.max() >= f.q:
        return errors + ["line code out of range"]
    member = np.zeros(f.q, dtype=bool)
    member[codes] = True
    if not member[f.add(codes[:, None], codes[None, :])].all():
        errors.append("line is not closed under addition")
    ys = codes[codes != 0]
    hits = ys[member[f.mul(ys, ys)]]
    if hits.size:
        errors.append(f"y = {int(hits[0])} and y^2 both lie on the line")
    return errors


def check_greedy(report: dict, p: int) -> list[str]:
    """No x, x+y, x+y^2 in the set with y != 0, tried on every pair x, x+y."""
    desc = report["set"]["field"]
    if (int(desc["p"]), int(desc["s"])) != (p, 1):
        return [f"greedy set lives in p={desc['p']} s={desc['s']}, expected F_{p}"]
    codes = np.asarray(report["set"]["codes"], dtype=np.int64)
    errors = []
    if len(np.unique(codes)) != len(codes) or report["size"] != len(codes) or len(codes) < 1:
        errors.append(f"greedy set size {report['size']} vs {len(codes)} codes")
    if codes.min() < 0 or codes.max() >= p:
        return errors + ["greedy code out of range"]
    member = np.zeros(p, dtype=bool)
    member[codes] = True
    x, z = codes[:, None], codes[None, :]
    y = (z - x) % p
    hit = member[(x + y * y) % p] & (y != 0)
    if hit.any():
        i, j = np.argwhere(hit)[0]
        errors.append(f"progression at x={int(codes[i])}, y={int((codes[j] - codes[i]) % p)}")
    return errors


# ---------------------------------------------------------------------------
# reading an operation's reports
# ---------------------------------------------------------------------------


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_op(op: Op, out: Path, seed: int) -> tuple[list[str], int]:
    """Errors in the reports ``op`` wrote under ``out``, and the cases they declare."""
    if op.kind == "verify":
        (q,) = op.qs
        p, s = prime_power(q)
        suite, trials = op.params
        report = _json(out / f"verify-{p}-{s}.json")
        cases = sum(c["cases"] for c in report["suites"].get(suite, []))
        return check_verify(report, suite, q, trials), cases
    if op.kind == "weil":
        (q,) = op.qs
        p, s = prime_power(q)
        return check_weil(_json(out / f"scan-weil-{p}-{s}.json"), seed), 0
    if op.kind == "delta":
        (q,) = op.qs
        p, s = prime_power(q)
        name = f"scan-delta-{p}-{s}"
        summary = _json(out / f"{name}.json")["summary"]
        return check_delta(summary, _csv(out / f"{name}.csv"), q, *op.params), 0
    if op.kind == "slices":
        errors, cases = [], 0
        for q in op.qs:
            p, s = prime_power(q)
            name = f"scan-slices-{p}-{s}"
            rows = _csv(out / f"{name}.csv")
            errors += check_slices(_json(out / f"{name}.json")["summary"], rows, q)
            cases += len(rows)
        return errors, cases
    if op.kind in ("line", "greedy"):
        (p,) = op.qs
        report = _json(out / f"construct-{op.kind}-{p}-1.json")
        check = check_line if op.kind == "line" else check_greedy
        return check(report, p), int(report["size"])
    raise ValueError(f"unknown check kind {op.kind!r}")
