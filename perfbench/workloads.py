"""The four workloads: the qprog command lines each round runs, in order.

A round is one pass over a workload's operations.  The benchmark seed goes
to qprog's ``--seed`` wherever a command draws random inputs; the field
sizes and trial counts never depend on it, so every round does the same
amount of work whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

CAP = 10_000  # qprog's default --cap; decides which extension fields a suite builds

LADDER_Q = (3, 5, 7, 9, 11, 13, 17, 19, 25, 27, 49)
SUITES = ("kernels", "fourier", "operators", "weil", "constructions")
LADDER_TRIALS = 50

DENSE = (3, 7)  # F_{3^7}, q = 2187
DENSE_DELTA_TRIALS = 4
DENSE_FOURIER_TRIALS = 8

SLICES_Q = (121, 125, 127)

LINE_P = 97  # the line lives in F_{97^2}, Q = 9409
GREEDY_P = 4999

NAMES = ("verify-ladder", "dense-2187", "slices-mid", "cap-certify")


@dataclass(frozen=True)
class Op:
    """One qprog invocation and what the benchmark checks about its reports."""

    argv: tuple[str, ...]
    kind: str  # which check in checks.py applies
    qs: tuple[int, ...]  # the fields the command names
    params: tuple = ()

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    s = 0
    while q % p == 0:
        q //= p
        s += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, s


def ops(workload: str, seed: int) -> list[Op]:
    seed_arg = ("--seed", str(seed))
    if workload == "verify-ladder":
        out = []
        for q in LADDER_Q:
            p, s = prime_power(q)
            for suite in SUITES:
                argv = ("verify", suite, "--p", str(p), "--s", str(s),
                        "--trials", str(LADDER_TRIALS), *seed_arg)
                out.append(Op(argv, "verify", (q,), (suite, LADDER_TRIALS)))
        return out
    if workload == "dense-2187":
        p, s = DENSE
        q = p**s
        return [
            Op(("scan", "weil", "--q-list", str(q)), "weil", (q,)),
            Op(("scan", "delta", "--q-list", str(q), "--trials", str(DENSE_DELTA_TRIALS),
                *seed_arg, "--format", "both"), "delta", (q,), (DENSE_DELTA_TRIALS,)),
            Op(("verify", "fourier", "--p", str(p), "--s", str(s),
                "--trials", str(DENSE_FOURIER_TRIALS), *seed_arg),
               "verify", (q,), ("fourier", DENSE_FOURIER_TRIALS)),
        ]
    if workload == "slices-mid":
        qs = ",".join(str(q) for q in SLICES_Q)
        return [Op(("scan", "slices", "--q-list", qs, "--format", "both"), "slices", SLICES_Q)]
    if workload == "cap-certify":
        return [
            Op(("construct", "line", "--p", str(LINE_P)), "line", (LINE_P,)),
            Op(("construct", "greedy", "--p", str(GREEDY_P)), "greedy", (GREEDY_P,)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def fields(workload: str) -> list[tuple[int, int]]:
    """Every field a workload's commands build, base and extension fields."""
    if workload == "verify-ladder":
        out = []
        for q in LADDER_Q:
            p, s = prime_power(q)
            out += [(p, m * s) for m in (1, 2, 3) if q**m <= CAP]
    elif workload == "dense-2187":
        out = [DENSE]
    elif workload == "slices-mid":
        out = [prime_power(q) for q in SLICES_Q]
    elif workload == "cap-certify":
        out = [(LINE_P, 1), (LINE_P, 2), (GREEDY_P, 1)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return sorted(set(out))
