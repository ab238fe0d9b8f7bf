"""qprog's benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

Run from the root of a source checkout; qprog is imported from its ``src``.
Each round of the workload runs in a fresh interpreter (worker.py) with
OpenBLAS, OpenMP and MKL held to one thread, and rounds repeat while the
next one is expected to end within ``--seconds``.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics (medians
over rounds); with ``--trace 1`` it holds the per-layer metrics.  See
README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import METRIC_UNITS  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
ROUND_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: with two threads on a two-core machine the same
    # weil_scan took 2.2 s on one run and 2.9 s on the next.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(workload: str, env: dict) -> float:
    """Median over fresh interpreters of import qprog + build_field for every field."""
    fields = [f"{p}:{s}" for p, s in workloads.fields(workload)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *fields],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(workload: str, seed: int, seconds: int, trace: bool, env: dict) -> list[dict]:
    """Whole rounds, each in a fresh worker, while the next is expected to fit."""
    scratch = OUT / f"{workload}-seed{seed}-pid{os.getpid()}"
    rounds = []
    t0 = perf_counter()
    try:
        while True:
            rdir = scratch / f"round{len(rounds)}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace)), str(rdir)],
                env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise SystemExit(f"{workload} round {len(rounds)} crashed:\n{proc.stderr[-4000:]}")
            rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            if trace:
                (OUT / "traces").mkdir(parents=True, exist_ok=True)
                name = f"{workload}-seed{seed}-round{len(rounds) - 1}.npz"
                shutil.move(str(rdir / "spans.npz"), str(OUT / "traces" / name))
            elapsed = perf_counter() - t0
            if elapsed + elapsed / len(rounds) > seconds:
                return rounds
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = child_env()
    setup = None if trace else setup_seconds(workload, env)
    rounds = run_rounds(workload, seed, seconds, trace, env)

    errors = [e for r in rounds for e in r["errors"]]
    failures = [f for r in rounds for f in r["failures"]]
    for line in sorted(set(failures)) + errors:
        print(f"{workload}: {line}", file=sys.stderr)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    walls = ", ".join(f"{r['wall_s']:.3f}" for r in rounds)
    print(f"{workload}: {len(rounds)} rounds, {'traced ' if trace else ''}wall_s {walls}")
    if trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in METRIC_UNITS.items()
        }
    else:
        metrics = {
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
            "cases_checked": {"value": median("cases_checked"), "unit": "count"},
        }
    return {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qprog" / "__init__.py").is_file():
        print(f"error: no qprog sources at {SRC}; run from a qprog checkout", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
