"""One round of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py WORKLOAD SEED TRACE OUT_DIR

Runs every operation of the workload through ``qprog.cli.main``, each after
``get_field.cache_clear()`` so that it pays for field construction and the
lazy tables as a CLI invocation does, then checks the reports and prints
one JSON line.  With TRACE = 1 every public call is wrapped in a span.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads


def run_round(workload: str, seed: int, trace: bool, out: Path) -> dict:
    import qprog
    from qprog import cli, field

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(qprog.__file__).resolve().parents:
        raise SystemExit(f"qprog was imported from {qprog.__file__}, not from {src}")
    clear = field.get_field.cache_clear
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops = workloads.ops(workload, seed)
    wall = 0.0
    failures = []
    done = []
    for i, op in enumerate(ops):
        op_out = out / f"{i:02d}"
        clear()
        if tracer:
            tracer.begin_op()
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = cli.main([*op.argv, "--jobs", "1", "--out", str(op_out)])
        except Exception as exc:  # a crashing command is a failed operation
            status = f"{type(exc).__name__}: {exc}"
        wall += perf_counter() - t0
        if tracer:
            tracer.end_op()
        if status == 0:
            done.append((op, op_out))
        else:
            failures.append(f"{op.label}: {status} {sink.getvalue().strip()[-200:]}")
    clear()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"wall_s": wall, "peak_rss_mb": peak_mb, "attempted": len(ops), "failures": failures}
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / "spans.npz")
    errors, cases = [], 0
    for op, op_out in done:
        errs, n = checks.check_op(op, op_out, seed)
        errors += [f"{op.label}: {e}" for e in errs]
        cases += n
    result.update(cases_checked=cases, errors=errors)
    return result


def main(argv: list[str]) -> int:
    workload, seed, trace, out = argv
    result = run_round(workload, int(seed), trace == "1", Path(out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
