"""Command-line front end: verify / scan / construct with reproducible reports.

Exit codes: 0 = all assertions passed, 1 = an assertion failed,
2 = usage or precondition error (bad field parameters, cap exceeded, out of
memory, ...).

Reports are JSON (always) plus per-point CSV when --format is csv or both,
written under --out with stable names {command}-{p}-{s}.json.  Identical
invocations with the same seed reproduce identical payloads except for the
wall-time fields in the manifest.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import cache, partial
from pathlib import Path

from . import characters, constructions, kernels, operators, weil
from .field import check_field_params, get_field, prime_power, subfield_embed
from .reporting import (
    CheckResult,
    RunManifest,
    fit_slope_vs_logq,
    report_name,
    write_csv,
    write_json,
)

DEFAULT_Q_LIST = [3, 5, 7, 9, 11, 13, 25, 27, 49]


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_weil(ctx, args) -> list[CheckResult]:
    out = [weil.envelope_check(ctx)]
    if ctx.q <= 49:
        out += [weil.substitution_check(ctx), weil.ratio_sum_check(ctx)]
    rs = ctx.q - 3  # scanned terms per sum
    out.append(CheckResult("scan-term-count", True, rs, 0.0, data={"terms": rs}))
    return out


# ---------------------------------------------------------------------------
# constructions: one builder per kind, shared by verify and construct
# ---------------------------------------------------------------------------


def _build_greedy(ctx, cap: int):
    eset = constructions.greedy_progression_free(ctx)
    return eset, {"size": eset.size, "sqrt_q": math.sqrt(ctx.q)}


def _build_line(ctx, cap: int):
    emb = subfield_embed(ctx, get_field(ctx.p, 2 * ctx.s, cap))
    eset = constructions.quadratic_extension_line(emb)
    return eset, {"size": eset.size}


def _build_plane(ctx, cap: int):
    emb = subfield_embed(ctx, get_field(ctx.p, 3 * ctx.s, cap))
    census = constructions.plane_census(emb)
    eset = constructions.ElementSet(emb.big, census.good_example.mask)
    return eset, {
        "size": eset.size,
        "census": {
            "q": census.q,
            "total": census.total_planes,
            "containing_one": census.planes_containing_one,
            "avoiding_one": census.planes_avoiding_one,
            "bad": census.bad_count,
            "good": census.good_count,
            "min_bad_witnesses": census.min_bad_witnesses,
        },
        "basis": list(census.good_example.basis),
    }


# kind -> builder(small field, cap) -> (certified set, report fields); every
# builder certifies its set before returning it
_BUILDERS = {"greedy": _build_greedy, "line": _build_line, "plane": _build_plane}


def _suite_constructions(ctx, args) -> list[CheckResult]:
    greedy, extra = _build_greedy(ctx, args.cap)
    out = [CheckResult("greedy-certified", True, greedy.size, 0.0, data=extra)]
    if ctx.q**2 <= args.cap:
        line, _ = _build_line(ctx, args.cap)
        out.append(CheckResult("line-certified", line.size == ctx.q, line.size, 0.0))
    if ctx.q**3 <= args.cap:
        census = _build_plane(ctx, args.cap)[1]["census"]
        data = {k: census[k] for k in ("total", "containing_one", "avoiding_one", "bad", "good")}
        out.append(CheckResult("plane-census", True, census["total"], 0.0, data=data))
    return out


# suite -> checks(ctx, args); each check is stated in the module it checks
_SUITES = {
    "kernels": lambda ctx, args: [
        kernels.quad_kernel_check(ctx),
        kernels.pair_kernel_check(ctx),
        kernels.decomposition_check(ctx),
    ],
    "fourier": lambda ctx, args: characters.fourier_checks(ctx, args.seed, args.trials),
    "operators": lambda ctx, args: operators.averaging_checks(ctx, args.seed, args.trials),
    "weil": _suite_weil,
    "constructions": _suite_constructions,
}


def _verify_one_field(args, targets: list[str], field: tuple[int, int]):
    """Worker: run the selected suites on one field (picklable for --jobs);
    returns the field descriptor, the check results and the timings."""
    ctx = get_field(*field, args.cap)
    results = {}
    timings = {}
    for target in targets:
        t0 = time.perf_counter()
        checks = _SUITES[target](ctx, args)
        timings[target] = time.perf_counter() - t0
        results[target] = [asdict(c) for c in checks]
    return ctx.descriptor(), results, timings


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _parse_fields(args) -> list[tuple[int, int]]:
    """The (p, s) of every field the command runs on, each checked against
    the cap before any work fans out."""
    if args.p is not None:
        fields = [(args.p, args.s)]
    else:
        fields = [prime_power(q) for q in args.q_list or DEFAULT_Q_LIST]
    for p, s in fields:
        check_field_params(p, s, cap=args.cap)
    return fields


def _fan_out(worker, fields: list[tuple[int, int]], jobs: int) -> list:
    if jobs <= 1 or len(fields) <= 1:
        return [worker(f) for f in fields]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, fields))


def cmd_verify(args) -> int:
    targets = args.targets or list(_SUITES)
    unknown = [t for t in targets if t not in _SUITES]
    if unknown:
        raise ValueError(f"unknown verify targets {unknown}; choose from {list(_SUITES)}")
    fields = _parse_fields(args)
    reports = _fan_out(partial(_verify_one_field, args, targets), fields, args.jobs)

    all_passed = True
    for (p, s), (descriptor, results, timings) in zip(fields, reports):
        checks = [c for target in results.values() for c in target]
        failures = [c for c in checks if not c["passed"]]
        passed = not failures
        all_passed &= passed
        manifest = _manifest(args, "verify", [descriptor], timings)
        payload = {"manifest": manifest, "passed": passed, "suites": results}
        if failures:
            payload["first_failure"] = failures[0]
        out = args.out / report_name("verify", p, s)
        write_json(out, payload)
        if args.format in ("csv", "both"):
            rows = [(p**s, c["name"], c["cases"], c["max_err"], c["passed"]) for c in checks]
            write_csv(args.out / report_name("verify", p, s, "csv"),
                      ["q", "check", "cases_checked", "max_abs_error", "passed"], rows)
        status = "pass" if passed else f"FAIL ({failures[0]['name']}: {failures[0]['first_failure']})"
        print(f"verify p={p} s={s} q={p**s}: {status}")
    return 0 if all_passed else 1


def _scan_delta(ctx, args):
    rep = operators.deviation_scan(
        ctx, trials=args.trials, seed=args.seed, include_alternating=args.alternating
    )
    summary = {
        "q": ctx.q,
        "max_ratio": rep.max_ratio,
        "ratio_times_q_delta": rep.ratio_times_q_delta,
        "witness": rep.witness,
        "alternating_ratio": rep.alternating_ratio,
    }
    rows = [(ctx.q, k, i, r, r * ctx.q**0.25) for k, i, r in rep.per_trial]
    header = ["q", "kind", "trial", "ratio", "ratio_times_q_delta"]
    return summary, header, rows, rep.ratio_times_q_delta


def _scan_slices(ctx, args):
    rep = operators.sliced_norm_scan(ctx)
    summary = {
        "q": ctx.q,
        "max_norm": rep.max_norm,
        "max_norm_times_sqrt_q": rep.max_norm_times_sqrt_q,
    }
    rows = [(ctx.q, h + 1, n, n * math.sqrt(ctx.q)) for h, n in enumerate(rep.norms)]
    return summary, ["q", "h", "norm", "norm_times_sqrt_q"], rows, rep.max_norm_times_sqrt_q


def _scan_weil(ctx, args):
    rep = weil.weil_scan(ctx, keep_grid=args.format in ("csv", "both"))
    summary = {
        "q": ctx.q,
        "max_abs_sum": rep.max_abs_sum,
        "max_ratio": rep.max_ratio,
        "argmax_t": rep.argmax_t,
        "argmax_lambda": rep.argmax_lambda,
        "below_sanity_floor": rep.below_sanity_floor,
        "orbit_rows": rep.orbit_rows,
    }
    lams = ctx.units().tolist()
    rows = [] if rep.grid is None else (  # made as written: all at once took 777 MB at q = 2187
        (ctx.q, t, lam, a, a / math.sqrt(ctx.q))
        for t, sums in enumerate(rep.grid) for lam, a in zip(lams, sums.tolist())
    )
    return summary, ["q", "t", "lambda", "abs_sum", "ratio"], rows, rep.max_ratio


# kind -> scan(ctx, args) -> (summary, CSV header, CSV rows, cross-q trend
# value); every summary holds q
_SCANS = {"delta": _scan_delta, "slices": _scan_slices, "weil": _scan_weil}


def _scan_one_field(args, field: tuple[int, int]):
    """Worker: the field descriptor, the wall time, the summary and the trend
    value.  It writes the CSV itself, so that rows made one at a time are
    neither held nor sent back."""
    ctx = get_field(*field, args.cap)
    t0 = time.perf_counter()
    summary, header, rows, trend_value = _SCANS[args.kind](ctx, args)
    elapsed = time.perf_counter() - t0
    if args.format in ("csv", "both") and rows:
        write_csv(args.out / report_name(f"scan-{args.kind}", *field, "csv"), header, rows)
    return ctx.descriptor(), elapsed, summary, trend_value


def cmd_scan(args) -> int:
    fields = _parse_fields(args)
    reports = _fan_out(partial(_scan_one_field, args), fields, args.jobs)

    qs, trend = [], []
    for (p, s), (descriptor, elapsed, summary, trend_value) in zip(fields, reports):
        manifest = _manifest(args, f"scan-{args.kind}", [descriptor], {"scan": elapsed})
        write_json(args.out / report_name(f"scan-{args.kind}", p, s), {
            "manifest": manifest,
            "summary": summary,
        })
        qs.append(summary["q"])
        trend.append(trend_value)
        print(f"scan {args.kind} p={p} s={s} q={summary['q']}: {summary}")

    cross = {
        "kind": args.kind,
        "q": qs,
        "values": trend,
        "slope_vs_log_q": fit_slope_vs_logq(qs, trend),
    }
    if args.kind == "slices" and trend:
        cross["band_ratio"] = max(trend) / min(trend)
    write_json(args.out / f"scan-{args.kind}-summary.json", {
        "manifest": _manifest(args, f"scan-{args.kind}-summary",
                              [{"p": p, "s": s} for p, s in fields], {}),
        "cross_q": cross,
    })
    print(f"scan {args.kind} cross-q: {cross}")
    return 0


def cmd_construct(args) -> int:
    p, s = args.p, args.s
    small = get_field(p, s, args.cap)
    t0 = time.perf_counter()
    eset, extra = _BUILDERS[args.kind](small, args.cap)
    manifest = _manifest(args, f"construct-{args.kind}", [eset.ctx.descriptor()],
                         {"construct": time.perf_counter() - t0})
    payload = {"manifest": manifest, "certified": True, "set": eset.to_json(), **extra}
    out = args.out / report_name(f"construct-{args.kind}", p, s)
    write_json(out, payload)
    print(f"construct {args.kind} p={p} s={s}: size {eset.size}, certified, -> {out}")
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _manifest(args, command: str, fields: list[dict], timings: dict) -> dict:
    return asdict(RunManifest(
        command=command,
        fields=fields,
        seed=getattr(args, "seed", None),
        timings=timings,
    ))


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_common(parser: argparse.ArgumentParser) -> None:
    field = parser.add_mutually_exclusive_group()
    field.add_argument("--p", type=int, help="field characteristic")
    parser.add_argument("--s", type=int, help="extension degree of --p (default 1)")
    field.add_argument("--q-list", type=lambda v: [int(x) for x in v.split(",")],
                       help="comma-separated prime powers (verify and scan; not with --p)")
    parser.add_argument("--seed", type=int, default=1, help="RNG seed recorded in reports")
    parser.add_argument("--trials", type=_positive_int, default=50,
                        help="random trials per field (at least 1)")
    parser.add_argument("--jobs", type=_positive_int, default=1, help="parallel field workers")
    parser.add_argument("--out", type=Path, default=Path("reports"), help="output directory")
    parser.add_argument("--format", choices=("json", "csv", "both"), default="json")
    parser.add_argument("--cap", type=int, default=10_000, help="desk-scale field size cap")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse returns a
    fresh namespace, and ``main`` changes only the namespace."""
    parser = argparse.ArgumentParser(prog="qprog", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run exhaustive identity suites")
    pv.add_argument("targets", nargs="*", metavar="TARGET",
                    help=f"suites to run, from {', '.join(_SUITES)} (default: all)")
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("scan", help="cross-q scans with trend summaries")
    ps.add_argument("kind", choices=tuple(_SCANS))
    ps.add_argument("--alternating", action="store_true",
                    help="include alternating maximization in the delta scan")
    _add_common(ps)
    ps.set_defaults(func=cmd_scan)

    pc = sub.add_parser("construct", help="build and certify progression-free sets")
    pc.add_argument("kind", choices=tuple(_BUILDERS))
    _add_common(pc)
    pc.set_defaults(func=cmd_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "construct" and (args.p is None or args.q_list is not None):
        parser.error("construct builds on one field: it requires --p and does not take --q-list")
    if args.s is not None and args.p is None:
        parser.error("--s is the extension degree of --p: it needs --p, not --q-list")
    if getattr(args, "alternating", False) and args.kind != "delta":
        parser.error(f"--alternating applies to scan delta only, not scan {args.kind}")
    args.s = 1 if args.s is None else args.s
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        what = args.kind if args.command != "verify" else " ".join(args.targets or _SUITES)
        print(f"error: out of memory in {args.command} {what}: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
