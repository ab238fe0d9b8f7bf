#!/usr/bin/env python3
"""Run one command; print its wall time, peak RSS and minor page faults.

    python3 scripts/rusage.py --max-faults 50000 -- qprog scan weil --q-list 9973

The figures are the child's, from getrusage(RUSAGE_CHILDREN), printed as one
line on stderr.  The exit status is the command's, or 1 if the command
succeeded but took more than ``--max-faults`` minor faults.
"""

import argparse
import resource
import subprocess
import sys
from time import perf_counter


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-faults", type=int, help="fail above this many minor faults")
    parser.add_argument("command", nargs="+", help="the command and its arguments, after --")
    args = parser.parse_args(argv)
    t0 = perf_counter()
    status = subprocess.run(args.command).returncode
    wall = perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"{wall:.1f} s, {usage.ru_maxrss / 1024:.1f} MB peak RSS, {usage.ru_minflt} minor faults:"
          f" {' '.join(args.command)}", file=sys.stderr)
    if status == 0 and args.max_faults is not None and usage.ru_minflt > args.max_faults:
        print(f"error: {usage.ru_minflt} minor faults exceed {args.max_faults}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
