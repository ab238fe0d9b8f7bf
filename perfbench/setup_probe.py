"""Set-up time of a fresh interpreter: ``import qprog`` plus ``build_field``
for each field named on the command line as P:S.  Prints the seconds taken.

    python3 perfbench/setup_probe.py 3:7 97:2
"""

import sys
from time import perf_counter

t0 = perf_counter()
import qprog  # noqa: E402  (the import is what is being timed)

for arg in sys.argv[1:]:
    p, s = arg.split(":")
    qprog.build_field(int(p), int(s))
print(perf_counter() - t0)
