"""Time one fresh process's set-up: ``import opdiscord`` plus building a
workload's theories and composites.  Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import time

t0 = time.perf_counter()
import checkout  # noqa: E402  (stdlib only; opdiscord is imported inside the timed region)
import theories  # noqa: E402

theories.build(checkout.load_opdiscord(), sys.argv[1])
print(repr(time.perf_counter() - t0))
