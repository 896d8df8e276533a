"""Fixed reference work that measures how fast the host runs right now.

    python3 benchmarks/reference.py

A fresh interpreter that imports numpy, runs a fixed mix of vectorised numpy
work, float formatting and a plain Python loop, and prints a checksum.  It
never imports nmzi, so no change to the program can move its wall time; only
the host can.
``run.py`` times it between the CLI invocations and scales the end-to-end
timings by it.  Changing this file changes every host-adjusted figure, so it
is a change to the benchmark, not to the program.
"""

import numpy as np

rng = np.random.default_rng(12345)
# The CLI's kinds of work: vectorised numpy, floats rendered as text, and
# plain Python loops.
total = 0.0
for _ in range(150):
    total += float(rng.random(20_000).sum())
table = rng.random((3_000, 8)).tolist()
chars = 0
for _ in range(2):
    chars += len("\n".join(",".join(f"{v:.17g}" for v in row) for row in table))
count = 0
for i in range(500_000):
    count += i
print(f"{total:.6f} {chars} {count}")
