#!/usr/bin/env python3
"""Time one large ``phi x psi`` sweep through the command line, per mode.

Runs the CLI once per mode on a ``--points x --points`` grid of ``phi`` and
``psi`` over [0, 2 pi], with both polarizers at pi/4 (the fig3 settings),
``analytic`` and ``montecarlo`` at 20 000 time bins.  The default is the
10**6-point sweep, 1001 x 1001 points.  Each run is a fresh process that
runs ``nmzi.cli`` as ``python -m nmzi.cli`` does (through ``runpy``) and,
at exit, reads its own peak resident size (``VmHWM``) from
``/proc/self/status``.  For each run it prints one line::

    mode=analytic rows=1002001 wall_s=3.412 vmhwm_mb=812.4 csv_bytes=254321456 sha256=...

``wall_s`` is the raw wall time of the whole process, interpreter start and
exit included; ``vmhwm_mb`` is left out where ``/proc`` is absent.  The CSV
is written to a temporary directory and removed.  ``nmzi`` must be
importable, e.g.::

    PYTHONPATH=src python3 scripts/large_sweep.py --points 1001
"""

import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
import time

MODES = ("analytic", "montecarlo")
BINS = 20_000

# The child: nmzi.cli as ``python -m`` runs it, with an exit hook that
# reports the process's own peak resident size on its last stderr line.
_CHILD = """
import atexit, runpy, sys

def report():
    try:
        with open("/proc/self/status") as status:
            peak = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    except OSError:
        peak = []
    if peak:
        sys.stderr.write(f"VmHWM_kB={peak[0]}\\n")

atexit.register(report)
runpy.run_module("nmzi.cli", run_name="__main__", alter_sys=True)
"""


def sweep_argv(mode: str, points: int, out: str) -> list[str]:
    step = 2.0 * math.pi / (points - 1)
    quarter = math.pi / 4.0
    argv = [
        mode,
        "--sweep", f"phi=0:{2.0 * math.pi!r}:{step!r}",
        "--sweep", f"psi=0:{2.0 * math.pi!r}:{step!r}",
        "--fix", f"xi={quarter!r}",
        "--fix", f"theta={quarter!r}",
        "--out", out,
    ]
    return argv + ["--bins", str(BINS)] if mode == "montecarlo" else argv


def run_once(mode: str, points: int, out_dir: str) -> str:
    out = os.path.join(out_dir, f"large_{mode}.csv")
    argv = [sys.executable, "-c", _CHILD, *sweep_argv(mode, points, out)]
    started = time.perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{mode} exited {done.returncode}: {done.stderr.strip()}")
    rows = int(re.match(r"wrote (\d+) grid points", done.stdout).group(1))
    if rows != points * points:
        raise SystemExit(f"{mode} wrote {rows} rows, expected {points * points}")
    digest = hashlib.sha256()
    with open(out, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    size = os.path.getsize(out)
    os.remove(out)
    fields = [f"mode={mode}", f"rows={rows}", f"wall_s={wall:.3f}"]
    peak = re.search(r"^VmHWM_kB=(\d+)$", done.stderr, re.MULTILINE)
    if peak:
        fields.append(f"vmhwm_mb={int(peak.group(1)) / 1024:.1f}")
    fields += [f"csv_bytes={size}", f"sha256={digest.hexdigest()}"]
    return " ".join(fields)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=1001, help="grid points per axis")
    args = parser.parse_args()
    if args.points < 2:
        parser.error("--points must be at least 2")
    with tempfile.TemporaryDirectory() as directory:
        for mode in MODES:
            print(run_once(mode, args.points, directory), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
