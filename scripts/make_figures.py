#!/usr/bin/env python3
"""Regenerate the three standard sweep CSVs (and gnuplot scripts).

Writes ``fig2.csv`` (synchronized phase scan), ``fig3.csv`` (independent
phase map), and ``fig4.csv`` (phase versus polarizer map) into ``--out-dir``,
each with a matching ``.gp`` plotting script, by running the ``nmzi`` command
line once per preset.  With ``--with-mc`` the synchronized scan additionally
carries Monte Carlo estimates side by side with the closed forms, which is
the plot worth staring at: the error bars should straddle the analytic
curve.  The Monte Carlo cost per point does not grow with ``--bins``, so
``--with-mc`` adds well under a second.
"""

import argparse
import os

from nmzi.cli import main as nmzi_main
from nmzi.correlation import PRESETS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="figures", help="output directory")
    parser.add_argument(
        "--with-mc",
        action="store_true",
        help="add photon-counting estimates to the synchronized scan",
    )
    parser.add_argument(
        "--bins", type=int, default=2_000_000, help="time bins per grid point"
    )
    parser.add_argument("--mu", type=float, default=0.05, help="mean photons per bin")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for name, spec in PRESETS.items():
        csv_path = os.path.join(args.out_dir, f"{name}.csv")
        argv = ["analytic", "--preset", name, "--out", csv_path, "--gnuplot"]
        if args.with_mc and len(spec.axes) == 1:
            argv[0] = "montecarlo"
            argv += ["--bins", str(args.bins), "--mu", str(args.mu)]
            argv += ["--seed", str(args.seed)]
        code = nmzi_main(argv)
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
