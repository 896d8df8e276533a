#!/usr/bin/env python3
"""Regenerate the three standard sweep CSVs (and gnuplot scripts).

Writes ``fig2.csv`` (synchronized phase scan), ``fig3.csv`` (independent
phase map), and ``fig4.csv`` (phase versus polarizer map) into ``--out-dir``,
each with a matching ``.gp`` plotting script.  With ``--with-mc`` the
synchronized scan additionally carries Monte Carlo estimates side by side
with the closed forms, which is the plot worth staring at: the error bars
should straddle the analytic curve.  The Monte Carlo cost per point does not
grow with ``--bins``, so ``--with-mc`` adds well under a second.
"""

import argparse
import os

from nmzi.correlation import PRESETS, record_at, sweep_settings
from nmzi.montecarlo import SourceParams, run_experiment
from nmzi.output import emit_csv, emit_gnuplot


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
        settings = sweep_settings(spec)
        records = [record_at(s) for s in settings]
        mc_results = None
        if args.with_mc and len(spec.axes) == 1:
            source = SourceParams(
                mean_photon_number=args.mu,
                n_time_bins=args.bins,
                rng_seed=args.seed,
            )
            mc_results = run_experiment(settings, source)
        csv_path = os.path.join(args.out_dir, f"{name}.csv")
        emit_csv(records, csv_path, mc_results)
        emit_gnuplot(
            csv_path,
            os.path.join(args.out_dir, f"{name}.gp"),
            [axis.name for axis in spec.axes],
            mc_results is not None,
        )
        print(f"{name}: {len(records)} points -> {csv_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
