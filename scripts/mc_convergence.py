#!/usr/bin/env python3
"""Check the coincidence estimator's error bars against repeated runs.

Runs the same synchronized-phase point under many independent seeds and
tabulates the estimate, its reported standard error, and the z-score
against the closed form.  z is measured in the closed form's own standard
error at the seed's pair count, so a seed whose reported error bar is +-0
(no coincidence counted) still shows how far it lies from the truth.  A
healthy estimator keeps roughly 95% of seeds within two sigma and halves its
standard error when the sample quadruples; both are printed at the end.
Each run takes well under a second at any ``--bins``, so thousands of seeds
are practical.
"""

import argparse
import math
import statistics

from nmzi.correlation import (
    QUARTER_TURN,
    RECORD_COLUMNS,
    record_at,
    synchronized_settings,
)
from nmzi.montecarlo import SourceParams, estimate_columns, run_experiment


def _estimate(rho: float, mu: float, bins: int, seed: int):
    """R_hat_AD, its stderr, the pair count and the closed form's R_AD."""
    settings = synchronized_settings(rho, QUARTER_TURN)
    sweep = run_experiment(settings, SourceParams(mu, bins, rng_seed=seed))
    r_hat, std_error, _, _, n_pairs = (
        column.item() for column in estimate_columns(sweep.fates, "analytic")
    )
    truth = record_at(settings)[0, RECORD_COLUMNS.index("R_AD")].item()
    return r_hat, std_error, n_pairs, truth


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds")
    parser.add_argument("--bins", type=int, default=400_000, help="time bins per run")
    parser.add_argument("--mu", type=float, default=0.05, help="mean photons per bin")
    parser.add_argument(
        "--rho", type=float, default=1.0, help="synchronized phase (radians)"
    )
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    print(f"rho={args.rho}  mu={args.mu}  bins={args.bins}")
    print(f"{'seed':>4}  {'pairs':>7}  {'R_hat':>9}  {'stderr':>9}  {'z':>6}")
    z_scores = []
    for seed in range(args.seeds):
        value, std_error, n, truth = _estimate(args.rho, args.mu, args.bins, seed)
        # The coincidence probability is R / 16, so R_hat's closed-form
        # standard error at n pairs is 16 sqrt(p (1 - p) / n).
        p = truth / 16.0
        sigma = 16.0 * math.sqrt(p * (1.0 - p) / n)
        if sigma > 0.0:
            z = (value - truth) / sigma
        else:
            z = 0.0 if value == truth else math.inf
        z_scores.append(z)
        print(f"{seed:>4}  {n:>7}  {value:>9.5f}  {std_error:>9.5f}  {z:>6.2f}")

    within = sum(abs(z) <= 2.0 for z in z_scores)
    print(f"\n{within}/{len(z_scores)} seeds within 2 sigma "
          f"(z spread {statistics.pstdev(z_scores):.2f})")

    _, small, _, _ = _estimate(args.rho, args.mu, args.bins, 0)
    _, big, _, _ = _estimate(args.rho, args.mu, 4 * args.bins, 0)
    # A seed that counts no coincidence, or only coincidences, reports +-0.
    ratio = "undefined (zero stderr)"
    if small > 0.0 and big > 0.0:
        ratio = f"{small / big:.2f}"
    print(f"stderr ratio at 4x the bins: {ratio} (expect ~{math.sqrt(4.0):.1f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
