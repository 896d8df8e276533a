#!/usr/bin/env python3
"""Check the coincidence estimator's error bars against repeated runs.

Runs the same synchronized-phase point under many independent seeds and
tabulates the estimate, its reported standard error, and the z-score
against the closed form.  A healthy estimator keeps roughly 95% of seeds
within two sigma and halves its standard error when the sample quadruples;
both are printed at the end.  Each run takes well under a second at any
``--bins``, so thousands of seeds are practical.
"""

import argparse
import math
import statistics

from nmzi.correlation import QUARTER_TURN, fringe_factors, synchronized_settings
from nmzi.montecarlo import SourceParams, run_experiment


def _estimate(rho: float, mu: float, bins: int, seed: int):
    settings = synchronized_settings(rho, QUARTER_TURN)
    result = run_experiment(settings, SourceParams(mu, bins, rng_seed=seed))[0]
    f_a, _, _, f_d = fringe_factors(settings)[0].tolist()
    return result.estimates["AD"], f_a * f_d


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds")
    parser.add_argument("--bins", type=int, default=400_000, help="time bins per run")
    parser.add_argument("--mu", type=float, default=0.05, help="mean photons per bin")
    parser.add_argument(
        "--rho", type=float, default=1.0, help="synchronized phase (radians)"
    )
    args = parser.parse_args()

    print(f"rho={args.rho}  mu={args.mu}  bins={args.bins}")
    print(f"{'seed':>4}  {'pairs':>7}  {'R_hat':>9}  {'stderr':>9}  {'z':>6}")
    z_scores = []
    for seed in range(args.seeds):
        est, truth = _estimate(args.rho, args.mu, args.bins, seed)
        z = (est.value - truth) / est.std_error if est.std_error > 0 else 0.0
        z_scores.append(z)
        print(
            f"{seed:>4}  {est.n_effective:>7}  {est.value:>9.5f}  "
            f"{est.std_error:>9.5f}  {z:>6.2f}"
        )

    within = sum(abs(z) <= 2.0 for z in z_scores)
    print(f"\n{within}/{len(z_scores)} seeds within 2 sigma "
          f"(z spread {statistics.pstdev(z_scores):.2f})")

    small, _ = _estimate(args.rho, args.mu, args.bins, 0)
    big, _ = _estimate(args.rho, args.mu, 4 * args.bins, 0)
    ratio = small.std_error / big.std_error
    print(f"stderr ratio at 4x the bins: {ratio:.2f} (expect ~{math.sqrt(4.0):.1f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
