"""The sampler against a bin-by-bin reference, by chi-square homogeneity.

``run_experiment`` draws each point's totals directly (multinomials over bin
classes and pair fates).  The reference below does what the physics says,
one time bin and one photon at a time: a Poisson photon number per bin, a
side per photon under binomial routing, and one uniform draw per detected
photon against the port probabilities.  Both are run over the same bins at
several seeds, pooled, and every count table is tested for homogeneity.
"""

import math

import numpy as np
import pytest

from nmzi.correlation import QUARTER_TURN, record_at
from nmzi.montecarlo import SourceParams, run_experiment

# A generic point, and one where detector C is dark (probability exactly 0).
# Settings rows are (phi, psi, xi, theta).
POINTS = {
    "generic": np.array([[0.9, 1.7, 0.5, 0.4]]),
    "dark_C": np.array([[1.3, 0.0, 0.3, QUARTER_TURN]]),
}
MU = 0.2
BINS_PER_RUN = 400_000
SEEDS = range(5)
# Per table; the seeds are fixed, so the outcome is too.
ALPHA = 1e-3


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of a chi-square variable with ``df`` degrees of freedom."""
    half = x / 2.0
    if df % 2 == 0:
        term = total = 1.0
        for i in range(1, df // 2):
            term *= half / i
            total += term
        return math.exp(-half) * total
    total = math.erfc(math.sqrt(half))
    term = math.sqrt(half) * math.exp(-half) / math.gamma(1.5)
    for i in range(1, (df + 1) // 2):
        total += term
        term *= half / (i + 0.5)
    return total


def homogeneity_p_value(first, second) -> float:
    """Chi-square test that two count vectors share one distribution.

    Cells empty in both vectors carry no information and are dropped.
    """
    table = np.array([first, second], dtype=float)
    table = table[:, table.sum(axis=0) > 0]
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    statistic = float(((table - expected) ** 2 / expected).sum())
    return chi2_sf(statistic, table.shape[1] - 1)


def port_probabilities(phase: float, pol: float) -> tuple[float, float]:
    # Independent of nmzi: the (minus, plus) port of one station.
    modulation = math.sin(2.0 * pol) * math.cos(phase)
    return (1.0 - modulation) / 4.0, (1.0 + modulation) / 4.0


def reference_tables(settings: np.ndarray, src: SourceParams, rng):
    """Bin classes (<=1, 2, >=3), routing (kept, rejected), 3x3 fates."""
    photons = rng.poisson(src.mean_photon_number, src.n_time_bins)
    n_pair = int(np.count_nonzero(photons == 2))
    n_multi = int(np.count_nonzero(photons >= 3))
    kept = n_pair
    if src.routing == "binomial":
        sides = rng.integers(0, 2, size=(n_pair, 2))
        kept = int(np.count_nonzero(sides[:, 0] != sides[:, 1]))
    u, v = rng.random((kept, 2)).T
    phi, psi, xi, theta = settings[0].tolist()
    p_a, p_b = port_probabilities(phi, xi)
    p_c, p_d = port_probabilities(psi, theta)
    # Fate index 0, 1 or 2: first port, second port, absorbed.
    alice = np.where(u < p_a, 0, np.where(u < p_a + p_b, 1, 2))
    bob = np.where(v < p_c, 0, np.where(v < p_c + p_d, 1, 2))
    fates = np.zeros((3, 3), dtype=np.int64)
    np.add.at(fates, (alice, bob), 1)
    bins = [src.n_time_bins - n_pair - n_multi, n_pair, n_multi]
    return bins, [kept, n_pair - kept], fates


def sampler_tables(settings: np.ndarray, src: SourceParams):
    counts = run_experiment(record_at(settings)[:, :4], src).counts[0].tolist()
    bins = [counts[11], sum(counts[:10]), counts[10]]
    return bins, [sum(counts[:9]), counts[9]], counts[:9]


@pytest.mark.parametrize("routing", ["paired", "binomial"])
@pytest.mark.parametrize("point", sorted(POINTS))
def test_sampler_matches_per_bin_reference(point, routing):
    settings = POINTS[point]
    pooled = {"reference": None, "sampler": None}
    for seed in SEEDS:
        src = SourceParams(MU, BINS_PER_RUN, rng_seed=seed, routing=routing)
        runs = {
            "reference": reference_tables(settings, src, np.random.default_rng(seed)),
            "sampler": sampler_tables(settings, src),
        }
        for name, tables in runs.items():
            tables = [np.asarray(t, dtype=np.int64).ravel() for t in tables]
            if pooled[name] is None:
                pooled[name] = tables
            else:
                pooled[name] = [p + t for p, t in zip(pooled[name], tables)]

    ref_bins, ref_routing, ref_fates = pooled["reference"]
    bins, routing_counts, fates = pooled["sampler"]
    assert homogeneity_p_value(ref_bins, bins) > ALPHA
    assert homogeneity_p_value(ref_fates, fates) > ALPHA
    if routing == "binomial":
        assert homogeneity_p_value(ref_routing, routing_counts) > ALPHA
    else:
        assert routing_counts[1] == ref_routing[1] == 0
    if point == "dark_C":
        # Detector C is dark: no fate with Bob's photon at C, in either sampler.
        assert fates.reshape(3, 3)[:, 0].sum() == 0
        assert ref_fates.reshape(3, 3)[:, 0].sum() == 0
    # Enough pairs that every nonzero fate cell is well populated.
    assert fates.sum() > 10_000


@pytest.mark.parametrize("df", [1, 2, 3, 8])
def test_chi2_sf_matches_known_quantiles(df):
    # Upper 0.1% points of the chi-square distribution.
    quantile = {1: 10.828, 2: 13.816, 3: 16.266, 8: 26.124}[df]
    assert abs(chi2_sf(quantile, df) - 1e-3) < 1e-6
    assert chi2_sf(0.0, df) == pytest.approx(1.0)
