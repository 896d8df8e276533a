"""The block promise of the sampler.

``run_experiment`` samples rows in fixed 1024-row blocks aligned to the row
index, one generator per block.  A row's counts may then depend on the
settings of the earlier rows in its block, but each row must still be
exactly distributed and independent of its neighbours, a prefix sweep must
repeat its rows, and no block may reach into the next.
"""

import numpy as np
import pytest

from nmzi.montecarlo import FATES, SourceParams, run_experiment
from test_sampler_reference import (
    ALPHA,
    BINS_PER_RUN,
    MU,
    POINTS,
    SEEDS,
    chi2_sf,
    homogeneity_p_value,
    reference_tables,
)

BLOCK_ROWS = 1024
# Enough bins that numpy's binomial takes its rejection sampler, whose draws
# consume a varying number of uniforms from the block's generator.
REJECTION_BINS = 2_000_000


def random_settings(n_rows: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, (n_rows, 4))


def row_tables(settings: np.ndarray, row: int, src: SourceParams):
    """Bin classes, routing (kept, rejected) and fates of one sampled row."""
    counts = run_experiment(settings, src).counts[row].tolist()
    bins = [counts[11], sum(counts[:10]), counts[10]]
    return bins, [sum(counts[:9]), counts[9]], counts[:9]


@pytest.mark.parametrize("row", [0, 517, BLOCK_ROWS - 1])
@pytest.mark.parametrize("routing", ["paired", "binomial"])
@pytest.mark.parametrize("point", sorted(POINTS))
def test_point_inside_a_block_matches_per_bin_reference(point, routing, row):
    # The reference point among random settings, which shape its draws.
    settings = random_settings(BLOCK_ROWS, seed=row)
    settings[row] = POINTS[point][0]
    pooled = {}
    for seed in SEEDS:
        src = SourceParams(MU, BINS_PER_RUN, rng_seed=seed, routing=routing)
        runs = {
            "reference": reference_tables(
                POINTS[point], src, np.random.default_rng(seed)
            ),
            "sampler": row_tables(settings, row, src),
        }
        for name, tables in runs.items():
            tables = [np.asarray(t, dtype=np.int64).ravel() for t in tables]
            previous = pooled.get(name, [0] * len(tables))
            pooled[name] = [p + t for p, t in zip(previous, tables)]

    ref_bins, ref_routing, ref_fates = pooled["reference"]
    bins, routing_counts, fates = pooled["sampler"]
    assert homogeneity_p_value(ref_bins, bins) > ALPHA
    assert homogeneity_p_value(ref_fates, fates) > ALPHA
    if routing == "binomial":
        assert homogeneity_p_value(ref_routing, routing_counts) > ALPHA
    else:
        assert routing_counts[1] == ref_routing[1] == 0
    if point == "dark_C":
        assert fates.reshape(3, 3)[:, 0].sum() == 0
    assert fates.sum() > 10_000


def independence_p_value(first: np.ndarray, second: np.ndarray) -> float:
    """Chi-square test of independence of paired samples, cut at their quartiles."""
    cuts = np.quantile(np.concatenate([first, second]), [0.25, 0.5, 0.75])
    table = np.zeros((4, 4))
    np.add.at(table, (np.searchsorted(cuts, first), np.searchsorted(cuts, second)), 1)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    statistic = float(((table - expected) ** 2 / expected).sum())
    return chi2_sf(statistic, (table.shape[0] - 1) * (table.shape[1] - 1))


@pytest.mark.parametrize("offset", [0, 1])
def test_adjacent_rows_of_a_block_are_independent(offset):
    # Equal settings make the rows identically distributed.
    settings = np.repeat(POINTS["generic"], 4 * BLOCK_ROWS, axis=0)
    src = SourceParams(MU, REJECTION_BINS, rng_seed=3, routing="binomial")
    counts = run_experiment(settings, src).counts
    statistics = {
        "pair bins": counts[:, :10].sum(axis=1),
        "multi bins": counts[:, 10],
        "rejected": counts[:, 9],
        "AD": counts[:, FATES.index("AD")],
    }
    # Disjoint pairs of neighbouring rows that share a block.
    rows = np.arange(offset, len(settings) - 1, 2)
    rows = rows[rows % BLOCK_ROWS != BLOCK_ROWS - 1]
    for name, values in statistics.items():
        values = np.asarray(values)
        assert independence_p_value(values[rows], values[rows + 1]) > ALPHA, name


def test_blocks_do_not_reach_into_each_other():
    settings = random_settings(BLOCK_ROWS + 476, seed=5)
    src = SourceParams(MU, REJECTION_BINS, rng_seed=7, routing="binomial")
    whole = run_experiment(settings, src)
    prefix = run_experiment(settings[:BLOCK_ROWS], src)
    assert np.array_equal(prefix.counts, whole.counts[:BLOCK_ROWS])
    # A shifted stream can fall back into step within tens of rows, so the
    # change sits at the last row of block 0.
    changed = settings.copy()
    changed[BLOCK_ROWS - 1] = POINTS["dark_C"][0]
    again = run_experiment(changed, src)
    last = BLOCK_ROWS - 1
    assert not np.array_equal(again.counts[last], whole.counts[last])
    assert np.array_equal(again.counts[BLOCK_ROWS:], whole.counts[BLOCK_ROWS:])
