"""Photon-counting Monte Carlo for the paired-interferometer correlations.

Source model: an attenuated laser emits ``n ~ Poisson(mu)`` photons per time
bin.  Only doubly bunched bins (``n = 2``) survive post-selection; empty and
single-photon bins are discarded, and ``n >= 3`` bins are discarded but
tallied separately.  Each surviving pair sends one photon to each station
(configurable: a ``binomial`` routing variant lets every photon pick a side
independently and rejects same-side pairs).

Detection: the sampler is given, for each sweep point, the four detection
probabilities ``i_A, i_B, i_C, i_D`` of one photon, as an ``(N, 4)`` array.
A photon at Alice's station lands on detector A with probability ``i_A``, on
B with ``i_B``, and is absorbed by the polarizer with probability exactly
``1/2 = 1 - i_A - i_B``; Bob's photon does the same with ``i_C``, ``i_D``.
The caller takes these from the closed form, so this module never evaluates
it.  The two photons are sampled independently -- all correlation comes from
the shared probabilities, none from the source.

Sampling: bins are independent and identically distributed, and so are the
pairs, while the estimator reads only per-point totals.  Each sweep point
therefore draws its totals directly, exactly in distribution, in one
multinomial of ``n_time_bins`` whose cost does not grow with the number of
time bins.  Its twelve classes are

1. the nine joint fates (A|B|loss) x (C|D|loss) of a kept pair, each
   ``p_pair * keep`` times the product of the two photons' landing
   probabilities, in ``FATES`` order;
2. the pairs that ``binomial`` routing rejects, ``p_pair * (1 - keep)``;
3. the ``n >= 3`` bins, ``p_multi``;
4. the ``n <= 1`` bins, ``p_low``, last, as numpy's remainder,

where ``keep`` is 1/2 under ``binomial`` routing and 1 under ``paired``, and
the Poisson masses ``p_pair = e^-mu mu^2 / 2``, ``p_multi`` (the clamped
remainder, or its series where the remainder would cancel) and
``p_low = e^-mu (1 + mu)`` are computed once per run.  Thinning composes
exactly, so this is the distribution of a multinomial over the bin classes,
then ``Binomial(n_pair, 1/2)`` same-side rejections, then a multinomial of
the kept pairs over the nine fates.

The nine fate counts are the stored record of a point's detection: the
first nine columns of the count array, in ``FATES`` order (AC, AD, Ax, BC,
BD, Bx, xC, xD, xx, where ``x`` is an absorbed photon).  Singles,
coincidences and the number of post-selected pairs are sums of them.

Estimation is separate from sampling: :func:`run_experiment` returns the
sweep's ``(N, 12)`` count array, wrapped in a :class:`SweepCounts`, and
:func:`estimate_columns` turns its ``(N, 9)`` fate columns into the Monte
Carlo CSV columns at once, with no per-point Python object on the way.  The
AD and BC coincidence proportions, normalized by the product of singles
marginals (``1/4`` each analytically, or sweep-averaged measured rates),
converge to the closed forms in :mod:`nmzi.correlation` with a plain
binomial standard error.

Reproducibility: the sweep is cut into blocks of 1024 rows, aligned to the
row index, and block ``b`` samples its rows in order from one generator on
``SeedSequence(rng_seed, spawn_key=(b,))``, the ``b``-th child that
``SeedSequence(rng_seed).spawn`` would give.  A point's counts depend on the
seed, on its row position, and on the probabilities of the earlier rows in
its 1024-row block: numpy's binomial is a rejection sampler, so the uniforms a
row consumes depend on its probabilities.  Each point is still exactly
distributed and independent of the others, prefix sweeps stay bit-identical,
and results are bit-identical for a given seed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import _Record

DETECTORS = ("A", "B", "C", "D")

# The nine joint fates of a post-selected pair, in the sampler's draw order:
# Alice's photon at A, B or absorbed (x), times Bob's at C, D or x.
FATES = ("AC", "AD", "Ax", "BC", "BD", "Bx", "xC", "xD", "xx")

ROUTING_MODES = ("paired", "binomial")

NORMALIZATIONS = ("analytic", "measured")

ESTIMATE_COLUMNS = ("R_hat_AD", "stderr_AD", "R_hat_BC", "stderr_BC", "n_pairs")

# Phase-averaged singles rate per detector; denominator of the analytic
# normalization.
ANALYTIC_MARGINAL = 0.25

_MU_WARNING_THRESHOLD = 0.5

# Below this mean photon number the multi-photon mass comes from its series:
# 1 - p_low - p_pair cancels to a relative error above 1e-9 there.
_MULTI_SERIES_BELOW = 0.01

# Sweep rows per generator.  Part of the output contract: a row's counts
# follow from the probabilities of the earlier rows in its block.
_BLOCK_ROWS = 1024


class SourceParams(_Record):
    """Attenuated-laser source and sampling-run parameters.

    ``mean_photon_number`` is the Poisson mean per time bin.  The model is
    built for the strongly attenuated regime; values above 0.5 work but
    trigger a warning since multi-photon discards then dominate.
    """

    mean_photon_number: float
    n_time_bins: int
    rng_seed: int = 0
    routing: str = "paired"

    def __post_init__(self) -> None:
        mu = self.mean_photon_number
        if not math.isfinite(mu) or mu <= 0.0:
            raise ValueError(f"mean_photon_number must be positive, got {mu}")
        if not 1 <= self.n_time_bins < 2**63:
            # numpy's multinomial takes the count as a signed 64-bit integer.
            raise ValueError(
                f"n_time_bins must be positive and below 2**63, got {self.n_time_bins}"
            )
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError(
                f"rng_seed must fit an unsigned 64-bit integer, got {self.rng_seed}"
            )
        if self.routing not in ROUTING_MODES:
            raise ValueError(
                f"routing must be one of {ROUTING_MODES}, got {self.routing!r}"
            )
        if mu > _MU_WARNING_THRESHOLD:
            warnings.warn(
                f"mean photon number {mu} is outside the strongly attenuated "
                "regime (mu << 1); pair post-selection discards most bins",
                # Past __post_init__ and the record's __init__: the caller.
                stacklevel=3,
            )

    @property
    def expected_pairs(self) -> float:
        """Expected post-selected pairs per sweep point: ``n_time_bins`` times
        the pair mass ``e^-mu mu^2 / 2``, halved under ``binomial`` routing."""
        p_pair = _class_masses(self.mean_photon_number)[0]
        return self.n_time_bins * p_pair * (0.5 if self.routing == "binomial" else 1.0)


class SamplingTally(_Record):
    """Bin-level bookkeeping of the source sampling."""

    n_bins: int
    n_pair_bins: int
    n_multi_bins: int
    n_routing_rejected: int

    @property
    def n_post_selected(self) -> int:
        return self.n_pair_bins - self.n_routing_rejected


class CoincidenceCounts(_Record):
    """The post-selected pairs, counted by joint fate.

    ``fates`` holds one count per entry of ``FATES``, in that order.
    """

    fates: tuple[int, ...]

    @property
    def coincidences(self) -> dict:
        """Both photons detected, by cross-station pair (AC, AD, BC, BD)."""
        a_c, a_d, _, b_c, b_d, *_ = self.fates
        return {"AC": a_c, "AD": a_d, "BC": b_c, "BD": b_d}


class McPointResult(_Record):
    """One row of a :class:`SweepCounts`, as Python objects."""

    counts: CoincidenceCounts
    tally: SamplingTally


def detector_singles(fates: list[int]) -> dict:
    """Detections per detector: the sum of the fates that name it."""
    return {
        d: sum(k for fate, k in zip(FATES, fates) if d in fate) for d in DETECTORS
    }


class SweepCounts(_Record):
    """A sampled sweep: the ``(N, 12)`` int64 count array.

    ``counts`` has one row per sweep point, in the column order of the module
    docstring, and ``fates`` is its first nine columns; every reader in the
    package takes these columns.  Each row sums to the source's
    ``n_time_bins``.  Iterating yields one :class:`McPointResult`
    per row, in row order, and exists only for ``benchmarks/tracer.py``.
    """

    counts: np.ndarray

    # Identity equality: an array comparison has no single truth value.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def fates(self) -> np.ndarray:
        return self.counts[:, :9]

    def __iter__(self):
        # One block of rows as Python ints at a time, not the whole array.
        for start in range(0, len(self.counts), _BLOCK_ROWS):
            for row in self.counts[start : start + _BLOCK_ROWS].tolist():
                yield McPointResult(
                    counts=CoincidenceCounts(tuple(row[:9])),
                    tally=SamplingTally(sum(row), sum(row[:10]), row[10], row[9]),
                )


# ---------------------------------------------------------------------------
# Sampling


def _class_masses(mu: float) -> list[float]:
    """Poisson masses of the bin classes ``[n = 2, n >= 3, n <= 1]`` at mean ``mu``.

    From ``mu = 0.01`` up the multi-photon mass is the clamped remainder
    ``1 - p_low - p_pair``; below, where that remainder cancels, it is the
    series ``e^-mu sum_{k>=3} mu^k / k!``, summed until its terms stop
    changing the total.
    """
    p_low = math.exp(-mu) * (1.0 + mu)
    p_pair = math.exp(-mu) * mu * mu / 2.0
    if mu >= _MULTI_SERIES_BELOW:
        p_multi = max(0.0, 1.0 - p_low - p_pair)
    else:
        term = mu * mu * mu / 6.0
        total, k = 0.0, 3
        while total + term != total:
            total += term
            k += 1
            term *= mu / k
        p_multi = math.exp(-mu) * total
    return [p_pair, p_multi, p_low]


def _sample_counts(probabilities: np.ndarray, src: SourceParams) -> np.ndarray:
    """The ``(N, 12)`` int64 class counts of a sweep, one row per point.

    Columns: the nine fates in ``FATES`` order, the routing-rejected pairs,
    the ``n >= 3`` bins and the ``n <= 1`` bins (module docstring).
    """
    p_pair, p_multi, p_low = _class_masses(src.mean_photon_number)
    keep = 0.5 if src.routing == "binomial" else 1.0
    # Each row's (A, B, loss) and (C, D, loss) landing probabilities.
    landing = np.full((len(probabilities), 2, 3), 0.5)
    landing[:, :, :2] = probabilities.reshape(-1, 2, 2)
    counts = np.empty((len(probabilities), 12), dtype=np.int64)
    for block, start in enumerate(range(0, len(probabilities), _BLOCK_ROWS)):
        alice, bob = landing[start : start + _BLOCK_ROWS].transpose(1, 0, 2)
        pvals = np.empty((len(alice), 12))
        fates = (alice[:, :, None] * bob[:, None, :]).reshape(-1, 9)
        pvals[:, :9] = fates * (p_pair * keep)
        # numpy takes the last class as the remainder of the others, so the
        # large n <= 1 mass goes last and every other class keeps its own.
        pvals[:, 9:] = [p_pair * (1.0 - keep), p_multi, p_low]
        seed = np.random.SeedSequence(src.rng_seed, spawn_key=(block,))
        rng = np.random.default_rng(seed)
        counts[start : start + _BLOCK_ROWS] = rng.multinomial(src.n_time_bins, pvals)
    return counts


def run_experiment(probabilities: np.ndarray, src: SourceParams) -> SweepCounts:
    """Sample the class counts of a sweep, one row per point.

    ``probabilities`` is the sweep's ``(N, 4)`` detection probabilities
    ``i_A, i_B, i_C, i_D`` (module docstring).  They must be finite and
    non-negative, and each station's pair must sum to exactly 1/2, the
    absorbed half this module assumes; anything else raises ``ValueError``.

    Deterministic for a fixed seed.  Rows are sampled in blocks of 1024,
    aligned to the row index, one generator per block, so a point's counts
    depend on the seed, on its row position, and on the probabilities of the
    earlier rows in its 1024-row block.  Each point is still exactly
    distributed and independent of the others, and a prefix of a sweep
    reproduces the leading rows bit for bit.
    """
    p = probabilities
    # Each test runs only where the ones before it hold: inf + -inf would warn.
    if not (p.shape[1:] == (4,) and len(p) and (np.isfinite(p) & (p >= 0.0)).all()
            and (p[:, ::2] + p[:, 1::2] == 0.5).all()):
        raise ValueError("detection probabilities must be finite, non-negative (N, 4) "
                         "rows whose station pairs each sum to exactly 1/2")
    counts = _sample_counts(p, src)
    counts.flags.writeable = False
    return SweepCounts(counts)


# ---------------------------------------------------------------------------
# Estimation


def estimate_columns(fates: np.ndarray, normalization: str) -> tuple[np.ndarray, ...]:
    """The Monte Carlo CSV columns of a sweep, in ``ESTIMATE_COLUMNS`` order.

    ``fates`` is the sweep's ``(N, 9)`` int64 fate counts in ``FATES`` order,
    one row per point, such as :attr:`SweepCounts.fates`.

    ``R_hat = p_hat / den`` and ``stderr = sqrt(p_hat (1 - p_hat) / n) / den``
    for the AD and BC coincidences, with ``p_hat = k / n`` over the point's
    ``n`` post-selected pairs.  With ``analytic`` normalization ``den`` is the
    phase-averaged singles product ``(1/4)^2``; with ``measured`` it is the
    product of the two detectors' singles rates averaged over the whole sweep
    (their sampling error is not propagated -- a documented approximation).

    A point with no post-selected pair has ``n = 0`` and ``nan`` in the four
    estimate columns, and the sweep runs on.  Under ``measured``
    normalization a pair with a detector that never fires in the sweep has a
    zero denominator, so its ``R_hat`` and ``stderr`` are ``nan`` on every
    row; the other pair is unaffected.  ``measured`` raises only when the
    sweep has no pair at all.

    Each column is one array operation over int64 counts, in the order the
    formulas read; IEEE division and square root round correctly, so every
    value is bit-identical to the scalar formulas on Python floats as long as
    the counts stay below 2**53.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )
    n = fates.sum(axis=1)
    if normalization == "analytic":
        marginals = dict.fromkeys(DETECTORS, ANALYTIC_MARGINAL)
    else:
        # Sweep totals as Python ints: an int64 sum over many points can wrap.
        totals = [sum(column) for column in fates.T.tolist()]
        total_pairs = sum(totals)
        if total_pairs == 0:
            raise ValueError("no post-selected pairs anywhere in the sweep")
        singles = detector_singles(totals)
        marginals = {d: k / total_pairs for d, k in singles.items()}
    columns = []
    for pair in ("AD", "BC"):
        denominator = marginals[pair[0]] * marginals[pair[1]]
        if denominator == 0.0:
            # A dark detector leaves the pair without a normalization.
            columns += [np.full(len(n), np.nan), np.full(len(n), np.nan)]
            continue
        # 0 / 0 is nan: a point with no pairs has no estimate.
        with np.errstate(invalid="ignore"):
            p_hat = fates[:, FATES.index(pair)] / n
        std_error = np.sqrt(p_hat * (1.0 - p_hat) / n) / denominator
        columns += [p_hat / denominator, std_error]
    return (*columns, n)
