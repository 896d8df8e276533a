"""Photon-counting Monte Carlo for the paired-interferometer correlations.

Source model: an attenuated laser emits ``n ~ Poisson(mu)`` photons per time
bin.  Only doubly bunched bins (``n = 2``) survive post-selection; empty and
single-photon bins are discarded, and ``n >= 3`` bins are discarded but
tallied separately.  Each surviving pair sends one photon to each station
(configurable: a ``binomial`` routing variant lets every photon pick a side
independently and rejects same-side pairs).

Detection: a photon at Alice's station lands on detector A with probability
``(1 - sin 2xi cos phi) / 4``, on B with ``(1 + sin 2xi cos phi) / 4``, and is
absorbed by the polarizer with probability exactly ``1/2``; Bob's side is
symmetric with (theta, psi) and detectors C/D.  These are the fringe factors
of :func:`nmzi.correlation.fringe_factors` over 4, evaluated once for the
whole ``(N, 4)`` settings array.  The two photons are sampled independently
-- all correlation comes from the shared settings, none from the source.

Sampling: bins are independent and identically distributed, and so are the
pairs, while the estimator reads only per-point totals.  Each sweep point
therefore draws its totals directly, exactly in distribution, in three draws
whose cost does not grow with the number of time bins:

1. a multinomial of ``n_time_bins`` over the bin classes {n = 2, n >= 3,
   n <= 1}, with Poisson masses ``e^-mu mu^2 / 2``, the multi-photon mass
   (the clamped remainder, or its series where the remainder would cancel),
   and ``e^-mu (1 + mu)``, computed once per run;
2. for ``binomial`` routing only, ``Binomial(n_pair, 1/2)`` same-side
   rejections;
3. a multinomial of the post-selected pairs over the nine joint fates
   (A|B|loss) x (C|D|loss), each the product of the two photons' landing
   probabilities.

The nine fate counts are the stored record of a point's detection:
``counts.fates``, in ``FATES`` order (AC, AD, Ax, BC, BD, Bx, xC, xD, xx,
where ``x`` is an absorbed photon).  Singles, coincidences and the number of
post-selected pairs are sums of them.

Estimation is separate from sampling: :func:`run_experiment` returns each
point's raw tallies, and :func:`estimate_columns` turns a whole sweep's
tallies into the Monte Carlo CSV columns at once.  The AD and BC coincidence
proportions, normalized by the product of singles marginals (``1/4`` each
analytically, or sweep-averaged measured rates), converge to the closed forms
in :mod:`nmzi.correlation` with a plain binomial standard error.

Reproducibility: ``SeedSequence(rng_seed)`` spawns one child per sweep point,
in grid order, and each point makes its three draws from one generator on its
child.  A point's counts depend only on the run seed and the point's position
in the sweep, and results are bit-identical for a given seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correlation import fringe_factors

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


@dataclass(frozen=True)
class SourceParams:
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
                # Past __post_init__ and the generated __init__: the caller.
                stacklevel=3,
            )


@dataclass(frozen=True)
class SamplingTally:
    """Bin-level bookkeeping of the source sampling."""

    n_bins: int
    n_pair_bins: int
    n_multi_bins: int
    n_routing_rejected: int

    @property
    def n_post_selected(self) -> int:
        return self.n_pair_bins - self.n_routing_rejected


@dataclass(frozen=True)
class CoincidenceCounts:
    """The post-selected pairs, counted by joint fate.

    ``fates`` holds one count per entry of ``FATES``, in that order.  Every
    other tally is a sum of these nine.
    """

    fates: tuple[int, ...]

    @property
    def n_post_selected_pairs(self) -> int:
        return sum(self.fates)

    @property
    def singles(self) -> dict:
        """Detections per detector: the sum of the fates that name it."""
        return {
            d: sum(k for fate, k in zip(FATES, self.fates) if d in fate)
            for d in DETECTORS
        }

    @property
    def coincidences(self) -> dict:
        """Both photons detected, by cross-station pair (AC, AD, BC, BD)."""
        a_c, a_d, _, b_c, b_d, *_ = self.fates
        return {"AC": a_c, "AD": a_d, "BC": b_c, "BD": b_d}


@dataclass(frozen=True)
class McPointResult:
    """Per-sweep-point Monte Carlo output: the raw tallies of one point."""

    counts: CoincidenceCounts
    tally: SamplingTally


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


def _accumulate_point(
    p: Sequence[float],
    src: SourceParams,
    masses: list[float],
    point_seq: np.random.SeedSequence,
) -> McPointResult:
    """Draw one sweep point's source and detection totals (module docstring).

    ``p`` holds the point's landing probabilities at detectors (A, B, C, D);
    ``masses`` is ``_class_masses`` of the source.
    """
    rng = np.random.default_rng(point_seq)
    # numpy takes the last class as the remainder of the others, so the pair
    # class goes first and keeps its exact mass.
    n_pair, n_multi, _ = rng.multinomial(src.n_time_bins, masses).tolist()
    n_rejected = int(rng.binomial(n_pair, 0.5)) if src.routing == "binomial" else 0

    p_a, p_b, p_c, p_d = p
    # In FATES order: each of Alice's three fates times each of Bob's.
    fates = rng.multinomial(
        n_pair - n_rejected,
        [pa * pb for pa in (p_a, p_b, 0.5) for pb in (p_c, p_d, 0.5)],
    )
    return McPointResult(
        counts=CoincidenceCounts(tuple(fates.tolist())),
        tally=SamplingTally(src.n_time_bins, n_pair, n_multi, n_rejected),
    )


def run_experiment(settings: np.ndarray, src: SourceParams) -> list[McPointResult]:
    """Sample the tallies of an ``(N, 4)`` settings array, one result per row.

    Deterministic for a fixed seed: every sweep point gets its own child
    seed by its position in the sweep, so no point's result depends on the
    settings of another.
    """
    if len(settings) == 0:
        raise ValueError("settings sweep is empty")
    if not np.isfinite(settings).all():
        raise ValueError("settings must be finite")
    probabilities = (fringe_factors(settings) / 4.0).tolist()
    masses = _class_masses(src.mean_photon_number)
    root = np.random.SeedSequence(src.rng_seed)
    return [
        _accumulate_point(p, src, masses, point_seq)
        for p, point_seq in zip(probabilities, root.spawn(len(probabilities)))
    ]


# ---------------------------------------------------------------------------
# Estimation


def estimate_columns(
    results: Sequence[McPointResult], normalization: str
) -> tuple[np.ndarray, ...]:
    """The Monte Carlo CSV columns of a sweep, in ``ESTIMATE_COLUMNS`` order.

    ``R_hat = p_hat / den`` and ``stderr = sqrt(p_hat (1 - p_hat) / n) / den``
    for the AD and BC coincidences, with ``p_hat = k / n`` over the point's
    ``n`` post-selected pairs.  With ``analytic`` normalization ``den`` is the
    phase-averaged singles product ``(1/4)^2``; with ``measured`` it is the
    product of the two detectors' singles rates averaged over the whole sweep
    (their sampling error is not propagated -- a documented approximation).

    Each column is one array operation over int64 counts, in the order the
    formulas read; IEEE division and square root round correctly, so every
    value is bit-identical to the scalar formulas on Python floats as long as
    the counts stay below 2**53.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )
    fates = np.array([point.counts.fates for point in results], dtype=np.int64)
    n = fates.sum(axis=1)
    if normalization == "analytic":
        marginals = dict.fromkeys(DETECTORS, ANALYTIC_MARGINAL)
    else:
        # Sweep totals as Python ints: an int64 sum over many points can wrap.
        sweep = CoincidenceCounts(tuple(sum(column) for column in fates.T.tolist()))
        total_pairs = sweep.n_post_selected_pairs
        if total_pairs == 0:
            raise ValueError("no post-selected pairs anywhere in the sweep")
        marginals = {d: k / total_pairs for d, k in sweep.singles.items()}
    if not (n > 0).all():
        raise ValueError("cannot estimate a correlation from zero post-selected pairs")
    if min(marginals.values()) <= 0.0:
        raise ValueError("measured marginals must be positive")
    columns = []
    for pair in ("AD", "BC"):
        denominator = marginals[pair[0]] * marginals[pair[1]]
        p_hat = fates[:, FATES.index(pair)] / n
        std_error = np.sqrt(p_hat * (1.0 - p_hat) / n) / denominator
        columns += [p_hat / denominator, std_error]
    return (*columns, n)
