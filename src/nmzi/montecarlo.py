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
   n <= 1}, with Poisson masses ``e^-mu mu^2 / 2``, the clamped remainder,
   and ``e^-mu (1 + mu)``;
2. for ``binomial`` routing only, ``Binomial(n_pair, 1/2)`` same-side
   rejections;
3. a multinomial of the post-selected pairs over the nine joint fates
   (A|B|loss) x (C|D|loss), each the product of the two photons' landing
   probabilities.

Singles, coincidences and absorbed photons are sums of the nine fate counts.

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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .correlation import CROSS_STATION_PAIRS, fringe_factors

DETECTORS = ("A", "B", "C", "D")

ROUTING_MODES = ("paired", "binomial")

NORMALIZATIONS = ("analytic", "measured")

ESTIMATE_COLUMNS = ("R_hat_AD", "stderr_AD", "R_hat_BC", "stderr_BC", "n_pairs")

# Phase-averaged singles rate per detector; denominator of the analytic
# normalization.
ANALYTIC_MARGINAL = 0.25

_MU_WARNING_THRESHOLD = 0.5


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
                stacklevel=2,
            )


@dataclass
class SamplingTally:
    """Bin-level bookkeeping of the source sampling."""

    n_bins: int = 0
    n_pair_bins: int = 0
    n_multi_bins: int = 0
    n_routing_rejected: int = 0

    @property
    def n_post_selected(self) -> int:
        return self.n_pair_bins - self.n_routing_rejected


def _zero_singles() -> dict:
    return {d: 0 for d in DETECTORS}


def _zero_coincidences() -> dict:
    return {pair: 0 for pair in CROSS_STATION_PAIRS}


@dataclass
class CoincidenceCounts:
    """Detection tallies over the post-selected pairs.

    ``loss_events`` counts absorbed photons (not bins): a pair losing both
    photons contributes two.
    """

    n_post_selected_pairs: int = 0
    singles: dict = field(default_factory=_zero_singles)
    coincidences: dict = field(default_factory=_zero_coincidences)
    loss_events: int = 0

    @property
    def alice_losses(self) -> int:
        return self.n_post_selected_pairs - self.singles["A"] - self.singles["B"]

    @property
    def bob_losses(self) -> int:
        return self.n_post_selected_pairs - self.singles["C"] - self.singles["D"]

    def validate(self) -> None:
        """Check the count identities; raise ValueError if the ledger broke."""
        n = self.n_post_selected_pairs
        if n < 0 or self.loss_events < 0:
            raise ValueError("counters must be non-negative")
        if any(v < 0 for v in self.singles.values()) or any(
            v < 0 for v in self.coincidences.values()
        ):
            raise ValueError("counters must be non-negative")
        if self.alice_losses < 0 or self.bob_losses < 0:
            raise ValueError("singles exceed the number of post-selected pairs")
        if self.alice_losses + self.bob_losses != self.loss_events:
            raise ValueError(
                "loss ledger out of balance: "
                f"{self.alice_losses} + {self.bob_losses} != {self.loss_events}"
            )
        both_detected = sum(self.coincidences.values())
        if both_detected > n:
            raise ValueError("more coincidences than post-selected pairs")
        missed = n - both_detected
        if not missed <= self.loss_events <= 2 * missed:
            raise ValueError(
                f"loss_events={self.loss_events} inconsistent with "
                f"{missed} non-coincidence pairs"
            )


@dataclass(frozen=True)
class McPointResult:
    """Per-sweep-point Monte Carlo output: the raw tallies of one point."""

    counts: CoincidenceCounts
    tally: SamplingTally


# ---------------------------------------------------------------------------
# Sampling


def _accumulate_point(
    p: Sequence[float], src: SourceParams, point_seq: np.random.SeedSequence
) -> McPointResult:
    """Draw one sweep point's source and detection totals (module docstring).

    ``p`` holds the point's landing probabilities at detectors (A, B, C, D).
    """
    rng = np.random.default_rng(point_seq)
    mu = src.mean_photon_number
    p_low = math.exp(-mu) * (1.0 + mu)
    p_pair = math.exp(-mu) * mu * mu / 2.0
    p_multi = max(0.0, 1.0 - p_low - p_pair)
    # numpy takes the last class as the remainder of the others, so the pair
    # class goes first and keeps its exact mass.
    n_pair, n_multi, _ = rng.multinomial(
        src.n_time_bins, [p_pair, p_multi, p_low]
    ).tolist()
    n_rejected = int(rng.binomial(n_pair, 0.5)) if src.routing == "binomial" else 0
    n_post = n_pair - n_rejected

    p_a, p_b, p_c, p_d = p
    alice = (p_a, p_b, 0.5)
    bob = (p_c, p_d, 0.5)
    # Rows: Alice's photon at A, B or absorbed (x); columns: Bob's at C, D, x.
    (a_c, a_d, a_x), (b_c, b_d, b_x), (x_c, x_d, x_x) = (
        rng.multinomial(n_post, [pa * pb for pa in alice for pb in bob])
        .reshape(3, 3)
        .tolist()
    )
    counts = CoincidenceCounts(
        n_post_selected_pairs=n_post,
        singles={
            "A": a_c + a_d + a_x,
            "B": b_c + b_d + b_x,
            "C": a_c + b_c + x_c,
            "D": a_d + b_d + x_d,
        },
        coincidences={"AD": a_d, "BC": b_c, "AC": a_c, "BD": b_d},
        loss_events=(x_c + x_d + x_x) + (a_x + b_x + x_x),
    )
    tally = SamplingTally(
        n_bins=src.n_time_bins,
        n_pair_bins=n_pair,
        n_multi_bins=n_multi,
        n_routing_rejected=n_rejected,
    )
    return McPointResult(counts=counts, tally=tally)


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
    root = np.random.SeedSequence(src.rng_seed)
    return [
        _accumulate_point(p, src, point_seq)
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
    pairs = [point.counts.n_post_selected_pairs for point in results]
    if normalization == "analytic":
        marginals = dict.fromkeys(DETECTORS, ANALYTIC_MARGINAL)
    else:
        total_pairs = sum(pairs)
        if total_pairs == 0:
            raise ValueError("no post-selected pairs anywhere in the sweep")
        marginals = {
            d: sum(point.counts.singles[d] for point in results) / total_pairs
            for d in DETECTORS
        }
    n = np.array(pairs, dtype=np.int64)
    if not (n > 0).all():
        raise ValueError("cannot estimate a correlation from zero post-selected pairs")
    if min(marginals.values()) <= 0.0:
        raise ValueError("measured marginals must be positive")
    columns = []
    for pair in ("AD", "BC"):
        denominator = marginals[pair[0]] * marginals[pair[1]]
        k = np.array(
            [point.counts.coincidences[pair] for point in results], dtype=np.int64
        )
        p_hat = k / n
        std_error = np.sqrt(p_hat * (1.0 - p_hat) / n) / denominator
        columns += [p_hat / denominator, std_error]
    return (*columns, n)
