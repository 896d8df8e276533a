"""Tests for the photon-counting Monte Carlo: source statistics, detection
sampling, tally bookkeeping, and convergence of correlation estimates to the
closed forms.  ``test_sampler_reference.py`` compares the sampler with a
bin-by-bin reference.

Statistical checks use fixed seeds and 4-sigma (single draw) or exact binomial
(many seeds) criteria, so they are deterministic in practice.
"""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hyp_settings, strategies as st

from nmzi.correlation import QUARTER_TURN, record_at, synchronized_settings
from nmzi.montecarlo import (
    DETECTORS,
    ESTIMATE_COLUMNS,
    FATES,
    ROUTING_MODES,
    SourceParams,
    _class_masses,
    detector_singles,
    estimate_columns,
    run_experiment,
)


def binom_sigma(p: float, n: float) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def pair_bin_probability(mu: float) -> float:
    # Poisson mass at n = 2
    return math.exp(-mu) * mu * mu / 2.0


def port_probability(phase: float, pol: float, sign: float) -> float:
    # Independent oracle for the per-photon detection probabilities.
    return (1.0 + sign * math.sin(2.0 * pol) * math.cos(phase)) / 4.0


def run_single_point(settings, mu=0.2, n_bins=600_000, seed=101, **kw):
    """The ``(1, 12)`` count array of a one-point sweep."""
    src = SourceParams(
        mean_photon_number=mu, n_time_bins=n_bins, rng_seed=seed, **kw
    )
    return run_experiment(record_at(settings)[:, :4], src).counts


def estimate_ad(counts):
    """R_hat_AD and stderr_AD of one point, analytic normalization."""
    r_hat, std_error, *_ = estimate_columns(counts[:, :9], "analytic")
    return r_hat[0], std_error[0]


# Source statistics do not depend on the detector settings.
ANY_POINT = np.array([[0.9, 1.7, 0.5, 0.4]])


# ---------------------------------------------------------------------------
# SourceParams validation


def test_source_params_rejects_bad_values():
    with pytest.raises(ValueError):
        SourceParams(mean_photon_number=0.0, n_time_bins=100)
    with pytest.raises(ValueError):
        SourceParams(mean_photon_number=-0.1, n_time_bins=100)
    with pytest.raises(ValueError):
        SourceParams(mean_photon_number=math.nan, n_time_bins=100)
    with pytest.raises(ValueError):
        SourceParams(mean_photon_number=0.05, n_time_bins=0)
    with pytest.raises(ValueError):
        SourceParams(mean_photon_number=0.05, n_time_bins=2**63)
    with pytest.raises(ValueError):
        SourceParams(mean_photon_number=0.05, n_time_bins=100, rng_seed=-1)
    with pytest.raises(ValueError):
        SourceParams(mean_photon_number=0.05, n_time_bins=100, rng_seed=2**64)
    with pytest.raises(ValueError):
        SourceParams(mean_photon_number=0.05, n_time_bins=100, routing="teleport")


def test_source_params_warns_outside_attenuated_regime():
    with pytest.warns(UserWarning) as record:
        SourceParams(mean_photon_number=0.7, n_time_bins=100)
    # The warning names the line that built the source, not dataclass code.
    assert record[0].filename == __file__
    # At or below the threshold: silence.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SourceParams(mean_photon_number=0.5, n_time_bins=100)
        SourceParams(mean_photon_number=0.05, n_time_bins=100)


# ---------------------------------------------------------------------------
# Source sampling statistics


def test_pair_rate_matches_poisson_mass():
    mu, n_bins = 0.05, 1_000_000
    row = run_single_point(ANY_POINT, mu=mu, n_bins=n_bins, seed=11)[0].tolist()
    n_pairs = sum(row[:9])
    p2 = pair_bin_probability(mu)
    expected = n_bins * p2
    sigma = math.sqrt(n_bins * p2 * (1.0 - p2))
    assert abs(n_pairs - expected) < 4.0 * sigma
    assert sum(row) == n_bins
    # Pair bins: the post-selected pairs plus the routing-rejected ones.
    assert sum(row[:10]) == n_pairs
    assert row[9] == 0


@pytest.mark.parametrize("mu", [0.01, 0.05, 0.2])
def test_post_selection_fraction_across_regimes(mu):
    n_bins = 1_000_000
    n_pairs = sum(run_single_point(ANY_POINT, mu=mu, n_bins=n_bins, seed=7)[0, :10].tolist())
    p2 = pair_bin_probability(mu)
    sigma = math.sqrt(n_bins * p2 * (1.0 - p2))
    assert abs(n_pairs - n_bins * p2) < 4.0 * sigma
    if mu == 0.01:
        # Small-mu limit: pair rate per bin approaches mu^2 / 2.
        rate = n_pairs / n_bins
        assert abs(rate / mu**2 - 0.5) < 4.0 * sigma / (n_bins * mu**2) + 0.01


def reference_class_masses(mu: float) -> list[Decimal]:
    """``[p_pair, p_multi, p_low]`` at 50 digits, p_multi from its series."""
    with localcontext() as ctx:
        ctx.prec = 50
        m = Decimal(mu)
        weight = (-m).exp()
        term, multi, k = m**3 / 6, Decimal(0), 3
        while multi + term != multi:
            multi += term
            k += 1
            term = term * m / k
        return [weight * m * m / 2, weight * multi, weight * (1 + m)]


@given(st.floats(min_value=1e-12, max_value=50.0))
@example(1e-12)
@example(1e-9)
@example(1e-6)
@example(1e-5)
@example(1e-4)
@example(0.0099999)
@example(0.01)
@example(0.05)
@example(50.0)
def test_class_masses_match_a_50_digit_reference(mu):
    got = _class_masses(mu)
    expected = [float(p) for p in reference_class_masses(mu)]
    for i in (0, 2):
        assert abs(got[i] - expected[i]) <= 1e-14 * expected[i]
    if mu >= 0.01:
        # The remainder 1 - p_low - p_pair: exact up to its rounding near 1.
        assert abs(got[1] - expected[1]) <= 4 * 2.0**-52
    else:
        assert abs(got[1] - expected[1]) <= 1e-14 * expected[1]


@pytest.mark.parametrize("mu", [0.01, 0.05, 0.1, 0.2])
def test_class_masses_keep_the_remainder_formula_from_001_up(mu):
    p_low = math.exp(-mu) * (1.0 + mu)
    p_pair = math.exp(-mu) * mu * mu / 2.0
    assert _class_masses(mu) == [p_pair, max(0.0, 1.0 - p_low - p_pair), p_low]


def test_multi_photon_bins_counted_separately():
    mu, n_bins = 0.2, 1_000_000
    row = run_single_point(ANY_POINT, mu=mu, n_bins=n_bins, seed=23)[0].tolist()
    n_pair_bins, n_multi_bins = sum(row[:10]), row[10]
    p_multi = 1.0 - math.exp(-mu) * (1.0 + mu + mu * mu / 2.0)
    sigma = math.sqrt(n_bins * p_multi * (1.0 - p_multi))
    assert abs(n_multi_bins - n_bins * p_multi) < 4.0 * sigma
    # Multi-photon bins never become pairs.
    assert n_pair_bins + n_multi_bins <= n_bins


def test_binomial_routing_variant():
    mu, n_bins = 0.2, 400_000
    counts = run_single_point(
        ANY_POINT, mu=mu, n_bins=n_bins, seed=5, routing="binomial"
    )
    row = counts[0].tolist()
    n_pairs, n_rejected, n_pair_bins = sum(row[:9]), row[9], sum(row[:10])
    # Each photon of the pair picks a station independently, so half of the
    # two-photon bins put both photons on the same side and are rejected.
    assert n_rejected > 0
    sigma = math.sqrt(n_pair_bins * 0.25)
    assert abs(n_rejected - n_pair_bins / 2.0) < 4.0 * sigma
    assert n_pairs == n_pair_bins - n_rejected

    # And the draws stay deterministic.
    again = run_single_point(
        ANY_POINT, mu=mu, n_bins=n_bins, seed=5, routing="binomial"
    )
    assert np.array_equal(again, counts)


# ---------------------------------------------------------------------------
# Detection probabilities and sampled detection


@given(
    phi=st.floats(-7.0, 7.0),
    psi=st.floats(-7.0, 7.0),
    xi=st.floats(-7.0, 7.0),
    theta=st.floats(-7.0, 7.0),
)
def test_detection_probabilities_conserve_exactly(phi, psi, xi, theta):
    s = np.array([[phi, psi, xi, theta]])
    # The per-photon landing probabilities the sampler draws from.
    p = dict(zip(DETECTORS, record_at(s)[0, :4].tolist()))
    for detector in DETECTORS:
        assert 0.0 <= p[detector] <= 0.5
    # Each photon reaches its two detectors or the polarizer absorbs it;
    # the loss branch is exactly one half.
    assert p["A"] + p["B"] == 0.5
    assert p["C"] + p["D"] == 0.5
    assert abs(p["A"] - port_probability(phi, xi, -1.0)) < 1e-12
    assert abs(p["B"] - port_probability(phi, xi, +1.0)) < 1e-12
    assert abs(p["C"] - port_probability(psi, theta, -1.0)) < 1e-12
    assert abs(p["D"] - port_probability(psi, theta, +1.0)) < 1e-12


def test_dark_port_never_fires():
    s = np.array([[0.0, 0.0, QUARTER_TURN, QUARTER_TURN]])
    # About 20 000 pairs.
    fates = run_single_point(s, n_bins=1_220_000, seed=17)[0, :9].tolist()
    n = sum(fates)
    singles = detector_singles(fates)
    assert singles["A"] == 0
    assert singles["C"] == 0
    sigma = binom_sigma(0.5, n)
    assert abs(singles["B"] / n - 0.5) < 4.0 * sigma
    alice_losses = n - singles["A"] - singles["B"]
    assert abs(alice_losses / n - 0.5) < 4.0 * sigma
    assert abs(singles["D"] / n - 0.5) < 4.0 * sigma


def test_detection_flat_at_zero_polarizer():
    s = np.array([[1.234, 2.345, 0.0, 0.0]])
    fates = run_single_point(s, n_bins=1_220_000, seed=29)[0, :9].tolist()
    n = sum(fates)
    singles = detector_singles(fates)
    sigma = binom_sigma(0.25, n)
    for name in DETECTORS:
        assert abs(singles[name] / n - 0.25) < 4.0 * sigma


@given(
    phi=st.floats(-7.0, 7.0),
    xi=st.floats(-7.0, 7.0),
    seed=st.integers(0, 2**64 - 1),
    routing=st.sampled_from(["paired", "binomial"]),
)
@hyp_settings(max_examples=50)
def test_sampled_counts_are_well_formed(phi, xi, seed, routing):
    s = np.array([[phi, 0.3, xi, 0.7]])
    counts = run_single_point(s, n_bins=20_000, seed=seed, routing=routing)
    assert counts.shape == (1, 12) and counts.dtype == np.int64
    row = counts[0].tolist()
    fates = row[:9]
    assert len(fates) == len(FATES) == 9
    assert all(k >= 0 for k in row)
    n_pair_bins, n_multi_bins = sum(row[:10]), row[10]
    assert sum(row) == 20_000
    assert n_pair_bins + n_multi_bins <= 20_000
    assert sum(fates) == n_pair_bins - row[9] >= 0


# ---------------------------------------------------------------------------
# Tally bookkeeping


def test_counts_identities_hold():
    s = np.array([[0.9, 1.7, 0.5, 0.4]])
    fates = run_single_point(s)[0, :9].tolist()
    a_c, a_d, a_x, b_c, b_d, b_x, x_c, x_d, x_x = fates
    n = a_c + a_d + a_x + b_c + b_d + b_x + x_c + x_d + x_x
    assert n > 0
    assert sum(fates) == n
    assert detector_singles(fates) == {
        "A": a_c + a_d + a_x,
        "B": b_c + b_d + b_x,
        "C": a_c + b_c + x_c,
        "D": a_d + b_d + x_d,
    }
    coincidences = {pair: fates[FATES.index(pair)] for pair in ("AC", "AD", "BC", "BD")}
    assert coincidences == {"AC": a_c, "AD": a_d, "BC": b_c, "BD": b_d}


# ---------------------------------------------------------------------------
# Singles fringes and the polarizer-sign pooling


@pytest.mark.parametrize("phi", [0.7, 2.1])
def test_singles_fringe_matches_port_probability(phi):
    s = np.array([[phi, 1.1, QUARTER_TURN, 0.6]])
    fates = run_single_point(s, seed=31)[0, :9].tolist()
    n = sum(fates)
    singles = detector_singles(fates)
    expected = {
        "A": port_probability(phi, QUARTER_TURN, -1.0),
        "B": port_probability(phi, QUARTER_TURN, +1.0),
        "C": port_probability(1.1, 0.6, -1.0),
        "D": port_probability(1.1, 0.6, +1.0),
    }
    for d in DETECTORS:
        sigma = binom_sigma(expected[d], n)
        assert abs(singles[d] / n - expected[d]) < 4.0 * sigma


@pytest.mark.parametrize("phi", [0.0, 1.3, math.pi])
def test_polarizer_sign_pooling_flattens_fringe(phi):
    # Pooling runs at polarizer angles +pi/4 and -pi/4 washes out the phase
    # dependence: the pooled A rate is 1/4 of pooled pairs for every phi.
    plus = run_single_point(
        synchronized_settings(phi, QUARTER_TURN), seed=57, n_bins=400_000
    )[0, :9].tolist()
    minus = run_single_point(
        synchronized_settings(phi, -QUARTER_TURN), seed=58, n_bins=400_000
    )[0, :9].tolist()
    n1 = sum(plus)
    n2 = sum(minus)
    pooled_rate = (detector_singles(plus)["A"] + detector_singles(minus)["A"]) / (n1 + n2)
    p1 = port_probability(phi, QUARTER_TURN, -1.0)
    p2 = port_probability(phi, -QUARTER_TURN, -1.0)
    sigma = math.sqrt(n1 * p1 * (1 - p1) + n2 * p2 * (1 - p2)) / (n1 + n2)
    assert abs(pooled_rate - 0.25) < 4.0 * sigma


# ---------------------------------------------------------------------------
# Correlation estimation


def test_estimate_synchronized_peak():
    counts = run_single_point(
        synchronized_settings(math.pi / 2.0, QUARTER_TURN),
        mu=0.1,
        n_bins=4_000_000,
        seed=71,
    )
    value, std_error = estimate_ad(counts)
    assert std_error > 0
    assert abs(value - 1.0) <= 5.0 * std_error
    n_pairs = estimate_columns(counts[:, :9], "analytic")[-1]
    assert n_pairs.tolist() == [sum(counts[0, :9].tolist())]


def test_estimate_zero_phase_is_exactly_zero():
    counts = run_single_point(
        synchronized_settings(0.0, QUARTER_TURN), mu=0.1, n_bins=1_000_000, seed=73
    )
    value, std_error = estimate_ad(counts)
    # The dark port has probability exactly zero, so no AD coincidence can
    # ever occur.
    assert counts[0, FATES.index("AD")] == 0
    assert value == 0.0
    assert std_error == 0.0


def test_estimate_antisynchronized_peak_is_four():
    s = np.array([[math.pi, 0.0, QUARTER_TURN, QUARTER_TURN]])
    counts = run_single_point(s, mu=0.1, n_bins=2_000_000, seed=79)
    value, std_error = estimate_ad(counts)
    assert abs(value - 4.0) <= 5.0 * std_error


def test_estimate_rejects_degenerate_inputs():
    empty = np.zeros((1, 9), dtype=np.int64)
    # A point with no pairs has no estimate: nan, and n_pairs 0.
    *estimates, n_pairs = estimate_columns(empty, "analytic")
    assert np.isnan(estimates).all() and n_pairs.tolist() == [0]
    with pytest.raises(ValueError, match="anywhere in the sweep"):
        estimate_columns(empty, "measured")
    point = run_single_point(np.array([[1.0, 1.0, 0.5, 0.5]]), n_bins=100_000)[:, :9]
    *estimates, n_pairs = estimate_columns(np.concatenate([point, empty]), "measured")
    assert np.isfinite(np.array(estimates)[:, 0]).all()
    assert np.isnan(np.array(estimates)[:, 1]).all()
    assert n_pairs.tolist() == [point.sum(), 0]
    # Detectors A and C never fire at this point: neither pair has a
    # normalization, so all four estimates are nan and n_pairs is kept.
    dark = run_single_point(np.array([[0.0, 0.0, QUARTER_TURN, QUARTER_TURN]]))[:, :9]
    *estimates, n_pairs = estimate_columns(dark, "measured")
    assert np.isnan(estimates).all()
    assert n_pairs.tolist() == [dark.sum()] and dark.sum() > 0
    with pytest.raises(ValueError):
        estimate_columns(point, "bogus")


def sweep_singles(points):
    """Singles totals of nine-fate tuples (FATES order), restated by index."""
    return {
        "A": sum(f[0] + f[1] + f[2] for f in points),
        "B": sum(f[3] + f[4] + f[5] for f in points),
        "C": sum(f[0] + f[3] + f[6] for f in points),
        "D": sum(f[1] + f[4] + f[7] for f in points),
    }


def scalar_columns(points, normalization):
    """ESTIMATE_COLUMNS restated one point at a time, on Python ints and floats."""
    if normalization == "analytic":
        marginal = dict.fromkeys(DETECTORS, 0.25)
    else:
        total = sum(sum(f) for f in points)
        marginal = {d: k / total for d, k in sweep_singles(points).items()}
    rows = []
    for f in points:
        n = sum(f)
        row = []
        for k, left, right in ((f[1], "A", "D"), (f[3], "B", "C")):
            denominator = marginal[left] * marginal[right]
            p_hat = k / n
            row += [p_hat / denominator, math.sqrt(p_hat * (1.0 - p_hat) / n) / denominator]
        rows.append(row + [n])
    return rows


# Fate counts whose sum stays below 2**53, where the columnar floats must
# equal the scalar ones.
point_fates = st.tuples(*[st.integers(0, (2**53 - 1) // 9)] * 9).filter(
    lambda fates: sum(fates) > 0
)


@given(
    points=st.lists(point_fates, min_size=1, max_size=6),
    normalization=st.sampled_from(["analytic", "measured"]),
)
def test_estimate_columns_equal_scalar_formulas_bit_for_bit(points, normalization):
    assume(normalization == "analytic" or min(sweep_singles(points).values()) > 0)
    columns = estimate_columns(np.array(points, dtype=np.int64), normalization)
    assert len(columns) == len(ESTIMATE_COLUMNS)
    rows = [list(row) for row in zip(*(c.tolist() for c in columns))]
    expected = scalar_columns(points, normalization)
    assert [row[-1] for row in rows] == [row[-1] for row in expected]
    assert all(type(row[-1]) is int for row in rows)
    assert [[v.hex() for v in row[:-1]] for row in rows] == [
        [v.hex() for v in row[:-1]] for row in expected
    ]


def test_measured_normalization_close_to_analytic():
    # A full phase sweep supplies the measured marginals; at pi/4 polarizers
    # the sweep-averaged singles rate per detector approaches 1/4, so the
    # measured-normalization estimate lands near the analytic one.
    phases = [2.0 * math.pi * k / 8.0 for k in range(8)]
    points = synchronized_settings(phases, QUARTER_TURN)
    src = SourceParams(mean_photon_number=0.1, n_time_bins=1_000_000, rng_seed=83)
    fates = run_experiment(record_at(points)[:, :4], src).fates
    r_analytic, _, _, _, n_analytic = estimate_columns(fates, "analytic")
    r_measured, se_measured, _, _, n_measured = estimate_columns(fates, "measured")
    assert n_analytic.tolist() == n_measured.tolist()
    coincidences_ad = fates[:, FATES.index("AD")].tolist()
    for r_a, r_m, se_m, k in zip(r_analytic, r_measured, se_measured, coincidences_ad):
        assert abs(r_a - r_m) < 0.15
        assert se_m > 0 or k == 0


# ---------------------------------------------------------------------------
# run_experiment harness


def test_run_experiment_preserves_grid_and_determinism():
    points = synchronized_settings([0.4, 1.2, 2.0, 2.8], QUARTER_TURN)
    src = SourceParams(mean_photon_number=0.2, n_time_bins=200_000, rng_seed=91)
    first = run_experiment(record_at(points)[:, :4], src)
    second = run_experiment(record_at(points)[:, :4], src)
    assert first.counts.shape == (len(points), 12)
    assert np.array_equal(first.counts, second.counts)
    for c1, c2 in zip(
        estimate_columns(first.fates, "analytic"),
        estimate_columns(second.fates, "analytic"),
    ):
        assert c1.tolist() == c2.tolist()
    assert (first.counts.sum(axis=1) == 200_000).all()
    # Rows are sampled in 1024-row blocks aligned to the row index, one
    # generator per block, so a shorter sweep repeats the leading points
    # exactly.
    prefix = run_experiment(record_at(points[:2])[:, :4], src)
    assert np.array_equal(prefix.counts, first.counts[:2])


def test_run_experiment_rejects_empty_sweep():
    src = SourceParams(mean_photon_number=0.1, n_time_bins=1000, rng_seed=1)
    with pytest.raises(ValueError):
        run_experiment(np.empty((0, 4)), src)


def probabilities_with(value: float) -> np.ndarray:
    """Two rows of closed-form probabilities, one entry replaced by ``value``."""
    probabilities = record_at(synchronized_settings([0.0, 1.0], QUARTER_TURN))[:, :4]
    probabilities[1, 2] = value
    return probabilities


# Arrays the sampler must refuse, each for one reason.  The settings have
# its shape, but their station pairs sum to 0 and pi/2, not 1/2.
NOT_PROBABILITIES = {
    "nan": probabilities_with(math.nan),
    "inf": probabilities_with(math.inf),
    "-inf": probabilities_with(-math.inf),
    "empty": np.empty((0, 4)),
    "one_dimension": np.full(4, 0.25),
    "whole_record": record_at(synchronized_settings([0.0, 1.0], QUARTER_TURN)),
    "settings": synchronized_settings([0.0, 1.0], QUARTER_TURN),
    "negative": np.array([[-0.25, 0.75, 0.25, 0.25]]),
    # Alice's pair sums to 0.5 + 2**-53, Bob's to 0.5 - 2**-54.
    "pair_above_half": np.array([[0.25, math.nextafter(0.5, 1.0) - 0.25, 0.25, 0.25]]),
    "pair_below_half": np.array([[0.25, 0.25, 0.25, math.nextafter(0.5, 0.0) - 0.25]]),
}


@pytest.mark.parametrize("name", NOT_PROBABILITIES)
def test_run_experiment_refuses_bad_probabilities(name):
    src = SourceParams(mean_photon_number=0.1, n_time_bins=1000, rng_seed=1)
    with pytest.raises(ValueError, match="finite"):
        run_experiment(NOT_PROBABILITIES[name], src)


# Phases keep their full range; a polarizer angle is bounded where sin(2 xi)
# would overflow, as SweepAxis and SweepSpec bound it.
_PHASE = st.floats(allow_nan=False, allow_infinity=False)
_POLARIZER = st.floats(-sys.float_info.max / 2, sys.float_info.max / 2)


@given(st.lists(st.tuples(_PHASE, _PHASE, _POLARIZER, _POLARIZER), min_size=1, max_size=8))
@example([(0.0, math.pi, QUARTER_TURN, -QUARTER_TURN)])
def test_closed_form_probabilities_always_pass_the_sampler_check(rows):
    # Each station's pair of the closed form sums to exactly 1/2 at every
    # finite setting, so the sampler never refuses the program's own input.
    probabilities = record_at(np.array(rows))[:, :4]
    assert (probabilities[:, 0] + probabilities[:, 1] == 0.5).all()
    assert (probabilities[:, 2] + probabilities[:, 3] == 0.5).all()
    src = SourceParams(mean_photon_number=0.1, n_time_bins=10, rng_seed=1)
    assert run_experiment(probabilities, src).counts.shape == (len(rows), 12)


@pytest.mark.parametrize("routing", ROUTING_MODES)
def test_row_view_matches_count_array(routing):
    # Iteration builds the per-point records that benchmarks/tracer.py reads.
    from nmzi.montecarlo import McPointResult

    n_rows, n_bins = 1500, 20_000
    settings = np.random.default_rng(3).uniform(-np.pi, np.pi, (n_rows, 4))
    src = SourceParams(
        mean_photon_number=0.2, n_time_bins=n_bins, rng_seed=17, routing=routing
    )
    sweep = run_experiment(record_at(settings)[:, :4], src)
    counts = sweep.counts
    assert counts.shape == (n_rows, 12) and counts.dtype == np.int64
    assert (counts.sum(axis=1) == n_bins).all()
    assert np.array_equal(sweep.fates, counts[:, :9])
    with pytest.raises(ValueError):
        counts[0, 0] = 1
    rows = list(sweep)
    assert len(rows) == n_rows
    for i, row in enumerate(rows):
        assert type(row) is McPointResult
        assert row.counts.fates == tuple(counts[i, :9].tolist())
        assert row.counts.coincidences == dict(
            zip(("AC", "AD", "BC", "BD"), counts[i, [0, 1, 3, 4]].tolist())
        )
        assert row.tally.n_bins == n_bins
        assert row.tally.n_pair_bins == counts[i, :10].sum()
        assert row.tally.n_multi_bins == counts[i, 10]
        assert row.tally.n_routing_rejected == counts[i, 9]
        assert row.tally.n_post_selected == counts[i, :9].sum()
    assert all(type(k) is int for k in rows[0].counts.fates)
    if routing == "paired":
        assert not counts[:, 9].any()
    # Each iteration starts again at row 0.
    assert list(sweep) == rows


# ---------------------------------------------------------------------------
# Statistical convergence across seeds


def exact_binomial_band(n: int, p: float, alpha: float) -> tuple[int, int]:
    """The band [lo, hi] of Binomial(n, p) whose two tails each hold <= alpha/2.

    The mass is summed from log-space terms: ``comb(n, k) * p**k`` overflows
    a float beyond ~1000 trials.
    """
    log_pmf = np.array([
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(n + 1)
    ])
    pmf = np.exp(log_pmf)
    at_most = np.cumsum(pmf)  # P(K <= k)
    at_least = np.cumsum(pmf[::-1])[::-1]  # P(K >= k)
    lo = int(np.flatnonzero(at_most > alpha / 2.0)[0])
    hi = int(np.flatnonzero(at_least > alpha / 2.0)[-1])
    return lo, hi


def test_exact_binomial_band_bounds_its_tails():
    # Small enough to sum exactly with Fractions.
    n, p, alpha = 40, 0.9, 1e-3
    lo, hi = exact_binomial_band(n, p, alpha)
    pmf = [math.comb(n, k) * Fraction(p) ** k * (1 - Fraction(p)) ** (n - k)
           for k in range(n + 1)]
    assert sum(pmf[:lo]) <= alpha / 2 < sum(pmf[:lo + 1])
    assert sum(pmf[hi + 1:]) <= alpha / 2 < sum(pmf[hi:])


def test_two_sigma_coverage_over_seeds_is_nominal():
    # The reported 2-sigma bar must cover the closed form on P(|Z| <= 2) of
    # the seeds, within an exact binomial band at a 1e-6 false alarm.  This
    # bright point counts ~218 AD coincidences per seed; a Wald bar
    # under-covers at small counts (Brown, Cai & DasGupta 2001), so dim and
    # dark points are not gated here.
    rho, n_seeds = 1.0, 2000
    truth = math.sin(rho) ** 2
    point = record_at(synchronized_settings(rho, QUARTER_TURN))[:, :4]
    rows = []
    for seed in range(n_seeds):
        src = SourceParams(
            mean_photon_number=0.2, n_time_bins=300_000, rng_seed=seed
        )
        columns = estimate_columns(run_experiment(point, src).fates, "analytic")
        rows.append([column[0] for column in columns])
    r_hat, std_error, _, _, n_pairs = np.array(rows).T
    covered = int(np.sum(np.abs(r_hat - truth) <= 2.0 * std_error))
    lo, hi = exact_binomial_band(n_seeds, math.erf(math.sqrt(2.0)), 1e-6)
    assert lo <= covered <= hi
    # z in the closed form's own standard error at each seed's pair count:
    # the coincidence probability is R / 16.
    p = truth / 16.0
    z = (r_hat - truth) / (16.0 * np.sqrt(p * (1.0 - p) / n_pairs))
    assert abs(np.std(z) - 1.0) <= 0.1
    assert np.abs(z).max() < 5.0


def test_std_error_scales_as_inverse_sqrt_pairs():
    point = record_at(synchronized_settings(1.0, QUARTER_TURN))[:, :4]
    ratios = []
    for seed in range(10):
        small = SourceParams(
            mean_photon_number=0.2, n_time_bins=200_000, rng_seed=seed
        )
        large = SourceParams(
            mean_photon_number=0.2, n_time_bins=800_000, rng_seed=seed
        )
        _, se_small = estimate_ad(run_experiment(point, small).counts)
        _, se_large = estimate_ad(run_experiment(point, large).counts)
        ratios.append(se_small / se_large)
    mean_ratio = sum(ratios) / len(ratios)
    # Quadrupling the bins quadruples the pairs, halving the error.
    assert 1.8 < mean_ratio < 2.2
