"""Self-verification: run the model's identity checks and report deviations.

Analytic checks exercise exact algebraic identities (tolerance 1e-12, or
exactly zero where conservation is exact by construction).  Each evaluates
the closed-form kernel (:func:`nmzi.correlation.fringe_factors`) once, on its
whole check grid.  The paper's special forms -- ``sin^2(rho)`` for
synchronized stations and the ``+-pi/4`` basis sum of ``1/2`` -- are restated
here and checked against that kernel, not derived from it.  The optional
Monte Carlo block re-derives the closed forms from photon statistics at
modest sample sizes with sigma-scaled tolerances.

``run_verification`` accepts the element conventions under test so a
deliberately corrupted convention set can be fed in as a negative control;
the composed-versus-closed-form check must then fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import (
    QUARTER_TURN,
    fringe_factors,
    record_at,
    synchronized_settings,
)
from .elements import (
    ALGEBRA_TOL,
    DEFAULT_CONVENTIONS,
    ElementConventions,
    beam_splitter_mix,
)
from .montecarlo import DETECTORS, SourceParams, estimate_columns, run_experiment
from .station import (
    StationParams,
    closed_form_station,
    composed_station,
    station_outputs_deviation,
)


@dataclass(frozen=True)
class CheckResult:
    """One verified invariant: its worst observed deviation vs the bound."""

    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name}: max deviation {self.max_deviation:.3e} "
            f"(tolerance {self.tolerance:.1e})"
        )


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        out = [check.line() for check in self.checks]
        n_failed = sum(not check.passed for check in self.checks)
        if n_failed:
            out.append(f"{n_failed} of {len(self.checks)} checks FAILED")
        else:
            out.append(f"all {len(self.checks)} checks passed")
        return out


_PHASES = [2.0 * math.pi * k / 8.0 for k in range(8)]
_POL_ANGLES = [0.0, math.pi / 6.0, QUARTER_TURN, 1.0, -QUARTER_TURN]


def _check_composed_station(conventions: ElementConventions) -> CheckResult:
    worst = 0.0
    for phi in _PHASES:
        for zeta in _POL_ANGLES:
            for eta in (0.0, 0.7):
                for amplitude in (1.0, 0.5):
                    params = StationParams(
                        mzi_phase=phi,
                        polarizer_angle=zeta,
                        global_phase=eta,
                        input_amplitude=amplitude,
                    )
                    deviation = station_outputs_deviation(
                        composed_station(params, conventions),
                        closed_form_station(params),
                    )
                    worst = max(worst, deviation)
    return CheckResult("composed station matches closed form", worst, ALGEBRA_TOL)


def _check_beam_splitter_unitarity() -> CheckResult:
    rng = np.random.default_rng(1905)
    worst = 0.0
    for phase in (1j, -1j, 1.0, complex(math.cos(0.3), math.sin(0.3))):
        conventions = ElementConventions(bs_reflection_phase=phase)
        for _ in range(50):
            re = rng.normal(size=4)
            upper = complex(re[0], re[1])
            lower = complex(re[2], re[3])
            out_upper, out_lower = beam_splitter_mix(upper, lower, conventions)
            before = abs(upper) ** 2 + abs(lower) ** 2
            after = abs(out_upper) ** 2 + abs(out_lower) ** 2
            worst = max(worst, abs(after - before))
    return CheckResult("beam splitter conserves energy", worst, ALGEBRA_TOL)


def _check_station_energy() -> CheckResult:
    worst = 0.0
    for phi in _PHASES:
        for zeta in _POL_ANGLES:
            params = StationParams(
                mzi_phase=phi, polarizer_angle=zeta, input_amplitude=0.8
            )
            outputs = closed_form_station(params)
            total = outputs.e_out1.intensity() + outputs.e_out2.intensity()
            worst = max(worst, abs(total - 0.8**2))
    return CheckResult("station outputs carry the input energy", worst, ALGEBRA_TOL)


def _grid(*columns) -> np.ndarray:
    """Settings rows over the product of per-column values, row-major."""
    mesh = np.meshgrid(*columns, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _both_signs(rho: np.ndarray) -> np.ndarray:
    """Synchronized rows at polarizers +pi/4, then the same phases at -pi/4."""
    return np.concatenate(
        [synchronized_settings(rho, sign * QUARTER_TURN) for sign in (+1, -1)]
    )


def _check_intensities_match_projections() -> CheckResult:
    settings = _grid(_PHASES, _PHASES[::2], _POL_ANGLES, [0.6])
    intensities = fringe_factors(settings) / 4.0
    worst = 0.0
    for (phi, psi, xi, theta), (i_a, i_b, i_c, i_d) in zip(
        settings.tolist(), intensities.tolist()
    ):
        alice = closed_form_station(StationParams(mzi_phase=phi, polarizer_angle=xi))
        bob = closed_form_station(StationParams(mzi_phase=psi, polarizer_angle=theta))
        worst = max(
            worst,
            abs(i_a - abs(alice.e_proj_minus) ** 2),
            abs(i_b - abs(alice.e_proj_plus) ** 2),
            abs(i_c - abs(bob.e_proj_minus) ** 2),
            abs(i_d - abs(bob.e_proj_plus) ** 2),
        )
    return CheckResult(
        "detector intensities equal projected station amplitudes", worst, ALGEBRA_TOL
    )


def _check_correlation_product_identity() -> CheckResult:
    records = record_at(_grid(_PHASES, _PHASES[::2], [0.5], [1.1]))
    i_a, i_b, i_c, i_d, r_ad, r_bc = records.T
    marginal_sq = (1.0 / 4.0) ** 2
    worst = max(
        np.max(np.abs(r_ad * marginal_sq - i_a * i_d)),
        np.max(np.abs(r_bc * marginal_sq - i_b * i_c)),
    )
    return CheckResult(
        "correlation times squared marginal equals intensity product",
        float(worst),
        ALGEBRA_TOL,
    )


def _check_synchronized_form() -> CheckResult:
    # The paper's synchronized special form, restated: sin^2(rho) at either
    # polarizer sign.
    settings = _both_signs(np.linspace(0.0, 2.0 * math.pi, 97))
    _, _, _, _, r_ad, _ = record_at(settings).T
    worst = np.max(np.abs(r_ad - np.sin(settings[:, 0]) ** 2))
    return CheckResult(
        "synchronized correlation equals squared sine", float(worst), ALGEBRA_TOL
    )


def _check_probability_conservation() -> CheckResult:
    phi = np.linspace(0.0, 2.0 * math.pi, 41)
    xi = np.linspace(-math.pi, math.pi, 37)
    settings = _grid(phi, [1.3], xi)
    settings = np.column_stack([settings, settings[:, 2]])  # theta = xi
    p_a, p_b, p_c, p_d = (fringe_factors(settings) / 4.0).T
    worst = max(np.max(np.abs(p_a + p_b - 0.5)), np.max(np.abs(p_c + p_d - 0.5)))
    return CheckResult("detection probabilities conserve exactly", float(worst), 0.0)


def _check_local_basis_sum() -> CheckResult:
    # The paper's basis sum, restated: a detector's intensity summed over the
    # polarizer bases +-pi/4 is 1/2 at every phase.
    settings = _both_signs(np.linspace(0.0, 2.0 * math.pi, 61))
    plus, minus = np.split(fringe_factors(settings) / 4.0, 2)
    worst = np.max(np.abs(plus + minus - 0.5))
    return CheckResult(
        "polarizer-basis sum hides the fringe locally", float(worst), ALGEBRA_TOL
    )


def _default_source() -> SourceParams:
    return SourceParams(mean_photon_number=0.05, n_time_bins=400_000, rng_seed=20260815)


def _sigma_or_inf(observed: float, expected: float, sigma: float) -> float:
    if sigma > 0.0:
        return abs(observed - expected) / sigma
    return 0.0 if observed == expected else math.inf


def _check_mc_convergence(source: SourceParams) -> CheckResult:
    points = synchronized_settings(_PHASES, QUARTER_TURN)
    r_hat, std_error, *_ = estimate_columns(run_experiment(points, source), "analytic")
    # The sampling target: at phases where the coincidence probability is
    # exactly zero, both the estimate and this truth are exact zeros.
    _, _, _, _, r_ad, _ = record_at(points).T
    worst = 0.0
    for truth, value, sigma in zip(r_ad.tolist(), r_hat.tolist(), std_error.tolist()):
        worst = max(worst, _sigma_or_inf(value, truth, sigma))
    return CheckResult(
        "monte carlo correlation converges at 8 synchronized phases (sigmas)",
        worst,
        5.0,
    )


def _check_mc_singles(source: SourceParams) -> CheckResult:
    settings = np.array([[0.9, 1.7, QUARTER_TURN, 0.6]])
    counts = run_experiment(settings, source)[0].counts
    n = counts.n_post_selected_pairs
    if n == 0:
        raise ValueError("cannot estimate singles rates from zero post-selected pairs")
    probabilities = (fringe_factors(settings)[0] / 4.0).tolist()
    worst = 0.0
    for detector, p in zip(DETECTORS, probabilities):
        sigma = math.sqrt(p * (1.0 - p) / n)
        worst = max(worst, _sigma_or_inf(counts.singles[detector] / n, p, sigma))
    return CheckResult("monte carlo singles follow the fringe (sigmas)", worst, 4.0)


def _check_mc_post_selection(source: SourceParams) -> CheckResult:
    settings = synchronized_settings(1.0, QUARTER_TURN)
    tally = run_experiment(settings, source)[0].tally
    mu = source.mean_photon_number
    p2 = math.exp(-mu) * mu * mu / 2.0
    sigma = math.sqrt(tally.n_bins * p2 * (1.0 - p2))
    deviation = _sigma_or_inf(float(tally.n_pair_bins), tally.n_bins * p2, sigma)
    return CheckResult(
        "doubly bunched bin fraction matches poisson mass (sigmas)", deviation, 4.0
    )


def run_verification(
    include_montecarlo: bool = True,
    source: SourceParams | None = None,
    conventions: ElementConventions = DEFAULT_CONVENTIONS,
) -> VerificationReport:
    """Evaluate every invariant check and collect the report."""
    checks = [
        _check_composed_station(conventions),
        _check_beam_splitter_unitarity(),
        _check_station_energy(),
        _check_intensities_match_projections(),
        _check_correlation_product_identity(),
        _check_synchronized_form(),
        _check_probability_conservation(),
        _check_local_basis_sum(),
    ]
    if include_montecarlo:
        mc_source = source if source is not None else _default_source()
        checks += [
            _check_mc_convergence(mc_source),
            _check_mc_singles(mc_source),
            _check_mc_post_selection(mc_source),
        ]
    return VerificationReport(checks=tuple(checks))
