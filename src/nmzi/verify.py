"""Self-verification: run the model's identity checks and report deviations.

Analytic checks exercise exact algebraic identities (tolerance 1e-12, or
exactly zero where conservation is exact by construction).  Each is an array
call on its whole check grid: of the closed-form kernel
(:func:`nmzi.correlation.fringe_factors`), of the station models, or of the
beam splitter, once per reflection phase.  The paper's special forms --
``sin^2(rho)`` for synchronized stations and the ``+-pi/4`` basis sum of
``1/2`` -- are restated here and checked against that kernel, not derived
from it.

The Monte Carlo checks compare the photon counts of one draw, nine sweep
points from the given source, with the closed forms.  Each compares a count
``k`` of ``n`` trials with its closed-form probability ``p`` by one rule,
``|k/n - p| / sqrt(p (1 - p) / n)``, so a point that counted nothing is
measured in the truth's sigma, not in its own +-0 error bar; the tolerances
are in those sigmas.

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
from .montecarlo import DETECTORS, FATES, SourceParams, detector_singles, run_experiment
from .station import (
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
# Settings (phi, psi, xi, theta) with unequal phases and no dark detector.
_GENERAL_POINT = (0.9, 1.7, QUARTER_TURN, 0.6)


def _grid(*columns) -> np.ndarray:
    """Settings rows over the product of per-column values, row-major."""
    mesh = np.meshgrid(*columns, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _check_composed_station(conventions: ElementConventions) -> CheckResult:
    phi, zeta, eta, e0 = _grid(_PHASES, _POL_ANGLES, [0.0, 0.7], [1.0, 0.5]).T
    deviation = station_outputs_deviation(
        composed_station(phi, zeta, eta, e0, conventions),
        closed_form_station(phi, zeta, eta, e0),
    )
    return CheckResult(
        "composed station matches closed form", float(deviation.max()), ALGEBRA_TOL
    )


def _check_beam_splitter_unitarity() -> CheckResult:
    rng = np.random.default_rng(1905)
    worst = 0.0
    for phase in (1j, -1j, 1.0, complex(math.cos(0.3), math.sin(0.3))):
        conventions = ElementConventions(bs_reflection_phase=phase)
        # Each row of four normals is one (upper, lower) pair of amplitudes.
        upper, lower = rng.normal(size=(50, 4)).view(complex).T
        out_upper, out_lower = beam_splitter_mix(upper, lower, conventions)
        before = np.abs(upper) ** 2 + np.abs(lower) ** 2
        after = np.abs(out_upper) ** 2 + np.abs(out_lower) ** 2
        worst = max(worst, float(np.max(np.abs(after - before))))
    return CheckResult("beam splitter conserves energy", worst, ALGEBRA_TOL)


def _check_station_energy() -> CheckResult:
    phi, zeta = _grid(_PHASES, _POL_ANGLES).T
    unprojected = closed_form_station(phi, zeta, e0=0.8)[:, :4]
    total = np.sum(np.abs(unprojected) ** 2, axis=1)
    worst = np.max(np.abs(total - 0.8**2))
    return CheckResult(
        "station outputs carry the input energy", float(worst), ALGEBRA_TOL
    )


def _both_signs(rho: np.ndarray) -> np.ndarray:
    """Synchronized rows at polarizers +pi/4, then the same phases at -pi/4."""
    return np.concatenate(
        [synchronized_settings(rho, sign * QUARTER_TURN) for sign in (+1, -1)]
    )


def _check_intensities_match_projections() -> CheckResult:
    settings = _grid(_PHASES, _PHASES[::2], _POL_ANGLES, [0.6])
    # Phases (phi, psi) against polarizers (xi, theta): Alice's station, then
    # Bob's, whose projected amplitudes land on A, B and C, D.
    projected = closed_form_station(settings[:, :2], settings[:, 2:])[..., 4:]
    worst = np.max(
        np.abs(fringe_factors(settings) / 4.0 - np.abs(projected.reshape(-1, 4)) ** 2)
    )
    return CheckResult(
        "detector intensities equal projected station amplitudes",
        float(worst),
        ALGEBRA_TOL,
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


def _binomial_z(k: int, n: int, p: float) -> float:
    """How far ``k`` successes in ``n`` trials lie from probability ``p``, in sigmas.

    The sigma is the closed form's own, ``sqrt(p (1 - p) / n)``, so a zero
    count is measured like any other.  At an exactly dark or certain ``p``
    that sigma is zero, and any deviation there is infinite.
    """
    if n == 0:
        raise ValueError("cannot compare a rate over zero post-selected pairs")
    sigma = math.sqrt(p * (1.0 - p) / n)
    if sigma > 0.0:
        return abs(k / n - p) / sigma
    return 0.0 if k / n == p else math.inf


def _check_montecarlo(source: SourceParams) -> list[CheckResult]:
    """The photon-counting checks, all read from one draw of nine points.

    Rows 0-7 are the synchronized phases, whose AD coincidence rate must be
    ``R_AD / 16``; row 8 is a general point, whose singles must follow its
    fringe; the doubly bunched bins of all nine rows must make up the
    Poisson pair mass.
    """
    settings = np.concatenate(
        [synchronized_settings(_PHASES, QUARTER_TURN), [_GENERAL_POINT]]
    )
    counts = run_experiment(settings, source).counts
    fates = counts[:, :9].tolist()
    n_post = [sum(row) for row in fates]
    records = record_at(settings)
    # Columns 0-3 are the landing probabilities at A-D, column 4 is R_AD.
    convergence = max(
        _binomial_z(k, n, r_ad / 16.0)
        for k, n, r_ad in zip(
            counts[:8, FATES.index("AD")].tolist(), n_post, records[:8, 4].tolist()
        )
    )
    general = detector_singles(fates[8])
    singles = max(
        _binomial_z(general[d], n_post[8], p)
        for d, p in zip(DETECTORS, records[8, :4].tolist())
    )
    mu = source.mean_photon_number
    # A row's pair bins are its nine fates plus its routing-rejected pairs.
    pair_bins = _binomial_z(
        sum(counts[:, :10].sum(axis=1).tolist()),
        source.n_time_bins * len(counts),
        math.exp(-mu) * mu * mu / 2.0,
    )
    return [
        CheckResult(
            "monte carlo correlation converges at 8 synchronized phases (sigmas)",
            convergence,
            5.0,
        ),
        CheckResult("monte carlo singles follow the fringe (sigmas)", singles, 4.0),
        CheckResult(
            "doubly bunched bin fraction matches poisson mass (sigmas)", pair_bins, 4.0
        ),
    ]


def run_verification(
    source: SourceParams,
    conventions: ElementConventions = DEFAULT_CONVENTIONS,
) -> VerificationReport:
    """Evaluate every invariant check and collect the report.

    The Monte Carlo checks sample from ``source``.
    """
    checks = [
        _check_composed_station(conventions),
        _check_beam_splitter_unitarity(),
        _check_station_energy(),
        _check_intensities_match_projections(),
        _check_correlation_product_identity(),
        _check_synchronized_form(),
        _check_probability_conservation(),
        _check_local_basis_sum(),
        *_check_montecarlo(source),
    ]
    return VerificationReport(checks=tuple(checks))
