"""Self-verification: run the model's identity checks and report deviations.

Analytic checks exercise exact algebraic identities (tolerance 1e-12, or
exactly zero where conservation is exact by construction).  Each is a
function returning the residual array of its identity, one array call on its
whole check grid: of the closed form (:func:`nmzi.correlation.record_at`,
whose intensity columns are the detection probabilities), of the station
models, or of the beam splitter, once per reflection phase.
:func:`run_verification` lists the eight once.  The paper's special forms
-- ``sin^2(rho)`` for synchronized stations and the ``+-pi/4`` basis sum of
``1/2`` -- are restated here and checked against that closed form, not
derived from it.

The Monte Carlo checks compare the photon counts of one draw, nine sweep
points from the given source, with the closed forms.  One ``record_at`` call
gives both the sampler's detection probabilities and the expected values the
counts are compared with.  Each compares a count
``k`` of ``n`` trials with its closed-form probability ``p`` by one rule,
``|k/n - p| / sqrt(p (1 - p) / n)``, so a point that counted nothing is
measured in the truth's sigma, not in its own +-0 error bar; the tolerances
are in those sigmas.

Every check, analytic or Monte Carlo, is one ``(name, tolerance,
deviation)`` row, where the deviation is a residual array or the sigmas of
the compared counts, and one expression turns each row into a
:class:`CheckResult` whose deviation is the row's largest ``|deviation|``.

``run_verification`` accepts the element conventions under test so a
deliberately corrupted convention set can be fed in as a negative control;
the composed-versus-closed-form check must then fail.
"""

from __future__ import annotations

import math

import numpy as np

from . import _Record
from .correlation import QUARTER_TURN, RECORD_COLUMNS, record_at, synchronized_settings
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


class CheckResult(_Record):
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


class VerificationReport(_Record):
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


def _record(settings: np.ndarray) -> dict:
    """:func:`record_at`'s columns, by their ``RECORD_COLUMNS`` names."""
    return dict(zip(RECORD_COLUMNS, record_at(settings).T))


def _composed_station_mismatch(conventions: ElementConventions) -> np.ndarray:
    phi, zeta, eta, e0 = _grid(_PHASES, _POL_ANGLES, [0.0, 0.7], [1.0, 0.5]).T
    return station_outputs_deviation(
        composed_station(phi, zeta, eta, e0, conventions),
        closed_form_station(phi, zeta, eta, e0),
    )


def _beam_splitter_energy_change() -> np.ndarray:
    rng = np.random.default_rng(1905)
    changes = []
    for phase in (1j, -1j, 1.0, complex(math.cos(0.3), math.sin(0.3))):
        conventions = ElementConventions(bs_reflection_phase=phase)
        # Each row of four normals is one (upper, lower) pair of amplitudes.
        upper, lower = rng.normal(size=(50, 4)).view(complex).T
        out_upper, out_lower = beam_splitter_mix(upper, lower, conventions)
        before = np.abs(upper) ** 2 + np.abs(lower) ** 2
        after = np.abs(out_upper) ** 2 + np.abs(out_lower) ** 2
        changes.append(after - before)
    return np.concatenate(changes)


def _station_energy_change() -> np.ndarray:
    phi, zeta = _grid(_PHASES, _POL_ANGLES).T
    unprojected = closed_form_station(phi, zeta, e0=0.8)[:, :4]
    return np.sum(np.abs(unprojected) ** 2, axis=1) - 0.8**2


def _both_signs(rho: np.ndarray) -> np.ndarray:
    """Synchronized rows at polarizers +pi/4, then the same phases at -pi/4."""
    return np.concatenate(
        [synchronized_settings(rho, sign * QUARTER_TURN) for sign in (+1, -1)]
    )


def _intensity_projection_mismatch() -> np.ndarray:
    settings = _grid(_PHASES, _PHASES[::2], _POL_ANGLES, [0.6])
    # Phases (phi, psi) against polarizers (xi, theta): Alice's station, then
    # Bob's, whose projected amplitudes land on A, B and C, D.
    projected = closed_form_station(settings[:, :2], settings[:, 2:])[..., 4:]
    return record_at(settings)[:, :4] - np.abs(projected.reshape(-1, 4)) ** 2


def _product_identity_mismatch() -> np.ndarray:
    r = _record(_grid(_PHASES, _PHASES[::2], [0.5], [1.1]))
    marginal_sq = 0.25**2
    ad = r["R_AD"] * marginal_sq - r["i_A"] * r["i_D"]
    bc = r["R_BC"] * marginal_sq - r["i_B"] * r["i_C"]
    return np.concatenate([ad, bc])


def _synchronized_form_mismatch() -> np.ndarray:
    # The paper's synchronized special form, restated: sin^2(rho) at either
    # polarizer sign.
    settings = _both_signs(np.linspace(0.0, 2.0 * math.pi, 97))
    return _record(settings)["R_AD"] - np.sin(settings[:, 0]) ** 2


def _station_probability_excess() -> np.ndarray:
    phi = np.linspace(0.0, 2.0 * math.pi, 41)
    xi = np.linspace(-math.pi, math.pi, 37)
    settings = _grid(phi, [1.3], xi)
    settings = np.column_stack([settings, settings[:, 2]])  # theta = xi
    r = _record(settings)
    return np.concatenate([r["i_A"] + r["i_B"] - 0.5, r["i_C"] + r["i_D"] - 0.5])


def _basis_sum_excess() -> np.ndarray:
    # The paper's basis sum, restated: a detector's intensity summed over the
    # polarizer bases +-pi/4 is 1/2 at every phase.
    settings = _both_signs(np.linspace(0.0, 2.0 * math.pi, 61))
    plus, minus = np.split(record_at(settings)[:, :4], 2)
    return plus + minus - 0.5


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


def _results(table) -> list[CheckResult]:
    """One check per ``(name, tolerance, deviation)`` row: the largest
    ``|deviation|`` against the tolerance."""
    return [CheckResult(name, float(np.max(np.abs(d))), tol) for name, tol, d in table]


def _check_montecarlo(source: SourceParams) -> list[CheckResult]:
    """The photon-counting checks, all read from one draw of nine points.

    Rows 0-7 are the synchronized phases, whose AD coincidence rate must be
    ``R_AD / 16``; row 8 is a general point, whose singles must follow its
    fringe; the doubly bunched bins of all nine rows must make up the
    Poisson pair mass.  Each check's deviation is its sigmas, one per
    compared count.
    """
    settings = np.concatenate(
        [synchronized_settings(_PHASES, QUARTER_TURN), [_GENERAL_POINT]]
    )
    records = record_at(settings)
    counts = run_experiment(records[:, :4], source).counts
    fates = counts[:, :9].tolist()
    n_post = [sum(row) for row in fates]
    ad = counts[:8, FATES.index("AD")].tolist()
    r_ad = records[:8, RECORD_COLUMNS.index("R_AD")].tolist()
    general = detector_singles(fates[8])
    mu = source.mean_photon_number
    return _results([
        ("monte carlo correlation converges at 8 synchronized phases (sigmas)", 5.0,
         [_binomial_z(k, n, r / 16.0) for k, n, r in zip(ad, n_post, r_ad)]),
        ("monte carlo singles follow the fringe (sigmas)", 4.0,
         [_binomial_z(general[d], n_post[8], p)
          for d, p in zip(DETECTORS, records[8, :4].tolist())]),
        # A row's pair bins are its nine fates plus its routing-rejected pairs.
        ("doubly bunched bin fraction matches poisson mass (sigmas)", 4.0,
         _binomial_z(sum(counts[:, :10].sum(axis=1).tolist()),
                     source.n_time_bins * len(counts), math.exp(-mu) * mu * mu / 2.0)),
    ])


def run_verification(
    source: SourceParams,
    conventions: ElementConventions = DEFAULT_CONVENTIONS,
) -> VerificationReport:
    """Evaluate every invariant check and collect the report.

    The Monte Carlo checks sample from ``source``.
    """
    analytic = [
        ("composed station matches closed form", ALGEBRA_TOL,
         _composed_station_mismatch(conventions)),
        ("beam splitter conserves energy", ALGEBRA_TOL, _beam_splitter_energy_change()),
        ("station outputs carry the input energy", ALGEBRA_TOL, _station_energy_change()),
        ("detector intensities equal projected station amplitudes", ALGEBRA_TOL,
         _intensity_projection_mismatch()),
        ("correlation times squared marginal equals intensity product", ALGEBRA_TOL,
         _product_identity_mismatch()),
        ("synchronized correlation equals squared sine", ALGEBRA_TOL,
         _synchronized_form_mismatch()),
        ("detection probabilities conserve exactly", 0.0, _station_probability_excess()),
        ("polarizer-basis sum hides the fringe locally", ALGEBRA_TOL, _basis_sum_excess()),
    ]
    return VerificationReport(checks=(*_results(analytic), *_check_montecarlo(source)))
