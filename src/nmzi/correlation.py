"""Closed-form detector intensities and cross-station correlation functions.

With Alice's arm phase ``phi`` and polarizer angle ``xi`` (Bob: ``psi``,
``theta``), each detector sees a fringe factor

    A: 1 - sin(2 xi) cos(phi)      B: 1 + sin(2 xi) cos(phi)
    C: 1 - sin(2 theta) cos(psi)   D: 1 + sin(2 theta) cos(psi)

and an intensity of ``i0/4`` times its factor.  The normalized coincidence
correlation of two cross-station detectors is the product of their factors,
i.e. the intensity product divided by the phase-averaged singles ``(i0/4)^2``.
Its range is [0, 4]; in the synchronized case ``phi = psi = rho`` with
``xi = theta = +-pi/4`` it collapses to ``sin^2(rho)``.

The grid sweeps here regenerate the standard data sets: a synchronized-phase
scan, a two-phase map, and a phase-versus-polarizer map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

from .elements import ALGEBRA_TOL

QUARTER_TURN = math.pi / 4

# Detector pairs with one detector per station; correlations are defined only
# across the two parties.
CROSS_STATION_PAIRS = ("AD", "BC", "AC", "BD")

# Grid steps used by the named presets: fine enough to resolve every fringe
# feature at desk scale.
_STEP_1D = math.pi / 100
_STEP_2D = math.pi / 50

# Largest sweep, in grid points, that may be expanded.  The presets have at
# most 10 201; the cap keeps a mistyped step from exhausting memory.
MAX_GRID_POINTS = 10_000_000

_ALICE_DETECTORS = frozenset("AB")
_BOB_DETECTORS = frozenset("CD")

# Sweepable parameters; rho and zeta are synchronized aliases that drive both
# stations' phase or polarizer angle at once.
SWEEP_PARAMS = ("phi", "psi", "xi", "theta", "rho", "zeta")
_ALIAS_TARGETS = {"rho": ("phi", "psi"), "zeta": ("xi", "theta")}


@dataclass(frozen=True)
class JointSettings:
    """Settings of both stations plus the input intensity per photon."""

    phi_a: float
    psi_b: float
    xi_a: float
    theta_b: float
    i0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("phi_a", "psi_b", "xi_a", "theta_b", "i0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.i0 < 0.0:
            raise ValueError(f"i0 must be non-negative, got {self.i0}")


@dataclass(frozen=True)
class CorrelationRecord:
    """One sweep point: settings, four intensities, cross correlations."""

    settings: JointSettings
    i_a: float
    i_b: float
    i_c: float
    i_d: float
    r_ad: float
    r_bc: float


def synchronized_settings(rho: float, zeta: float, i0: float = 1.0) -> JointSettings:
    """Both stations driven identically: phase ``rho``, polarizer ``zeta``."""
    return JointSettings(phi_a=rho, psi_b=rho, xi_a=zeta, theta_b=zeta, i0=i0)


def fringe_factor(detector: str, settings: JointSettings) -> float:
    """Per-detector fringe factor in [0, 2]."""
    if detector in _ALICE_DETECTORS:
        modulation = math.sin(2.0 * settings.xi_a) * math.cos(settings.phi_a)
        return 1.0 - modulation if detector == "A" else 1.0 + modulation
    if detector in _BOB_DETECTORS:
        modulation = math.sin(2.0 * settings.theta_b) * math.cos(settings.psi_b)
        return 1.0 - modulation if detector == "C" else 1.0 + modulation
    raise ValueError(f"unknown detector {detector!r}, expected one of A, B, C, D")


def detector_intensities(settings: JointSettings) -> tuple[float, float, float, float]:
    """Mean intensities at detectors (A, B, C, D).

    Each station's pair sums to ``i0/2``: the other half is absorbed by the
    polarizer.
    """
    quarter = settings.i0 / 4.0
    return tuple(quarter * fringe_factor(d, settings) for d in "ABCD")  # type: ignore[return-value]


def synchronized_correlation(rho: float) -> float:
    """Coincidence correlation for synchronized stations at polarizer +-pi/4.

    Equals the general correlation at ``phi = psi = rho``,
    ``xi = theta = +-pi/4``, already normalized to unit peak.
    """
    return math.sin(rho) ** 2


def cross_correlation_fixed_pol(phi: float, psi: float, sign: int) -> float:
    """Correlation of the A/D pair with both polarizers fixed at ``sign * pi/4``.

    ``sign=+1`` gives ``(1 - cos phi)(1 + cos psi)``; ``sign=-1`` swaps the
    signs.  Range [0, 4].
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return (1.0 - sign * math.cos(phi)) * (1.0 + sign * math.cos(psi))


def general_cross_correlation(settings: JointSettings, pair: str) -> float:
    """Normalized coincidence correlation for one cross-station detector pair.

    The value is the product of the two fringe factors, equal to
    ``16 * I_i * I_j / i0^2``.
    """
    if pair not in CROSS_STATION_PAIRS:
        raise ValueError(
            f"pair must name one detector per station ({', '.join(CROSS_STATION_PAIRS)}), "
            f"got {pair!r}"
        )
    return fringe_factor(pair[0], settings) * fringe_factor(pair[1], settings)


def local_basis_sum(rho: float, detector: str, i0: float = 1.0) -> float:
    """Singles intensity summed over the two polarizer bases ``+-pi/4``.

    The fringe terms cancel exactly, leaving ``i0/2`` for every detector and
    every phase: summing over the basis pair restores local randomness.
    """
    if i0 < 0.0:
        raise ValueError(f"i0 must be non-negative, got {i0}")
    index = "ABCD".index(detector)
    plus = detector_intensities(synchronized_settings(rho, QUARTER_TURN, i0))
    minus = detector_intensities(synchronized_settings(rho, -QUARTER_TURN, i0))
    return plus[index] + minus[index]


# ----------------------------------------------------------------- grid sweeps

@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter on a uniform grid [start, stop] with given step."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if self.name not in SWEEP_PARAMS:
            raise ValueError(
                f"unknown sweep parameter {self.name!r}, expected one of {SWEEP_PARAMS}"
            )
        for attr in ("start", "stop", "step"):
            if not math.isfinite(getattr(self, attr)):
                raise ValueError(f"axis {self.name}: {attr} must be finite")
        if self.step <= 0.0:
            raise ValueError(f"axis {self.name}: step must be positive, got {self.step}")
        if self.start >= self.stop:
            raise ValueError(
                f"axis {self.name}: start must be below stop, got [{self.start}, {self.stop}]"
            )
        steps = (self.stop - self.start) / self.step
        if not steps < MAX_GRID_POINTS:
            raise ValueError(
                f"axis {self.name}: {steps:.6g} steps exceed the cap of "
                f"{MAX_GRID_POINTS} grid points"
            )

    @property
    def count(self) -> int:
        """Number of grid points, without building them."""
        # Include the stop point when it lands on the grid (to fp slack).
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def points(self) -> list[float]:
        return [self.start + k * self.step for k in range(self.count)]


@dataclass(frozen=True)
class SweepSpec:
    """Axes to sweep (row-major in declared order) plus fixed parameter values."""

    axes: tuple[SweepAxis, ...]
    fixed: Mapping[str, float] = field(default_factory=dict)
    i0: float = 1.0

    def __post_init__(self) -> None:
        if self.n_points > MAX_GRID_POINTS:
            raise ValueError(
                f"sweep has {self.n_points} grid points, above the cap of "
                f"{MAX_GRID_POINTS}"
            )

    @property
    def n_points(self) -> int:
        """Number of grid points, from the axes alone."""
        return math.prod(axis.count for axis in self.axes)


PRESETS: dict[str, SweepSpec] = {
    # Synchronized phase scan at polarizers +pi/4: correlation is sin^2(rho).
    "fig2": SweepSpec(
        axes=(SweepAxis("rho", 0.0, 2.0 * math.pi, _STEP_1D),),
        fixed={"zeta": QUARTER_TURN},
    ),
    # Two-phase map at fixed diagonal polarizers.
    "fig3": SweepSpec(
        axes=(
            SweepAxis("phi", 0.0, 2.0 * math.pi, _STEP_2D),
            SweepAxis("psi", 0.0, 2.0 * math.pi, _STEP_2D),
        ),
        fixed={"xi": QUARTER_TURN, "theta": QUARTER_TURN},
    ),
    # Alice's phase against her polarizer angle, Bob held fixed.
    "fig4": SweepSpec(
        axes=(
            SweepAxis("phi", 0.0, 2.0 * math.pi, _STEP_2D),
            SweepAxis("xi", 0.0, 2.0 * math.pi, _STEP_2D),
        ),
        fixed={"psi": 0.0, "theta": QUARTER_TURN},
    ),
}


def _validate_param_coverage(spec: SweepSpec) -> None:
    claimed: dict[str, str] = {}

    def claim(param: str, source: str) -> None:
        targets = _ALIAS_TARGETS.get(param, (param,))
        for target in targets:
            if target in claimed:
                raise ValueError(
                    f"parameter {target!r} set twice (via {claimed[target]} and {source})"
                )
            claimed[target] = source

    for axis in spec.axes:
        claim(axis.name, f"axis {axis.name}")
    for name in spec.fixed:
        if name not in SWEEP_PARAMS:
            raise ValueError(
                f"unknown fixed parameter {name!r}, expected one of {SWEEP_PARAMS}"
            )
        if not math.isfinite(spec.fixed[name]):
            raise ValueError(f"fixed parameter {name!r} must be finite")
        claim(name, f"fix {name}")


def _settings_from_values(values: Mapping[str, float], i0: float) -> JointSettings:
    resolved = {"phi": 0.0, "psi": 0.0, "xi": 0.0, "theta": 0.0}
    for name, value in values.items():
        for target in _ALIAS_TARGETS.get(name, (name,)):
            resolved[target] = value
    return JointSettings(
        phi_a=resolved["phi"],
        psi_b=resolved["psi"],
        xi_a=resolved["xi"],
        theta_b=resolved["theta"],
        i0=i0,
    )


def record_at(settings: JointSettings) -> CorrelationRecord:
    i_a, i_b, i_c, i_d = detector_intensities(settings)
    return CorrelationRecord(
        settings=settings,
        i_a=i_a,
        i_b=i_b,
        i_c=i_c,
        i_d=i_d,
        r_ad=general_cross_correlation(settings, "AD"),
        r_bc=general_cross_correlation(settings, "BC"),
    )


def sweep_settings(spec: SweepSpec) -> list[JointSettings]:
    """Expand a sweep into one JointSettings per grid point, row-major."""
    if not spec.axes:
        raise ValueError("sweep requires at least one axis")
    _validate_param_coverage(spec)
    grids = [axis.points() for axis in spec.axes]
    names = [axis.name for axis in spec.axes]
    out = []
    for combo in product(*grids):
        values = dict(spec.fixed)
        values.update(zip(names, combo))
        out.append(_settings_from_values(values, spec.i0))
    return out


def sweep(spec: SweepSpec) -> list[CorrelationRecord]:
    """Evaluate intensities and correlations on every grid point of the sweep."""
    return [record_at(s) for s in sweep_settings(spec)]
