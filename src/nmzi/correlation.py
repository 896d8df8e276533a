"""Closed-form detector intensities and cross-station correlations, columnwise.

A sweep is an ``(N, 4)`` float64 array whose columns are Alice's arm phase
``phi``, Bob's arm phase ``psi``, Alice's polarizer angle ``xi`` and Bob's
polarizer angle ``theta`` (``SETTINGS_COLUMNS``).  Each detector sees a
fringe factor

    A: 1 - sin(2 xi) cos(phi)      B: 1 + sin(2 xi) cos(phi)
    C: 1 - sin(2 theta) cos(psi)   D: 1 + sin(2 theta) cos(psi)

and :func:`record_at` evaluates every row at once; it is the one closed form,
and everything else derives from its columns.  A detector's intensity per
unit input is a quarter of its factor, and the four intensity columns are
the detection probabilities of one photon, which the Monte Carlo sampler
draws from.  The normalized coincidence correlation of two cross-station
detectors is the product of their factors, i.e. the intensity product divided
by the phase-averaged singles ``(1/4)^2``; its range is [0, 4].  In the
synchronized case ``phi = psi = rho`` with ``xi = theta = +-pi/4`` it
collapses to ``sin^2(rho)``, and summing a detector's intensity over the two
polarizer bases ``+-pi/4`` gives ``1/2`` at every phase.

The grid sweeps here regenerate the standard data sets: a synchronized-phase
scan, a two-phase map, and a phase-versus-polarizer map.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import _Record

QUARTER_TURN = math.pi / 4

# Columns of a settings array, and of the array record_at returns.
SETTINGS_COLUMNS = ("phi", "psi", "xi", "theta")
RECORD_COLUMNS = ("i_A", "i_B", "i_C", "i_D", "R_AD", "R_BC")

# Grid steps used by the named presets: fine enough to resolve every fringe
# feature at desk scale.
_STEP_1D = math.pi / 100
_STEP_2D = math.pi / 50

# Largest sweep, in grid points, that may be expanded.  The presets have at
# most 10 201; the cap keeps a mistyped step from exhausting memory.
MAX_GRID_POINTS = 10_000_000

# Sweepable parameters; rho and zeta are synchronized aliases that drive both
# stations' phase or polarizer angle at once.
SWEEP_PARAMS = ("phi", "psi", "xi", "theta", "rho", "zeta")
_ALIAS_TARGETS = {"rho": ("phi", "psi"), "zeta": ("xi", "theta")}

# sin(2 xi) overflows above this polarizer-angle magnitude, and every computed
# column is then nan.  Phases are not doubled, so they keep their range.
_MAX_POLARIZER_ANGLE = sys.float_info.max / 2


def _check_polarizer_angle(label: str, name: str, *values: float) -> None:
    if name in ("xi", "theta", "zeta") and max(map(abs, values)) > _MAX_POLARIZER_ANGLE:
        raise ValueError(f"{label}: polarizer angle above {_MAX_POLARIZER_ANGLE!r} in magnitude")


def synchronized_settings(rho, zeta: float) -> np.ndarray:
    """Rows ``(rho, rho, zeta, zeta)``: both stations driven identically."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    zeta = np.full_like(rho, zeta)
    return np.stack([rho, rho, zeta, zeta], axis=1)


def record_at(settings: np.ndarray) -> np.ndarray:
    """The computed CSV columns (``RECORD_COLUMNS``) for every row of ``settings``.

    Intensities are the fringe factors over 4; each station's pair sums to
    1/2, the other half being absorbed by the polarizer.  ``R_AD`` and
    ``R_BC`` are the products of the two detectors' factors.
    """
    phi, psi, xi, theta = settings.T
    alice = np.sin(2.0 * xi) * np.cos(phi)
    bob = np.sin(2.0 * theta) * np.cos(psi)
    f = np.stack([1.0 - alice, 1.0 + alice, 1.0 - bob, 1.0 + bob], axis=1)
    return np.column_stack([f / 4.0, f[:, 0] * f[:, 3], f[:, 1] * f[:, 2]])


# ----------------------------------------------------------------- grid sweeps

class SweepAxis(_Record):
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
        # The first and last grid points, the last as sweep_settings computes it.
        last = self.start + (self.count - 1) * self.step
        # Below the spacing of doubles at the larger end, start + k * step
        # repeats values there: the grid would not carry the step asked for.
        spacing = math.ulp(max(abs(self.start), abs(last)))
        if self.count > 1 and self.step < spacing:
            raise ValueError(
                f"axis {self.name}: step {self.step!r} is below the spacing "
                f"{spacing!r} of doubles at its grid values"
            )
        _check_polarizer_angle(f"axis {self.name}", self.name, self.start, last)

    @property
    def count(self) -> int:
        """Number of grid points, without building them."""
        # Include the stop point when it lands on the grid (to fp slack).
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1


class SweepSpec(_Record):
    """Axes to sweep (row-major in declared order) plus fixed parameter values.

    ``fixed`` is stored as ``(name, value)`` pairs sorted by name, the form
    of ``RunConfig.fixed``; a mapping or pairs are accepted.  Every parameter
    may be set once, by an axis or a fixed value; an alias (``rho``,
    ``zeta``) sets both of its targets.  Unset parameters are 0.
    """

    axes: tuple[SweepAxis, ...]
    fixed: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        given = tuple(self.fixed.items() if hasattr(self.fixed, "items") else self.fixed)
        if not self.axes:
            raise ValueError("sweep requires at least one axis")
        claimed: dict[str, str] = {}
        sources = [(axis.name, f"axis {axis.name}") for axis in self.axes]
        for name, value in given:
            if name not in SWEEP_PARAMS:
                raise ValueError(
                    f"unknown fixed parameter {name!r}, expected one of {SWEEP_PARAMS}"
                )
            if not math.isfinite(value):
                raise ValueError(f"fixed parameter {name!r} must be finite")
            _check_polarizer_angle(f"fixed parameter {name!r}", name, value)
            sources.append((name, f"fix {name}"))
        for name, source in sources:
            for target in _ALIAS_TARGETS.get(name, (name,)):
                if target in claimed:
                    raise ValueError(
                        f"parameter {target!r} set twice (via {claimed[target]} and {source})"
                    )
                claimed[target] = source
        self.__dict__["fixed"] = tuple(sorted(given))
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


def _columns(name: str) -> list[int]:
    return [SETTINGS_COLUMNS.index(t) for t in _ALIAS_TARGETS.get(name, (name,))]


def sweep_settings(spec: SweepSpec) -> np.ndarray:
    """Expand a sweep into an ``(N, 4)`` settings array, row-major."""
    settings = np.zeros((spec.n_points, len(SETTINGS_COLUMNS)))
    for name, value in spec.fixed:
        settings[:, _columns(name)] = value
    grids = np.meshgrid(
        *(axis.start + np.arange(axis.count) * axis.step for axis in spec.axes),
        indexing="ij",
    )
    for axis, grid in zip(spec.axes, grids):
        settings[:, _columns(axis.name)] = grid.reshape(-1, 1)
    return settings
