"""Complex-amplitude Jones algebra for the five optical element kinds.

Field amplitudes are plain Python ``complex`` scalars (dimensionless units).
A polarized spatial mode is a :class:`JonesVector` holding the two complex
coefficients on the orthonormal H/V linear basis, so its intensity is
``|h|^2 + |v|^2`` and intensities add across orthogonal components.

Phase conventions for the lossless elements are not forced by physics alone,
so they are collected in :class:`ElementConventions` and fixed once as
:data:`DEFAULT_CONVENTIONS`.  The defaults are the symmetric 50:50 beam
splitter (transmission ``1/sqrt(2)``, reflection ``i/sqrt(2)``), a polarizing
splitter whose reflected (V) arm also picks up ``i``, and unit mirror phase;
the station-level oracle test is the arbiter that this triple composes to the
intended interferometer transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Default tolerance for algebraic identities (unitarity, losslessness, ...).
ALGEBRA_TOL = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _require_unit_modulus(name: str, value: complex) -> None:
    if abs(abs(value) - 1.0) > ALGEBRA_TOL:
        raise ValueError(f"{name} must have unit magnitude, got |{value!r}| = {abs(value)}")


@dataclass(frozen=True)
class ElementConventions:
    """Unit phase factors picked up on reflection at each element kind."""

    bs_reflection_phase: complex = 1j
    pbs_reflection_phase: complex = 1j
    mirror_phase: complex = 1.0

    def __post_init__(self) -> None:
        _require_unit_modulus("bs_reflection_phase", self.bs_reflection_phase)
        _require_unit_modulus("pbs_reflection_phase", self.pbs_reflection_phase)
        _require_unit_modulus("mirror_phase", self.mirror_phase)


DEFAULT_CONVENTIONS = ElementConventions()


@dataclass(frozen=True)
class JonesVector:
    """Polarization state of one spatial mode on the H/V basis."""

    h: complex
    v: complex

    def intensity(self) -> float:
        return abs(self.h) ** 2 + abs(self.v) ** 2


@dataclass(frozen=True)
class TwoModeField:
    """Two co-propagating spatial modes, e.g. the two arms of an interferometer."""

    upper: JonesVector
    lower: JonesVector


def beam_splitter_mix(
    in_upper: complex,
    in_lower: complex,
    conv: ElementConventions = DEFAULT_CONVENTIONS,
) -> tuple[complex, complex]:
    """Mix two spatial-mode amplitudes on a lossless 50:50 beam splitter.

    Transfer matrix ``(1/sqrt2) [[1, r], [-conj(r), 1]]`` with
    ``r = conv.bs_reflection_phase``; unitary for any unit ``r`` and equal to
    the symmetric ``i``-reflection convention at the default ``r = i``.
    """
    r = conv.bs_reflection_phase
    out_upper = (in_upper + r * in_lower) * _SQRT_HALF
    out_lower = (-r.conjugate() * in_upper + in_lower) * _SQRT_HALF
    return out_upper, out_lower


def pbs_split(
    field: JonesVector,
    conv: ElementConventions = DEFAULT_CONVENTIONS,
) -> tuple[complex, complex]:
    """Split a polarized mode: H transmits, V reflects with the PBS phase.

    Returns the scalar amplitudes ``(path_h, path_v)`` of the two outgoing
    arms, which carry pure H and pure V polarization respectively.
    """
    return field.h, conv.pbs_reflection_phase * field.v


def half_wave_plate(field: JonesVector, fast_axis_angle: float) -> JonesVector:
    """Half-wave plate with its fast axis at ``fast_axis_angle`` from H.

    Jones matrix ``[[cos 2a, sin 2a], [sin 2a, -cos 2a]]``: linear
    polarization at angle b maps to ``2a - b``.  Real and involutory, so the
    same plate applied twice is the identity.
    """
    c = math.cos(2.0 * fast_axis_angle)
    s = math.sin(2.0 * fast_axis_angle)
    return JonesVector(h=c * field.h + s * field.v, v=s * field.h - c * field.v)


def phase_shift(amplitude: complex, phi: float) -> complex:
    """Propagation phase: multiply by ``e^{i phi}``."""
    return amplitude * complex(math.cos(phi), math.sin(phi))


def mirror_reflect(
    amplitude: complex,
    conv: ElementConventions = DEFAULT_CONVENTIONS,
) -> complex:
    """Mirror bounce: multiply by the conventional mirror phase."""
    return amplitude * conv.mirror_phase


def polarizer_project(field: JonesVector, zeta: float) -> complex:
    """Project onto the linear polarization direction at angle ``zeta``.

    Positive ``zeta`` is counterclockwise from the horizontal axis; the
    projection amplitude is ``h cos(zeta) + v sin(zeta)``, so a negative
    angle flips the sign of the V contribution.
    """
    return field.h * math.cos(zeta) + field.v * math.sin(zeta)
