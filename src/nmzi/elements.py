"""Complex-amplitude Jones algebra for the five optical element kinds.

Field amplitudes are complex scalars or complex arrays (dimensionless
units); every element broadcasts its amplitudes against its angles, so one
call transforms a whole grid of settings.  A polarized spatial mode is the
pair ``(h, v)`` of its complex coefficients on the orthonormal H/V linear
basis, passed and returned as two amplitudes, so its intensity is
``|h|^2 + |v|^2`` and intensities add across orthogonal components.

Phase conventions for the lossless elements are not forced by physics alone,
so they are collected in :class:`ElementConventions` and fixed once as
:data:`DEFAULT_CONVENTIONS`.  The defaults are the symmetric 50:50 beam
splitter (transmission ``1/sqrt(2)``, reflection ``i/sqrt(2)``) and a
polarizing splitter whose reflected (V) arm also picks up ``i``; the
station-level oracle test is the arbiter that this pair composes to the
intended interferometer transfer.
"""

from __future__ import annotations

import math

import numpy as np

from . import _Record

# Default tolerance for algebraic identities (unitarity, losslessness, ...).
ALGEBRA_TOL = 1e-12

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _require_unit_modulus(name: str, value: complex) -> None:
    if abs(abs(value) - 1.0) > ALGEBRA_TOL:
        raise ValueError(f"{name} must have unit magnitude, got |{value!r}| = {abs(value)}")


class ElementConventions(_Record):
    """Unit phase factors picked up on reflection at the two splitters.

    Both move the station's fringe, so a wrong one shows in every check
    against the closed form.  A phase that both arms share, such as a mirror
    bounce, reaches no intensity and has no field here.
    """

    bs_reflection_phase: complex = 1j
    pbs_reflection_phase: complex = 1j

    def __post_init__(self) -> None:
        _require_unit_modulus("bs_reflection_phase", self.bs_reflection_phase)
        _require_unit_modulus("pbs_reflection_phase", self.pbs_reflection_phase)


DEFAULT_CONVENTIONS = ElementConventions()


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
    h: complex, v: complex, conv: ElementConventions = DEFAULT_CONVENTIONS
) -> tuple[complex, complex]:
    """Split the mode ``(h, v)``: H transmits, V reflects with the PBS phase.

    Returns the scalar amplitudes ``(path_h, path_v)`` of the two outgoing
    arms, which carry pure H and pure V polarization respectively.
    """
    return h, conv.pbs_reflection_phase * v


def half_wave_plate(
    h: complex, v: complex, fast_axis_angle: float
) -> tuple[complex, complex]:
    """Half-wave plate with its fast axis at ``fast_axis_angle`` from H.

    Returns the new ``(h, v)``.  Jones matrix
    ``[[cos 2a, sin 2a], [sin 2a, -cos 2a]]``: linear polarization at angle b
    maps to ``2a - b``.  Real and involutory, so the same plate applied twice
    is the identity.
    """
    c = np.cos(2.0 * fast_axis_angle)
    s = np.sin(2.0 * fast_axis_angle)
    return c * h + s * v, s * h - c * v


def phase_shift(amplitude: complex, phi: float) -> complex:
    """Propagation phase: multiply by ``e^{i phi}``."""
    return amplitude * np.exp(1j * phi)


def polarizer_project(h: complex, v: complex, zeta: float) -> complex:
    """Project ``(h, v)`` onto the linear polarization at angle ``zeta``.

    Positive ``zeta`` is counterclockwise from the horizontal axis; the
    projection amplitude is ``h cos(zeta) + v sin(zeta)``, so a negative
    angle flips the sign of the V contribution.
    """
    return h * np.cos(zeta) + v * np.sin(zeta)
