"""One measurement station: a polarization-split Mach-Zehnder with a polarizer.

A station takes a vertically polarized input photon of amplitude ``e0``,
rotates it to diagonal with a half-wave plate, splits H/V onto the two
interferometer arms with a polarizing splitter, drives the V arm with the
station phase, recombines on a 50:50 splitter, and finally projects each of
the two outputs onto a polarizer at the station's analysis angle.

Because the arms carry orthogonal polarizations, the bare outputs show no
first-order fringe; the fringe only appears in the projected amplitudes.
The closed-form transfer is

    e_out1 = (e0/2) e^{i eta} (H - V e^{i phi})
    e_out2 = (i e0/2) e^{i eta} (H + V e^{i phi})
    e_proj_minus = (e0/2) e^{i eta} (cos z - sin z e^{i phi})
    e_proj_plus  = (i e0/2) e^{i eta} (cos z + sin z e^{i phi})

with ``phi`` the arm phase, ``z`` the polarizer angle and ``eta`` a global
propagation phase that never reaches any intensity.  :func:`composed_station`
builds the same outputs element by element and is checked against
:func:`closed_form_station` up to one shared global phase.

Both take the settings as scalars or numpy arrays that broadcast together,
and return a complex array whose last axis holds the six amplitudes in the
order ``e_out1.h, e_out1.v, e_out2.h, e_out2.v, e_proj_minus,
e_proj_plus``.  ``e_proj_minus`` projects output 1 (the ``cos - sin
e^{i phi}`` port, feeding detector A or C); ``e_proj_plus`` projects
output 2 (detector B or D).
"""

from __future__ import annotations

import math

import numpy as np

from .elements import (
    DEFAULT_CONVENTIONS,
    ElementConventions,
    beam_splitter_mix,
    half_wave_plate,
    mirror_reflect,
    pbs_split,
    phase_shift,
    polarizer_project,
)

# Fast-axis angle that takes the vertical input to diagonal polarization so
# the polarizing splitter feeds both arms equally.
HWP_PREPARATION_ANGLE = 3.0 * math.pi / 8.0


def _require_finite(**settings) -> None:
    for name, value in settings.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite")


def _amplitudes(*columns) -> np.ndarray:
    """The six output amplitudes, broadcast together, on the last axis."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def closed_form_station(phi, zeta, eta=0.0, e0=1.0) -> np.ndarray:
    """Evaluate the station transfer directly from the closed-form expressions.

    ``eta`` is the source-to-station path phase: zero for the reference
    station, arbitrary for the remote one.  ``e0`` is the input amplitude.
    """
    _require_finite(phi=phi, zeta=zeta, eta=eta, e0=e0)
    half = 0.5 * e0 * np.exp(1j * eta)
    fringe = np.exp(1j * phi)
    return _amplitudes(
        half,
        -half * fringe,
        1j * half,
        1j * half * fringe,
        half * (np.cos(zeta) - np.sin(zeta) * fringe),
        1j * half * (np.cos(zeta) + np.sin(zeta) * fringe),
    )


def composed_station(
    phi,
    zeta,
    eta=0.0,
    e0=1.0,
    conv: ElementConventions = DEFAULT_CONVENTIONS,
) -> np.ndarray:
    """Build the station from its optical elements, step by step."""
    _require_finite(phi=phi, zeta=zeta, eta=eta, e0=e0)
    e_in = phase_shift(e0, eta)
    prepared = half_wave_plate(0.0, e_in, HWP_PREPARATION_ANGLE)

    arm_h, arm_v = pbs_split(*prepared, conv)
    arm_v = phase_shift(arm_v, phi)
    arm_h = mirror_reflect(arm_h, conv)
    arm_v = mirror_reflect(arm_v, conv)

    # The recombining splitter mixes the spatial modes componentwise; the H
    # arm carries no V amplitude and vice versa.
    out1_h, out2_h = beam_splitter_mix(arm_h, 0.0, conv)
    out1_v, out2_v = beam_splitter_mix(0.0, arm_v, conv)
    return _amplitudes(
        out1_h,
        out1_v,
        out2_h,
        out2_v,
        polarizer_project(out1_h, out1_v, zeta),
        polarizer_project(out2_h, out2_v, zeta),
    )


def station_outputs_deviation(candidate, reference) -> np.ndarray:
    """Largest mismatch per setting after removing one shared global phase.

    ``candidate`` and ``reference`` hold six amplitudes on their last axis;
    the result has one deviation per setting.  Only relative phases are
    observable, so the candidate is compared with ``phase * reference``,
    where ``phase`` is the unit phase of the overlap ``<reference|candidate>``
    summed over the six amplitudes (1 where the overlap is 0).  The result is
    ``max|candidate - phase * reference|`` over ``max(max|reference|, 1)``, so
    a change of modulus shows too, and an all-zero reference measures the
    candidate absolutely.
    """
    overlap = np.sum(np.conj(reference) * candidate, axis=-1)
    # The phase comes from the overlap's angle, not overlap / |overlap|: a
    # subnormal overlap (amplitudes near 1e-158) overflows that quotient.
    phase = np.where(overlap != 0.0, np.exp(1j * np.angle(overlap)), 1.0)
    scale = np.maximum(np.abs(reference).max(axis=-1), 1.0)
    return np.abs(candidate - phase[..., None] * reference).max(axis=-1) / scale
