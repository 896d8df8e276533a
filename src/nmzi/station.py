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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .elements import (
    ALGEBRA_TOL,
    DEFAULT_CONVENTIONS,
    ElementConventions,
    JonesVector,
    TwoModeField,
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


def _is_finite_complex(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class StationParams:
    """Settings of one station.

    ``global_phase`` models the source-to-station path length; it is zero for
    the reference station and arbitrary for the remote one.
    """

    mzi_phase: float
    polarizer_angle: float
    global_phase: float = 0.0
    input_amplitude: complex = 1.0

    def __post_init__(self) -> None:
        for name in ("mzi_phase", "polarizer_angle", "global_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not _is_finite_complex(complex(self.input_amplitude)):
            raise ValueError("input_amplitude must be finite")


@dataclass(frozen=True)
class StationOutputs:
    """Pre-polarizer output modes plus the two projected amplitudes.

    ``e_proj_minus`` is the projection of output 1 (the ``cos - sin e^{i phi}``
    port, feeding detector A or C); ``e_proj_plus`` projects output 2
    (detector B or D).
    """

    e_out1: JonesVector
    e_out2: JonesVector
    e_proj_minus: complex
    e_proj_plus: complex

    def amplitudes(self) -> tuple[complex, ...]:
        return (
            self.e_out1.h,
            self.e_out1.v,
            self.e_out2.h,
            self.e_out2.v,
            self.e_proj_minus,
            self.e_proj_plus,
        )


def closed_form_station(params: StationParams) -> StationOutputs:
    """Evaluate the station transfer directly from the closed-form expressions."""
    half = 0.5 * complex(params.input_amplitude) * cmath.exp(1j * params.global_phase)
    fringe = cmath.exp(1j * params.mzi_phase)
    zeta = params.polarizer_angle
    e_out1 = JonesVector(h=half, v=-half * fringe)
    e_out2 = JonesVector(h=1j * half, v=1j * half * fringe)
    e_proj_minus = half * (math.cos(zeta) - math.sin(zeta) * fringe)
    e_proj_plus = 1j * half * (math.cos(zeta) + math.sin(zeta) * fringe)
    return StationOutputs(e_out1, e_out2, e_proj_minus, e_proj_plus)


def composed_station(
    params: StationParams,
    conv: ElementConventions = DEFAULT_CONVENTIONS,
) -> StationOutputs:
    """Build the station from its optical elements, step by step."""
    e_in = phase_shift(complex(params.input_amplitude), params.global_phase)
    prepared = half_wave_plate(JonesVector(h=0.0, v=e_in), HWP_PREPARATION_ANGLE)

    arm_h, arm_v = pbs_split(prepared, conv)
    arm_v = phase_shift(arm_v, params.mzi_phase)
    arm_h = mirror_reflect(arm_h, conv)
    arm_v = mirror_reflect(arm_v, conv)

    # The recombining splitter mixes the spatial modes componentwise; the H
    # arm carries no V amplitude and vice versa.
    out1_h, out2_h = beam_splitter_mix(arm_h, 0.0, conv)
    out1_v, out2_v = beam_splitter_mix(0.0, arm_v, conv)
    outputs = TwoModeField(
        upper=JonesVector(h=out1_h, v=out1_v),
        lower=JonesVector(h=out2_h, v=out2_v),
    )

    zeta = params.polarizer_angle
    return StationOutputs(
        e_out1=outputs.upper,
        e_out2=outputs.lower,
        e_proj_minus=polarizer_project(outputs.upper, zeta),
        e_proj_plus=polarizer_project(outputs.lower, zeta),
    )


def station_outputs_deviation(
    candidate: StationOutputs,
    reference: StationOutputs,
    tol: float = ALGEBRA_TOL,
) -> float:
    """Largest componentwise mismatch after removing one shared global phase.

    The phase is extracted from the first reference component of appreciable
    magnitude; only relative phases are observable, so a common factor is not
    a discrepancy.  The returned deviation is relative to the largest
    reference amplitude (or absolute for an all-zero reference) and includes
    any departure of the extracted factor from unit modulus.
    """
    cand = candidate.amplitudes()
    ref = reference.amplitudes()
    scale = max(max(abs(z) for z in ref), 1.0)
    phase = None
    for c, r in zip(cand, ref):
        if abs(r) > tol * scale:
            phase = c / r
            break
    if phase is None:
        # Reference is all-zero; candidate must be too.
        return max(abs(c) for c in cand) / scale
    deviation = abs(abs(phase) - 1.0)
    phase /= abs(phase)
    mismatch = max(abs(c - phase * r) for c, r in zip(cand, ref)) / scale
    return max(deviation, mismatch)
