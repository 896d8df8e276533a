"""Station checks: closed-form outputs against hand-derived values, and the
element-composed station against the closed form as oracle."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nmzi.elements import ALGEBRA_TOL, DEFAULT_CONVENTIONS, ElementConventions
from nmzi.station import (
    StationParams,
    StationOutputs,
    closed_form_station,
    composed_station,
    station_outputs_deviation,
)

angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)
amplitudes = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


def params(phi=0.0, zeta=0.0, eta=0.0, e0=1.0):
    return StationParams(
        mzi_phase=phi, polarizer_angle=zeta, global_phase=eta, input_amplitude=e0
    )


def test_closed_form_dark_port_at_zero_phase_diagonal_polarizer():
    out = closed_form_station(params(phi=0.0, zeta=math.pi / 4))
    assert abs(out.e_proj_minus) < ALGEBRA_TOL


def test_closed_form_bright_port_at_pi_phase():
    # (1/2)(cos(pi/4) + sin(pi/4)) = 1/sqrt2, squared magnitude 1/2.
    out = closed_form_station(params(phi=math.pi, zeta=math.pi / 4))
    assert abs(abs(out.e_proj_minus) ** 2 - 0.5) < ALGEBRA_TOL


def test_closed_form_matches_published_transfer():
    phi, e0 = 0.7, 2.0 - 0.5j
    out = closed_form_station(params(phi=phi, zeta=0.3, e0=e0))
    ephi = cmath.exp(1j * phi)
    assert abs(out.e_out1.h - e0 / 2) < ALGEBRA_TOL
    assert abs(out.e_out1.v - (-e0 / 2 * ephi)) < ALGEBRA_TOL
    assert abs(out.e_out2.h - 1j * e0 / 2) < ALGEBRA_TOL
    assert abs(out.e_out2.v - 1j * e0 / 2 * ephi) < ALGEBRA_TOL


@given(angles, angles, angles)
def test_global_phase_never_changes_intensities(phi, zeta, eta):
    base = closed_form_station(params(phi=phi, zeta=zeta, eta=0.0))
    shifted = closed_form_station(params(phi=phi, zeta=zeta, eta=eta))
    for a, b in [
        (base.e_out1, shifted.e_out1),
        (base.e_out2, shifted.e_out2),
    ]:
        assert abs(a.intensity() - b.intensity()) < ALGEBRA_TOL
    assert abs(abs(base.e_proj_minus) ** 2 - abs(shifted.e_proj_minus) ** 2) < ALGEBRA_TOL
    assert abs(abs(base.e_proj_plus) ** 2 - abs(shifted.e_proj_plus) ** 2) < ALGEBRA_TOL


@given(angles, angles, angles, amplitudes)
def test_energy_conservation_before_polarizer(phi, zeta, eta, e0):
    out = closed_form_station(params(phi=phi, zeta=zeta, eta=eta, e0=e0))
    total = out.e_out1.intensity() + out.e_out2.intensity()
    assert abs(total - abs(e0) ** 2) <= ALGEBRA_TOL * max(1.0, abs(e0) ** 2)


@given(angles, angles, angles, amplitudes)
def test_polarizer_passes_half_on_average(phi, zeta, eta, e0):
    out = closed_form_station(params(phi=phi, zeta=zeta, eta=eta, e0=e0))
    passed = abs(out.e_proj_minus) ** 2 + abs(out.e_proj_plus) ** 2
    assert abs(passed - abs(e0) ** 2 / 2) <= ALGEBRA_TOL * max(1.0, abs(e0) ** 2)


def test_composed_equals_closed_form_on_grid():
    for i in range(8):
        for j in range(4):
            phi = 2.0 * math.pi * i / 8
            zeta = math.pi * (j / 4 - 0.5)
            p = params(phi=phi, zeta=zeta, eta=0.4, e0=1.3 - 0.2j)
            assert (
                station_outputs_deviation(composed_station(p), closed_form_station(p))
                <= ALGEBRA_TOL
            )


@given(angles, angles, angles, amplitudes)
def test_composed_equals_closed_form_randomized(phi, zeta, eta, e0):
    p = params(phi=phi, zeta=zeta, eta=eta, e0=e0)
    deviation = station_outputs_deviation(composed_station(p), closed_form_station(p))
    assert deviation <= ALGEBRA_TOL


def test_composed_with_global_mirror_phase_still_matches():
    conv = ElementConventions(mirror_phase=-1.0)
    p = params(phi=1.1, zeta=0.6, eta=0.2, e0=0.8)
    composed = composed_station(p, conv)
    closed = closed_form_station(p)
    assert station_outputs_deviation(composed, closed) <= ALGEBRA_TOL
    # and the extracted phase is a genuine -1, not component-dependent
    assert abs(composed.e_out1.h + closed.e_out1.h) < ALGEBRA_TOL


def test_corrupted_pbs_convention_breaks_equivalence():
    conv = ElementConventions(pbs_reflection_phase=1.0)
    p = params(phi=0.9, zeta=0.5, e0=1.0)
    composed = composed_station(p, conv)
    assert not station_outputs_deviation(composed, closed_form_station(p)) <= ALGEBRA_TOL


def test_composed_quarter_intensity_at_zero_polarizer():
    out = composed_station(params(phi=0.0, zeta=0.0))
    assert abs(abs(out.e_proj_minus) ** 2 - 0.25) < ALGEBRA_TOL


def test_zero_input_gives_zero_outputs():
    out = composed_station(params(phi=0.3, zeta=0.2, e0=0.0))
    assert out.e_out1.intensity() == 0.0
    assert out.e_out2.intensity() == 0.0
    assert out.e_proj_minus == 0.0
    assert out.e_proj_plus == 0.0


def test_station_params_reject_non_finite():
    with pytest.raises(ValueError):
        StationParams(mzi_phase=math.nan, polarizer_angle=0.0)
    with pytest.raises(ValueError):
        StationParams(mzi_phase=0.0, polarizer_angle=math.inf)
    with pytest.raises(ValueError):
        StationParams(mzi_phase=0.0, polarizer_angle=0.0, input_amplitude=complex("inf"))
