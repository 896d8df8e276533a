"""Station checks: closed-form outputs against hand-derived values, and the
element-composed station against the closed form as oracle.

Each station call returns the six amplitudes ``e_out1.h, e_out1.v, e_out2.h,
e_out2.v, e_proj_minus, e_proj_plus`` on its last axis.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nmzi.elements import ALGEBRA_TOL, ElementConventions
from nmzi.station import (
    closed_form_station,
    composed_station,
    station_outputs_deviation,
)

angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)
amplitudes = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)

OUT1, OUT2 = slice(0, 2), slice(2, 4)
MINUS, PLUS = 4, 5


def intensity(amplitudes):
    return float(np.sum(np.abs(amplitudes) ** 2))


def test_closed_form_dark_port_at_zero_phase_diagonal_polarizer():
    out = closed_form_station(0.0, math.pi / 4)
    assert abs(out[MINUS]) < ALGEBRA_TOL


def test_closed_form_bright_port_at_pi_phase():
    # (1/2)(cos(pi/4) + sin(pi/4)) = 1/sqrt2, squared magnitude 1/2.
    out = closed_form_station(math.pi, math.pi / 4)
    assert abs(abs(out[MINUS]) ** 2 - 0.5) < ALGEBRA_TOL


def test_closed_form_matches_published_transfer():
    phi, e0 = 0.7, 2.0 - 0.5j
    out1_h, out1_v, out2_h, out2_v, _, _ = closed_form_station(phi, 0.3, e0=e0)
    ephi = cmath.exp(1j * phi)
    assert abs(out1_h - e0 / 2) < ALGEBRA_TOL
    assert abs(out1_v - (-e0 / 2 * ephi)) < ALGEBRA_TOL
    assert abs(out2_h - 1j * e0 / 2) < ALGEBRA_TOL
    assert abs(out2_v - 1j * e0 / 2 * ephi) < ALGEBRA_TOL


@given(angles, angles, angles)
def test_global_phase_never_changes_intensities(phi, zeta, eta):
    base = closed_form_station(phi, zeta, eta=0.0)
    shifted = closed_form_station(phi, zeta, eta=eta)
    for port in (OUT1, OUT2):
        assert abs(intensity(base[port]) - intensity(shifted[port])) < ALGEBRA_TOL
    assert abs(abs(base[MINUS]) ** 2 - abs(shifted[MINUS]) ** 2) < ALGEBRA_TOL
    assert abs(abs(base[PLUS]) ** 2 - abs(shifted[PLUS]) ** 2) < ALGEBRA_TOL


@given(angles, angles, angles, amplitudes)
def test_energy_conservation_before_polarizer(phi, zeta, eta, e0):
    out = closed_form_station(phi, zeta, eta, e0)
    total = intensity(out[OUT1]) + intensity(out[OUT2])
    assert abs(total - abs(e0) ** 2) <= ALGEBRA_TOL * max(1.0, abs(e0) ** 2)


@given(angles, angles, angles, amplitudes)
def test_polarizer_passes_half_on_average(phi, zeta, eta, e0):
    out = closed_form_station(phi, zeta, eta, e0)
    passed = abs(out[MINUS]) ** 2 + abs(out[PLUS]) ** 2
    assert abs(passed - abs(e0) ** 2 / 2) <= ALGEBRA_TOL * max(1.0, abs(e0) ** 2)


def test_composed_equals_closed_form_on_grid():
    phi = 2.0 * math.pi * np.arange(8)[:, None] / 8
    zeta = math.pi * (np.arange(4) / 4 - 0.5)
    deviation = station_outputs_deviation(
        composed_station(phi, zeta, 0.4, 1.3 - 0.2j),
        closed_form_station(phi, zeta, 0.4, 1.3 - 0.2j),
    )
    assert deviation.shape == (8, 4)
    assert np.all(deviation <= ALGEBRA_TOL)


@given(angles, angles, angles, amplitudes)
def test_composed_equals_closed_form_randomized(phi, zeta, eta, e0):
    deviation = station_outputs_deviation(
        composed_station(phi, zeta, eta, e0), closed_form_station(phi, zeta, eta, e0)
    )
    assert deviation <= ALGEBRA_TOL


def test_composed_with_global_mirror_phase_still_matches():
    conv = ElementConventions(mirror_phase=-1.0)
    composed = composed_station(1.1, 0.6, 0.2, 0.8, conv)
    closed = closed_form_station(1.1, 0.6, 0.2, 0.8)
    assert station_outputs_deviation(composed, closed) <= ALGEBRA_TOL
    # and the extracted phase is a genuine -1, not component-dependent
    assert abs(composed[0] + closed[0]) < ALGEBRA_TOL


def test_corrupted_pbs_convention_breaks_equivalence():
    conv = ElementConventions(pbs_reflection_phase=1.0)
    composed = composed_station(0.9, 0.5, e0=1.0, conv=conv)
    deviation = station_outputs_deviation(composed, closed_form_station(0.9, 0.5))
    assert not deviation <= ALGEBRA_TOL


def test_composed_quarter_intensity_at_zero_polarizer():
    out = composed_station(0.0, 0.0)
    assert abs(abs(out[MINUS]) ** 2 - 0.25) < ALGEBRA_TOL


def test_zero_input_gives_zero_outputs():
    out = composed_station(0.3, 0.2, e0=0.0)
    assert intensity(out[OUT1]) == 0.0
    assert intensity(out[OUT2]) == 0.0
    assert out[MINUS] == 0.0
    assert out[PLUS] == 0.0


def test_deviation_of_a_batch_equals_its_single_settings():
    phi = np.array([0.0, 0.9, 1.7, 3.1, 0.3])
    zeta = np.array([0.2, 0.5, -0.4, 1.0, 0.7])
    e0 = np.array([1.0, 0.0, 1.3 - 0.2j, 0.5, 2.0])
    closed = closed_form_station(phi, zeta, 0.4, e0)
    composed = composed_station(phi, zeta, 0.4, e0)
    candidates = {
        "composed": composed,
        # An all-zero reference row (e0 = 0) sits at index 1.
        "zero": np.where(np.arange(5)[:, None] == 3, 0.0, composed),
        "corrupted": composed_station(
            phi, zeta, 0.4, e0, ElementConventions(pbs_reflection_phase=1.0)
        ),
    }
    for candidate in candidates.values():
        batch = station_outputs_deviation(candidate, closed)
        assert batch.shape == (5,)
        singles = [station_outputs_deviation(c, r) for c, r in zip(candidate, closed)]
        assert batch.tolist() == singles
    # The zeroed row has no overlap, so it reads the reference's largest
    # amplitude (0.345 at e0 = 0.5) against a scale of 1.
    zeroed = station_outputs_deviation(candidates["zero"], closed)[3]
    assert zeroed == np.abs(closed[3]).max()
    assert round(zeroed, 3) == 0.345
    assert station_outputs_deviation(candidates["corrupted"], closed).max() > 0.1


six_amplitudes = st.lists(amplitudes, min_size=6, max_size=6).map(
    lambda values: np.array(values, dtype=complex)
)
moduli = st.floats(min_value=0.01, max_value=100.0)


@given(six_amplitudes, six_amplitudes, angles, moduli)
def test_deviation_is_the_overlap_phase_rule(reference, candidate, alpha, k):
    phase = cmath.exp(1j * alpha)
    peak = np.abs(reference).max()
    scale = max(peak, 1.0)
    assert station_outputs_deviation(phase * reference, reference) <= ALGEBRA_TOL
    # A modulus change is a mismatch, at its full size.
    deviation = station_outputs_deviation(k * phase * reference, reference)
    assert abs(deviation - abs(k - 1.0) * peak / scale) <= ALGEBRA_TOL * k
    # An all-zero reference measures the candidate absolutely.
    zero = np.zeros(6, complex)
    assert station_outputs_deviation(candidate, zero) == np.abs(candidate).max()


def test_station_params_reject_non_finite():
    with pytest.raises(ValueError):
        closed_form_station(math.nan, 0.0)
    with pytest.raises(ValueError):
        composed_station(0.0, math.inf)
    with pytest.raises(ValueError):
        closed_form_station(0.0, 0.0, e0=complex("inf"))
    with pytest.raises(ValueError):
        composed_station(np.array([0.0, math.nan]), 0.0)
