"""Element-level checks: frozen hand-derived values plus algebraic properties."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nmzi.elements import (
    ALGEBRA_TOL,
    DEFAULT_CONVENTIONS,
    ElementConventions,
    beam_splitter_mix,
    half_wave_plate,
    pbs_split,
    phase_shift,
    polarizer_project,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

amplitudes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)


def intensity(h, v):
    return abs(h) ** 2 + abs(v) ** 2


# ---------------------------------------------------------------- beam splitter

def test_bs_single_input_splits_equally():
    up, low = beam_splitter_mix(1.0, 0.0, DEFAULT_CONVENTIONS)
    assert abs(up - INV_SQRT2) < ALGEBRA_TOL
    assert abs(low - 1j * INV_SQRT2) < ALGEBRA_TOL


def test_bs_zero_input():
    assert beam_splitter_mix(0.0, 0.0, DEFAULT_CONVENTIONS) == (0.0, 0.0)


def test_bs_recombination_closes_interferometer():
    # Hand application of (1/sqrt2)[[1, i], [i, 1]] to (1/sqrt2, i/sqrt2)
    # gives (0, i): all light exits the lower port.
    up, low = beam_splitter_mix(INV_SQRT2, 1j * INV_SQRT2, DEFAULT_CONVENTIONS)
    assert abs(up) < ALGEBRA_TOL
    assert abs(low - 1j) < ALGEBRA_TOL


@given(amplitudes, amplitudes)
def test_bs_unitary(a, b):
    up, low = beam_splitter_mix(a, b, DEFAULT_CONVENTIONS)
    before = abs(a) ** 2 + abs(b) ** 2
    after = abs(up) ** 2 + abs(low) ** 2
    assert abs(after - before) <= ALGEBRA_TOL * max(1.0, before)


@given(amplitudes, amplitudes, angles)
def test_bs_unitary_for_any_reflection_phase(a, b, theta):
    conv = ElementConventions(bs_reflection_phase=cmath.exp(1j * theta))
    up, low = beam_splitter_mix(a, b, conv)
    before = abs(a) ** 2 + abs(b) ** 2
    after = abs(up) ** 2 + abs(low) ** 2
    assert abs(after - before) <= ALGEBRA_TOL * max(1.0, before)


# ------------------------------------------------------------------------- PBS

def test_pbs_routes_h_to_transmission():
    assert pbs_split(1.0, 0.0, DEFAULT_CONVENTIONS) == (1.0, 0.0)


def test_pbs_routes_v_to_reflection():
    path_h, path_v = pbs_split(0.0, 1.0, DEFAULT_CONVENTIONS)
    assert path_h == 0.0
    assert path_v == DEFAULT_CONVENTIONS.pbs_reflection_phase


def test_pbs_diagonal_input_splits_equally():
    path_h, path_v = pbs_split(INV_SQRT2, INV_SQRT2, DEFAULT_CONVENTIONS)
    assert abs(abs(path_h) - INV_SQRT2) < ALGEBRA_TOL
    assert abs(abs(path_v) - INV_SQRT2) < ALGEBRA_TOL


@given(amplitudes, amplitudes)
def test_pbs_lossless(h, v):
    path_h, path_v = pbs_split(h, v, DEFAULT_CONVENTIONS)
    assert abs(intensity(path_h, path_v) - intensity(h, v)) <= ALGEBRA_TOL * max(
        1.0, intensity(h, v)
    )


# ------------------------------------------------------------------------- HWP

def test_hwp_at_45_deg_swaps_h_and_v():
    out_h, out_v = half_wave_plate(1.0, 0.0, math.pi / 4)
    assert abs(out_h) < ALGEBRA_TOL
    assert abs(out_v - 1.0) < ALGEBRA_TOL


def test_hwp_prepares_diagonal_from_vertical():
    # HWP matrix at fast axis 3pi/8 applied to (0, 1) by hand:
    # (sin(3pi/4), -cos(3pi/4)) = (1/sqrt2, 1/sqrt2).
    out_h, out_v = half_wave_plate(0.0, 1.0, 3 * math.pi / 8)
    assert abs(out_h - INV_SQRT2) < ALGEBRA_TOL
    assert abs(out_v - INV_SQRT2) < ALGEBRA_TOL


@given(amplitudes, amplitudes)
def test_hwp_at_zero_negates_v(h, v):
    out_h, out_v = half_wave_plate(h, v, 0.0)
    assert out_h == h
    assert out_v == -v


@given(amplitudes, amplitudes, angles)
def test_hwp_preserves_intensity(h, v, alpha):
    before = intensity(h, v)
    after = intensity(*half_wave_plate(h, v, alpha))
    assert abs(after - before) <= ALGEBRA_TOL * max(1.0, before)


@given(amplitudes, amplitudes, angles)
def test_hwp_twice_is_identity(h, v, alpha):
    out_h, out_v = half_wave_plate(*half_wave_plate(h, v, alpha), alpha)
    scale = max(1.0, abs(h), abs(v))
    assert abs(out_h - h) <= ALGEBRA_TOL * scale
    assert abs(out_v - v) <= ALGEBRA_TOL * scale


# ----------------------------------------------------------------- phase shift

@pytest.mark.parametrize(
    "amplitude,phi,expected",
    [
        (1.0, 0.0, 1.0),
        (1.0, math.pi, -1.0),
        (1j, math.pi / 2, -1.0),
    ],
)
def test_phase_shift_values(amplitude, phi, expected):
    assert abs(phase_shift(amplitude, phi) - expected) < ALGEBRA_TOL


@given(amplitudes, angles)
def test_phase_shift_preserves_magnitude(a, phi):
    assert abs(abs(phase_shift(a, phi)) - abs(a)) <= ALGEBRA_TOL * max(1.0, abs(a))


# ------------------------------------------------------------------- polarizer

@given(angles)
def test_polarizer_on_pure_h_is_cosine(zeta):
    out = polarizer_project(1.0, 0.0, zeta)
    assert abs(out - math.cos(zeta)) < ALGEBRA_TOL


def test_polarizer_passes_aligned_v():
    assert abs(polarizer_project(0.0, 1.0, math.pi / 2) - 1.0) < ALGEBRA_TOL


def test_polarizer_negative_angle_flips_v_sign():
    out = polarizer_project(0.0, 1.0, -math.pi / 4)
    assert abs(out - (-INV_SQRT2)) < ALGEBRA_TOL


@given(amplitudes, amplitudes, angles)
def test_polarizer_contracts_intensity(h, v, zeta):
    out = polarizer_project(h, v, zeta)
    assert abs(out) ** 2 <= intensity(h, v) + ALGEBRA_TOL * max(1.0, intensity(h, v))


@given(angles)
def test_malus_law_for_pure_h(zeta):
    out = polarizer_project(1.0, 0.0, zeta)
    assert abs(abs(out) ** 2 - math.cos(zeta) ** 2) < ALGEBRA_TOL


# ------------------------------------------------------------------ broadcasting

def every_element(h, v, angle):
    """The outputs of all five element functions for one set of inputs."""
    conv = ElementConventions(bs_reflection_phase=cmath.exp(0.3j))
    return [
        *beam_splitter_mix(h, v, conv),
        *pbs_split(h, v, conv),
        *half_wave_plate(h, v, angle),
        phase_shift(h, angle),
        polarizer_project(h, v, angle),
    ]


@given(st.lists(st.tuples(amplitudes, amplitudes, angles), min_size=2, max_size=8))
def test_elements_on_arrays_match_scalar_calls(rows):
    h, v, angle = (np.array(column) for column in zip(*rows))
    batched = every_element(h, v, angle)
    for i, (a, b, alpha) in enumerate(rows):
        scale = max(1.0, abs(a), abs(b))
        for array, value in zip(batched, every_element(a, b, alpha)):
            assert np.shape(array) == h.shape
            assert abs(array[i] - value) <= ALGEBRA_TOL * scale


# ------------------------------------------------------------- types / plumbing

def test_conventions_reject_non_unit_phase():
    with pytest.raises(ValueError):
        ElementConventions(bs_reflection_phase=0.5j)
    with pytest.raises(ValueError):
        ElementConventions(pbs_reflection_phase=2.0)
