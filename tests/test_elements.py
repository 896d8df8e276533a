"""Element-level checks: frozen hand-derived values plus algebraic properties."""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nmzi.elements import (
    ALGEBRA_TOL,
    DEFAULT_CONVENTIONS,
    ElementConventions,
    JonesVector,
    beam_splitter_mix,
    half_wave_plate,
    mirror_reflect,
    pbs_split,
    phase_shift,
    polarizer_project,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

amplitudes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)


def jones(h, v):
    return JonesVector(h=h, v=v)


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
    assert pbs_split(jones(1.0, 0.0), DEFAULT_CONVENTIONS) == (1.0, 0.0)


def test_pbs_routes_v_to_reflection():
    path_h, path_v = pbs_split(jones(0.0, 1.0), DEFAULT_CONVENTIONS)
    assert path_h == 0.0
    assert path_v == DEFAULT_CONVENTIONS.pbs_reflection_phase


def test_pbs_diagonal_input_splits_equally():
    path_h, path_v = pbs_split(jones(INV_SQRT2, INV_SQRT2), DEFAULT_CONVENTIONS)
    assert abs(abs(path_h) - INV_SQRT2) < ALGEBRA_TOL
    assert abs(abs(path_v) - INV_SQRT2) < ALGEBRA_TOL


@given(amplitudes, amplitudes)
def test_pbs_lossless(h, v):
    j = jones(h, v)
    path_h, path_v = pbs_split(j, DEFAULT_CONVENTIONS)
    assert abs(abs(path_h) ** 2 + abs(path_v) ** 2 - j.intensity()) <= ALGEBRA_TOL * max(
        1.0, j.intensity()
    )


# ------------------------------------------------------------------------- HWP

def test_hwp_at_45_deg_swaps_h_and_v():
    out = half_wave_plate(jones(1.0, 0.0), math.pi / 4)
    assert abs(out.h) < ALGEBRA_TOL
    assert abs(out.v - 1.0) < ALGEBRA_TOL


def test_hwp_prepares_diagonal_from_vertical():
    # HWP matrix at fast axis 3pi/8 applied to (0, 1) by hand:
    # (sin(3pi/4), -cos(3pi/4)) = (1/sqrt2, 1/sqrt2).
    out = half_wave_plate(jones(0.0, 1.0), 3 * math.pi / 8)
    assert abs(out.h - INV_SQRT2) < ALGEBRA_TOL
    assert abs(out.v - INV_SQRT2) < ALGEBRA_TOL


@given(amplitudes, amplitudes)
def test_hwp_at_zero_negates_v(h, v):
    out = half_wave_plate(jones(h, v), 0.0)
    assert out.h == h
    assert out.v == -v


@given(amplitudes, amplitudes, angles)
def test_hwp_preserves_intensity(h, v, alpha):
    j = jones(h, v)
    out = half_wave_plate(j, alpha)
    assert abs(out.intensity() - j.intensity()) <= ALGEBRA_TOL * max(1.0, j.intensity())


@given(amplitudes, amplitudes, angles)
def test_hwp_twice_is_identity(h, v, alpha):
    j = jones(h, v)
    out = half_wave_plate(half_wave_plate(j, alpha), alpha)
    scale = max(1.0, abs(h), abs(v))
    assert abs(out.h - h) <= ALGEBRA_TOL * scale
    assert abs(out.v - v) <= ALGEBRA_TOL * scale


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
    out = polarizer_project(jones(1.0, 0.0), zeta)
    assert abs(out - math.cos(zeta)) < ALGEBRA_TOL


def test_polarizer_passes_aligned_v():
    assert abs(polarizer_project(jones(0.0, 1.0), math.pi / 2) - 1.0) < ALGEBRA_TOL


def test_polarizer_negative_angle_flips_v_sign():
    out = polarizer_project(jones(0.0, 1.0), -math.pi / 4)
    assert abs(out - (-INV_SQRT2)) < ALGEBRA_TOL


@given(amplitudes, amplitudes, angles)
def test_polarizer_contracts_intensity(h, v, zeta):
    j = jones(h, v)
    out = polarizer_project(j, zeta)
    assert abs(out) ** 2 <= j.intensity() + ALGEBRA_TOL * max(1.0, j.intensity())


@given(angles)
def test_malus_law_for_pure_h(zeta):
    out = polarizer_project(jones(1.0, 0.0), zeta)
    assert abs(abs(out) ** 2 - math.cos(zeta) ** 2) < ALGEBRA_TOL


# ------------------------------------------------------------- types / plumbing

def test_mirror_applies_convention_phase():
    conv = ElementConventions(mirror_phase=-1.0)
    assert mirror_reflect(2.0 + 1j, conv) == -(2.0 + 1j)


def test_conventions_reject_non_unit_phase():
    with pytest.raises(ValueError):
        ElementConventions(bs_reflection_phase=0.5j)
    with pytest.raises(ValueError):
        ElementConventions(pbs_reflection_phase=2.0)
    with pytest.raises(ValueError):
        ElementConventions(mirror_phase=0.0)
