"""Analytic intensities, correlation functions, and grid sweeps.

The paper's equations are restated here with ``math`` and compared with the
columnar kernel: the fringe factors, the fixed-polarizer product, the
synchronized ``sin^2(rho)`` and the polarizer-basis sum.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nmzi.correlation import (
    PRESETS,
    RECORD_COLUMNS,
    SETTINGS_COLUMNS,
    SweepAxis,
    SweepSpec,
    record_at,
    sweep_settings,
    synchronized_settings,
)
from nmzi.elements import ALGEBRA_TOL
from nmzi.station import closed_form_station

angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)

QUARTER = math.pi / 4


def scalar_factors(phi, psi, xi, theta):
    """Fringe factors of A, B, C, D as the correlation module states them."""
    alice = math.sin(2.0 * xi) * math.cos(phi)
    bob = math.sin(2.0 * theta) * math.cos(psi)
    return 1.0 - alice, 1.0 + alice, 1.0 - bob, 1.0 + bob


def fixed_pol_product(phi, psi, sign):
    """R_AD with both polarizers at ``sign * pi/4``."""
    return (1.0 - sign * math.cos(phi)) * (1.0 + sign * math.cos(psi))


def one_row(phi, psi, xi, theta):
    return np.array([[phi, psi, xi, theta]])


def columns(settings):
    """``(i_A, i_B, i_C, i_D, R_AD, R_BC)`` of the first row, as floats."""
    return record_at(settings)[0].tolist()


def intensities(settings):
    return columns(settings)[:4]


def cross_correlations(settings):
    """All four cross-station products of the first row, by pair name."""
    # Four times an intensity is its fringe factor, exactly.
    f_a, f_b, f_c, f_d = (4.0 * record_at(settings)[0, :4]).tolist()
    return {"AD": f_a * f_d, "BC": f_b * f_c, "AC": f_a * f_c, "BD": f_b * f_d}


# ------------------------------------------------------------------ the kernel

@given(st.lists(st.tuples(angles, angles, angles, angles), min_size=1, max_size=20))
def test_kernel_matches_scalar_formulas(rows):
    records = record_at(np.array(rows))
    assert records.shape == (len(rows), len(RECORD_COLUMNS))
    for row, rec in zip(rows, records.tolist()):
        f_a, f_b, f_c, f_d = scalar_factors(*row)
        expected = [f_a / 4, f_b / 4, f_c / 4, f_d / 4, f_a * f_d, f_b * f_c]
        assert max(abs(x - y) for x, y in zip(rec, expected)) < ALGEBRA_TOL


# ---------------------------------------------------------------- intensities

def test_intensities_dark_and_bright_port():
    i_a, i_b, _, _ = intensities(synchronized_settings(0.0, QUARTER))
    assert abs(i_a) < ALGEBRA_TOL
    assert abs(i_b - 0.5) < ALGEBRA_TOL
    i_a, i_b, _, _ = intensities(synchronized_settings(math.pi, QUARTER))
    assert abs(i_a - 0.5) < ALGEBRA_TOL
    assert abs(i_b) < ALGEBRA_TOL


@given(angles)
def test_intensities_flat_without_polarizer_rotation(rho):
    for i in intensities(synchronized_settings(rho, 0.0)):
        assert abs(i - 0.25) < ALGEBRA_TOL


@given(angles, angles, angles, angles)
def test_intensities_match_station_amplitudes(phi, psi, xi, theta):
    i_a, i_b, i_c, i_d = intensities(one_row(phi, psi, xi, theta))
    # The last two station amplitudes are the (minus, plus) projections.
    alice_minus, alice_plus = closed_form_station(phi, xi)[4:]
    bob_minus, bob_plus = closed_form_station(psi, theta, eta=0.9)[4:]
    assert abs(i_a - abs(alice_minus) ** 2) < ALGEBRA_TOL
    assert abs(i_b - abs(alice_plus) ** 2) < ALGEBRA_TOL
    assert abs(i_c - abs(bob_minus) ** 2) < ALGEBRA_TOL
    assert abs(i_d - abs(bob_plus) ** 2) < ALGEBRA_TOL


@given(angles, angles, angles, angles)
def test_intensity_sums_per_station(phi, psi, xi, theta):
    i_a, i_b, i_c, i_d = intensities(one_row(phi, psi, xi, theta))
    assert abs(i_a + i_b - 0.5) <= ALGEBRA_TOL
    assert abs(i_c + i_d - 0.5) <= ALGEBRA_TOL


# ---------------------------------------------------------------- correlations

@pytest.mark.parametrize(
    "rho,expected",
    [(math.pi / 2, 1.0), (0.0, 0.0), (math.pi / 4, 0.5)],
)
def test_synchronized_correlation_values(rho, expected):
    r_ad = columns(synchronized_settings(rho, QUARTER))[4]
    assert abs(r_ad - expected) < ALGEBRA_TOL
    assert abs(math.sin(rho) ** 2 - expected) < ALGEBRA_TOL


def test_fixed_pol_correlation_extremes():
    assert abs(fixed_pol_product(math.pi, 0.0, +1) - 4.0) < ALGEBRA_TOL
    assert abs(fixed_pol_product(0.0, 0.0, +1)) < ALGEBRA_TOL
    for phi, psi, expected in ((math.pi, 0.0, 4.0), (0.0, 0.0, 0.0)):
        r_ad = columns(one_row(phi, psi, QUARTER, QUARTER))[4]
        assert abs(r_ad - expected) < ALGEBRA_TOL


@given(angles, angles, st.sampled_from([+1, -1]))
def test_fixed_pol_reduces_to_synchronized(phi, psi, sign):
    value = fixed_pol_product(phi, phi, sign)
    assert abs(value - math.sin(phi) ** 2) < ALGEBRA_TOL
    # The kernel at both polarizers on sign * pi/4 is the fixed-polarizer product.
    r_ad = columns(one_row(phi, psi, sign * QUARTER, sign * QUARTER))[4]
    assert abs(r_ad - fixed_pol_product(phi, psi, sign)) < ALGEBRA_TOL


def test_general_correlation_anti_correlated_pairs():
    # At synchronized zero phase the A/D coincidence vanishes while both
    # photons land on the bright ports B and D; the complementary peak of
    # the B/C pair sits at (phi, psi) = (0, pi).
    origin = cross_correlations(one_row(0.0, 0.0, QUARTER, QUARTER))
    assert abs(origin["AD"]) < ALGEBRA_TOL
    assert abs(origin["BC"]) < ALGEBRA_TOL
    assert abs(origin["BD"] - 4.0) < ALGEBRA_TOL
    shifted = columns(one_row(0.0, math.pi, QUARTER, QUARTER))
    assert abs(shifted[5] - 4.0) < ALGEBRA_TOL
    assert abs(shifted[4]) < ALGEBRA_TOL


@given(angles, angles)
def test_polarizer_angle_three_quarter_equals_minus_quarter(phi, psi):
    a = columns(one_row(phi, psi, 3 * QUARTER, QUARTER))[4]
    b = columns(one_row(phi, psi, -QUARTER, QUARTER))[4]
    assert abs(a - b) < ALGEBRA_TOL


@given(angles, angles, angles, angles, st.floats(min_value=1e-6, max_value=100.0))
def test_correlation_is_normalized_intensity_product(phi, psi, xi, theta, i0):
    # Intensities scale with the input intensity i0; the correlation is their
    # product over the squared phase-averaged singles (i0/4)^2.
    s = one_row(phi, psi, xi, theta)
    i_a, i_b, i_c, i_d = (i0 * i for i in intensities(s))
    products = {"AD": i_a * i_d, "BC": i_b * i_c, "AC": i_a * i_c, "BD": i_b * i_d}
    for pair, r in cross_correlations(s).items():
        assert abs(r * i0**2 / 16.0 - products[pair]) <= ALGEBRA_TOL * max(1.0, i0**2)
    r_ad, r_bc = columns(s)[4:]
    assert r_ad == cross_correlations(s)["AD"]
    assert r_bc == cross_correlations(s)["BC"]


@given(angles)
def test_synchronized_identity_and_basis_symmetry(rho):
    _, _, _, _, plus, bc = columns(synchronized_settings(rho, QUARTER))
    minus = columns(synchronized_settings(rho, -QUARTER))[4]
    assert plus == minus
    assert abs(plus - math.sin(rho) ** 2) < ALGEBRA_TOL
    # R_AD and R_BC coincide in the synchronized case
    assert abs(plus - bc) < ALGEBRA_TOL


@given(angles, angles, angles, angles)
def test_double_frequency_in_polarizer_angle(phi, psi, xi, theta):
    s1 = cross_correlations(one_row(phi, psi, xi, theta))
    s2 = cross_correlations(one_row(phi, psi, xi + math.pi, theta))
    for pair in s1:
        assert abs(s1[pair] - s2[pair]) < ALGEBRA_TOL


# -------------------------------------------------------------- local basis sum

def basis_sum(rho):
    """Each detector's intensity summed over the polarizer bases +-pi/4."""
    plus = np.array(intensities(synchronized_settings(rho, QUARTER)))
    minus = np.array(intensities(synchronized_settings(rho, -QUARTER)))
    return plus + minus


@pytest.mark.parametrize(
    "rho,detector,i0,expected",
    [(0.0, "A", 1.0, 0.5), (math.pi / 3, "D", 1.0, 0.5), (1.234, "B", 2.0, 1.0)],
)
def test_local_basis_sum_values(rho, detector, i0, expected):
    # Intensities scale with the input intensity i0, so the sum is i0/2.
    total = i0 * basis_sum(rho)["ABCD".index(detector)]
    assert abs(total - expected) < ALGEBRA_TOL


@given(angles, st.sampled_from("ABCD"))
def test_local_basis_sum_is_flat(rho, detector):
    assert abs(basis_sum(rho)["ABCD".index(detector)] - 0.5) < ALGEBRA_TOL


# ----------------------------------------------------------------------- sweep

def test_synchronized_preset_reproduces_sine_squared():
    settings = sweep_settings(PRESETS["fig2"])
    assert settings.shape == (201, len(SETTINGS_COLUMNS))
    phi, psi, xi, theta = settings.T
    r_ad = record_at(settings)[:, 4]
    assert np.max(np.abs(r_ad - np.sin(phi) ** 2)) < ALGEBRA_TOL
    # synchronized settings mean psi tracks phi and theta tracks xi
    assert np.array_equal(psi, phi)
    assert np.all(theta == QUARTER) and np.all(xi == QUARTER)


def test_two_phase_preset_matches_factor_products():
    settings = sweep_settings(PRESETS["fig3"])
    records = record_at(settings)
    assert len(records) == 101 * 101
    for (phi, psi, _, _), (_, _, _, _, r_ad, r_bc) in zip(
        settings[::1003].tolist(), records[::1003].tolist()
    ):
        assert abs(r_ad - (1 - math.cos(phi)) * (1 + math.cos(psi))) < ALGEBRA_TOL
        assert abs(r_bc - (1 + math.cos(phi)) * (1 - math.cos(psi))) < ALGEBRA_TOL
    # row-major order in declared (phi, psi) axis order
    assert settings[0, 0] == settings[100, 0]
    assert settings[0, 1] != settings[1, 1]


def test_phase_vs_polarizer_preset_peak():
    # The true maximum of R_AD over (phi, xi) sits at phi = pi, xi = pi/4,
    # which need not fall on the preset grid; the grid maximum must never
    # exceed the analytic peak and must approach it closely.
    best = record_at(sweep_settings(PRESETS["fig4"]))[:, 4].max()
    assert best <= 4.0 + ALGEBRA_TOL
    assert best > 3.9
    exact_peak = columns(one_row(math.pi, 0.0, QUARTER, QUARTER))[4]
    assert abs(exact_peak - 4.0) < ALGEBRA_TOL
    assert exact_peak >= best - ALGEBRA_TOL


def test_sweep_rejects_bad_axes():
    with pytest.raises(ValueError):
        SweepAxis("phi", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SweepAxis("phi", 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        SweepAxis("phi", 0.0, math.inf, 0.1)
    with pytest.raises(ValueError):
        SweepAxis("bogus", 0.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="at least one axis"):
        SweepSpec(axes=(), fixed={})
    phi = SweepAxis("phi", 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="unknown fixed parameter 'bogus'"):
        SweepSpec(axes=(phi,), fixed={"bogus": 0.0})
    with pytest.raises(ValueError, match="fixed parameter 'psi' must be finite"):
        SweepSpec(axes=(phi,), fixed={"psi": math.nan})


def test_sweep_steps_below_the_spacing_of_doubles_are_refused():
    # Doubles at 1e16 are 2 apart.  A step of exactly one ulp keeps every
    # grid value, each 2 above the last.
    one_ulp = SweepAxis("phi", 1e16, 1.00000000000002e16, 2.0)
    phi = sweep_settings(SweepSpec((one_ulp,)))[:, 0]
    assert len(phi) == 101 and (np.diff(phi) == 2.0).all()
    # A step of 1 repeats the first value.  A step of 1.5 keeps the first two
    # and last two values apart but repeats 16 values between them, so the
    # step is compared with the spacing, not the end values with each other.
    grid = 1e16 + np.arange(67) * 1.5
    assert grid[0] != grid[1] and grid[-2] != grid[-1]
    assert len(set(grid.tolist())) == 51
    for start, step in [(1e16, 1.0), (1e16, 1.5), (-1e16, 1.0)]:
        with pytest.raises(ValueError, match=f"axis psi: step {step!r} is below the spacing 2.0"):
            SweepAxis("psi", start, start + 100.0, step)


def test_polarizer_angles_are_bounded_where_doubling_overflows():
    bound = sys.float_info.max / 2
    # At the bound sin(2 xi) is finite, and so is every computed column.
    assert np.isfinite(record_at(one_row(0.3, 1.1, bound, -bound))).all()
    edge = SweepSpec((SweepAxis("xi", 0.0, bound, bound / 4),), {"theta": -bound})
    assert np.isfinite(record_at(sweep_settings(edge))).all()
    # Beyond it an axis is refused at its first point, as test_cli shows for
    # its last point and for a fixed value.
    with pytest.raises(ValueError, match="axis theta: polarizer angle"):
        SweepAxis("theta", -1e308, 0.0, 1e307)
    # Phases are not doubled, so they keep their range.
    SweepSpec(axes=(SweepAxis("phi", 0.0, 1e308, 1e307),), fixed={"psi": 1e308})


def test_point_count_is_known_before_expansion():
    for spec in PRESETS.values():
        assert spec.n_points == len(sweep_settings(spec))
    assert SweepAxis("phi", 0.0, 1.0, 0.25).count == 5
    # 10^7 + 1 points on one axis, or 10^8 over two: refused, nothing built.
    with pytest.raises(ValueError, match="cap"):
        SweepAxis("phi", 0.0, 1.0, 1e-7)
    with pytest.raises(ValueError, match="cap"):
        SweepAxis("phi", -1e308, 1e308, 1.0)
    wide = SweepAxis("phi", 0.0, 1.0, 1e-4)
    with pytest.raises(ValueError, match="100020001 grid points"):
        SweepSpec(axes=(wide, SweepAxis("psi", 0.0, 1.0, 1e-4)))


def test_sweep_rejects_conflicting_aliases():
    # Refused when the spec is built, before anything is expanded.
    with pytest.raises(ValueError, match="set twice"):
        SweepSpec(
            axes=(SweepAxis("rho", 0.0, 1.0, 0.5),),
            fixed={"phi": 0.0, "zeta": QUARTER},
        )
    # A repeated fixed pair is refused, not collapsed to its last value.
    with pytest.raises(ValueError, match="set twice"):
        SweepSpec(
            axes=(SweepAxis("phi", 0.0, 1.0, 0.5),),
            fixed=(("psi", 0.0), ("psi", 1.0)),
        )


def test_record_at_has_consistent_fields():
    s = one_row(0.4, 1.0, 0.2, 0.9)
    i_a, i_b, _, _, r_ad, r_bc = columns(s)
    # At input intensity i0 = 2 a station's two detectors share i0/2 = 1.
    assert abs(2.0 * (i_a + i_b) - 1.0) < ALGEBRA_TOL
    assert abs(r_ad - cross_correlations(s)["AD"]) == 0.0
    assert 0.0 <= r_ad <= 4.0
    assert 0.0 <= r_bc <= 4.0
