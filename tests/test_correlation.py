"""Analytic intensities, correlation functions, and grid sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nmzi.correlation import (
    CROSS_STATION_PAIRS,
    CorrelationRecord,
    JointSettings,
    PRESETS,
    SweepAxis,
    SweepSpec,
    cross_correlation_fixed_pol,
    detector_intensities,
    general_cross_correlation,
    local_basis_sum,
    record_at,
    sweep,
    sweep_settings,
    synchronized_correlation,
    synchronized_settings,
)
from nmzi.elements import ALGEBRA_TOL
from nmzi.station import StationParams, closed_form_station

angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)

QUARTER = math.pi / 4


# ---------------------------------------------------------------- intensities

def test_intensities_dark_and_bright_port():
    i_a, i_b, _, _ = detector_intensities(synchronized_settings(0.0, QUARTER))
    assert abs(i_a) < ALGEBRA_TOL
    assert abs(i_b - 0.5) < ALGEBRA_TOL
    i_a, i_b, _, _ = detector_intensities(synchronized_settings(math.pi, QUARTER))
    assert abs(i_a - 0.5) < ALGEBRA_TOL
    assert abs(i_b) < ALGEBRA_TOL


@given(angles)
def test_intensities_flat_without_polarizer_rotation(rho):
    for i in detector_intensities(synchronized_settings(rho, 0.0)):
        assert abs(i - 0.25) < ALGEBRA_TOL


def test_settings_reject_negative_intensity():
    with pytest.raises(ValueError):
        JointSettings(phi_a=0.0, psi_b=0.0, xi_a=0.0, theta_b=0.0, i0=-1.0)


@given(angles, angles, angles, angles)
def test_intensities_match_station_amplitudes(phi, psi, xi, theta):
    s = JointSettings(phi_a=phi, psi_b=psi, xi_a=xi, theta_b=theta, i0=1.0)
    i_a, i_b, i_c, i_d = detector_intensities(s)
    alice = closed_form_station(StationParams(mzi_phase=phi, polarizer_angle=xi))
    bob = closed_form_station(
        StationParams(mzi_phase=psi, polarizer_angle=theta, global_phase=0.9)
    )
    assert abs(i_a - abs(alice.e_proj_minus) ** 2) < ALGEBRA_TOL
    assert abs(i_b - abs(alice.e_proj_plus) ** 2) < ALGEBRA_TOL
    assert abs(i_c - abs(bob.e_proj_minus) ** 2) < ALGEBRA_TOL
    assert abs(i_d - abs(bob.e_proj_plus) ** 2) < ALGEBRA_TOL


@given(angles, angles, angles, angles, st.floats(min_value=0.0, max_value=100.0))
def test_intensity_sums_per_station(phi, psi, xi, theta, i0):
    s = JointSettings(phi_a=phi, psi_b=psi, xi_a=xi, theta_b=theta, i0=i0)
    i_a, i_b, i_c, i_d = detector_intensities(s)
    assert abs(i_a + i_b - i0 / 2) <= ALGEBRA_TOL * max(1.0, i0)
    assert abs(i_c + i_d - i0 / 2) <= ALGEBRA_TOL * max(1.0, i0)


# ---------------------------------------------------------------- correlations

@pytest.mark.parametrize(
    "rho,expected",
    [(math.pi / 2, 1.0), (0.0, 0.0), (math.pi / 4, 0.5)],
)
def test_synchronized_correlation_values(rho, expected):
    assert abs(synchronized_correlation(rho) - expected) < ALGEBRA_TOL


def test_fixed_pol_correlation_extremes():
    assert abs(cross_correlation_fixed_pol(math.pi, 0.0, +1) - 4.0) < ALGEBRA_TOL
    assert abs(cross_correlation_fixed_pol(0.0, 0.0, +1)) < ALGEBRA_TOL


@given(angles, st.sampled_from([+1, -1]))
def test_fixed_pol_reduces_to_synchronized(rho, sign):
    value = cross_correlation_fixed_pol(rho, rho, sign)
    assert abs(value - math.sin(rho) ** 2) < ALGEBRA_TOL


def test_fixed_pol_rejects_bad_sign():
    with pytest.raises(ValueError):
        cross_correlation_fixed_pol(0.0, 0.0, 2)


def test_general_correlation_anti_correlated_pairs():
    # At synchronized zero phase the A/D coincidence vanishes while both
    # photons land on the bright ports B and D; the complementary peak of
    # the B/C pair sits at (phi, psi) = (0, pi).
    origin = JointSettings(phi_a=0.0, psi_b=0.0, xi_a=QUARTER, theta_b=QUARTER, i0=1.0)
    assert abs(general_cross_correlation(origin, "AD")) < ALGEBRA_TOL
    assert abs(general_cross_correlation(origin, "BC")) < ALGEBRA_TOL
    assert abs(general_cross_correlation(origin, "BD") - 4.0) < ALGEBRA_TOL
    shifted = JointSettings(
        phi_a=0.0, psi_b=math.pi, xi_a=QUARTER, theta_b=QUARTER, i0=1.0
    )
    assert abs(general_cross_correlation(shifted, "BC") - 4.0) < ALGEBRA_TOL
    assert abs(general_cross_correlation(shifted, "AD")) < ALGEBRA_TOL


@given(angles, angles)
def test_polarizer_angle_three_quarter_equals_minus_quarter(phi, psi):
    a = JointSettings(phi_a=phi, psi_b=psi, xi_a=3 * QUARTER, theta_b=QUARTER, i0=1.0)
    b = JointSettings(phi_a=phi, psi_b=psi, xi_a=-QUARTER, theta_b=QUARTER, i0=1.0)
    assert abs(
        general_cross_correlation(a, "AD") - general_cross_correlation(b, "AD")
    ) < ALGEBRA_TOL


@pytest.mark.parametrize("pair", ["AB", "CD", "DA", "XY", "A", "ADC"])
def test_general_correlation_rejects_non_cross_pairs(pair):
    s = synchronized_settings(0.0, 0.0)
    with pytest.raises(ValueError):
        general_cross_correlation(s, pair)


@given(angles, angles, angles, angles, st.floats(min_value=1e-6, max_value=100.0))
def test_correlation_is_normalized_intensity_product(phi, psi, xi, theta, i0):
    s = JointSettings(phi_a=phi, psi_b=psi, xi_a=xi, theta_b=theta, i0=i0)
    i_a, i_b, i_c, i_d = detector_intensities(s)
    products = {"AD": i_a * i_d, "BC": i_b * i_c, "AC": i_a * i_c, "BD": i_b * i_d}
    for pair in CROSS_STATION_PAIRS:
        r = general_cross_correlation(s, pair)
        assert abs(r * i0**2 / 16.0 - products[pair]) <= ALGEBRA_TOL * max(1.0, i0**2)


@given(angles)
def test_synchronized_identity_and_basis_symmetry(rho):
    plus = general_cross_correlation(synchronized_settings(rho, QUARTER), "AD")
    minus = general_cross_correlation(synchronized_settings(rho, -QUARTER), "AD")
    assert plus == minus
    assert abs(plus - math.sin(rho) ** 2) < ALGEBRA_TOL
    # R_AD and R_BC coincide in the synchronized case
    bc = general_cross_correlation(synchronized_settings(rho, QUARTER), "BC")
    assert abs(plus - bc) < ALGEBRA_TOL


@given(angles, angles, angles, angles)
def test_double_frequency_in_polarizer_angle(phi, psi, xi, theta):
    s1 = JointSettings(phi_a=phi, psi_b=psi, xi_a=xi, theta_b=theta, i0=1.0)
    s2 = JointSettings(phi_a=phi, psi_b=psi, xi_a=xi + math.pi, theta_b=theta, i0=1.0)
    for pair in CROSS_STATION_PAIRS:
        assert abs(
            general_cross_correlation(s1, pair) - general_cross_correlation(s2, pair)
        ) < ALGEBRA_TOL


# -------------------------------------------------------------- local basis sum

@pytest.mark.parametrize(
    "rho,detector,i0,expected",
    [(0.0, "A", 1.0, 0.5), (math.pi / 3, "D", 1.0, 0.5), (1.234, "B", 2.0, 1.0)],
)
def test_local_basis_sum_values(rho, detector, i0, expected):
    assert abs(local_basis_sum(rho, detector, i0) - expected) < ALGEBRA_TOL


@given(angles, st.sampled_from("ABCD"))
def test_local_basis_sum_is_flat(rho, detector):
    assert abs(local_basis_sum(rho, detector, 1.0) - 0.5) < ALGEBRA_TOL


def test_local_basis_sum_rejects_negative_intensity():
    with pytest.raises(ValueError):
        local_basis_sum(0.0, "A", -1.0)


# ----------------------------------------------------------------------- sweep

def test_synchronized_preset_reproduces_sine_squared():
    records = sweep(PRESETS["fig2"])
    assert len(records) == 201
    rho = np.array([r.settings.phi_a for r in records])
    r_ad = np.array([r.r_ad for r in records])
    assert np.max(np.abs(r_ad - np.sin(rho) ** 2)) < ALGEBRA_TOL
    # synchronized settings mean psi tracks phi and theta tracks xi
    assert all(r.settings.psi_b == r.settings.phi_a for r in records)
    assert all(r.settings.theta_b == r.settings.xi_a == QUARTER for r in records)


def test_two_phase_preset_matches_factor_products():
    records = sweep(PRESETS["fig3"])
    assert len(records) == 101 * 101
    for r in records[:: 1003]:
        phi, psi = r.settings.phi_a, r.settings.psi_b
        assert abs(r.r_ad - (1 - math.cos(phi)) * (1 + math.cos(psi))) < ALGEBRA_TOL
        assert abs(r.r_bc - (1 + math.cos(phi)) * (1 - math.cos(psi))) < ALGEBRA_TOL
    # row-major order in declared (phi, psi) axis order
    assert records[0].settings.phi_a == records[100].settings.phi_a
    assert records[0].settings.psi_b != records[1].settings.psi_b


def test_phase_vs_polarizer_preset_peak():
    # The true maximum of R_AD over (phi, xi) sits at phi = pi, xi = pi/4,
    # which need not fall on the preset grid; the grid maximum must never
    # exceed the analytic peak and must approach it closely.
    records = sweep(PRESETS["fig4"])
    best = max(records, key=lambda r: r.r_ad)
    assert best.r_ad <= 4.0 + ALGEBRA_TOL
    assert best.r_ad > 3.9
    exact_peak = general_cross_correlation(
        JointSettings(phi_a=math.pi, psi_b=0.0, xi_a=QUARTER, theta_b=QUARTER, i0=1.0),
        "AD",
    )
    assert abs(exact_peak - 4.0) < ALGEBRA_TOL
    assert exact_peak >= best.r_ad - ALGEBRA_TOL


def test_sweep_rejects_bad_axes():
    with pytest.raises(ValueError):
        SweepAxis("phi", 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        SweepAxis("phi", 1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        SweepAxis("phi", 0.0, math.inf, 0.1)
    with pytest.raises(ValueError):
        SweepAxis("bogus", 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        sweep(SweepSpec(axes=(), fixed={}))


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
    with pytest.raises(ValueError):
        sweep(
            SweepSpec(
                axes=(SweepAxis("rho", 0.0, 1.0, 0.5),),
                fixed={"phi": 0.0, "zeta": QUARTER},
            )
        )


def test_record_at_has_consistent_fields():
    s = JointSettings(phi_a=0.4, psi_b=1.0, xi_a=0.2, theta_b=0.9, i0=2.0)
    rec = record_at(s)
    assert isinstance(rec, CorrelationRecord)
    assert abs(rec.i_a + rec.i_b - 1.0) < ALGEBRA_TOL
    assert abs(rec.r_ad - general_cross_correlation(s, "AD")) == 0.0
    assert 0.0 <= rec.r_ad <= 4.0
    assert 0.0 <= rec.r_bc <= 4.0
