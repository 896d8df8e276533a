"""Acceptance gate: the nine headline behaviors, one printed line each.

Every test below checks one guaranteed behavior at a tolerance pinned in
this file and prints a PASS/FAIL line straight to the terminal (capture is
suspended for the line) so the verdict survives into any test log.  The
checks cover the closed forms, the composed optical model, conservation
laws, photon-counting convergence, and byte-level reproducibility.
"""

import math
import time

import numpy as np
import pytest

from nmzi.cli import main
from nmzi.correlation import (
    PRESETS,
    QUARTER_TURN,
    RECORD_COLUMNS,
    SweepSpec,
    record_at,
    sweep_settings,
    synchronized_settings,
)
from nmzi.montecarlo import (
    DETECTORS,
    SourceParams,
    detector_singles,
    estimate_columns,
    run_experiment,
)
from nmzi.output import csv_rows
from nmzi.station import (
    closed_form_station,
    composed_station,
    station_outputs_deviation,
)

TOL = 1e-12


@pytest.fixture
def report(capsys):
    def _report(index: int, name: str, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"[acceptance {index}/9] {status} {name} ({detail})", flush=True)

    return _report


def _sigmas(observed: float, expected: float, sigma: float) -> float:
    if sigma > 0.0:
        return abs(observed - expected) / sigma
    return 0.0 if observed == expected else math.inf


def _cells(spec: SweepSpec) -> list[list[str]]:
    """The CSV data rows of a sweep, split into cells."""
    settings = sweep_settings(spec)
    lines = "".join(csv_rows(settings, record_at(settings))).splitlines()[1:]
    return [line.split(",") for line in lines]


def _record(phi: float, psi: float, xi: float, theta: float) -> dict:
    """The computed CSV columns at one setting, by column name."""
    row = record_at(np.array([[phi, psi, xi, theta]]))[0].tolist()
    return dict(zip(RECORD_COLUMNS, row))


def test_1_synchronized_scan_normalized_column(report):
    started = time.perf_counter()
    rows_plus = _cells(PRESETS["fig2"])
    rows_minus = _cells(
        SweepSpec(axes=PRESETS["fig2"].axes, fixed={"zeta": -QUARTER_TURN})
    )
    worst = max(
        abs(float(row[10]) - math.sin(float(row[0])) ** 2) for row in rows_plus
    )
    both_signs_identical = all(
        rp[8] == rm[8] and rp[10] == rm[10]
        for rp, rm in zip(rows_plus, rows_minus)
    )
    elapsed = time.perf_counter() - started
    passed = (
        len(rows_plus) == 201
        and worst < TOL
        and both_signs_identical
        and elapsed < 1.0
    )
    report(
        1,
        "synchronized scan normalizes to sin^2(rho), identically for both "
        "polarizer signs",
        passed,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )
    assert passed


def test_2_single_station_fringes_mirror_and_share_energy(report):
    rho = sweep_settings(PRESETS["fig2"])[:, 0]
    at_plus = record_at(synchronized_settings(rho, QUARTER_TURN))
    at_minus = record_at(synchronized_settings(rho, -QUARTER_TURN))
    worst = max(
        np.max(np.abs(at_plus[:, 0] + at_minus[:, 0] - 0.5)),
        np.max(np.abs(at_minus[:, 0] - at_plus[:, 1])),
        np.max(np.abs(at_minus[:, 1] - at_plus[:, 0])),
    )
    passed = worst < TOL
    report(
        2,
        "flipping the polarizer sign mirrors the station fringe; the two "
        "signs sum to half the input",
        passed,
        f"max deviation {worst:.2e}",
    )
    assert passed


def test_3_independent_phase_map_product_forms(report):
    settings = sweep_settings(PRESETS["fig3"])
    records = record_at(settings)
    worst = 0.0
    for (phi, psi, _, _), (_, _, _, _, r_ad, r_bc) in zip(
        settings.tolist(), records.tolist()
    ):
        worst = max(
            worst,
            abs(r_ad - (1.0 - math.cos(phi)) * (1.0 + math.cos(psi))),
            abs(r_bc - (1.0 + math.cos(phi)) * (1.0 - math.cos(psi))),
        )

    def r_at(phi, psi, pair):
        return _record(phi, psi, QUARTER_TURN, QUARTER_TURN)["R_" + pair]

    spots = max(
        abs(r_at(0.0, 0.0, "AD")),
        abs(r_at(0.0, 0.0, "BC")),
        abs(r_at(math.pi, 0.0, "AD") - 4.0),
        abs(r_at(0.0, math.pi, "BC") - 4.0),
        abs(r_at(math.pi, 0.0, "BC")),
    )
    grid_max = records[:, 4:6].max()
    passed = worst < TOL and spots < TOL and grid_max <= 4.0 + TOL
    report(
        3,
        "independent-phase map follows the anti-correlated product forms "
        "(zeros at the origin, peaks of 4 at (pi,0)/(0,pi))",
        passed,
        f"max deviation {max(worst, spots):.2e}",
    )
    assert passed


def test_4_phase_vs_polarizer_map_peak_and_symmetry(report):
    grid_max = record_at(sweep_settings(PRESETS["fig4"]))[:, 4].max()
    peak = _record(math.pi, 0.0, QUARTER_TURN, QUARTER_TURN)["R_AD"]
    worst_symmetry = 0.0
    for phi in sweep_settings(PRESETS["fig2"])[:, 0].tolist():
        high = _record(phi, 0.0, 3.0 * QUARTER_TURN, QUARTER_TURN)["R_AD"]
        low = _record(phi, 0.0, -QUARTER_TURN, QUARTER_TURN)["R_AD"]
        worst_symmetry = max(worst_symmetry, abs(high - low))
    passed = (
        abs(peak - 4.0) < TOL
        and grid_max <= peak + TOL
        and grid_max > 3.99
        and worst_symmetry < TOL
    )
    report(
        4,
        "phase-versus-polarizer map peaks at 4 on the quarter-turn/pi locus "
        "and repeats every half turn of the polarizer",
        passed,
        f"peak deviation {abs(peak - 4.0):.2e}, symmetry {worst_symmetry:.2e}",
    )
    assert passed


def test_5_composed_model_reproduces_closed_form(report):
    rng = np.random.default_rng(987654321)
    started = time.perf_counter()
    # Per setting: phase, polarizer angle, global phase, input amplitude.
    phi, zeta, eta, e0 = rng.uniform(
        [0.0, -math.pi, 0.0, 0.1],
        [2.0 * math.pi, math.pi, 2.0 * math.pi, 2.0],
        size=(1000, 4),
    ).T
    worst = float(
        np.max(
            station_outputs_deviation(
                composed_station(phi, zeta, eta, e0),
                closed_form_station(phi, zeta, eta, e0),
            )
        )
    )
    elapsed = time.perf_counter() - started
    passed = worst < TOL and elapsed < 1.0
    report(
        5,
        "element-by-element station model matches the closed form on 1000 "
        "random settings",
        passed,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )
    assert passed


def test_6_energy_and_probability_conservation(report):
    rng = np.random.default_rng(20260815)
    # Per setting, in draw order: phi, xi, psi, theta, input amplitude.
    phi, xi, psi, theta, amplitude = rng.uniform(
        [0.0, -math.pi, 0.0, -math.pi, 0.1],
        [2.0 * math.pi, math.pi, 2.0 * math.pi, math.pi, 2.0],
        size=(1000, 5),
    ).T
    i_a, i_b, i_c, i_d = record_at(np.column_stack([phi, psi, xi, theta]))[:, :4].T
    # Alice's station at global phases 0, pi/3 and pi, one per middle index.
    etas = np.array([0.0, math.pi / 3.0, math.pi])
    outputs = closed_form_station(phi[:, None], xi[:, None], etas, amplitude[:, None])
    energy = np.sum(np.abs(outputs[:, 0, :4]) ** 2, axis=1)
    projected = np.abs(outputs[..., 4:]) ** 2
    worst = float(
        max(
            np.max(np.abs(i_a + i_b - 0.5)),
            np.max(np.abs(i_c + i_d - 0.5)),
            np.max(np.abs(energy - amplitude**2)),
            np.max(np.abs(projected[:, 1:] - projected[:, :1])),
        )
    )
    passed = worst < TOL
    report(
        6,
        "energy and detection probability are conserved and blind to the "
        "global phase on 1000 random settings",
        passed,
        f"max deviation {worst:.2e}",
    )
    assert passed


def test_7_photon_counting_reproduces_the_fringe(report):
    started = time.perf_counter()
    phases = [2.0 * math.pi * k / 8.0 for k in range(8)]
    points = synchronized_settings(phases, QUARTER_TURN)
    records = record_at(points)
    truths = records[:, 4].tolist()
    probabilities = records[:, :4].tolist()
    source = SourceParams(
        mean_photon_number=0.05, n_time_bins=90_000_000, rng_seed=20260815
    )
    fates = run_experiment(points, source).fates
    r_hat, std_error, *_ = estimate_columns(fates, "analytic")
    worst_z = 0.0
    worst_singles_z = 0.0
    worst_stderr = 0.0
    worst_algebra = 0.0
    point_fates = fates.tolist()
    min_pairs = min(sum(row) for row in point_fates)
    for rho, truth, p_point, row, value, stderr in zip(
        phases, truths, probabilities, point_fates, r_hat.tolist(), std_error.tolist()
    ):
        worst_algebra = max(worst_algebra, abs(truth - math.sin(rho) ** 2))
        worst_z = max(worst_z, _sigmas(value, truth, stderr))
        worst_stderr = max(worst_stderr, stderr)
        n = sum(row)
        singles = detector_singles(row)
        for detector, p in zip(DETECTORS[:2], p_point[:2]):
            sigma = math.sqrt(p * (1.0 - p) / n)
            worst_singles_z = max(
                worst_singles_z,
                _sigmas(singles[detector] / n, p, sigma),
            )
    elapsed = time.perf_counter() - started
    passed = (
        min_pairs >= 100_000
        and worst_z <= 5.0
        and worst_stderr < 0.02
        and worst_singles_z <= 4.0
        and worst_algebra < TOL
        and elapsed < 60.0
    )
    report(
        7,
        "photon counting converges to sin^2(rho) at 8 synchronized phases "
        "with honest error bars",
        passed,
        f"worst z {worst_z:.2f}, singles z {worst_singles_z:.2f}, "
        f"min pairs {min_pairs}, stderr<= {worst_stderr:.3f}, {elapsed:.1f}s",
    )
    assert passed


def test_8_pair_bin_fraction_matches_poisson_mass(report):
    worst_z = 0.0
    for mu in (0.01, 0.05, 0.2):
        source = SourceParams(
            mean_photon_number=mu, n_time_bins=2_000_000, rng_seed=3
        )
        counts = run_experiment(synchronized_settings(1.0, QUARTER_TURN), source).counts
        n_pair_bins = sum(counts[0, :10].tolist())
        p2 = math.exp(-mu) * mu * mu / 2.0
        sigma = math.sqrt(source.n_time_bins * p2 * (1.0 - p2))
        worst_z = max(
            worst_z,
            _sigmas(float(n_pair_bins), source.n_time_bins * p2, sigma),
        )
    passed = worst_z <= 4.0
    report(
        8,
        "post-selected pair fraction matches the two-photon mass of the "
        "source at three brightness levels",
        passed,
        f"worst z {worst_z:.2f}",
    )
    assert passed


def test_9_identical_runs_are_byte_identical(report, tmp_path, capsys):
    def mc_argv(out_path):
        return [
            "montecarlo",
            "--sweep",
            "rho=0:6.4:1.6",
            "--fix",
            f"zeta={QUARTER_TURN!r}",
            "--mu",
            "0.2",
            "--bins",
            "200000",
            "--seed",
            "77",
            "--out",
            str(out_path),
        ]

    codes = [
        main(mc_argv(tmp_path / "mc_a.csv")),
        main(mc_argv(tmp_path / "mc_b.csv")),
        main(["analytic", "--preset", "fig2", "--out", str(tmp_path / "an_a.csv")]),
        main(["analytic", "--preset", "fig2", "--out", str(tmp_path / "an_b.csv")]),
    ]
    capsys.readouterr()
    mc_identical = (
        (tmp_path / "mc_a.csv").read_bytes()
        == (tmp_path / "mc_b.csv").read_bytes()
    )
    analytic_identical = (
        (tmp_path / "an_a.csv").read_bytes()
        == (tmp_path / "an_b.csv").read_bytes()
    )
    passed = codes == [0, 0, 0, 0] and mc_identical and analytic_identical
    report(
        9,
        "same configuration and seed reproduce the output byte for byte, "
        "photon counting included",
        passed,
        f"monte carlo identical: {mc_identical}, analytic identical: "
        f"{analytic_identical}",
    )
    assert passed
