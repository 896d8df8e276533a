"""Tests for the self-verification report."""

import math

import numpy as np
import pytest

import nmzi.montecarlo
from nmzi import verify
from nmzi.config import parse_config
from nmzi.correlation import record_at, synchronized_settings
from nmzi.elements import ElementConventions
from nmzi.montecarlo import SourceParams
from nmzi.verify import (
    CheckResult,
    VerificationReport,
    _binomial_z,
    _check_montecarlo,
    run_verification,
)

# The source `nmzi verify` runs with when no flag or config sets one.
DEFAULT_SOURCE = parse_config(None, {"mode": "verify"}).source

MC_CHECKS = (
    "monte carlo correlation converges at 8 synchronized phases (sigmas)",
    "monte carlo singles follow the fringe (sigmas)",
    "doubly bunched bin fraction matches poisson mass (sigmas)",
)


def test_analytic_checks_all_pass():
    report = run_verification(DEFAULT_SOURCE)
    analytic = report.checks[:8]
    assert all(check.tolerance <= 1e-12 for check in analytic)
    for line in report.lines()[:8]:
        assert line.startswith("PASS")
    assert report.lines()[-1] == "all 11 checks passed"


def test_full_report_includes_montecarlo_checks():
    report = run_verification(DEFAULT_SOURCE)
    assert len(report.checks) == 11
    assert report.all_passed
    names = [check.name for check in report.checks]
    assert len(set(names)) == len(names)
    assert tuple(names[-3:]) == MC_CHECKS
    assert [check.tolerance for check in report.checks[-3:]] == [5.0, 4.0, 4.0]


def test_corrupted_conventions_fail_composed_check():
    bad = ElementConventions(pbs_reflection_phase=1.0)
    report = run_verification(DEFAULT_SOURCE, conventions=bad)
    assert not report.all_passed
    failed = [check for check in report.checks if not check.passed]
    assert [check.name for check in failed] == [
        "composed station matches closed form"
    ]
    assert failed[0].max_deviation > 0.1
    assert report.lines()[-1] == "1 of 11 checks FAILED"


def test_check_line_format():
    passing = CheckResult(name="x", max_deviation=2e-13, tolerance=1e-12)
    assert passing.line() == "PASS  x: max deviation 2.000e-13 (tolerance 1.0e-12)"
    failing = CheckResult(name="x", max_deviation=3e-12, tolerance=1e-12)
    assert not failing.passed
    assert failing.line().startswith("FAIL  x")


def test_boundary_deviation_counts_as_pass():
    check = CheckResult(name="edge", max_deviation=1e-12, tolerance=1e-12)
    assert check.passed
    report = VerificationReport(checks=(check,))
    assert report.all_passed


def test_sigma_scaling_handles_exact_zero():
    # At an exactly dark point a zero count is exact and any count is not.
    assert _binomial_z(0, 10, 0.0) == 0.0
    assert _binomial_z(1, 10, 0.0) == math.inf
    # 28 of 100 at p = 0.2: |0.28 - 0.2| / sqrt(0.2 * 0.8 / 100) = 2 sigmas,
    # and a zero count is measured in the truth's sigma, not its own +-0.
    assert _binomial_z(28, 100, 0.2) == pytest.approx(2.0)
    assert _binomial_z(0, 64, 0.2) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="zero post-selected pairs"):
        _binomial_z(0, 0, 0.5)


def test_exact_conservation_check_demands_zero():
    report = run_verification(DEFAULT_SOURCE)
    by_name = {check.name: check for check in report.checks}
    exact = by_name["detection probabilities conserve exactly"]
    assert exact.tolerance == 0.0
    assert exact.max_deviation == 0.0


def test_report_is_deterministic_for_a_given_source():
    source = SourceParams(
        mean_photon_number=0.2, n_time_bins=60_000, rng_seed=7
    )
    first = run_verification(source)
    second = run_verification(source)
    assert first == second


def test_montecarlo_checks_read_one_draw_of_nine_rows(monkeypatch):
    calls = []

    def counted(probabilities, source):
        calls.append(probabilities.copy())
        return nmzi.montecarlo.run_experiment(probabilities, source)

    monkeypatch.setattr(verify, "run_experiment", counted)
    run_verification(DEFAULT_SOURCE)
    assert [len(probabilities) for probabilities in calls] == [9]
    # Eight synchronized phases, then the general point.
    rows = np.concatenate([
        synchronized_settings([2.0 * math.pi * k / 8.0 for k in range(8)], math.pi / 4.0),
        [[0.9, 1.7, math.pi / 4.0, 0.6]],
    ])
    assert np.array_equal(calls[0], record_at(rows)[:, :4])


@pytest.mark.parametrize("bins", [20_000, 200_000])
def test_montecarlo_checks_pass_on_a_correct_sampler(bins):
    # Small samples often count no coincidence at some phase; that is no
    # failure when the deviation is measured in the closed form's sigma.
    failed = [
        seed
        for seed in range(50)
        if not all(c.passed for c in _check_montecarlo(SourceParams(0.05, bins, seed)))
    ]
    assert failed == []


def _deviations():
    return {c.name: c.max_deviation for c in _check_montecarlo(DEFAULT_SOURCE)}


def test_montecarlo_checks_catch_swapped_detectors(monkeypatch):
    # Negative control: the sampler routes Bob's photons to D where the
    # closed form says C, and back.
    run_experiment = nmzi.montecarlo.run_experiment
    monkeypatch.setattr(
        verify, "run_experiment", lambda p, source: run_experiment(p[:, [0, 1, 3, 2]], source)
    )
    deviations = _deviations()
    assert deviations[MC_CHECKS[0]] == math.inf
    assert deviations[MC_CHECKS[1]] > 4.0


def test_montecarlo_checks_catch_a_biased_photon_number(monkeypatch):
    # Negative control: the sampler's source is 2% brighter than its mu.  At
    # the default 10^6 bins the pair-bin check sees that on about half of the
    # seeds, so the control runs at 10^7 bins, where it must see it on every
    # seed while a correct sampler passes every check.
    sources = [SourceParams(0.05, 10**7, seed) for seed in range(20)]
    assert all(all(c.passed for c in _check_montecarlo(s)) for s in sources)
    class_masses = nmzi.montecarlo._class_masses
    monkeypatch.setattr(
        nmzi.montecarlo, "_class_masses", lambda mu: class_masses(1.02 * mu)
    )
    missed = [
        s.rng_seed for s in sources if _check_montecarlo(s)[2].max_deviation <= 4.0
    ]
    assert missed == []
