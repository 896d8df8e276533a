"""Tests for the self-verification report."""

import math

from nmzi.config import parse_config
from nmzi.elements import ElementConventions
from nmzi.montecarlo import SourceParams
from nmzi.verify import (
    CheckResult,
    VerificationReport,
    _sigma_or_inf,
    run_verification,
)


def test_analytic_checks_all_pass():
    report = run_verification(None)
    assert len(report.checks) == 8
    assert report.all_passed
    for line in report.lines()[:-1]:
        assert line.startswith("PASS")
    assert report.lines()[-1] == "all 8 checks passed"


def test_full_report_includes_montecarlo_checks():
    # The source `nmzi verify` runs with when no flag or config sets one.
    report = run_verification(parse_config(None, {"mode": "verify"}).source)
    assert len(report.checks) == 11
    assert report.all_passed
    names = [check.name for check in report.checks]
    assert len(set(names)) == len(names)
    assert sum("monte carlo" in n or "poisson" in n for n in names) == 3


def test_corrupted_conventions_fail_composed_check():
    bad = ElementConventions(pbs_reflection_phase=1.0)
    report = run_verification(None, conventions=bad)
    assert not report.all_passed
    failed = [check for check in report.checks if not check.passed]
    assert [check.name for check in failed] == [
        "composed station matches closed form"
    ]
    assert failed[0].max_deviation > 0.1
    assert report.lines()[-1] == "1 of 8 checks FAILED"


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
    assert _sigma_or_inf(0.0, 0.0, 0.0) == 0.0
    assert _sigma_or_inf(1e-30, 0.0, 0.0) == math.inf
    assert _sigma_or_inf(1.5, 1.0, 0.25) == 2.0


def test_exact_conservation_check_demands_zero():
    report = run_verification(None)
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
