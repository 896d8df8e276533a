"""Smoke tests of the scripts under ``scripts/``, run as a user would."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from test_digests import ANALYTIC_SHA256

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_make_figures_reproduces_the_pinned_csvs(tmp_path):
    out = tmp_path / "figures"
    done = run_script("make_figures.py", "--out-dir", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for preset, digest in ANALYTIC_SHA256.items():
        assert hashlib.sha256((out / f"{preset}.csv").read_bytes()).hexdigest() == digest
        assert (out / f"{preset}.gp").is_file()


def test_make_figures_with_monte_carlo(tmp_path):
    out = tmp_path / "figures"
    done = run_script(
        "make_figures.py", "--out-dir", str(out), "--with-mc", "--bins", "20000",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    header = (out / "fig2.csv").read_text().splitlines()[0]
    assert header.endswith("R_hat_AD,stderr_AD,R_hat_BC,stderr_BC,n_pairs")


def test_code_lines_counts_each_module_and_sums_them(tmp_path):
    done = run_script("code_lines.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    *modules, total = (line.split() for line in done.stdout.splitlines())
    assert sorted(name for _, name in modules) == sorted(
        path.name for path in (ROOT / "src" / "nmzi").glob("*.py")
    )
    assert all(int(count) > 0 for count, _ in modules)
    assert total == [str(sum(int(count) for count, _ in modules)), "total"]


def test_uncovered_lists_the_statements_a_test_file_never_runs(tmp_path):
    # One quick test of a module that never imports the CLI.
    test_file = str(ROOT / "tests" / "test_digits.py")
    done = run_script(
        "uncovered.py", test_file, "-k", "near_ties", "-q", "-p", "no:cacheprovider",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    *_, count = done.stdout.splitlines()
    assert count.endswith(" statements never ran")
    assert any(line.startswith("cli.py:") for line in done.stdout.splitlines())


def test_large_sweep_reports_each_mode_and_writes_fig3_on_a_101_grid(tmp_path):
    # 101 points per axis over [0, 2 pi] at pi/4 polarizers is fig3's grid.
    done = run_script("large_sweep.py", "--points", "101", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    runs = [dict(field.split("=") for field in line.split()) for line in done.stdout.splitlines()]
    assert [run["mode"] for run in runs] == ["analytic", "montecarlo"]
    assert all(run["rows"] == "10201" and float(run["wall_s"]) > 0.0 for run in runs)
    assert runs[0]["sha256"] == ANALYTIC_SHA256["fig3"]
    assert int(runs[1]["csv_bytes"]) > int(runs[0]["csv_bytes"])
    if os.path.exists("/proc/self/status"):
        assert all(float(run["vmhwm_mb"]) > 0.0 for run in runs)
    # The CSVs went to a temporary directory, not the working one.
    assert list(tmp_path.iterdir()) == []
