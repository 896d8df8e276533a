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


def test_mc_convergence_prints_its_summary(tmp_path):
    done = run_script(
        "mc_convergence.py", "--seeds", "3", "--bins", "20000", cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    assert "/3 seeds within 2 sigma" in done.stdout
    # The truth at the default rho = 1 is sin^2(1), not zero: a seed that
    # counted no coincidence lies below it, whatever its +-0 error bar says.
    rows = [line.split() for line in done.stdout.splitlines() if line[:4].strip().isdigit()]
    assert len(rows) == 3
    assert not [row for row in rows if row[2] == "0.00000" and row[4] == "0.00"]


def test_mc_convergence_survives_zero_error_bars_and_refuses_no_seeds(tmp_path):
    # At rho = 0 the AD coincidence probability is exactly zero, so every
    # stderr is 0 and the ratio of two of them is undefined.
    done = run_script(
        "mc_convergence.py", "--seeds", "2", "--rho", "0", "--bins", "20000",
        cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert "stderr ratio at 4x the bins: undefined" in done.stdout
    done = run_script("mc_convergence.py", "--seeds", "0", cwd=tmp_path)
    assert done.returncode == 2
    assert "--seeds must be at least 1" in done.stderr
    assert "Traceback" not in done.stderr
