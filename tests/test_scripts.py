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
