"""Self-tests of the benchmark's own logic.

    python3 -m pytest benchmarks/test_bench.py

Two tests run the nmzi CLI once (about 2 s) to obtain real outputs to corrupt.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest

import checks
import run


@pytest.mark.parametrize(
    "n, index, percentile",
    [(1, 0, 100.0), (10, 9, 100.0), (11, 0, 100.0 / 11), (20, 9, 50.0), (100, 89, 90.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, index, percentile):
    values = [float(v) for v in range(n)][::-1]
    value, pct, count = run.tail(values)
    assert value == float(index)
    assert pct == pytest.approx(percentile)
    assert count == n
    if n >= 11:
        assert sum(v > value for v in values) == 10


def test_quartiles_follow_statistics_quantiles():
    assert run.quartiles([float(v) for v in range(1, 11)]) == (2.75, 5.5, 8.25)
    assert run.quartiles([3.0, 1.0, 2.0, 4.0]) == (1.25, 2.5, 3.75)
    assert run.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_end_to_end_timings_scale_by_the_reference_run():
    w = run.WORKLOADS["verify"]
    runs = [
        run.Invocation(1, False, run.Child(0, wall, 40.0), [], 0)
        for wall in (0.3, 0.4, 0.5)
    ]
    # The reference ran at twice its idle time: the host was half as fast.
    loop = run.Loop(runs, setup=[0.2, 0.1, 0.3], reference=[2 * run.REFERENCE_S] * 3)
    metrics, raw, _ = run.end_to_end(w, loop)
    assert raw == {"wall_s_raw": 0.4, "wall_s_tail_raw": 0.5, "setup_s_raw": 0.2, "host_factor": 2.0}
    assert metrics["wall_s"] == pytest.approx(0.2)
    assert metrics["wall_s_tail"] == pytest.approx(0.25)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["points_per_s"] == pytest.approx(w.points / 0.2)
    assert metrics["peak_rss_mb"] == 40.0


def test_binomial_tail_matches_direct_sum():
    n, p = 30, 0.1
    pmf = [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
    for k in range(n + 1):
        want = min(1.0, 2 * min(sum(pmf[: k + 1]), sum(pmf[k:])))
        assert checks._binomial_tail(k, n, p) == pytest.approx(want, rel=1e-9, abs=1e-300)
    assert checks._binomial_tail(0, 50, 0.0) == 1.0
    assert checks._binomial_tail(1, 50, 0.0) == 0.0


def _cli_output(workload: str, tmp_path, seed: int = 7) -> str:
    out = tmp_path / "out.csv"
    argv = [sys.executable, "-m", "nmzi.cli", *run.WORKLOADS[workload].argv(seed, out)]
    subprocess.run(argv, env=run.child_env(), check=True, capture_output=True, timeout=120)
    return out.read_text(encoding="ascii")


def _replace_cell(text: str, row: int, column: str, value: str) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def test_one_corrupted_analytic_cell_fails(tmp_path):
    text = _cli_output("analytic-fig3", tmp_path)
    assert checks.check_analytic(text, "fig3") == []
    cell = float(text.split("\n")[5000].split(",")[9])
    corrupted = _replace_cell(text, 5000, "R_BC", f"{cell + 1e-9:.16e}")
    assert checks.check_analytic(corrupted, "fig3") == [
        f"row 5000: R_BC = {cell + 1e-9!r}, expected {cell!r}"
    ]
    assert checks.check_analytic(text.replace("R_AD_normalized", "R_norm"), "fig3")
    assert checks.check_analytic(text.rsplit("\n", 2)[0] + "\n", "fig3")


def test_r_hat_shifted_by_ten_sigma_fails(tmp_path):
    text = _cli_output("mc-fig2", tmp_path)
    _, bins, routing = run.WORKLOADS["mc-fig2"].mc
    assert checks.check_montecarlo(text, "fig2", 0.05, bins, routing)["problems"] == []

    rows = [line.split(",") for line in text.split("\n")[1:-1]]
    column = checks.MC_HEADER.index
    row = max(range(len(rows)), key=lambda i: float(rows[i][column("R_AD")]))
    truth = float(rows[row][column("R_AD")])
    n = int(rows[row][column("n_pairs")])
    k = round(float(rows[row][column("R_hat_AD")]) * n / 16)
    sigma_k = math.sqrt(n * (truth / 16) * (1 - truth / 16))
    shifted = (k + round(10 * sigma_k)) * 16 / n
    corrupted = _replace_cell(text, row + 1, "R_hat_AD", f"{shifted:.16e}")
    problems = checks.check_montecarlo(corrupted, "fig2", 0.05, bins, routing)["problems"]
    assert len(problems) == 1 and problems[0].startswith(f"row {row + 1}: R_hat_AD")


def test_verify_check_needs_the_summary_line():
    assert checks.check_verify("PASS  x\nall 11 checks passed\n") == []
    assert checks.check_verify("1 of 11 checks FAILED\n")
    assert checks.check_verify("all 11 checks passed, mostly\n")


def test_bare_benchmark_directory_exits_nonzero(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in ("run.py", "checks.py"):
        (bench / name).write_text((run.BENCH_DIR / name).read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0 and done.stdout == ""


def test_spawn_kills_a_child_past_its_limit(tmp_path):
    child = run.spawn(
        ["-c", "import time; time.sleep(30)"], dict(os.environ),
        tmp_path / "out", tmp_path / "err", 0.5,
    )
    assert child.exit_code == -9 and child.wall_s < 10
