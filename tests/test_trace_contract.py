"""The benchmark's tracer still finds every layer it measures.

``benchmarks/tracer.py`` wraps public names of the package from outside and
reads fields of what they return; a renamed function or a result that lost a
field leaves per-layer metrics absent without failing the run.  These tests
run the tracer as the benchmark does and require the full metric set that
``BENCHMARK.json`` declares, and the Monte Carlo totals the tracer reads
back from ``run_experiment`` must be the column sums of the count array
sampled in process at the same seed.  They only read files under
``benchmarks/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nmzi.config import build_sweep_spec, parse_config
from nmzi.correlation import sweep_settings
from nmzi.montecarlo import run_experiment

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"


def _layer_metrics():
    # run.py imports its sibling module ``checks``.
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return module.layer_metrics


@pytest.mark.parametrize(
    "argv",
    [
        ["montecarlo", "--preset", "fig2", "--bins", "20000"],
        ["analytic", "--preset", "fig3", "--gnuplot"],
        [
            "montecarlo", "--preset", "fig4", "--mu", "0.2", "--bins", "20000",
            "--routing", "binomial",
        ],
        ["verify"],
    ],
    ids=[
        "montecarlo-fig2",
        "analytic-fig3",
        "montecarlo-fig4-binomial",
        "verify-montecarlo",
    ],
)
def test_traced_run_reports_every_per_layer_metric(argv, tmp_path):
    trace_path = tmp_path / "trace.json"
    run_argv = argv
    if argv[0] != "verify":
        run_argv = [*argv, "--out", str(tmp_path / "out.csv")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *run_argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(trace_path.read_text())
    assert trace["missing"] == []

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # trace.overhead_s compares traced with untraced runs; one trace lacks it.
    expected = {metric["name"] for metric in declared} - {"trace.overhead_s"}
    out = tmp_path / "out.csv"
    out_bytes = out.stat().st_size if out.exists() else 0
    assert set(_layer_metrics()(trace, out_bytes)) == expected
    if argv[0] == "montecarlo":
        assert_traced_totals_equal_column_sums(trace, argv)


def assert_traced_totals_equal_column_sums(trace, argv):
    """The traced sweep totals are the column sums of the count array."""
    # A flag's name is its config key.
    overrides = {flag[2:]: value for flag, value in zip(argv[1::2], argv[2::2])}
    config = parse_config(None, {"mode": argv[0], **overrides})
    settings = sweep_settings(build_sweep_spec(config))
    counts = run_experiment(settings, config.source).counts
    observed = trace["observed"]["cli.run_experiment"]
    totals = {
        "points": len(counts),
        "bins": config.source.n_time_bins * len(counts),
        "pair_bins": counts[:, :10].sum(),
        "multi_bins": counts[:, 10].sum(),
        "routing_rejected": counts[:, 9].sum(),
        "post_selected": counts[:, :9].sum(),
        "coincidences": counts[:, [0, 1, 3, 4]].sum(),
        # The AD and BC fate columns.
        "zero_coincidence_points": ((counts[:, 1] == 0) | (counts[:, 3] == 0)).sum(),
    }
    assert {key: observed[key] for key in totals} == totals
