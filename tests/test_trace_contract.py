"""The benchmark's tracer still finds every layer it measures.

``benchmarks/tracer.py`` wraps public names of the package from outside and
reads fields of what they return; a renamed function or a result that lost a
field leaves per-layer metrics absent without failing the run.  These tests
run the tracer as the benchmark does and require the full metric set that
``BENCHMARK.json`` declares.  They only read files under ``benchmarks/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        ["verify", "--skip-montecarlo"],
        ["analytic", "--preset", "fig3", "--gnuplot"],
        [
            "montecarlo", "--preset", "fig4", "--mu", "0.2", "--bins", "20000",
            "--routing", "binomial",
        ],
        ["verify"],
    ],
    ids=[
        "montecarlo-fig2",
        "verify",
        "analytic-fig3",
        "montecarlo-fig4-binomial",
        "verify-montecarlo",
    ],
)
def test_traced_run_reports_every_per_layer_metric(argv, tmp_path):
    trace_path = tmp_path / "trace.json"
    if argv[0] != "verify":
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), *argv],
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
