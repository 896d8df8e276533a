"""End-to-end benchmark of the nmzi command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all     # every workload, one table each

Run from the repository root.  Every invocation is a fresh interpreter running
``python -m nmzi.cli`` with this checkout's ``src/`` on PYTHONPATH, as a user
would run it; one child runs at a time, in a closed loop with a single client.
The loop alternates two program seeds: ``--seed`` and ``--seed + 1000003``.

Each invocation is followed by runs of ``benchmarks/reference.py`` (fixed
work that never imports nmzi) and one bare ``import nmzi.cli``.  The host's
speed drifts by tens of percent over minutes on a shared machine; the
end-to-end timings are therefore reported in seconds at a fixed reference
speed: raw time x REFERENCE_S / (median reference wall in this run).  The raw
figures are printed and recorded next to them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` interleaves
untraced invocations with traced ones (``benchmarks/tracer.py``) and reports
the per-layer split.  Every output is checked (``benchmarks/checks.py``); an
invocation fails if it exits non-zero, if its output fails the check, or if
its output differs from an earlier invocation at the same seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
argv, every sample) goes to ``benchmarks/_out/BENCH_<workload>_seed<N>_trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

DEFAULT_SEED = 20220223
ALT_SEED_OFFSET = 1_000_003
DEFAULT_SECONDS = 30
# Median wall time of benchmarks/reference.py on an idle 2-core VM (Python
# 3.11.7, numpy 2.4.6).  Host-adjusted timings are raw timings scaled by
# REFERENCE_S / (the reference's median wall in the same run), so on that
# idle host they read about as the raw ones.  Changing it, or the reference
# script, is a change of benchmark: baselines must be measured again.
REFERENCE_S = 0.130
REFERENCE = BENCH_DIR / "reference.py"
# Reference runs after each invocation: one per started second of its wall
# time, at most four, so long invocations still leave enough reference samples
# for a steady median.
REFERENCE_EVERY_S = 1.0
REFERENCE_MAX_PER_STEP = 4
# Hard limits: a measured loop stops after RUN_LIMIT_S even inside its first
# cycle, and a child still running at that point is killed and counted as
# failed.  An import or reference run still running after IMPORT_LIMIT_S is
# killed and ends the benchmark with an error.
RUN_LIMIT_S = 150.0
IMPORT_LIMIT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    # Work items per invocation: grid points written, or checks run by verify.
    points: int
    preset: str | None = None
    # (mean photon number, bins, routing) of a Monte Carlo workload.
    mc: tuple[float, int, str] | None = None

    def argv(self, seed: int, out_csv: Path) -> list[str]:
        argv = list(self.args)
        if self.mc is not None:
            argv += ["--seed", str(seed)]
        if self.preset is not None:
            argv += ["--out", str(out_csv)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analytic-fig3", ("analytic", "--preset", "fig3", "--gnuplot"), 10_201, "fig3"),
        Workload(
            "mc-fig2",
            ("montecarlo", "--preset", "fig2", "--mu", "0.05", "--bins", "1000000"),
            201, "fig2", (0.05, 1_000_000, "paired"),
        ),
        Workload(
            "mc-fig4-binomial",
            ("montecarlo", "--preset", "fig4", "--mu", "0.2", "--bins", "20000",
             "--routing", "binomial"),
            10_201, "fig4", (0.2, 20_000, "binomial"),
        ),
        Workload("verify", ("verify",), 11),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s", "wall_s_tail": "s", "points_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "config.busy_s": "s",
    "correlation.expand_s": "s", "correlation.closed_form_s": "s",
    "correlation.calls": "count", "correlation.points": "count",
    "montecarlo.run_s": "s", "montecarlo.ns_per_bin": "ns", "montecarlo.us_per_point": "us",
    "montecarlo.bins": "count", "montecarlo.pair_bins": "count",
    "montecarlo.multi_bins": "count", "montecarlo.routing_rejected": "count",
    "montecarlo.post_selected": "count", "montecarlo.coincidences": "count",
    "montecarlo.useful_ratio": "ratio", "montecarlo.zero_coincidence_points": "count",
    "output.render_s": "s", "output.write_s": "s", "output.gnuplot_s": "s",
    "output.bytes": "B",
    "verify.run_s": "s", "verify.checks": "count", "verify.checks_failed": "count",
    "verify.mc_s": "s",
    "station.composed_s": "s", "station.closed_form_s": "s", "station.calls": "count",
    "elements.busy_s": "s", "elements.calls": "count",
    "trace.overhead_s": "s",
}

_MC_COUNTS = (
    "bins", "pair_bins", "multi_bins", "routing_rejected", "post_selected",
    "coincidences", "zero_coincidence_points",
)


# ---------------------------------------------------------------- statistics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail latency.

    The tail is the highest percentile that has at least ten samples beyond
    it: in ascending order, the sample with exactly ten after it, which sits
    at percentile 100 (n - 10) / n.  With fewer than eleven samples no sample
    has ten beyond it, and the maximum is reported at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------- processes

@dataclass
class Child:
    exit_code: int
    wall_s: float
    rss_mb: float


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path, limit_s: float) -> Child:
    """Run one child to completion; wall time from spawn to exit.

    Peak resident set comes from ``os.wait4``'s rusage of that child.
    """
    # Fresh files, not truncated ones: ext4 flushes a file truncated by
    # O_TRUNC when it is closed, and that disk wait would land in the timing.
    for path in (stdout, stderr):
        path.unlink(missing_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    watchdog = threading.Timer(limit_s, _kill, (pidfd,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        _kill(pidfd)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
        os.close(pidfd)
    # ru_maxrss is in KiB on Linux.
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024 / 1e6)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------- invocations

@dataclass
class Invocation:
    seed: int
    traced: bool
    child: Child
    problems: list[str]
    out_bytes: int
    trace: dict | None = None
    max_z: float | None = None


@dataclass
class Checker:
    """Checks outputs; byte-identical outputs reuse the first verdict."""

    workload: Workload
    verdicts: dict = field(default_factory=dict)
    digest_by_seed: dict = field(default_factory=dict)

    def __call__(self, seed: int, exit_code: int, stdout: bytes, outputs: list[bytes]) -> tuple[list[str], float | None]:
        w = self.workload
        payload = stdout if w.preset is None else b"".join(outputs)
        digest = hashlib.sha256(payload).hexdigest()
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
        first = self.digest_by_seed.setdefault(seed, digest)
        if first != digest:
            problems.append(f"output differs from an earlier invocation at seed {seed}")
        if digest not in self.verdicts:
            text = (outputs[0] if outputs else b"").decode("ascii", "replace")
            if w.preset is None:
                verdict = (checks.check_verify(stdout.decode("utf-8", "replace")), None)
            elif w.mc is None:
                verdict = (checks.check_analytic(text, w.preset), None)
            else:
                result = checks.check_montecarlo(text, w.preset, *w.mc)
                verdict = (result["problems"], result["max_z"])
            self.verdicts[digest] = verdict
        found, max_z = self.verdicts[digest]
        return problems + found, max_z


def invoke(w: Workload, seed: int, traced: bool, env: dict, check: Checker, limit_s: float) -> Invocation:
    csv_path = OUT_DIR / "out.csv"
    gp_path = csv_path.with_suffix(".gp")
    trace_path = OUT_DIR / "trace.json"
    stdout_path, stderr_path = OUT_DIR / "stdout.txt", OUT_DIR / "stderr.txt"
    # The CLI must create its outputs afresh; see spawn() on O_TRUNC.
    for stale in (csv_path, gp_path, trace_path):
        stale.unlink(missing_ok=True)
    argv = w.argv(seed, csv_path)
    if traced:
        argv = [str(BENCH_DIR / "tracer.py"), str(trace_path), *argv]
    else:
        argv = ["-m", "nmzi.cli", *argv]
    child = spawn(argv, env, stdout_path, stderr_path, limit_s)

    outputs = [p.read_bytes() for p in (csv_path, gp_path) if p.exists()]
    problems, max_z = check(seed, child.exit_code, stdout_path.read_bytes(), outputs)
    trace = None
    if traced:
        try:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            problems.append("traced run left no trace")
    return Invocation(seed, traced, child, problems, sum(map(len, outputs)), trace, max_z)


def probe(argv: list[str], env: dict, what: str) -> float:
    """Wall time of one helper interpreter (import or reference); must exit 0."""
    child = spawn(argv, env, OUT_DIR / "stdout.txt", OUT_DIR / "stderr.txt", IMPORT_LIMIT_S)
    if child.exit_code != 0:
        err = (OUT_DIR / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"{what} failed:\n{err}")
    return child.wall_s


@dataclass
class Loop:
    """Everything one measured loop timed."""

    runs: list[Invocation] = field(default_factory=list)
    # Wall times of the bare ``import nmzi.cli`` and of the reference work.
    setup: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)


def schedule(seeds: tuple[int, ...], trace: bool) -> list[tuple[int, bool]]:
    """One cycle of (seed, traced) pairs; the loop repeats it.

    A traced cycle runs each seed once untraced and twice traced, so every
    traced output is compared with an untraced one and the Monte Carlo counts
    of two traced invocations at one seed can be compared.
    """
    if not trace:
        return [(s, False) for s in seeds]
    return [pair for s in seeds for pair in ((s, False), (s, True), (s, True))]


def run_loop(w: Workload, seeds: tuple[int, ...], seconds: float, trace: bool, env: dict) -> Loop:
    """Closed loop: each step starts after the previous one ended.

    A step is one CLI invocation, one or more reference runs and one bare
    import, so they sample the same host conditions.  One import and one reference
    run before the loop are not counted: the first import compiles bytecode.
    At least one full cycle runs (within RUN_LIMIT_S); after that no step
    starts unless the median step so far says it ends within ``seconds``.
    """
    import_argv = ["-c", "import nmzi.cli"]
    probe(import_argv, env, "import nmzi.cli")
    probe([str(REFERENCE)], env, "reference run")
    cycle = schedule(seeds, trace)
    check = Checker(w)
    loop = Loop()
    steps: list[float] = []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < RUN_LIMIT_S:
        if len(loop.runs) >= len(cycle) and elapsed + statistics.median(steps) > seconds:
            break
        seed, traced = cycle[len(loop.runs) % len(cycle)]
        loop.runs.append(invoke(w, seed, traced, env, check, RUN_LIMIT_S - elapsed))
        wall = loop.runs[-1].child.wall_s
        for _ in range(min(math.ceil(wall / REFERENCE_EVERY_S), REFERENCE_MAX_PER_STEP)):
            loop.reference.append(probe([str(REFERENCE)], env, "reference run"))
        loop.setup.append(probe(import_argv, env, "import nmzi.cli"))
        steps.append(time.perf_counter() - start - elapsed)
    return loop


# ---------------------------------------------------------------- metrics

def end_to_end(w: Workload, loop: Loop) -> tuple[dict, dict, dict]:
    """(host-adjusted metrics, raw figures, notes) over the untraced invocations."""
    walls = [r.child.wall_s for r in loop.runs if not r.traced]
    wall_q1, wall, wall_q3 = quartiles(walls)
    tail_value, tail_pct, tail_n = tail(walls)
    setup = statistics.median(loop.setup)
    host_factor = statistics.median(loop.reference) / REFERENCE_S
    metrics = {
        "wall_s": wall / host_factor,
        "wall_s_tail": tail_value / host_factor,
        "points_per_s": w.points / wall * host_factor,
        "setup_s": setup / host_factor,
        "peak_rss_mb": statistics.median(r.child.rss_mb for r in loop.runs if not r.traced),
    }
    raw = {
        "wall_s_raw": wall, "wall_s_tail_raw": tail_value, "setup_s_raw": setup,
        "host_factor": host_factor,
    }
    notes = {
        "wall_s": f"raw {wall:.4f}, IQR {wall_q1:.4f}-{wall_q3:.4f} over {len(walls)} invocations",
        "wall_s_tail": f"raw {tail_value:.4f}, p{tail_pct:.1f} of {tail_n} invocations",
        "points_per_s": f"{w.points} {'checks' if w.preset is None else 'grid points'} per invocation",
        "setup_s": f"raw {setup:.4f}, median of {len(loop.setup)} imports",
        "host_factor": f"median of {len(loop.reference)} reference runs / {REFERENCE_S} s",
    }
    return metrics, raw, notes


def layer_metrics(trace: dict, out_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation; absent where a name is missing."""
    busy: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    children: dict = defaultdict(float)
    for name, start, end, parent in trace["spans"]:
        busy[name] += end - start
        calls[name] += 1
        children[parent] += end - start
    for name, parent, count, spent in trace["aggregates"]:
        busy[name] += spent
        calls[name] += count
        children[parent] += spent
    missing = set(trace["missing"])
    observed = trace["observed"]
    elements = [name for name in busy if name.startswith("elements.")]
    out: dict = {"cli.import_s": trace["import_s"], "cli.self_s": busy["cli.main"] - children["cli.main"]}

    def put(metric: str, needs: tuple[str, ...], value) -> None:
        if not missing.intersection(needs):
            out[metric] = value()

    def seen(label: str, key: str):
        # A wrapped name never called counts 0; a result that no longer has
        # the fields read leaves the metric absent.
        counts = observed.get(label, {key: 0})
        return counts[key] if key in counts else None

    put("config.busy_s", ("cli.parse_config", "cli.build_sweep_spec"),
        lambda: busy["cli.parse_config"] + busy["cli.build_sweep_spec"])
    put("correlation.expand_s", ("cli.sweep_settings",), lambda: busy["cli.sweep_settings"])
    put("correlation.closed_form_s", ("cli.record_at",), lambda: busy["cli.record_at"])
    put("correlation.calls", ("cli.record_at",), lambda: calls["cli.record_at"])
    put("correlation.points", ("cli.sweep_settings",), lambda: seen("cli.sweep_settings", "points"))
    run_s = busy["cli.run_experiment"]
    put("montecarlo.run_s", ("cli.run_experiment",), lambda: run_s)
    mc = {key: seen("cli.run_experiment", key) for key in (*_MC_COUNTS, "points")}
    if "cli.run_experiment" not in missing and None not in mc.values():
        for key in _MC_COUNTS:
            out[f"montecarlo.{key}"] = mc[key]
        out["montecarlo.ns_per_bin"] = run_s / mc["bins"] * 1e9 if mc["bins"] else 0.0
        out["montecarlo.us_per_point"] = run_s / mc["points"] * 1e6 if mc["points"] else 0.0
        out["montecarlo.useful_ratio"] = mc["post_selected"] / mc["bins"] if mc["bins"] else 0.0
    put("output.render_s", ("output.csv_rows",), lambda: busy["output.csv_rows"])
    put("output.write_s", ("cli.emit_csv",), lambda: busy["cli.emit_csv"] - children["cli.emit_csv"])
    put("output.gnuplot_s", ("cli.emit_gnuplot",), lambda: busy["cli.emit_gnuplot"])
    out["output.bytes"] = out_bytes
    put("verify.run_s", ("cli.run_verification",), lambda: busy["cli.run_verification"])
    checks_run = seen("cli.run_verification", "checks")
    checks_failed = seen("cli.run_verification", "failed")
    if "cli.run_verification" not in missing and None not in (checks_run, checks_failed):
        out["verify.checks"] = checks_run
        out["verify.checks_failed"] = checks_failed
    put("verify.mc_s", ("verify.run_experiment",), lambda: busy["verify.run_experiment"])
    station = ("verify.composed_station", "verify.closed_form_station")
    put("station.composed_s", station[:1], lambda: busy[station[0]])
    put("station.closed_form_s", station[1:], lambda: busy[station[1]])
    put("station.calls", station, lambda: calls[station[0]] + calls[station[1]])
    put("elements.busy_s", ("station.<elements>",), lambda: sum(busy[n] for n in elements))
    put("elements.calls", ("station.<elements>",), lambda: sum(calls[n] for n in elements))
    return {k: v for k, v in out.items() if v is not None}


def per_layer(seed: int, runs: list[Invocation]) -> dict:
    """Times: median over traced invocations.  Counts: the first at ``seed``."""
    traced = [r for r in runs if r.traced and r.trace is not None]
    if not traced:
        return {}
    samples = [layer_metrics(r.trace, r.out_bytes) for r in traced]
    first = next((m for r, m in zip(traced, samples) if r.seed == seed), samples[0])
    metrics = {}
    for name, value in first.items():
        if PER_LAYER_UNITS.get(name) in ("s", "ns", "us"):
            value = statistics.median(m[name] for m in samples if name in m)
        metrics[name] = value
    metrics["trace.overhead_s"] = statistics.median(r.child.wall_s for r in traced) - statistics.median(
        r.child.wall_s for r in runs if not r.traced
    )
    return metrics


def check_counts_repeat(runs: list[Invocation]) -> None:
    """Monte Carlo counts of traced invocations at one seed must be equal."""
    first: dict = {}
    for r in runs:
        if not (r.traced and r.trace):
            continue
        counts = r.trace["observed"].get("cli.run_experiment")
        if first.setdefault(r.seed, counts) != counts:
            r.problems.append(f"montecarlo counts differ between traced invocations at seed {r.seed}")


# ---------------------------------------------------------------- reporting

def environment(w: Workload, seeds: tuple[int, ...], load: tuple) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": git_commit(),
        "seeds": list(seeds),
        "loadavg_at_start": list(load),
        "pythonpath": child_env()["PYTHONPATH"],
        "argv": {
            str(s): [sys.executable, "-m", "nmzi.cli", *w.argv(s, OUT_DIR / "out.csv")] for s in seeds
        },
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text(encoding="ascii").strip()
            packed = (ROOT / ".git" / "packed-refs").read_text(encoding="ascii")
            return next(line.split()[0] for line in packed.splitlines() if line.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return None


def bench_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    load = os.getloadavg()
    seeds = (seed, seed + ALT_SEED_OFFSET) if w.mc is not None else (seed,)
    env = child_env()
    loop = run_loop(w, seeds, seconds, trace, env)
    runs = loop.runs
    check_counts_repeat(runs)

    attempted, failed = len(runs), sum(bool(r.problems) for r in runs)
    metrics, raw, notes = end_to_end(w, loop)
    metrics["fail_ratio"] = failed / attempted
    notes["fail_ratio"] = f"{failed} failed of {attempted} invocations"
    units = dict(END_TO_END_UNITS, fail_ratio="ratio")
    raw_units = {"wall_s_raw": "s", "wall_s_tail_raw": "s", "setup_s_raw": "s", "host_factor": "x"}
    layers = per_layer(seed, runs) if trace else {}

    print(f"== {w.name}  seeds {list(seeds)}  trace {int(trace)}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    for name, value in raw.items():
        print(f"  {name:<34} {value:>14.6g} {raw_units[name]:<6} {notes.get(name, '')}")
    for name, value in layers.items():
        print(f"  {name:<34} {value:>14.6g} {PER_LAYER_UNITS[name]}")
    for r in runs:
        for problem in r.problems[:3]:
            print(f"  FAIL seed {r.seed}{' traced' if r.traced else ''}: {problem}")

    record = {
        "workload": w.name,
        "trace": int(trace),
        "environment": environment(w, seeds, load),
        "end_to_end": {k: {"value": v, "unit": units[k], "note": notes.get(k)} for k, v in metrics.items()},
        "raw": {k: {"value": v, "unit": raw_units[k], "note": notes.get(k)} for k, v in raw.items()},
        "per_layer": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()},
        "setup_samples_s": loop.setup,
        "reference_samples_s": loop.reference,
        "invocations": [
            {"seed": r.seed, "traced": r.traced, "wall_s": r.child.wall_s, "rss_mb": r.child.rss_mb,
             "exit_code": r.child.exit_code, "max_z": r.max_z, "problems": r.problems}
            for r in runs
        ],
    }
    path = OUT_DIR / f"BENCH_{w.name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  record: {path.relative_to(ROOT)}")

    chosen = layers if trace else {k: metrics[k] for k in END_TO_END_UNITS}
    chosen_units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": chosen_units[k]} for k, v in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 - ALT_SEED_OFFSET:
        parser.error("--seed must be a non-negative 64-bit integer")
    if not (SRC / "nmzi" / "cli.py").is_file():
        print(f"benchmark: no nmzi sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: bench_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
