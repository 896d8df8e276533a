"""Traced CLI invocation: one fresh interpreter, spans around each layer.

    python3 benchmarks/tracer.py TRACE_JSON [nmzi CLI arguments ...]

Times ``import nmzi.cli``, wraps the public names each layer exposes where its
caller looks them up, runs ``nmzi.cli.main(argv)`` in-process and exits with
its return code.  Spans stay in memory and are written to TRACE_JSON at the
end.  Nothing inside the package is changed: the wrappers sit on module
attributes, so the CLI's output bytes are those of an untraced run.

A name that no longer exists is listed under ``missing`` and not wrapped; the
metrics that need it are then reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# (module, attribute) of every wrapped name.  Hot per-point names are
# aggregated to a call count and busy time per parent instead of one span
# per call.
SPANNED = [
    ("nmzi.cli", "parse_config"),
    ("nmzi.cli", "build_sweep_spec"),
    ("nmzi.cli", "sweep_settings"),
    ("nmzi.cli", "run_experiment"),
    ("nmzi.cli", "emit_csv"),
    ("nmzi.cli", "emit_gnuplot"),
    ("nmzi.cli", "run_verification"),
    ("nmzi.output", "csv_rows"),
    ("nmzi.verify", "run_experiment"),
]
AGGREGATED = [
    ("nmzi.cli", "record_at"),
    ("nmzi.verify", "composed_station"),
    ("nmzi.verify", "closed_form_station"),
]


class Tracer:
    """Spans as (name, start, end, parent name); aggregates as call counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggregates: dict[tuple[str, str | None], list] = {}
        self.observed: dict[str, dict] = {}
        self.stack: list[str] = []

    def wrap(self, label: str, fn, aggregate: bool = False, observe=None):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            self.stack.append(label)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                if aggregate:
                    entry = self.aggregates.setdefault((label, parent), [0, 0.0])
                    entry[0] += 1
                    entry[1] += end - start
                else:
                    self.spans.append([label, start, end, parent])
            if observe is not None:
                self.observed[label] = observe(result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": [[n, p, c, b] for (n, p), (c, b) in self.aggregates.items()],
            "observed": self.observed,
        }


def _label(module: str, name: str) -> str:
    return module.split(".")[-1] + "." + name


def _mc_counts(results) -> dict:
    """Totals read from the returned McPointResult objects."""
    counts = {
        "points": 0, "bins": 0, "pair_bins": 0, "multi_bins": 0,
        "routing_rejected": 0, "post_selected": 0, "coincidences": 0,
        "zero_coincidence_points": 0,
    }
    try:
        for point in results:
            tally, coinc = point.tally, point.counts.coincidences
            counts["points"] += 1
            counts["bins"] += tally.n_bins
            counts["pair_bins"] += tally.n_pair_bins
            counts["multi_bins"] += tally.n_multi_bins
            counts["routing_rejected"] += tally.n_routing_rejected
            counts["post_selected"] += tally.n_post_selected
            counts["coincidences"] += sum(coinc.values())
            counts["zero_coincidence_points"] += coinc["AD"] == 0 or coinc["BC"] == 0
    except (AttributeError, KeyError, TypeError):
        return {}
    return counts


def _grid_points(settings) -> dict:
    try:
        return {"points": len(settings)}
    except TypeError:
        return {}


def _verify_counts(report) -> dict:
    try:
        checks = list(report.checks)
        return {"checks": len(checks), "failed": sum(not c.passed for c in checks)}
    except (AttributeError, TypeError):
        return {}


OBSERVERS = {
    ("nmzi.cli", "run_experiment"): _mc_counts,
    ("nmzi.cli", "sweep_settings"): _grid_points,
    ("nmzi.cli", "run_verification"): _verify_counts,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every listed name that exists; return the labels that do not."""
    missing = []
    for targets, aggregate in ((SPANNED, False), (AGGREGATED, True)):
        for module_name, name in targets:
            label = _label(module_name, name)
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, name)
            except (ImportError, AttributeError):
                missing.append(label)
                continue
            observe = OBSERVERS.get((module_name, name))
            setattr(module, name, tracer.wrap(label, fn, aggregate, observe))
    try:
        station = importlib.import_module("nmzi.station")
    except ImportError:
        return missing + ["station.<elements>"]
    elements = [
        name for name, obj in vars(station).items()
        if inspect.isfunction(obj) and obj.__module__ == "nmzi.elements"
    ]
    if not elements:
        missing.append("station.<elements>")
    for name in elements:
        setattr(station, name, tracer.wrap("elements." + name, getattr(station, name), True))
    return missing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("nmzi.cli")
    import_s = time.perf_counter() - start

    tracer = Tracer()
    missing = install(tracer)
    code = tracer.wrap("cli.main", cli.main)(argv)
    record = {"import_s": import_s, "exit_code": code, "missing": missing}
    record.update(tracer.dump())
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
