"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 benchmarks/spread.py [--workloads a,b] [--seeds 1,2,...] [--trace 0|1]

Runs ``BENCHMARK.json``'s command once per workload and seed, then prints per
metric the median over the runs and the spread: the distance between the
first and third quartile as a share of the median.  A spread must stay within
the metric's bound (``setup_s`` excepted); the benchmark is steady when every
spread is below a third of it.  Raw results go to ``benchmarks/_out/spread_*.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, ROOT, quartiles


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        Path(OUT_DIR, f"spread_{workload}_trace{args.trace}.json").write_text(
            json.dumps(results, indent=1) + "\n", encoding="utf-8"
        )
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"== {workload}: {len(results)} runs, {failed} failed of {attempted} invocations")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = spread < bound / 3 or name == "setup_s"
                steady &= ok
                verdict = f"bound {bound:<5} {'ok' if ok else 'WIDE'}"
            print(f"  {name:<34} median {median:<12.6g} spread {spread:8.4f}  {verdict}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
