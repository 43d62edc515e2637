"""Record the benchmark's baseline in perfbench/baseline.json.

    python3 perfbench/baseline.py

Run from the root of a checkout. For every workload it makes one untraced
run per seed 1-10 and one traced run on seed 1, each lasting run_seconds of
BENCHMARK.json. For each end-to-end metric it keeps the per-run values, their
median and their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, which
BENCHMARK.json bounds. The traced run gives the per-layer table, the tracing
overhead, and the layer coverage each workload was chosen for (README.md).
Every run's host record is kept. Exits 1 if a run or a coverage check failed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run
from workloads import WORKLOADS, layer_coverage

SEEDS = list(range(1, 11))
TRACE_SEED = 1
OUT = run.ROOT / "perfbench" / "baseline.json"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"recorded_utc": time.strftime("%Y-%m-%d %H:%M", time.gmtime()),
              "run_seconds": seconds, "seeds": SEEDS, "hosts": [], "workloads": {}}
    all_ok = True
    for name in WORKLOADS:
        per_run = {m: [] for m in run.END_TO_END}
        attempted = failed = 0
        for seed in SEEDS:
            result, host, _, _ = run.run_workload(name, seed, seconds, trace=False)
            record["hosts"].append({"workload": name, "seed": seed, **host})
            attempted += result["attempted"]
            failed += result["failed"]
            all_ok &= result["correct"]
            for m, v in (result["metrics"] or {}).items():
                per_run[m].append(v["value"])
        e2e = {}
        for m, values in per_run.items():
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            e2e[m] = {"unit": run.END_TO_END[m], "median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med, "bound": bounds[m], "values": values}
            print(f"{name} {m}: median {med:.6g} {run.END_TO_END[m]}, spread "
                  f"{e2e[m]['spread']:.4f} (bound {bounds[m]})", flush=True)
        result, host, series, wl = run.run_workload(name, TRACE_SEED, seconds, trace=True)
        all_ok &= result["correct"]
        layers = {m: v["value"] for m, v in (result["metrics"] or {}).items()}
        coverage = layer_coverage(wl, layers) if layers else {}
        all_ok &= bool(coverage) and all(coverage.values())
        overhead = layers.get("trace.overhead_frac")
        record["workloads"][name] = {
            "end_to_end": e2e, "attempted": attempted, "failed": failed,
            "traced_run": {"seed": TRACE_SEED, "host": host,
                           "traced_passes": len(series.get("traced_wall_s", [])),
                           "untraced_passes": len(series["wall_s"]),
                           "overhead_frac": overhead,
                           "overhead_resolved": overhead is not None and overhead > 0,
                           "coverage": coverage, "per_layer": layers},
        }
        print(f"{name} traced: overhead {overhead}, coverage {coverage}", flush=True)
    with OUT.open("w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
