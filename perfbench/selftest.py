"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, on every workload at the size the benchmark measures, that
  - every function the tracer wraps still exists in the program, so a rename
    fails here instead of silently dropping a layer metric;
  - BENCHMARK.json lists exactly the metrics and workloads run.py reports;
  - a traced run writes outputs byte-identical to an untraced run;
  - two traced runs report identical counts (span calls, encoded rows,
    Tensor constructions and the other counters);
  - the traced counts show each workload exercising or bypassing the layers
    it was chosen for (workloads.layer_coverage).
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import tracer
from workloads import WORKLOADS, layer_coverage


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return problems


def check_workload(name: str, seed: int = 3) -> list[str]:
    harness = run.Harness(run.ROOT)
    work = run.WORK / f"selftest_{name}"
    shutil.rmtree(run.ROOT / work, ignore_errors=True)
    (run.ROOT / work).mkdir(parents=True)
    wl = WORKLOADS[name](run.ROOT, work, seed)
    wl.prepare(harness)
    tally = run.Tally()
    plain = run.run_pass(wl, harness, tally, None, None)
    if plain is None:
        return tally.errors
    counts = []
    for _ in range(2):
        # the untraced digests are the reference the traced outputs must match
        traced = run.run_pass(wl, harness, tally, plain[1], run.ROOT / work)
        if traced is None:
            return tally.errors
        layers, exact = run.layer_values(traced[2])
        counts.append(exact)
    shutil.rmtree(run.ROOT / work, ignore_errors=True)
    problems = [f"{name}: coverage check failed: {check}"
                for check, held in layer_coverage(wl, layers).items() if not held]
    if counts[0] != counts[1]:
        problems.append(f"{name}: counts differ between two traced runs")
    return problems


def main() -> int:
    problems = [f"traced name missing from the program: {n}" for n in tracer.missing_targets()]
    problems += check_benchmark_json()
    for name in WORKLOADS:
        found = check_workload(name)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    sys.exit(main())
