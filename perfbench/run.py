"""Benchmark of the moama command line, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload spawns `python -m moama.cli`
with PYTHONPATH=src, one child at a time in a closed loop with one client,
on corpora that moama.datagen makes from --seed, until S seconds have passed.
A run records spawn, the arrival time of each stdout line (children are
unbuffered), exit, and the child's rusage from os.wait4, and checks every
output. With --trace 1, untraced passes alternate with traced ones that
run the command under perfbench/traced_cli.py, and the per-layer metrics are
reported instead of the end-to-end ones. `--workload all` runs every
workload in turn. README.md defines the metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Lines before it record the host and the sample spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, check_output

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")            # relative to ROOT, git-ignored
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MOAMA_THREADS")
COMMAND_TIMEOUT_S = 150

# A run reports setup_s and peak_rss_mb as the median over its passes, and
# wall_s and mol_per_s as run totals: the mean pass, and molecules over
# main-stage seconds summed over all passes. On a shared virtual machine whose
# speed flips between modes 30-45 % apart, the median pass jumps with
# whichever mode held most of a run. Over ten seeds it spread 6-26 % between
# runs where the mean pass spread 4-17 %.
END_TO_END = {"setup_s": "s", "wall_s": "s", "mol_per_s": "mol/s", "peak_rss_mb": "MB"}

# Counters and ratios taken by the tracer beside the span metrics.
_DERIVED = {
    "smiles.read_dataset.skipped": "count",
    "masking.feasible_frac": "fraction",
    "gin.encode.nodes": "count",
    "influence.encodes_per_mol": "1/mol",
    "autodiff.tensors": "count",
    "autodiff.grad_used_frac": "fraction",
    "trace.overhead_frac": "fraction",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for module, path in tracer.SPANS:
        units[f"{module}.{path}.calls"] = "count"
        units[f"{module}.{path}.self_s"] = "s"
    for op in tracer.OPS:
        units[f"autodiff.{op}.fwd_calls"] = "count"
        units[f"autodiff.{op}.fwd_s"] = "s"
        units[f"autodiff.{op}.bwd_s"] = "s"
    units.update(_DERIVED)
    return units


PER_LAYER = _per_layer_units()

# Python run in a child with the benchmark's environment: which BLAS numpy
# loads and how many threads that BLAS will use.
_HOST_PROBE = r"""
import ctypes, json, numpy
info = {"numpy": numpy.__version__, "blas": None, "blas_threads": None}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
except Exception as e:
    info["blas"] = repr(e)
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({l.split()[-1] for l in fh if "blas" in l.lower() and ".so" in l})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads64_"):
            if hasattr(dll, sym):
                fn = getattr(dll, sym)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                info["blas_library"] = lib.rsplit("/", 1)[-1]
                break
except OSError as e:
    info["blas_threads"] = repr(e)
print(json.dumps(info))
"""


class SetupError(RuntimeError):
    """A set-up step (corpus, checkpoint) failed; nothing was measured."""


@dataclass
class Run:
    code: int
    setup_s: float                  # spawn to the effective-config echo
    wall_s: float                   # spawn to exit
    rss_mb: float                   # child ru_maxrss
    lines: list[tuple[float, str]]  # (seconds after spawn, stdout line)
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = "src"
    return env


class Harness:
    """Spawns children in the checkout and times them from outside."""

    def __init__(self, root: Path):
        self.root = root
        self.env = child_env()

    def spawn(self, argv: list[str]) -> Run:
        err_path = self.root / WORK / "stderr.txt"
        with err_path.open("w+") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-u", *argv], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            watchdog.start()
            lines = []
            try:
                for raw in proc.stdout:
                    lines.append((time.perf_counter() - t0, raw.decode(errors="replace").rstrip("\n")))
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        setup = lines[0][0] if lines else float("nan")
        return Run(proc.returncode, setup, wall, usage.ru_maxrss / 1024.0, lines, stderr)

    def moama(self, args: list[str]) -> Run:
        return self.spawn(["-m", "moama.cli", *args])

    def traced(self, args: list[str], spans: Path) -> Run:
        return self.spawn([str(Path(__file__).resolve().parent / "traced_cli.py"), str(spans), *args])

    def _must(self, run: Run, what: str) -> Run:
        if run.code != 0:
            raise SetupError(f"{what} exited {run.code}: {run.stderr.strip()[-400:]}")
        return run

    def setup_python(self, argv: list[str]) -> Run:
        return self._must(self.spawn(argv), f"set-up `python {' '.join(argv)[:200]}`")

    def setup_command(self, args: list[str]) -> Run:
        return self._must(self.moama(args), f"set-up `moama {' '.join(args)}`")


def host_record(harness: Harness) -> dict:
    probe = harness.setup_python(["-c", _HOST_PROBE])
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        **json.loads(probe.lines[-1][1]),
        "thread_vars_unset_for_child": [v for v in THREAD_VARS if v in os.environ] or "none were set",
    }


def _digest(out_dir: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        path = out_dir / name
        h.update(name.encode() + b"\0" + (path.read_bytes() if path.exists() else b"<missing>"))
    return h.hexdigest()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"# FAIL {message}", file=sys.stderr)


def run_pass(wl, harness: Harness, tally: Tally, reference: dict | None,
                  spans_dir: Path | None):
    """One pass over the workload's commands. Returns (runs, digests,
    trace summaries) or None if a command failed."""
    out_dir = harness.root / wl.out
    shutil.rmtree(out_dir, ignore_errors=True)
    runs, digests, traces, ok = [], {}, [], True
    for i, command in enumerate(wl.commands()):
        tally.attempted += 1
        if spans_dir is None:
            run = harness.moama(command.args)
        else:
            spans = spans_dir / f"spans{i}.bin"
            run = harness.traced(command.args, spans)
        runs.append(run)
        name = command.args[0]
        problems = [] if run.code == 0 else [f"exit code {run.code}: {run.stderr.strip()[-300:]}"]
        if not run.lines:
            problems.append("no effective-config echo on stdout")
        if not problems:
            problems = [e for spec in command.outputs for e in check_output(out_dir, spec)]
        files = [f"effective-config.{name}"] + [spec.name for spec in command.outputs]
        digests[name] = _digest(out_dir, files)
        if not problems and reference is not None and reference[name] != digests[name]:
            problems.append("outputs differ from the first run with the same seed")
        if not problems and spans_dir is not None:
            traces.append(tracer.summarize(spans))
        if problems:
            tally.failed += 1
            ok = False
            for p in problems:
                tally.fail(f"{wl.name} `moama {name}`: {p}")
    return (runs, digests, traces) if ok else None


def layer_values(traces) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced pass (summed over its commands),
    and the exact counts two traced passes must agree on."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for summary, counts in traces:
        for name, (calls, self_s) in summary.items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in counts.items():
            counters[name] = counters.get(name, 0) + value
    values = {}
    for module, path in tracer.SPANS:
        calls, self_s = spans.get(f"{module}.{path}", (0, 0.0))
        values[f"{module}.{path}.calls"] = calls
        values[f"{module}.{path}.self_s"] = self_s
    for op in tracer.OPS:
        calls, fwd = spans.get(f"autodiff.{op}", (0, 0.0))
        values[f"autodiff.{op}.fwd_calls"] = calls
        values[f"autodiff.{op}.fwd_s"] = fwd
        values[f"autodiff.{op}.bwd_s"] = spans.get(f"autodiff.{op}.bwd", (0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    values["smiles.read_dataset.skipped"] = counters.get("smiles.read_dataset.skipped", 0)
    values["masking.feasible_frac"] = ratio(counters.get("masking.feasible", 0),
                                            counters.get("masking.plans", 0))
    values["gin.encode.nodes"] = counters.get("gin.encode.nodes", 0)
    values["influence.encodes_per_mol"] = ratio(values["gin.encode.calls"],
                                                counters.get("influence.molecules", 0))
    values["autodiff.tensors"] = counters.get("autodiff.tensors", 0)
    values["autodiff.grad_used_frac"] = ratio(counters.get("autodiff.grad_applied", 0),
                                              counters.get("autodiff.grad_elems", 0))
    exact = {"calls": {k: v[0] for k, v in sorted(spans.items())}, "counters": counters}
    return values, exact


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload. Returns the result object,
    the host record, the per-pass series behind each value and the prepared
    workload."""
    harness = Harness(ROOT)
    work = WORK / name
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    load_before = os.getloadavg()
    host = host_record(harness)
    wl = WORKLOADS[name](ROOT, work, seed)
    wl.prepare(harness)

    tally = Tally()
    reference = None                       # digests every same-seed pass must match
    plain: list[dict] = []                 # end-to-end values per untraced pass
    traced: list[tuple[float, dict]] = []  # (wall_s, per-layer values)
    exact_counts = None
    start = time.perf_counter()
    k = 0
    while True:
        use_trace = trace and k % 2 == 1
        k += 1
        spans_dir = (ROOT / work) if use_trace else None
        result = run_pass(wl, harness, tally, reference, spans_dir)
        if result is not None:
            runs, digests, traces = result
            reference = reference or digests
            if use_trace:
                values, exact = layer_values(traces)
                if exact_counts is None:
                    exact_counts = exact
                elif exact != exact_counts:
                    tally.fail(f"{name}: traced counts differ between two traced runs")
                traced.append((sum(r.wall_s for r in runs), values))
            else:
                molecules, main_s = wl.main_stage(runs)
                plain.append({
                    "setup_s": statistics.median(r.setup_s for r in runs),
                    "wall_s": sum(r.wall_s for r in runs),
                    "mol_per_s": molecules / main_s,
                    "peak_rss_mb": max(r.rss_mb for r in runs),
                    "molecules": molecules,
                    "main_s": main_s,
                })
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not trace or (plain and traced)):
            break
        if elapsed > 3 * seconds + 60:
            tally.fail(f"{name}: no successful {'traced ' if trace else ''}pass in time")
            break
    host["loadavg_before"] = load_before
    host["loadavg_after"] = os.getloadavg()
    print("host " + json.dumps(host, sort_keys=True))

    series = {m: [p[m] for p in plain] for m in END_TO_END}
    if trace and plain and traced:
        series["traced_wall_s"] = [w for w, _ in traced]
        metrics = {}
        for metric, unit in PER_LAYER.items():
            if metric == "trace.overhead_frac":
                # traced wall time minus the untraced median, as a share of it
                untraced = statistics.median(series["wall_s"])
                value = statistics.median(series["traced_wall_s"]) / untraced - 1.0
            else:
                value = statistics.median(v[metric] for _, v in traced)
            metrics[metric] = {"value": value, "unit": unit}
        print(f"# {name}: {len(traced)} traced and {len(plain)} untraced passes")
        if metrics["trace.overhead_frac"]["value"] <= 0:
            print(f"# {name}: trace.overhead_frac unresolved: host drift between passes "
                  "outweighs the cost of tracing")
    elif plain and not trace:
        values = {
            "setup_s": statistics.median(series["setup_s"]),
            "wall_s": statistics.mean(series["wall_s"]),
            "mol_per_s": sum(p["molecules"] for p in plain) / sum(p["main_s"] for p in plain),
            "peak_rss_mb": statistics.median(series["peak_rss_mb"]),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}
        for metric, unit in END_TO_END.items():
            print(f"# {name} {metric}: {metrics[metric]['value']:.6g} {unit}; per pass: median "
                  f"{statistics.median(series[metric]):.6g}, {_spread(series[metric])}")
    else:
        metrics = None
    print("samples " + json.dumps(series))
    result = {"correct": not tally.errors and metrics is not None,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, host, series, wl


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "moama" / "cli.py").is_file():
        print(f"no moama sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))[0]
            if args.workload == "all":
                print(f"{name} " + json.dumps(results[name]))
    except SetupError as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        return 1
    if any(r["metrics"] is None for r in results.values()):
        print("no pass succeeded; nothing measured", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    else:
        final = results[names[0]]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
