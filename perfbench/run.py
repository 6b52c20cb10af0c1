"""Benchmark of the ringfv pipeline: translate -> stalk masks -> psi -> oracle.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/ringfv, so nothing is installed or built.  Workloads and their reasons
are in workloads.py and BENCHMARK.json.

--trace 0 measures the end-to-end metrics with tracing off.  The run first
times set-up alone in SETUP_PROBES fresh interpreters, then runs whole passes
of the workload, each in a fresh interpreter, until the next pass would end
after S seconds (at least one pass).  Every metric is the median over the
passes; setup_s is the median over the probes and the passes.
verdict_p50_ms is a Harrell-Davis median (see smoothed_median) and
verdict_tail_ms the highest percentile in TAIL_LADDER with at least
MIN_BEYOND_TAIL verdicts beyond it, or the slowest verdict when a pass has
too few; the line before the result says which.

--trace 1 runs one traced pass and the (Z/2)^k atom-scaling series, and
reports the per-layer metrics.  Busy times are self times, so they add up
with trace.hooks_s (counting overhead) and trace.unattributed_s to
trace.wall_s; the split is printed before the result.

Every verdict is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is 0 only when every verdict and every instance total is right.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SELF_TIMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 4
RUN_LIMIT_S = 170         # a run must end within 180 s
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 50)
MIN_BEYOND_TAIL = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or ".z2k_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND_TAIL samples
    beyond it; 100 (the slowest verdict) when there are too few."""
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= MIN_BEYOND_TAIL:
            return q
    return 100.0


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def smoothed_median(sorted_values) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted
    by the distribution of the median's rank, Beta((n+1)/2, (n+1)/2), here
    in its normal approximation.  The sample median of verdict latencies
    sits where they rise steeply (one-variable against two-variable
    formulas), so it jumps when a few verdicts near the middle swap ranks;
    this estimate moves smoothly instead."""
    n = len(sorted_values)
    scale = math.sqrt(2) * 0.5 / math.sqrt(n + 2)
    cdf = [math.erf((i / n - 0.5) / scale) for i in range(n + 1)]
    weights = [b - a for a, b in zip(cdf, cdf[1:])]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def call_worker(args, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {' '.join(args)}")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in "
                         f"{timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes, setup_times) -> dict:
    per_pass = []
    for p in passes:
        lat = sorted(p["latencies_ms"])
        per_pass.append({
            "wall_s": p["wall_s"],
            "instances_per_s": p["instances"] / p["wall_s"],
            "verdict_p50_ms": smoothed_median(lat),
            "verdict_tail_ms": percentile(lat, tail_percentile(len(lat))),
            "peak_rss_mb": p["peak_rss_mb"],
        })
    out = {name: statistics.median(x[name] for x in per_pass)
           for name in per_pass[0]}
    out["setup_s"] = statistics.median(setup_times)
    return {name: out[name] for name in END_TO_END_UNITS}


def measure(workload: str, seed: int, seconds: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [call_worker(common + ["--mode", "setup"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(call_worker(common, deadline))
        took = time.monotonic() - t0
        if time.monotonic() - t_start + took > seconds:
            break
    metrics = end_to_end(passes, setups + [p["setup_s"] for p in passes])
    n = len(passes[0]["latencies_ms"])
    q = tail_percentile(n)
    print(f"{workload}: {len(passes)} pass(es) of {n} verdicts; verdict_tail_ms "
          f"is p{q:g} ({n * (100 - q) / 100:g} verdicts beyond it per pass); "
          f"setup_s over {len(setups) + len(passes)} set-ups")
    return passes, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def measure_traced(workload: str, seed: int, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]
    traced = call_worker(common + ["--trace"], deadline)
    scaling = call_worker(common + ["--mode", "scaling"], deadline)
    layers = traced["layers"] | scaling["layers"]
    wall = layers["trace.wall_s"]
    print(f"{workload}: traced pass {wall:.3f} s; self time by layer:")
    for name in SELF_TIMES + ("trace.unattributed_s",):
        print(f"  {name:36s} {layers[name]:9.3f} s  {100 * layers[name] / wall:5.1f}%")
    return [traced, scaling], {k: (v, layer_unit(k)) for k, v in layers.items()}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if trace:
            runs, metrics = measure_traced(workload, seed, deadline)
        else:
            runs, metrics = measure(workload, seed, seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    correct = all(r["correct"] for r in runs)
    digests = {r["digest"] for r in runs if "digest" in r}
    if len(digests) > 1:
        correct = False
        print("perfbench: passes of the same seed gave different verdicts")
    for r in runs:
        for error in r["errors"]:
            print(f"FAILED {error}")
    result = {
        "correct": correct,
        "attempted": sum(r["instances"] for r in runs),
        "failed": sum(r["failures"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "of BENCHMARK.json, one result line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ringfv" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'ringfv'}",
              file=sys.stderr)
        return 2
    names = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
    return max(run_workload(name, args.seed, args.seconds, args.trace)
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
