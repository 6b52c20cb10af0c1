"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--trace]
                                [--mode pass|setup|scaling]

Set-up (import, suite generation, ring-derived data) is timed from the top
of this script to the first verdict; --mode setup stops there.  A pass
issues every verdict of the workload once, in a closed loop, and checks
each one.  With --trace the layer boundaries are wrapped (see tracer.py).
--mode scaling times the (Z/2)^k atom-scaling series instead.  run.py
starts this script and aggregates its output.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

Z2K_FORMULA = "E x1. x1 = x0 & 1 = x1"


def _import_program():
    sys.path.insert(0, str(SRC))
    import ringfv
    if SRC not in Path(ringfv.__file__).resolve().parents:
        raise ImportError(f"ringfv was imported from {ringfv.__file__}, not {SRC}")


def scaling_series(ks=(2, 3, 4)) -> dict:
    """Sweep seconds of the atom-scaling formula on (Z/2)^k."""
    import ringfv
    formula = ringfv.parse_ring_formula(Z2K_FORMULA)
    seconds, failures, errors = {}, 0, []
    for k in ks:
        ring = ringfv.product_ring([ringfv.modular_ring(2)] * k)
        t0 = time.perf_counter()
        report = ringfv.oracle_sweep(ring, [formula], collect_limit=2 ** k)
        seconds[f"boolalg.z2k_s.k{k}"] = time.perf_counter() - t0
        bad = (len(report.mismatches) + len(report.partition_failures)
               + (report.instances != 2 ** k))
        if bad:
            errors.append(f"{Z2K_FORMULA} on {ring.label}: {report.to_json()}")
        failures += bad
    return {"layers": seconds, "instances": sum(2 ** k for k in ks),
            "failures": failures, "correct": not failures, "errors": errors}


def run_pass(workload, seed: int, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    state, setup_parts = workload.setup(seed)
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.reset()

    from workloads import Outcome
    outcomes, latencies_ms = [], []
    t_first = time.perf_counter()
    for item in state[1]:
        t0 = time.perf_counter()
        try:
            outcome = workload.run(state, item)
        except Exception as exc:  # a crashing verdict is a failure, not a stop
            outcome = Outcome(0, 0, 1, ("error", repr(item)),
                              f"{item!r}: {type(exc).__name__}: {exc}")
        latencies_ms.append((time.perf_counter() - t0) * 1000)
        outcomes.append(outcome)
    wall_s = time.perf_counter() - t_first

    instances = sum(o.instances for o in outcomes)
    failures = 0
    errors = []
    for o in outcomes:
        failures += o.failures + (o.instances != o.expected)
        if o.instances != o.expected:
            errors.append(f"{o.payload}: {o.instances} instances, "
                          f"expected {o.expected}")
        elif o.failures:
            errors.append(o.error or f"failed verdict: {o.payload}")
    if instances != workload.expected_total:
        errors.append(f"{instances} instances in total, expected "
                      f"{workload.expected_total}")
    digest = hashlib.sha256("\n".join(
        sorted(json.dumps(o.payload, default=str) for o in outcomes)).encode()).hexdigest()

    result = {
        "setup_s": setup_s,
        "setup_parts": setup_parts,
        "wall_s": wall_s,
        "latencies_ms": latencies_ms,
        "instances": instances,
        "failures": failures,
        "correct": failures == 0 and instances == workload.expected_total,
        "errors": errors[:10],
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s) | setup_parts
        tracer.uninstall()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--mode", choices=("pass", "setup", "scaling"),
                        default="pass")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        workload.setup(args.seed)
        result = {"setup_s": time.perf_counter() - T_START}
    elif args.mode == "scaling":
        result = scaling_series()
    else:
        result = run_pass(workload, args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
