"""Tests of the benchmark itself, on small workloads.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ringfv  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import SELF_TIMES  # noqa: E402
from workloads import WORKLOADS, Sweep  # noqa: E402

SMALL = ("smoke-z6", "equiv-z12", "axioms-z6")
COUNTS = ("translate.calls", "translate.cells", "translate.cell_nodes",
          "translate.psi_nodes", "translate.refused", "boolalg.psi_calls",
          "boolalg.psi_misses", "semantics.masks_calls",
          "semantics.cell_atom_evals", "semantics.direct_calls",
          "axioms.instances")


def call(*args):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def passes():
    """Per small workload: an untraced pass and two traced passes."""
    out = {}
    for name in SMALL:
        common = ("--workload", name, "--seed", "5")
        out[name] = (call(*common), call(*common, "--trace"),
                     call(*common, "--trace"))
    return out


def test_per_formula_loop_matches_single_sweep():
    workload = WORKLOADS["smoke-z6"]
    state, _ = workload.setup(seed=0)
    outcomes = [workload.run(state, f) for f in state[1]]
    whole = ringfv.oracle_sweep(state[0], ringfv.suites.smoke_suite())
    assert sum(o.instances for o in outcomes) == whole.instances == 149
    assert sum(o.failures for o in outcomes) == \
        len(whole.mismatches) + len(whole.partition_failures) == 0
    assert all(o.instances == o.expected for o in outcomes)


@pytest.mark.parametrize("name", SMALL)
def test_traced_pass_gives_same_verdicts(passes, name):
    plain, traced, _ = passes[name]
    assert plain["correct"] and traced["correct"]
    assert plain["digest"] == traced["digest"]
    assert plain["instances"] == traced["instances"] == WORKLOADS[name].expected_total
    assert len(plain["latencies_ms"]) == len(traced["latencies_ms"])


@pytest.mark.parametrize("name", SMALL)
def test_counts_repeat_exactly(passes, name):
    _, first, second = passes[name]
    assert {k: first["layers"][k] for k in COUNTS} == \
        {k: second["layers"][k] for k in COUNTS}
    assert all(isinstance(first["layers"][k], int) for k in COUNTS)


@pytest.mark.parametrize("name", SMALL)
def test_layer_busy_times_account_for_wall(passes, name):
    layers = passes[name][1]["layers"]
    wall = layers["trace.wall_s"]
    busy = sum(layers[k] for k in SELF_TIMES)
    assert busy + layers["trace.unattributed_s"] == pytest.approx(wall)
    assert -1e-3 < layers["trace.unattributed_s"] < 0.05 * wall


def test_wrong_instance_total_is_a_failure():
    short = Sweep("tests only", lambda: ringfv.modular_ring(6), "smoke", 150)
    result = worker.run_pass(short, seed=0, trace=False)
    assert not result["correct"]
    assert "149 instances in total, expected 150" in result["errors"]


def test_mismatch_is_counted_per_instance(monkeypatch):
    from ringfv.translate import FvEvaluator
    original = FvEvaluator.evaluate_masks
    monkeypatch.setattr(FvEvaluator, "evaluate_masks",
                        lambda self, masks: not original(self, masks))
    result = worker.run_pass(WORKLOADS["smoke-z6"], seed=0, trace=False)
    assert not result["correct"]
    assert result["failures"] == result["instances"] == 149


def test_tail_percentile_ladder():
    assert run.tail_percentile(1794) == 99
    assert run.tail_percentile(60) == 80
    assert run.tail_percentile(9) == 100
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert run.percentile([1.0, 2.0, 3.0], 100) == 3.0


def test_smoothed_median():
    assert run.smoothed_median([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert run.smoothed_median([5.0] * 7) == pytest.approx(5.0)
    # a steep rise at the middle: the sample median jumps from 2 to 10 when
    # one verdict changes rank; the smoothed one lies strictly between
    assert 2.0 < run.smoothed_median([1.0] * 50 + [2.0] + [10.0] * 50) < 10.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert all(w["name"] in WORKLOADS for w in spec["workloads"])
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    layers = call("--workload", "smoke-z6", "--seed", "0", "--trace")["layers"]
    layers |= call("--workload", "smoke-z6", "--seed", "0", "--mode", "scaling")["layers"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: run.layer_unit(k) for k in layers}
