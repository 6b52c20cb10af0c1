"""Per-layer tracing from outside the program.

The tracer wraps the public functions at each layer boundary of ringfv,
replacing every module attribute that names them, so the workloads reach
the same entry points with tracing on and off.  Each wrapped call is a
span.  A span's self time (its duration minus the spans it caused) is added
to its layer's busy time, so the busy times of all spans plus the time
outside them add up to the traced wall time.  Spans are aggregated as they
close instead of being kept, which keeps a sweep of 200k instances small.

Counts are made from the arguments and results at the boundary:
translation sizes, cell x atom evaluations, and psi-memo misses (a mask
tuple an evaluator has not been asked before; FvEvaluator memoizes psi per
mask tuple, so that is exactly a call that runs _beval).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict

perf_counter = time.perf_counter

# Spans are named by the metric that receives their self time.
PSI = "boolalg.psi_busy_s"
MASKS = "semantics.masks_busy_s"
DIRECT = "semantics.direct_busy_s"
TRANSLATE = "translate.busy_s"
HOOKS = "trace.hooks_s"
SELF_TIMES = (
    PSI, MASKS, DIRECT, "semantics.partition_check_busy_s", TRANSLATE,
    "translate.sweep_self_s", "residue.busy_s", "formula.parse_busy_s",
    "axioms.axiom1_busy_s", "axioms.axiom2_busy_s", "axioms.axiom3_busy_s",
    "axioms.axiom4_busy_s", "axioms.axiom5_busy_s", "axioms.rest_busy_s",
    HOOKS,
)
COUNTS = ("semantics.cell_atom_evals", "translate.cells",
          "translate.cell_nodes", "translate.psi_nodes", "translate.refused",
          "axioms.instances")


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)   # span name -> self seconds
        self.calls = Counter()
        self.counts = Counter()
        self.psi_miss_busy = 0.0
        self.psi_miss_max = 0.0
        self._stack = []                 # per open span: seconds of its children
        self._psi_seen = weakref.WeakKeyDictionary()
        self._restore = []

    def reset(self):
        self.busy.clear()
        self.calls.clear()
        self.counts.clear()
        self.psi_miss_busy = 0.0
        self.psi_miss_max = 0.0

    # -- spans -----------------------------------------------------------

    def _enter(self):
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, name, t0):
        elapsed = perf_counter() - t0
        stack = self._stack
        self.busy[name] += elapsed - stack.pop()
        self.calls[name] += 1
        if stack:
            stack[-1] += elapsed
        return elapsed

    def _hook(self, fn, *args):
        """Run a counting hook; its time is overhead, not the caller's."""
        t0 = perf_counter()
        fn(*args)
        elapsed = perf_counter() - t0
        self.busy[HOOKS] += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def span(self, name, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(name, t0)
                if on_error is not None:
                    on_error(exc)
                raise
            tracer._exit(name, t0)
            if on_result is not None:
                tracer._hook(on_result, args, result)
            return result
        return wrapper

    def _psi_span(self, fn):
        tracer = self

        @functools.wraps(fn)
        def evaluate_masks(evaluator, masks):
            seen = tracer._psi_seen.get(evaluator)
            if seen is None:
                seen = tracer._psi_seen[evaluator] = set()
            miss = masks not in seen
            t0 = tracer._enter()
            result = fn(evaluator, masks)
            elapsed = tracer._exit(PSI, t0)
            if miss:
                seen.add(masks)
                tracer.counts["boolalg.psi_misses"] += 1
                tracer.psi_miss_busy += elapsed
                if elapsed > tracer.psi_miss_max:
                    tracer.psi_miss_max = elapsed
            return result
        return evaluate_masks

    # -- installation ----------------------------------------------------

    def _replace(self, original, replacement):
        """Point every ringfv module attribute naming original at replacement."""
        for name, module in list(sys.modules.items()):
            if name != "ringfv" and not name.startswith("ringfv."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _wrap_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, original))

    def install(self):
        from ringfv.formula import ast_size, parse_ring_formula
        from ringfv.semantics import eval_direct
        from ringfv.translate import (FvEvaluator, TranslationDepthError,
                                      TranslationSizeError)
        # by module path: the package rebinds the name translate to the function
        axioms = importlib.import_module("ringfv.axioms")
        residue = importlib.import_module("ringfv.residue")
        translate = importlib.import_module("ringfv.translate")
        counts = self.counts

        def count_translation(args, result):
            counts["translate.cells"] += len(result.cells)
            counts["translate.cell_nodes"] += sum(ast_size(c) for c in result.cells)
            counts["translate.psi_nodes"] += ast_size(result.bool_formula)

        def count_refusal(exc):
            if isinstance(exc, (TranslationDepthError, TranslationSizeError)):
                counts["translate.refused"] += 1

        def count_cell_atoms(args, result):
            evaluator = args[0]
            counts["semantics.cell_atom_evals"] += (len(evaluator.translation.cells)
                                          * len(evaluator.algebra.atoms))

        def count_axiom_instances(args, result):
            counts["axioms.instances"] += sum(r.instances for r in result)

        self._replace(translate.translate,
                      self.span(TRANSLATE, translate.translate,
                                count_translation, count_refusal))
        self._replace(translate.oracle_sweep,
                      self.span("translate.sweep_self_s", translate.oracle_sweep))
        self._replace(eval_direct, self.span(DIRECT, eval_direct))
        self._replace(parse_ring_formula, self.span("formula.parse_busy_s", parse_ring_formula))
        self._replace(residue.check_theorem_main,
                      self.span("residue.busy_s", residue.check_theorem_main))
        self._replace(axioms.run_axiom_suite,
                      self.span("axioms.rest_busy_s", axioms.run_axiom_suite,
                                count_axiom_instances))
        for k in range(1, 6):
            fn = getattr(axioms, f"check_axiom{k}")
            self._replace(fn, self.span(f"axioms.axiom{k}_busy_s", fn))
        self._wrap_method(FvEvaluator, "cell_masks",
                          self.span(MASKS, FvEvaluator.cell_masks,
                                    count_cell_atoms))
        self._wrap_method(FvEvaluator, "evaluate_masks",
                          self._psi_span(FvEvaluator.evaluate_masks))
        self._wrap_method(FvEvaluator, "masks_form_partition",
                          self.span("semantics.partition_check_busy_s",
                                    FvEvaluator.masks_form_partition))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- report ----------------------------------------------------------

    def layer_metrics(self, wall_s) -> dict:
        """Per-layer metrics of the spans closed since the last reset."""
        busy, calls, counts = self.busy, self.calls, self.counts
        psi_calls = calls[PSI]
        misses = counts["boolalg.psi_misses"]
        out = {name: busy[name] for name in SELF_TIMES}
        out |= {
            "boolalg.psi_calls": psi_calls,
            "boolalg.psi_misses": misses,
            "boolalg.psi_hit_ratio": 1 - misses / psi_calls if psi_calls else 0.0,
            "boolalg.psi_miss_busy_s": self.psi_miss_busy,
            "boolalg.psi_miss_max_ms": self.psi_miss_max * 1000,
            "semantics.masks_calls": calls[MASKS],
            "semantics.direct_calls": calls[DIRECT],
            "translate.calls": calls[TRANSLATE],
        }
        out |= {name: counts[name] for name in COUNTS}
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(busy.values())
        return out
