"""The benchmark's workloads: set-up, the verdict list, and one checked verdict.

Every workload is a closed loop with one caller: a verdict is issued only
after the previous one returned.  A verdict is one formula's oracle sweep on
one ring, one sentence's four-way comparison, or one ring's axiom suite.
The seed fixes the order of the verdicts (and the axiom sampling seed); it
never changes which verdicts are run, so every seed does the same work.

Each verdict is checked as it completes.  An outcome carries the instances
the verdict attempted, the instances it was expected to attempt, and the
failures it found: oracle mismatches, partition failures, refused
translations, exceptions, failed axiom reports and disagreeing sentences.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import ringfv
from ringfv import rings, suites
from ringfv.boolalg import idempotent_algebra
from ringfv.formula import format_ring_formula, free_variables
from ringfv.residue import DEFAULT_SENTENCES
from ringfv.translate import TranslationDepthError, TranslationSizeError


@dataclass(frozen=True)
class Outcome:
    instances: int
    expected: int
    failures: int
    payload: tuple  # the verdict as data, to compare runs
    error: str = ""


def _warm_ring(ring):
    """Ring-derived data that every verdict on the ring reuses."""
    rings.atoms(ring)
    rings.atom_stalks(ring)
    idempotent_algebra(ring)


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


class Sweep:
    """oracle_sweep of a formula suite on one ring, one formula per verdict.

    Each call gets collect_limit equal to the formula's instance count, so
    the report keeps every mismatch and partition failure, not only the
    first few.
    """

    def __init__(self, why, make_ring, suite, expected_total):
        self.why = why
        self.make_ring = make_ring
        self.suite = suite
        self.expected_total = expected_total

    def setup(self, seed):
        formulas, generate_s = _timed(lambda: suites.formula_suite(self.suite))
        ring, rings_s = _timed(lambda: self._ring())
        order = list(formulas)
        random.Random(seed).shuffle(order)
        return (ring, order), {"suites.generate_s": generate_s,
                               "rings.setup_s": rings_s}

    def _ring(self):
        ring = self.make_ring()
        _warm_ring(ring)
        return ring

    def run(self, state, formula) -> Outcome:
        ring = state[0]
        expected = ring.size ** len(free_variables(formula))
        text = format_ring_formula(formula)
        try:
            report = ringfv.oracle_sweep(ring, [formula], collect_limit=expected)
        except (TranslationDepthError, TranslationSizeError) as exc:
            return Outcome(expected, expected, expected, (text, "refused"),
                           f"{text}: refused: {exc}")
        failures = len(report.mismatches) + len(report.partition_failures)
        return Outcome(report.instances, expected, failures,
                       (text, report.instances, failures))


class Equiv:
    """check_theorem_main per (n, sentence): Z/n against the product of its
    prime-power residue rings, directly and through the translation."""

    def __init__(self, why, moduli, expected_total):
        self.why = why
        self.moduli = moduli
        self.expected_total = expected_total

    def setup(self, seed):
        sentences, generate_s = _timed(lambda: list(DEFAULT_SENTENCES))
        random.Random(seed).shuffle(sentences)
        # each sentence's moduli stay together and in order, so the verdict
        # that pays for translating it (cached afterwards) is the same one
        # for every seed
        pairs = [(n, t) for t in sentences for n in self.moduli]
        # check_theorem_main builds its rings per call: no ring set-up here
        return (None, pairs), {"suites.generate_s": generate_s,
                               "rings.setup_s": 0.0}

    def run(self, state, pair) -> Outcome:
        n, text = pair
        report = ringfv.check_theorem_main(n, [text])
        (v,) = report.verdicts
        failures = 0 if v.ok else 1
        # one instance is one sentence on one ring
        return Outcome(2, 2, failures,
                       (n, text, v.left, v.right, v.left_fv, v.right_fv))


class Axioms:
    """run_axiom_suite per ring; the workload seed is the budget seed."""

    def __init__(self, why, make_rings, expected_instances):
        self.why = why
        self.make_rings = make_rings
        self.expected_instances = expected_instances
        self.expected_total = sum(expected_instances.values())

    def setup(self, seed):
        def make():
            out = self.make_rings()
            for ring in out:
                _warm_ring(ring)
            return out
        ring_list, rings_s = _timed(make)
        order = list(ring_list)
        random.Random(seed).shuffle(order)
        budget = ringfv.CheckBudget(seed=seed)
        return (budget, order), {"suites.generate_s": 0.0,
                                 "rings.setup_s": rings_s}

    def run(self, state, ring) -> Outcome:
        reports = ringfv.run_axiom_suite(ring, state[0])
        instances = sum(r.instances for r in reports)
        failures = sum(1 for r in reports if not r.passed)
        return Outcome(instances, self.expected_instances[ring.label], failures,
                       (ring.label,) + tuple((r.check, r.verdict) for r in reports))


def _z(n):
    return lambda: rings.modular_ring(n)


WORKLOADS = {
    "sweep-z30": Sweep(
        "psi-heavy 3-atom sweep with high psi-memo reuse; a faster psi "
        "evaluator or psi memo shows here",
        _z(30), "default-depth2", 196326),
    "sweep-z4xz9": Sweep(
        "2-atom sweep dominated by stalk masks, the oracle and product-ring "
        "arithmetic; a psi change should not move it",
        lambda: rings.product_ring([rings.modular_ring(4), rings.modular_ring(9)]),
        "default-depth2", 275634),
    "equiv-4atom": Equiv(
        "closed sentences at 4 atoms (Z/210, Z/420), one psi evaluation per "
        "ring and no memo reuse; a cheaper psi miss shows here",
        (210, 420), 120),
    "axioms-suite9": Axioms(
        "the five axiom checkers on the nine suite rings; the only workload "
        "that measures the axioms layer",
        suites.ring_suite,
        {"Z/4": 1614, "Z/6": 3268, "Z/8": 5350, "Z/12": 6760, "Z/30": 17652,
         "Z/60": 11996, "Z/2 x Z/2": 1672, "Z/4 x Z/9": 22264,
         "Z/2 x Z/3 x Z/5": 17652}),
    # small workloads for the benchmark's own tests; not in BENCHMARK.json
    "smoke-z6": Sweep("tests only", _z(6), "smoke", 149),
    "equiv-z12": Equiv("tests only", (12,), 60),
    "axioms-z6": Axioms("tests only", lambda: (rings.modular_ring(6),),
                        {"Z/6": 3268}),
}
