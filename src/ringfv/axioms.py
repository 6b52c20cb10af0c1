"""Executable checkers for the five axioms on concrete finite rings.

Each checker sweeps a budgeted instance space and returns a report; a
fail verdict always carries a machine-replayable counterexample.  Witness
selection is least-element-first under the carrier enumeration, which
stands in for the choice functions used in the product-ring arguments.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .boolalg import (_beval, eval_psi, idempotent_algebra,
                      make_partition_formula, masks_form_partition,
                      partitions_within, phi_star)
from .formula import (And, BEq, BNot, BVar, Exists, Not, TOP, BOT,
                      format_bool_formula, format_ring_formula, free_variables,
                      leq, parse_ring_formula)
from .rings import FiniteRing, atom_stalks, atoms, idempotents
from .semantics import (StalkValueCache, _eval, boolean_value_batch,
                        boolean_values, eval_direct, localize_assignment)
from .suites import atomic_pool
from .translate import translate


@dataclass(frozen=True)
class AxiomReport:
    ring: str
    check: str
    instances: int
    verdict: str
    counterexample: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {"ring": self.ring, "axiom": self.check,
               "instances": self.instances, "verdict": self.verdict}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class CheckBudget:
    """Instance budgets for the formula pools and the assignment samples."""

    max_formulas: int = 48
    max_assignments: int = 64
    seed: int = 0

    def __post_init__(self):
        # a budget below 1 would check nothing and still report a pass
        for name in ("max_formulas", "max_assignments"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget {name} must be at least 1, "
                                 f"got {getattr(self, name)}")


DEFAULT_BUDGET = CheckBudget()


def _report(ring, check, instances, counterexample=None):
    return AxiomReport(ring.label, check, instances,
                       "pass" if counterexample is None else "fail",
                       counterexample)


def _assignments(ring: FiniteRing, variables, budget: CheckBudget,
                 exhaustive_size: int = 36):
    """All assignments when small enough, else a seeded deterministic sample."""
    variables = sorted(variables)
    total = ring.size ** len(variables)
    if ring.size <= exhaustive_size or total <= budget.max_assignments:
        for vals in itertools.product(ring.elements, repeat=len(variables)):
            yield dict(zip(variables, vals))
        return
    rng = random.Random((budget.seed, ring.size, len(variables)).__hash__())
    elems = ring.elements
    for _ in range(budget.max_assignments):
        yield {v: elems[rng.randrange(ring.size)] for v in variables}


def _env_json(env):
    return {f"x{k}": repr(v) for k, v in sorted(env.items())}


def default_formula_pool() -> tuple:
    """Mixed fixed pool: equations, negations and one-quantifier formulas."""
    texts = (
        "x0 = 0", "x0 = 1", "x0 = x1", "x0*x0 = x0", "x0*x1 = 1",
        "x0+x1 = 0", "x0*x0 = x1", "~(x0 = 0)", "x0+x0 = 0",
        "E x1. x0*x1 = 1", "E x1. x1*x1 = x0", "E x1. x0*x1 = x0 & ~(x1 = 1)",
        "A x1. x1*x0 = x1 -> x1 = 0", "E x0. x0*x0 = x0 & ~(x0 = 0) & ~(x0 = 1)",
        "x0*x1 = 0 & ~(x0 = 0)", "x0 = 0 | x0 = 1",
    )
    return tuple(parse_ring_formula(t) for t in texts)


def check_axiom1(ring: FiniteRing) -> AxiomReport:
    """Atomicity: every nonzero idempotent dominates an atom and is the
    join of the atoms below it."""
    algebra = idempotent_algebra(ring)
    instances = 0
    for f in idempotents(ring):
        if f == ring.zero:
            continue
        instances += 1
        mask = algebra.atom_mask(f)
        if mask == 0:
            return _report(ring, "axiom1", instances,
                           {"idempotent": repr(f), "reason": "no atom below"})
        joined = algebra.element_of_mask(mask)
        if joined != f:
            return _report(ring, "axiom1", instances,
                           {"idempotent": repr(f), "join_of_atoms": repr(joined)})
    return _report(ring, "axiom1", instances)


def check_axiom2(ring: FiniteRing, budget: CheckBudget = None) -> AxiomReport:
    """Existence and uniqueness of the Boolean value of each instance."""
    budget = budget or DEFAULT_BUDGET
    formulas = default_formula_pool()[:budget.max_formulas]
    algebra = idempotent_algebra(ring)
    ring_atoms = atoms(ring)
    # both scans depend only on the mask, so each distinct mask is scanned once
    faults = {}
    instances = 0
    for theta in formulas:
        cache = StalkValueCache(ring, (theta,))
        for env in _assignments(ring, free_variables(theta), budget):
            instances += 1
            (mask,) = cache.masks(env)
            if mask not in faults:
                faults[mask] = _value_fault(algebra, ring_atoms, mask)
            if faults[mask] is not None:
                return _report(ring, "axiom2", instances, {
                    "formula": format_ring_formula(theta),
                    "assignment": _env_json(env), **faults[mask]})
    return _report(ring, "axiom2", instances)


def _value_fault(algebra, ring_atoms, mask):
    """Why the element of an atom mask is not the unique idempotent with
    exactly those atoms below it, or None."""
    value = algebra.element_of_mask(mask)
    for i, e in enumerate(ring_atoms):
        if algebra.below(e, value) != bool(mask >> i & 1):
            return {"atom": repr(e), "value": repr(value)}
    others = [c for c in algebra.carrier if c != value and all(
        algebra.below(e, c) == bool(mask >> i & 1)
        for i, e in enumerate(ring_atoms))]
    if others:
        return {"reason": f"value not unique: {others[0]!r}"}
    return None


def patch_witness(ring: FiniteRing, theta, witness_var: int, env):
    """Build g by per-atom patching: on each atom whose stalk has a witness
    for theta, take the least stalk witness, and recombine by the orthogonal
    sum."""
    g = ring.zero
    for e, st in zip(atoms(ring), atom_stalks(ring)):
        local = localize_assignment(ring, e, env)
        for candidate in st.elements:
            local[witness_var] = candidate
            if _eval(st, theta, local):
                g = ring.add(g, candidate)
                break
    return g


def check_axiom3(ring: FiniteRing, budget: CheckBudget = None) -> AxiomReport:
    """[[exists w theta]] <= [[theta(fbar, g)]] for the patched witness g."""
    budget = budget or DEFAULT_BUDGET
    pool = [f for f in default_formula_pool() if free_variables(f)]
    pool = pool[:budget.max_formulas]
    algebra = idempotent_algebra(ring)
    instances = 0
    for theta in pool:
        fv = sorted(free_variables(theta))
        w = fv[-1]
        # built once per formula, so every assignment reuses its nodes
        batch = (Exists(w, theta), theta)
        for env in _assignments(ring, fv[:-1], budget):
            instances += 1
            g = patch_witness(ring, theta, w, env)
            exists_value, at_g = boolean_value_batch(ring, batch, {**env, w: g})
            if not algebra.below(exists_value, at_g):
                return _report(ring, "axiom3", instances, {
                    "formula": format_ring_formula(theta),
                    "assignment": _env_json(env), "witness": repr(g),
                    "exists_value": repr(exists_value),
                    "value_at_witness": repr(at_g)})
    return _report(ring, "axiom3", instances)


def check_axiom4(ring: FiniteRing, budget: CheckBudget = None) -> AxiomReport:
    """For atomic formulas: satisfaction in R iff the Boolean value is 1."""
    budget = budget or DEFAULT_BUDGET
    pool = atomic_pool((0, 1), 1)[:max(budget.max_formulas, 64)]
    algebra = idempotent_algebra(ring)
    instances = 0
    for theta in pool:
        cache = StalkValueCache(ring, (theta,))
        for env in _assignments(ring, free_variables(theta), budget):
            instances += 1
            direct = eval_direct(ring, theta, env)
            (mask,) = cache.masks(env)
            value = algebra.element_of_mask(mask)
            if direct != (value == ring.one):
                return _report(ring, "axiom4", instances, {
                    "formula": format_ring_formula(theta),
                    "assignment": _env_json(env), "direct": direct,
                    "value": repr(value)})
    return _report(ring, "axiom4", instances)


def default_phi_pool(arity: int) -> tuple:
    """Small Boolean-formula pool at a given arity (number of cells)."""
    m = arity - 1
    phis = [BEq(BVar(0), TOP), BNot(BEq(BVar(0), TOP)), BEq(BVar(0), BOT),
            make_partition_formula(m)]
    if m >= 1:
        phis.append(leq(BVar(0), BVar(1)))
        phis.append(BEq(BVar(m), BOT))
    return tuple(phis)


def default_partition_sequences() -> tuple:
    """Partition sequences (cells, witness variable) from translations."""
    sequences = []
    for text, witness in (("x0 = 0", 0), ("x0 = x1", 1),
                          ("x0*x1 = 1", 1), ("E x2. x0*x2 = x1", 1)):
        sequences.append((translate(parse_ring_formula(text)).cells, witness))
    return tuple(sequences)


def check_axiom5(ring: FiniteRing, partition_sequences=None,
                 budget: CheckBudget = None) -> AxiomReport:
    """Equivalence of the patching condition and the partition condition.

    (1) some g in R makes phi* hold at the Boolean values of the cells at
    (fbar, g); (2) some partition Y_j <= [[exists x theta_j]] satisfies
    phi.  Side (1) runs eval_psi on phi* at each distinct value tuple the
    witnesses g reach, so each phi* block walks the partitions under the
    cell values; side (2) walks partitions_within the existential values.
    The two verdicts are compared.
    """
    budget = budget or DEFAULT_BUDGET
    sequences = partition_sequences or default_partition_sequences()
    full = (1 << len(atoms(ring))) - 1
    instances = 0
    for cells, witness in sequences:
        m = len(cells) - 1
        cell_fv = set()
        for c in cells:
            cell_fv |= free_variables(c)
        params = sorted(cell_fv - {witness})
        # per phi: phi*, then memos of each side keyed by mask tuples
        pool = [(phi, phi_star(phi, m), {}, {})
                for phi in default_phi_pool(m + 1)]
        cache = StalkValueCache(ring, cells)
        exists_cache = StalkValueCache(
            ring, tuple(Exists(witness, c) for c in cells))
        for env in _assignments(ring, params, budget):
            value_tuples = {}
            for g in ring.elements:
                masks = cache.masks({**env, witness: g})
                if not masks_form_partition(masks, full):
                    raise ValueError(
                        "axiom5 precondition: cells are not a partition sequence "
                        f"on {ring.label} at {_env_json(env)}, witness {g!r}")
                value_tuples.setdefault(masks, g)
            bounds = exists_cache.masks(env)
            for phi, star, star_memo, side2_memo in pool:
                instances += 1
                side1 = False
                for masks in value_tuples:
                    hit = star_memo.get(masks)
                    if hit is None:
                        hit = star_memo[masks] = eval_psi(star, masks, full)
                    if hit:
                        side1 = True
                        break
                side2 = side2_memo.get(bounds)
                if side2 is None:
                    side2 = side2_memo[bounds] = any(
                        _beval(phi, dict(enumerate(ws)), full)
                        for ws in partitions_within(bounds, full))
                if side1 != side2:
                    return _report(ring, "axiom5", instances, {
                        "phi": format_bool_formula(phi),
                        "cells": [format_ring_formula(c) for c in cells],
                        "assignment": _env_json(env),
                        "patching_side": side1, "partition_side": side2})
    return _report(ring, "axiom5", instances)


def _check_value_lemmas(ring: FiniteRing, budget: CheckBudget):
    """The meet/join/complement homomorphism laws for Boolean values."""
    algebra = idempotent_algebra(ring)
    pool = [f for f in default_formula_pool()
            if len(free_variables(f)) <= 2][:budget.max_formulas]
    pairs = list(itertools.product(pool, repeat=2))[:budget.max_formulas]
    reports = []
    for name, tuples, combine, law, keys in (
            ("lemma-conjunction", pairs, And, algebra.meet, ("theta1", "theta2")),
            ("lemma-disjunction", pairs, lambda a, b: Not(And(Not(a), Not(b))),
             algebra.join, ("theta1", "theta2")),
            ("lemma-negation", [(t,) for t in pool], Not, algebra.complement,
             ("theta",))):
        instances = 0
        counterexample = None
        for ts in tuples:
            if counterexample:
                break
            fv = set().union(*map(free_variables, ts))
            batch = (combine(*ts), *ts)
            # pair sweeps square the instance count, so envs get a tighter policy
            envs = list(_assignments(ring, fv, budget, exhaustive_size=8))
            for env, (combined, *values) in zip(envs, boolean_values(ring, batch, envs)):
                instances += 1
                if combined != law(*values):
                    counterexample = {
                        **{k: format_ring_formula(t) for k, t in zip(keys, ts)},
                        "assignment": _env_json(env)}
                    break
        reports.append(_report(ring, name, instances, counterexample))
    return reports


def _check_boolean_laws(ring: FiniteRing) -> AxiomReport:
    """Associativity, distributivity, De Morgan and complementation on B."""
    algebra = idempotent_algebra(ring)
    meet, join, comp = algebra.meet, algebra.join, algebra.complement
    instances = 0
    for x, y, z in itertools.product(algebra.carrier, repeat=3):
        instances += 1
        checks = (
            meet(meet(x, y), z) == meet(x, meet(y, z)),
            join(join(x, y), z) == join(x, join(y, z)),
            meet(x, join(y, z)) == join(meet(x, y), meet(x, z)),
            join(x, meet(y, z)) == meet(join(x, y), join(x, z)),
            comp(meet(x, y)) == join(comp(x), comp(y)),
            comp(join(x, y)) == meet(comp(x), comp(y)),
            meet(x, comp(x)) == algebra.bot,
            join(x, comp(x)) == algebra.top,
        )
        if not all(checks):
            return _report(ring, "boolean-laws", instances,
                           {"triple": repr((x, y, z))})
    return _report(ring, "boolean-laws", instances)


def run_axiom_suite(ring: FiniteRing, budget: CheckBudget = None) -> list:
    """All five axiom checkers plus the Boolean-value and algebra laws."""
    budget = budget or DEFAULT_BUDGET
    reports = [
        check_axiom1(ring),
        check_axiom2(ring, budget=budget),
        check_axiom3(ring, budget=budget),
        check_axiom4(ring, budget=budget),
        check_axiom5(ring, budget=budget),
        _check_boolean_laws(ring),
    ]
    reports.extend(_check_value_lemmas(ring, budget))
    return reports
