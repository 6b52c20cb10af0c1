"""The effective translation of ring formulas into Boolean-algebra conditions.

translate() turns a first-order ring formula into a pair (psi; theta_0 ..
theta_m): a Boolean-algebra formula plus a partition sequence of ring
formulas, such that satisfaction of the source formula in a ring R is
equivalent to B satisfying psi at the Boolean values of the cells.  The
recursion handles equations, negation, conjunction and the existential
quantifier; everything else is erased by canonicalize() first.

psi and the trace depend only on the formula's shape, its tree of Eq, Not,
And and Exists nodes with terms and variable names erased: the existential
step reads only the body's psi and cell count, and the conjunction step
only the operands' psis and cell counts.  So _bool_side builds them once
per shape, and formulas of one shape share one psi object; _cells builds
the cells, which do mention the terms, per formula.  The existential step,
the patching transform phi* over the candidates E x. c_j followed by their
disjunctive normal form, is built in one pass on each side (_exists_psi
and the sign patterns in _cells); the tests keep the two-step construction
as its reference.

The construction is uniform: it depends only on the source formula, never
on a ring, so results are cached and reused across rings.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .boolalg import (eval_psi, idempotent_algebra, masks_form_partition,
                      patching_block)
from .formula import (And, BAnd, BEq, BNot, BVar, Eq, Exists, Join, Not,
                      RingFormula, TOP, canonicalize, format_ring_formula,
                      free_variables, join_all, max_var_index,
                      substitute_bool)
from .rings import FiniteRing
from .semantics import StalkValueCache, eval_direct


# The only refusal of translate.  It also bounds quantifier depth: an
# innermost body has at least 2 cells and an existential turns n cells into
# 2^n, so every formula of depth 3 or more has at least 2^16 cells.
MAX_CELLS = 4096

# An existential over n cells has 2^n of them.  Exponents above this are
# not materialized (2^(2^256) has no int), so past it an estimate is a
# lower bound.
_MAX_EXPONENT = 1 << 16


def _cell_report(estimate: int) -> str:
    if estimate >= 1 << _MAX_EXPONENT:
        return f"at least 2^{estimate.bit_length() - 1}"
    if estimate > 10**9:
        return f"about 2^{estimate.bit_length() - 1}"
    return f"about {estimate}"


class TranslationSizeError(ValueError):
    """The translation would have more than MAX_CELLS cells."""

    def __init__(self, estimate):
        super().__init__(
            f"translation would have {_cell_report(estimate)} cells, "
            f"beyond the cap {MAX_CELLS}")
        self.estimated_cells = estimate


# Nothing raises a separate depth error, since the cell cap refuses every
# deep formula; the name stays because perfbench/workloads.py and
# perfbench/tracer.py still import it.
TranslationDepthError = TranslationSizeError


@dataclass(frozen=True)
class TraceStep:
    op: str
    cell_count: int


@dataclass(frozen=True)
class TranslationResult:
    """source holds in a ring exactly when B satisfies bool_formula with
    variable j at the Boolean value of cells[j]."""

    source: RingFormula
    bool_formula: object
    cells: tuple
    trace: tuple

    def __post_init__(self):
        fv = free_variables(self.bool_formula)
        if any(v >= len(self.cells) for v in fv):
            raise ValueError("arity mismatch: psi mentions variables beyond the cells")

    def to_json(self) -> dict:
        return {
            "source": format_ring_formula(self.source),
            "psi": str(self.bool_formula),
            "cells": [format_ring_formula(c) for c in self.cells],
            "cell_count": len(self.cells),
            "trace": [{"op": s.op, "cells": s.cell_count} for s in self.trace],
        }


def _estimate_cells(f) -> int:
    if isinstance(f, Eq):
        return 2
    if isinstance(f, Not):
        return _estimate_cells(f.body)
    if isinstance(f, And):
        return _estimate_cells(f.left) * _estimate_cells(f.right)
    return 1 << min(_estimate_cells(f.body), _MAX_EXPONENT)  # Exists


def _balanced_join(indices):
    # balanced, not left-nested: the joins can span thousands of variables
    if len(indices) == 1:
        return BVar(indices[0])
    half = len(indices) // 2
    return Join(_balanced_join(indices[:half]), _balanced_join(indices[half:]))


def _shape(f):
    """The shape of a canonical formula as a tuple tree tagged with the
    trace's op names: ("atomic",), ("not", s), ("and", l, r), ("exists", s)."""
    if isinstance(f, Eq):
        return ("atomic",)
    if isinstance(f, Not):
        return ("not", _shape(f.body))
    if isinstance(f, And):
        return ("and", _shape(f.left), _shape(f.right))
    if isinstance(f, Exists):
        return ("exists", _shape(f.body))
    raise TypeError(f"not a canonical ring formula: {f!r}")


def _exists_psi(psi0, m):
    """psi of E x. theta from theta's psi0 over m+1 cells.

    This is the patching transform phi_star(psi0, m) over the candidates
    E x. c_j, rewritten into disjunctive normal form with the candidates as
    the propositional variables.  Output cell k is the sign pattern of the
    candidates given by the bits of k (bit l set means candidate l
    positive; _cells writes them), so candidate l is the join J_l of the
    patterns with bit l set, and psi is phi_star(psi0, m) with each v_l
    replaced by J_l, built directly:

        E x_0 .. E x_m. Part(x_0..x_m) & x_j <= J_j & psi0[v_j := x_j]

    The binders are the ones capture-avoiding substitution of the J_l into
    phi_star(psi0, m) ends with: phi_star's w_j = base + j, renamed to
    fresh + j where the joins mention it (base + j <= top).  So psi equals
    that substitution's result, and the only walk is the small
    substitution into psi0.
    """
    top = (1 << (m + 1)) - 1
    base = max(max_var_index(psi0) + 1, m + 1)
    fresh = 1 + max(base + m, top)
    xs = [fresh + j if base + j <= top else base + j for j in range(m + 1)]
    joins = [_balanced_join([k for k in range(top + 1) if k >> l & 1])
             for l in range(m + 1)]
    return patching_block(xs, joins, substitute_bool(
        psi0, {j: BVar(x) for j, x in enumerate(xs)}))


@functools.lru_cache(maxsize=None)
def _bool_side(shape):
    """(psi, cell count, trace) of every canonical formula of this shape."""
    op, *subs = shape
    sides = [_bool_side(s) for s in subs]
    if op == "atomic":
        psi, n = BEq(BVar(0), TOP), 2
    elif op == "not":
        ((psi, n, _),) = sides
        psi = BNot(psi)
    elif op == "and":
        (psi_l, a, _), (psi_r, b, _) = sides
        rows = {i: join_all([BVar(i * b + j) for j in range(b)]) for i in range(a)}
        cols = {j: join_all([BVar(i * b + j) for i in range(a)]) for j in range(b)}
        psi = BAnd(substitute_bool(psi_l, rows), substitute_bool(psi_r, cols))
        n = a * b
    else:  # exists
        ((psi0, n0, _),) = sides
        psi, n = _exists_psi(psi0, n0 - 1), 1 << n0
    trace = sum((t for _, _, t in sides), ()) + (TraceStep(op, n),)
    return psi, n, trace


def _cells(f):
    """The cells of a canonical formula: (f, ~f) at an equation, the body's
    at a negation, the products of the operands' cells at a conjunction,
    and at E x. theta the sign patterns of the candidates E x. c_j, which
    are pairwise contradictory and jointly exhaustive by propositional
    logic alone, hence a partition sequence."""
    if isinstance(f, Eq):
        return f, Not(f)
    if isinstance(f, Not):
        return _cells(f.body)
    if isinstance(f, And):
        left, right = _cells(f.left), _cells(f.right)
        return tuple(And(x, y) for x in left for y in right)
    candidates = [Exists(f.var, c) for c in _cells(f.body)]
    cells = []
    for k in range(1 << len(candidates)):
        conj = None
        for l, cand in enumerate(candidates):
            lit = cand if k >> l & 1 else Not(cand)
            conj = lit if conj is None else And(conj, lit)
        cells.append(conj)
    return tuple(cells)


@functools.lru_cache(maxsize=None)
def translate(formula: RingFormula) -> TranslationResult:
    """Translate a ring formula; canonicalizes first, and raises
    TranslationSizeError past MAX_CELLS cells."""
    canonical = canonicalize(formula)
    estimate = _estimate_cells(canonical)
    if estimate > MAX_CELLS:
        raise TranslationSizeError(estimate)
    psi, _, trace = _bool_side(_shape(canonical))
    return TranslationResult(formula, psi, _cells(canonical), trace)


@functools.lru_cache(maxsize=None)
def _verdict_memo(*key) -> dict:
    """The one memo dict for key, shared by every FvEvaluator: psi verdicts
    under (psi, cell count, full), partition checks under (cell count,
    full), each dict keyed by packed value.  Like translate's cache, the
    memos last as long as the process."""
    return {}


class FvEvaluator:
    """Evaluates one translation on one ring, with transparent caching.

    Cell values go through a StalkValueCache: the cells' distinct signed
    leaves (the candidate existentials and atomic formulas their sign
    patterns repeat) are evaluated once per stalk and localized assignment,
    localized through each stalk's lazy x -> ex table, and one memo row per
    stalk gives every cell's atom bit.  All cells' values at one assignment
    are one packed int, bit j*atoms + a set when cell j holds in atom a's
    stalk (StalkValueCache.unpack gives the tuple of per-cell atom masks).
    psi is decided by eval_psi, which walks atom-to-cell assignments inside
    each phi_star block.  Its verdicts and the partition checks are
    memoized per packed value, which is unpacked only on a miss.  A verdict
    is a pure function of psi, the cell count, full and the packed value,
    and a partition check of the last three, so the memos are module-wide
    (_verdict_memo) under the keys (psi, cell count, full) and (cell count,
    full): every formula of one shape, on every ring with as many atoms,
    reads the same two dicts.  Results are identical to composing
    boolean_value_batch with eval_bool_formula; tests pin that.
    """

    def __init__(self, ring: FiniteRing, translation: TranslationResult):
        self.ring = ring
        self.translation = translation
        self.algebra = idempotent_algebra(ring)
        self._cache = StalkValueCache(ring, translation.cells)
        self.full = self._cache.full
        n = len(translation.cells)
        self._psi_memo = _verdict_memo(translation.bool_formula, n, self.full)
        self._partition_memo = _verdict_memo(n, self.full)

    def cell_masks(self, env) -> int:
        """Boolean values of all cells at env, packed."""
        return self._cache.packed(env)

    def mask_grid(self, variables):
        """cell_masks at every assignment of the ring's elements to
        variables, in itertools.product order."""
        return self._cache.grid(variables)

    def evaluate_masks(self, packed) -> bool:
        hit = self._psi_memo.get(packed)
        if hit is None:
            hit = self._psi_memo[packed] = eval_psi(
                self.translation.bool_formula, self._cache.unpack(packed), self.full)
        return hit

    def evaluate(self, env) -> bool:
        return self.evaluate_masks(self.cell_masks(env))

    def masks_form_partition(self, packed) -> bool:
        hit = self._partition_memo.get(packed)
        if hit is None:
            hit = self._partition_memo[packed] = masks_form_partition(
                self._cache.unpack(packed), self.full)
        return hit


def eval_via_fv(ring: FiniteRing, formula: RingFormula, env=None) -> bool:
    """Satisfaction computed through the translation instead of directly."""
    evaluator = FvEvaluator(ring, translate(formula))
    return evaluator.evaluate(dict(env) if env else {})


@dataclass(frozen=True)
class SweepMismatch:
    formula: str
    assignment: dict
    direct: bool
    via_fv: bool


@dataclass(frozen=True)
class SweepReport:
    """Sweep totals; mismatches and partition_failures keep only the first
    collect_limit examples, the counts cover every instance."""

    ring: str
    formulas: int
    instances: int
    mismatches: tuple
    partition_failures: tuple
    mismatch_count: int
    partition_failure_count: int

    @property
    def ok(self) -> bool:
        return not self.mismatch_count and not self.partition_failure_count

    def to_json(self) -> dict:
        return {
            "ring": self.ring,
            "formulas": self.formulas,
            "instances": self.instances,
            "mismatches": [vars(m) | {"assignment": {f"x{k}": repr(v) for k, v in m.assignment.items()}}
                           for m in self.mismatches],
            "partition_failures": list(self.partition_failures),
            "ok": self.ok,
        }


def oracle_sweep(ring: FiniteRing, formulas, collect_limit: int = 20) -> SweepReport:
    """Compare eval_via_fv against eval_direct over all assignments.

    Also checks, on every instance, that the Boolean values of the
    translation's cells form a partition of the algebra.  Every failure is
    counted; the first collect_limit of each kind are kept as examples.
    """
    mismatches = []
    partition_failures = []
    mismatch_count = partition_failure_count = 0
    instances = 0
    formulas = tuple(formulas)
    for f in formulas:
        ev = FvEvaluator(ring, translate(f))
        fv = sorted(free_variables(f))
        for vals, packed in zip(itertools.product(ring.elements, repeat=len(fv)),
                                ev.mask_grid(fv)):
            env = dict(zip(fv, vals))
            instances += 1
            via = ev.evaluate_masks(packed)
            direct = eval_direct(ring, f, env)
            if via != direct:
                mismatch_count += 1
                if len(mismatches) < collect_limit:
                    mismatches.append(SweepMismatch(format_ring_formula(f), env, direct, via))
            if not ev.masks_form_partition(packed):
                partition_failure_count += 1
                if len(partition_failures) < collect_limit:
                    partition_failures.append(f"{format_ring_formula(f)} at {env}")
    return SweepReport(ring.label, len(formulas), instances,
                       tuple(mismatches), tuple(partition_failures),
                       mismatch_count, partition_failure_count)
