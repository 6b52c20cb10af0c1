"""Property tests over random formulas: printers, canonicalize, substitution
and the translation against the direct oracle and its literal reference.

Examples are derandomized and capped, so every run checks the same formulas
and the file stays a few seconds of the suite.
"""

from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from ringfv.cli import parse_ring_descriptor
from ringfv.formula import (
    Add, And, BAnd, BEq, BExists, BForall, BImplies, BNot, BOr, BOT, BVar,
    Complement, Eq, Exists, Forall, Implies, Join, Meet, Mul, Not, ONE, Or,
    Sub, TOP, Var, W_OFFSET, ZERO, _QUANT, canonicalize, children,
    format_bool_formula, format_ring_formula, free_variables, max_var_index,
    numeral, parse_bool_formula, parse_ring_formula, quantifier_depth,
    rebuild, substitute_bool)
from ringfv.rings import modular_ring, product_ring
from ringfv.translate import MAX_CELLS, _estimate_cells, oracle_sweep

from test_translate import assert_matches_reference

GOLDEN = Path(__file__).parent / "golden"

# formulas over x0..x2 have at most three free variables, so every sweep
# below stays within a few hundred assignments per ring
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def ring_terms(nvars):
    leaves = st.sampled_from([ZERO, ONE] + [Var(i) for i in range(nvars)]) \
        | st.integers(2, 5).map(numeral)
    return st.recursive(
        leaves,
        lambda t: st.builds(Add, t, t) | st.builds(Sub, t, t) | st.builds(Mul, t, t),
        max_leaves=4)


def ring_formulas(nvars, max_leaves=5):
    def extend(f):
        var = st.integers(0, nvars - 1)
        return (st.builds(Not, f) | st.builds(And, f, f) | st.builds(Or, f, f)
                | st.builds(Implies, f, f) | st.builds(Exists, var, f)
                | st.builds(Forall, var, f))
    return st.recursive(st.builds(Eq, ring_terms(nvars), ring_terms(nvars)),
                        extend, max_leaves=max_leaves)


def quantified(nvars, max_leaves=3):
    """ring_formulas under a prefix of up to two quantifiers, so that the
    translation's existential step is the common case, not a rare one."""
    prefix = st.lists(st.tuples(st.sampled_from([Exists, Forall]),
                                st.integers(0, nvars - 1)), max_size=2)
    return st.builds(_under_prefix, prefix, ring_formulas(nvars, max_leaves))


def _under_prefix(prefix, body):
    for quantifier, var in reversed(prefix):
        body = quantifier(var, body)
    return body


# y0..y3 and w0, w1: both namespaces of the Boolean language
BOOL_INDICES = [0, 1, 2, 3, W_OFFSET, W_OFFSET + 1]


def bool_terms(indices=BOOL_INDICES):
    leaves = st.sampled_from([BOT, TOP] + [BVar(i) for i in indices])
    return st.recursive(
        leaves,
        lambda t: st.builds(Meet, t, t) | st.builds(Join, t, t)
        | st.builds(Complement, t),
        max_leaves=4)


def bool_formulas(indices=BOOL_INDICES):
    def extend(f):
        var = st.sampled_from(indices)
        return (st.builds(BNot, f) | st.builds(BAnd, f, f) | st.builds(BOr, f, f)
                | st.builds(BImplies, f, f) | st.builds(BExists, var, f)
                | st.builds(BForall, var, f))
    return st.recursive(st.builds(BEq, bool_terms(indices), bool_terms(indices)),
                        extend, max_leaves=5)


# --- printers and canonicalize ---

@PROPERTY
@given(ring_formulas(12))
def test_ring_print_parse_round_trip(f):
    assert parse_ring_formula(format_ring_formula(f)) == f


@PROPERTY
@given(bool_formulas())
def test_bool_print_parse_round_trip(f):
    assert parse_bool_formula(format_bool_formula(f)) == f


@PROPERTY
@given(ring_formulas(4))
def test_canonicalize_is_idempotent(f):
    once = canonicalize(f)
    assert canonicalize(once) == once


# --- substitution: one walk against the rename-then-substitute reading ---

def _substitute_two_walks(node, mapping, var_cls):
    """Capture-avoiding substitution that renames a captured binder in a walk
    of its own before substituting the mapping."""
    if not mapping:
        return node
    cls = type(node)
    if cls is var_cls:
        return mapping.get(node.index, node)
    kids = children(node)
    if cls in _QUANT:
        fv = free_variables(node)
        live = {k: t for k, t in mapping.items() if k in fv}
        if not live:
            return node
        var, (body,) = node.var, kids
        if any(var in free_variables(t) for t in live.values()):
            fresh = 1 + max(max_var_index(node),
                            max(max_var_index(t) for t in live.values()))
            body = _substitute_two_walks(body, {var: var_cls(fresh)}, var_cls)
            var = fresh
        return cls(var, _substitute_two_walks(body, live, var_cls))
    return rebuild(node, [_substitute_two_walks(k, mapping, var_cls) for k in kids])


# indices 0..3 only, so binders and the mapped terms' variables collide often
SMALL = [0, 1, 2, 3]


@PROPERTY
@given(bool_formulas(SMALL), st.dictionaries(st.sampled_from(SMALL), bool_terms(SMALL)))
def test_substitution_renames_in_one_walk(f, mapping):
    assert substitute_bool(f, mapping) == _substitute_two_walks(f, mapping, BVar)


# --- translation ---

def _translatable(f, max_cells=MAX_CELLS, max_depth=3):
    canonical = canonicalize(f)
    return (quantifier_depth(canonical) <= max_depth
            and _estimate_cells(canonical) <= max_cells)


@PROPERTY
@given(quantified(3))
def test_exists_step_matches_normal_form(f):
    assume(_translatable(f))
    assert_matches_reference(f)


SWEEP_RINGS = (
    modular_ring(4), modular_ring(6),
    product_ring([modular_ring(2), modular_ring(2)]),
    parse_ring_descriptor(f"table:@{GOLDEN / 'f2.json'}"),
)


@PROPERTY
@given(quantified(3))
def test_translation_agrees_with_eval_direct(f):
    assume(_translatable(f, max_cells=256, max_depth=2))
    for ring in SWEEP_RINGS:
        report = oracle_sweep(ring, [f])
        assert report.ok, (ring.label, report.mismatches, report.partition_failures)
