"""The brute-force evaluator and Boolean values in stalks."""

import itertools
import random

import pytest

from ringfv.axioms import default_formula_pool
from ringfv.boolalg import idempotent_algebra
from ringfv.formula import (ONE, And, Eq, Not, Or, Var, canonicalize,
                            free_variables, parse_ring_formula)
from ringfv.rings import (atom_stalks, atoms, modular_ring, product_ring, stalk,
                          table_ring)
from ringfv.semantics import (StalkValueCache, UnboundVariableError, _eval,
                              boolean_value, boolean_value_batch,
                              boolean_values, eval_direct, eval_term,
                              localize_assignment, signed_leaves)

IDEMPOTENT_PROBE = "E x0. x0*x0 = x0 & ~(x0 = 0) & ~(x0 = 1)"


def test_eval_direct_examples(z6, z4):
    probe = parse_ring_formula(IDEMPOTENT_PROBE)
    assert eval_direct(z6, probe) is True
    assert eval_direct(z4, probe) is False
    assert eval_direct(z6, parse_ring_formula("0 = 0")) is True


def test_eval_direct_unbound(z6):
    with pytest.raises(UnboundVariableError):
        eval_direct(z6, parse_ring_formula("x0 = 0"))


def test_eval_direct_does_not_leak_bindings(z6):
    f = parse_ring_formula("(E x0. x0 = 0) & x0 = 1")
    assert eval_direct(z6, f, {0: 1}) is True
    assert eval_direct(z6, f, {0: 2}) is False


def test_eval_direct_env_not_mutated(z6):
    env = {0: 2}
    eval_direct(z6, parse_ring_formula("E x0. x0 = x0"), env)
    assert env == {0: 2}


@pytest.mark.parametrize("text", [
    "x0 = 0 & (E x0. x0 = 1)", "E x0. x0 = x1", "A x0. x0*x1 = x0 -> x0 = 0",
    "E x2. x2*x2 = x2 & ~(x2 = x0)", "E x1. E x0. x0*x1 = 1"])
def test_eval_leaves_env_as_found(z6, text):
    """boolean_values shares one env per stalk across formulas, so _eval
    must restore keys, their order and values, also for rebound variables."""
    env = {1: 5, 0: 0, 7: 3}
    before = list(env.items())
    _eval(z6, parse_ring_formula(text), env)
    assert list(env.items()) == before


def test_eval_refusals(z6):
    with pytest.raises(TypeError, match=r"^not a ring formula: Var\(index=0\)$"):
        _eval(z6, Not(Var(0)), {0: 1})
    with pytest.raises(TypeError, match=r"^not a ring term: Eq\("):
        _eval(z6, Eq(Var(0), Eq(ONE, ONE)), {0: 1})
    with pytest.raises(TypeError, match=r"^not a ring term: "):
        eval_term(z6, "x0", {0: 1})
    # x2 is first reached inside the quantifier body, after x1 is bound
    with pytest.raises(UnboundVariableError, match=r"^unbound variable x2$"):
        _eval(z6, parse_ring_formula("E x1. x1 = x2"), {})


def test_eval_direct_connectives(z6):
    a = parse_ring_formula("1 = 1")
    b = parse_ring_formula("0 = 1")
    assert eval_direct(z6, Or(b, a))
    assert not eval_direct(z6, And(a, b))
    assert eval_direct(z6, parse_ring_formula("0 = 1 -> 0 = 0"))
    assert eval_direct(z6, parse_ring_formula("A x0. x0*0 = 0"))


def test_eval_direct_invariant_under_canonicalize(z6, z2xz3):
    rng = random.Random(3)
    from test_formula import _random_ring_formula
    for ring in (z6, z2xz3):
        elems = list(ring.elements)
        for _ in range(80):
            f = _random_ring_formula(rng, 3)
            env = {i: elems[rng.randrange(len(elems))] for i in free_variables(f)}
            assert eval_direct(ring, f, env) \
                == eval_direct(ring, canonicalize(f), env)


# --- Boolean values ---

def test_boolean_value_invertibility(z6):
    assert boolean_value(z6, parse_ring_formula("E x1. x0*x1 = 1"), {0: 2}) == 4


def test_boolean_value_square(z6):
    assert boolean_value(z6, parse_ring_formula("E x1. x1*x1 = x0"), {0: 5}) == 3


def test_boolean_value_tautology(z6, z4, z2xz3):
    f = parse_ring_formula("0 = 0")
    for ring in (z6, z4, z2xz3):
        assert boolean_value(ring, f) == ring.one


def test_boolean_value_is_the_idempotent(z6):
    assert boolean_value(z6, parse_ring_formula("x0 = 0"), {0: 3}) == 4


def test_boolean_value_batch_negation_pair(z6):
    th = parse_ring_formula("x0 = 0")
    for v in z6.elements:
        pos, neg = boolean_value_batch(z6, (th, Not(th)), {0: v})
        assert z6.mul(pos, neg) == 0
        assert z6.join_idempotents(pos, neg) == 1


def test_boolean_value_batch_singleton(z6):
    assert boolean_value_batch(z6, (parse_ring_formula("0 = 0"),)) == [1]


# The stored free-variable set must not weaken the unbound-variable check:
# with x0 = 0 the disjunction short-circuits, so only the precondition can
# see that x1 is missing, also after the same object was evaluated in full.

def test_eval_direct_unbound_after_full_evaluation(z6):
    f = parse_ring_formula("x0 = 0 | x1 = 0")
    with pytest.raises(UnboundVariableError, match="x1"):
        eval_direct(z6, f, {0: 0})
    assert eval_direct(z6, f, {0: 0, 1: 5}) is True
    with pytest.raises(UnboundVariableError, match="x1"):
        eval_direct(z6, f, {0: 0})


def test_boolean_value_batch_unbound_after_full_evaluation(z6):
    f = parse_ring_formula("x0 = 0 | x1 = 0")
    with pytest.raises(UnboundVariableError, match="x1"):
        boolean_value_batch(z6, (f,), {0: 0})
    assert boolean_value_batch(z6, (f, Not(f)), {0: 0, 1: 5}) == [1, 0]
    with pytest.raises(UnboundVariableError, match="x1"):
        boolean_value_batch(z6, (f,), {0: 0})


def _reference_values(ring, formulas, env):
    """Boolean values one env at a time: every stalk localizes the env
    afresh, every formula gets its own copy, and atoms join by ring
    arithmetic."""
    values = [ring.zero] * len(formulas)
    for e, st in zip(atoms(ring), atom_stalks(ring)):
        local = localize_assignment(ring, e, env)
        for i, f in enumerate(formulas):
            if eval_direct(st, f, local):
                values[i] = ring.join_idempotents(values[i], e)
    return values


def _split_envs(ring):
    """Envs with one localized tuple at an atom e but not at another atom:
    x != y with ex = ey, so the stalk memo must hit at e and miss elsewhere."""
    if len(atoms(ring)) == 1:
        return []  # x != y differ in the only stalk
    out = []
    for e in atoms(ring):
        x, y = next((x, y) for x, y in itertools.combinations(ring.elements, 2)
                    if ring.mul(e, x) == ring.mul(e, y))
        out += [{0: x, 1: y}, {0: y, 1: y}, {0: x, 1: x}]
    return out


def test_boolean_values_match_per_env_reference(suite_rings):
    pool = default_formula_pool()
    batch = pool + (And(pool[2], pool[9]), Not(pool[12]))
    for ring in suite_rings:
        rng = random.Random(ring.size)
        elems = ring.elements
        envs = [{0: elems[rng.randrange(ring.size)],
                 1: elems[rng.randrange(ring.size)]} for _ in range(24)]
        envs += _split_envs(ring)
        envs += [{0: ring.zero, 1: ring.zero}, {1: ring.one, 0: ring.one}]
        assert list(boolean_values(ring, batch, envs)) == \
            [_reference_values(ring, batch, env) for env in envs], ring.label


def test_boolean_values_unbound_env_raises_when_reached(z6):
    f = parse_ring_formula("x0 = x1")
    values = boolean_values(z6, (f,), ({0: 0, 1: 0}, {0: 1}))
    assert next(values) == [1]
    with pytest.raises(UnboundVariableError, match="x1"):
        next(values)


def test_stored_free_variables_leave_equality_hash_and_repr():
    text = "E x2. x0*x2 = x1 & ~(x1 = 0)"
    a, b = parse_ring_formula(text), parse_ring_formula(text)
    assert a is not b
    before = [(x == y, hash(x), repr(x)) for x, y in ((a, b), (b, a))]
    assert free_variables(a) == free_variables(b) == {0, 1}
    assert free_variables(a) == {0, 1}  # the stored set, read back
    after = [(x == y, hash(x), repr(x)) for x, y in ((a, b), (b, a))]
    assert after == before
    assert str(a) == str(b) == text


def test_localize_assignment(z6):
    assert localize_assignment(z6, 4, {0: 5, 1: 3}) == {0: 2, 1: 0}


def test_axiom2_characterization(suite_rings):
    """The value is the unique idempotent whose atoms match stalk truth."""
    formulas = [parse_ring_formula(t) for t in
                ("x0 = 0", "E x1. x0*x1 = 1", "x0*x0 = x0", "x0+x0 = 0")]
    for ring in suite_rings[:5]:
        B = idempotent_algebra(ring)
        for f in formulas:
            for v in ring.elements:
                env = {0: v}
                value = boolean_value(ring, f, env)
                for e in atoms(ring):
                    local = localize_assignment(ring, e, env)
                    stalk_true = eval_direct(stalk(ring, e), f, local)
                    assert B.below(e, value) == stalk_true
                matches = [c for c in B.carrier if all(
                    B.below(e, c) == B.below(e, value) for e in B.atoms)]
                assert matches == [value]


def test_axiom4_instance_for_atomics(z6):
    # for atomic formulas: truth in R iff the value is 1
    for text in ("x0 = x1", "x0 = 0", "x0+x0 = 0", "x0*x1 = 1"):
        f = parse_ring_formula(text)
        for v0, v1 in itertools.product(z6.elements, repeat=2):
            env = {0: v0, 1: v1}
            assert eval_direct(z6, f, env) \
                == (boolean_value(z6, f, env) == 1)


def test_homomorphism_lemmas_exhaustive_z6(z6):
    B = idempotent_algebra(z6)
    pool = [parse_ring_formula(t) for t in
            ("x0 = 0", "x0 = 1", "x0*x0 = x0", "x0 = x1", "E x1. x0*x1 = 1")]
    for t1, t2 in itertools.product(pool, repeat=2):
        fv = free_variables(t1) | free_variables(t2)
        for vals in itertools.product(z6.elements, repeat=len(fv)):
            env = dict(zip(sorted(fv), vals))
            both, either, neg, v1, v2 = boolean_value_batch(
                z6, (And(t1, t2), Or(t1, t2), Not(t1), t1, t2), env)
            assert both == B.meet(v1, v2)
            assert either == B.join(v1, v2)
            assert neg == B.complement(v1)


def test_stalk_value_cache_matches_batch(z60):
    cells = tuple(parse_ring_formula(t) for t in
                  ("x0 = 0", "~(x0 = 0)", "E x1. x0*x1 = 1"))
    cache = StalkValueCache(z60, cells)
    B = idempotent_algebra(z60)
    for v in range(0, 60, 7):
        masks = cache.masks({0: v})
        values = boolean_value_batch(z60, cells, {0: v})
        assert [B.element_of_mask(mask) for mask in masks] == values


def test_signed_leaves_flatten_and_flip():
    a, b, c = (parse_ring_formula(t) for t in ("x0 = 0", "x1 = 1", "E x2. x2 = x0"))
    assert signed_leaves(And(And(a, Not(b)), Not(Not(c)))) \
        == ((a, True), (b, False), (c, True))
    assert signed_leaves(Not(And(a, b))) == ((And(a, b), False),)
    assert signed_leaves(Not(Not(And(a, b)))) == ((a, True), (b, True))
    assert signed_leaves(Or(a, b)) == ((Or(a, b), True),)


def _z12_as_tables():
    add = [[(a + b) % 12 for b in range(12)] for a in range(12)]
    mul = [[a * b % 12 for b in range(12)] for a in range(12)]
    return table_ring(add, mul, 0, 1, label="Z/12 as tables")


CACHE_CELLS = (
    "x0 = 0 | x1 = 1",                               # Or leaf
    "(x0 = 1 -> x1 = 0) & ~(A x2. x0*x2 = x2)",      # Implies, negated Forall
    "A x2. x2*x0 = x0 & x1 = x1",                    # Forall leaf
    "~~(E x2. x0*x2 = 1) & ~(x0 = 0 & x1 = 0)",      # ~~theta, negated And
    "x0*x0 = x0",                                    # only x0 ...
    "~(x1 + x1 = 0)",                                # ... only x1
    "E x0. x0*x0 = x0 & ~(x0 = 0) & ~(x0 = 1)",      # closed
    "~(A x0. x0 = 0)",                               # closed
    "x0 = 0 & ~(x0 = 0)",                            # a leaf with both signs
)


@pytest.mark.parametrize("ring", [
    modular_ring(12), product_ring([modular_ring(2), modular_ring(9)]),
    _z12_as_tables()], ids=["Z/12", "Z/2 x Z/9", "table"])
def test_stalk_value_cache_matches_batch_on_mixed_cells(ring):
    """Rows keyed by all cells' variables give each cell its own value."""
    rng = random.Random(5)
    elems = list(ring.elements)
    ring_atoms = atoms(ring)
    parsed = [parse_ring_formula(t) for t in CACHE_CELLS]
    parsed.append(Not(Not(parsed[0])))
    for trial in range(3):
        cells = tuple(rng.sample(parsed, k=rng.randrange(1, len(parsed) + 1)))
        cache = StalkValueCache(ring, cells)
        for _ in range(40):
            # x5 is bound but occurs in no cell
            env = {i: elems[rng.randrange(len(elems))] for i in (0, 1, 5)}
            expected = tuple(
                sum(1 << i for i, e in enumerate(ring_atoms) if ring.mul(e, v) == e)
                for v in boolean_value_batch(ring, cells, env))
            assert cache.masks(env) == expected
        # the bulk grid, over the cells' own variables and over a superset
        for vs in ((0, 1), (0, 1, 5)):
            grid = [cache.unpack(p) for p in cache.grid(vs)]
            assert grid == [cache.masks(dict(zip(vs, vals)))
                            for vals in itertools.product(elems, repeat=len(vs))]
    closed = StalkValueCache(ring, tuple(parsed[6:8]))
    for vs in ((), (3,), (0, 2)):
        grid = list(closed.grid(vs))
        assert len(grid) == len(elems) ** len(vs)
        assert set(grid) == {closed.packed({})}
        assert closed.unpack(grid[0]) == tuple(
            sum(1 << i for i, e in enumerate(ring_atoms) if ring.mul(e, v) == e)
            for v in boolean_value_batch(ring, parsed[6:8]))
