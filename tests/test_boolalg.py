"""Idempotent algebras, Boolean-formula evaluation, partitions, phi*."""

import itertools
import random

import pytest

from ringfv.boolalg import (eval_bool_formula, idempotent_algebra,
                            make_partition_formula, masks_form_partition,
                            phi_star)
from ringfv.formula import (ONE, ZERO, Add, And, BAnd, BEq, BExists, BForall,
                            BImplies, BNot, BOr, Bot, BVar, Complement, Eq,
                            Exists, Forall, Implies, Join, Meet, Mul, Not, Or,
                            Sub, TOP, Top, Var, format_bool_formula,
                            format_ring_formula, free_variables,
                            parse_bool_formula)
from ringfv.rings import idempotents, modular_ring, product_ring
from ringfv.semantics import UnboundVariableError, eval_direct


def test_algebra_z6(z6):
    B = idempotent_algebra(z6)
    assert B.carrier == (0, 1, 3, 4)
    assert B.atoms == (3, 4)
    assert B.meet(3, 4) == 0
    assert B.join(3, 4) == 1
    assert B.complement(3) == 4


def test_algebra_z60(z60):
    B = idempotent_algebra(z60)
    assert B.size == 8
    assert set(B.atoms) == {45, 40, 36}


def test_algebra_connected(z4):
    assert idempotent_algebra(z4).size == 2


def test_interpretation_table(suite_rings):
    # meet ef, join e+f-ef, complement 1-e, checked against ring arithmetic
    for ring in suite_rings:
        B = idempotent_algebra(ring)
        for e, f in itertools.product(B.carrier, repeat=2):
            assert B.meet(e, f) == ring.mul(e, f)
            assert B.join(e, f) == ring.sub(ring.add(e, f), ring.mul(e, f))
        for e in B.carrier:
            assert B.complement(e) == ring.sub(ring.one, e)


def test_masks_are_an_isomorphism(suite_rings):
    for ring in suite_rings:
        B = idempotent_algebra(ring)
        full = (1 << len(B.atoms)) - 1
        assert B.size == full + 1
        for e, f in itertools.product(B.carrier, repeat=2):
            assert B.atom_mask(B.meet(e, f)) == B.atom_mask(e) & B.atom_mask(f)
            assert B.atom_mask(B.join(e, f)) == B.atom_mask(e) | B.atom_mask(f)
        for e in B.carrier:
            assert B.atom_mask(B.complement(e)) == full ^ B.atom_mask(e)
            assert B.element_of_mask(B.atom_mask(e)) == e


def test_eval_bool_formula_examples(z6):
    B = idempotent_algebra(z6)
    part2 = make_partition_formula(1)
    assert eval_bool_formula(B, parse_bool_formula("y0 = 1"), {0: 1}) is True
    assert eval_bool_formula(B, part2, {0: 3, 1: 4}) is True
    assert eval_bool_formula(B, part2, {0: 3, 1: 3}) is False


def test_eval_bool_formula_quantifiers(z6):
    B = idempotent_algebra(z6)
    assert eval_bool_formula(B, parse_bool_formula("E y0. ~(y0 = 0) & ~(y0 = 1)"))
    assert not eval_bool_formula(
        B, parse_bool_formula("A y0. y0 = 0 | y0 = 1"))


def test_eval_bool_formula_unbound(z6):
    B = idempotent_algebra(z6)
    with pytest.raises(UnboundVariableError):
        eval_bool_formula(B, parse_bool_formula("y0 = 1"), {})


@pytest.mark.parametrize("text, names", [("y0 = 1", "y0"),
                                         ("y0 = y2", "y0, y2"),
                                         ("y1 ^ w0 = y0", "y0, y1, w0")])
def test_eval_bool_formula_unbound_lists_every_missing_name(z6, text, names):
    B = idempotent_algebra(z6)
    with pytest.raises(UnboundVariableError) as info:
        eval_bool_formula(B, parse_bool_formula(text), {})
    assert str(info.value) == f"unbound variable(s): {names}"


def test_eval_bool_agrees_with_ring_ops(suite_rings):
    """The mask evaluation matches term-by-term ring computation."""
    rng = random.Random(11)
    from test_formula import _random_bool_term

    def term_value(B, t, env):
        from ringfv.formula import BVar, Bot, Top, Meet, Join, Complement
        if isinstance(t, BVar):
            return env[t.index]
        if isinstance(t, Bot):
            return B.bot
        if isinstance(t, Top):
            return B.top
        if isinstance(t, Complement):
            return B.complement(term_value(B, t.body, env))
        l, r = term_value(B, t.left, env), term_value(B, t.right, env)
        return B.meet(l, r) if isinstance(t, Meet) else B.join(l, r)

    for ring in suite_rings[:5]:
        B = idempotent_algebra(ring)
        for _ in range(60):
            t1 = _random_bool_term(rng, 3)
            t2 = _random_bool_term(rng, 3)
            fv = free_variables(t1) | free_variables(t2)
            env = {i: B.carrier[rng.randrange(B.size)] for i in fv}
            expected = term_value(B, t1, env) == term_value(B, t2, env)
            assert eval_bool_formula(B, BEq(t1, t2), env) == expected


def test_make_partition_formula_shapes():
    assert format_bool_formula(make_partition_formula(0)) == "y0 = 1"
    assert format_bool_formula(make_partition_formula(1)) \
        == "(y0 v y1) = 1 & (y0 ^ y1) = 0"
    s = format_bool_formula(make_partition_formula(2))
    assert s.count("= 0") == 3 and s.count("= 1") == 1
    with pytest.raises(ValueError):
        make_partition_formula(-1)


def test_partition_type(z6):
    B = idempotent_algebra(z6)
    full = (1 << len(B.atoms)) - 1
    assert masks_form_partition([B.atom_mask(c) for c in (3, 4)], full)
    # zero cells allowed
    assert masks_form_partition([B.atom_mask(c) for c in (0, 1)], full)
    assert not masks_form_partition([B.atom_mask(c) for c in (3, 3)], full)
    assert not masks_form_partition([B.atom_mask(c) for c in (3,)], full)


def test_atomicity(suite_rings):
    # every nonzero element is the join of the atoms below it
    for ring in suite_rings:
        B = idempotent_algebra(ring)
        for f in B.carrier:
            if f == B.bot:
                continue
            below = [e for e in B.atoms if B.below(e, f)]
            assert below
            joined = B.bot
            for e in below:
                joined = B.join(joined, e)
            assert joined == f


def test_boolean_laws_exhaustive(suite_rings):
    for ring in suite_rings:
        B = idempotent_algebra(ring)
        for x, y, z in itertools.product(B.carrier, repeat=3):
            assert B.meet(x, B.join(y, z)) == B.join(B.meet(x, y), B.meet(x, z))
            assert B.complement(B.meet(x, y)) \
                == B.join(B.complement(x), B.complement(y))
        for x in B.carrier:
            assert B.meet(x, B.complement(x)) == B.bot
            assert B.join(x, B.complement(x)) == B.top


# --- phi_star ---

def test_phi_star_single_cell(z6):
    phi = parse_bool_formula("y0 = 1")
    star = phi_star(phi, 0)
    B = idempotent_algebra(z6)
    for v in B.carrier:
        assert eval_bool_formula(B, star, {0: v}) \
            == eval_bool_formula(B, phi, {0: v})


def test_phi_star_partition_argument(z6):
    # phi* of Part_2 holds exactly when some partition refines the bounds
    B = idempotent_algebra(z6)
    star = phi_star(make_partition_formula(1), 1)
    assert eval_bool_formula(B, star, {0: 3, 1: 4})
    assert eval_bool_formula(B, star, {0: 1, 1: 4})
    assert not eval_bool_formula(B, star, {0: 3, 1: 3})
    assert not eval_bool_formula(B, star, {0: 0, 1: 4})


def test_phi_star_on_connected_ring(z4):
    # in the two-element algebra phi* collapses to phi at partitions
    B = idempotent_algebra(z4)
    phi = parse_bool_formula("y0 = 1")
    star = phi_star(phi, 1)
    for v0, v1 in itertools.product(B.carrier, repeat=2):
        expect = any(
            w0 | w1 == 1 and w0 & w1 == 0
            and (w0 & B.atom_mask(v0)) == w0 and (w1 & B.atom_mask(v1)) == w1
            and w0 == 1
            for w0, w1 in itertools.product((0, 1), repeat=2))
        assert eval_bool_formula(B, star, {0: v0, 1: v1}) == expect


def test_phi_star_arity_errors():
    with pytest.raises(ValueError):
        phi_star(parse_bool_formula("y0 = 1 & y5 = 1"), 1)


def test_phi_star_fresh_variables():
    phi = parse_bool_formula("y0 <= y1")
    star = phi_star(phi, 1)
    assert free_variables(star) == {0, 1}


# --- interpretation into the ring language ---
#
# The reference reading of B-formulas: Boolean operations expand to their
# ring definitions and every quantifier is relativized to idempotents by
# an x*x = x guard, so eval_direct on the result must agree with
# eval_bool_formula.

def _idempotence_guard(index: int):
    return Eq(Mul(Var(index), Var(index)), Var(index))


def _ring_term(t):
    if isinstance(t, BVar):
        return Var(t.index)
    if isinstance(t, Bot):
        return ZERO
    if isinstance(t, Top):
        return ONE
    if isinstance(t, Complement):
        return Sub(ONE, _ring_term(t.body))
    l = _ring_term(t.left)
    r = _ring_term(t.right)
    if isinstance(t, Meet):
        return Mul(l, r)
    if isinstance(t, Join):
        return Sub(Add(l, r), Mul(l, r))
    raise TypeError(f"not a Boolean term: {t!r}")


def bool_to_ring_formula(f):
    if isinstance(f, BEq):
        return Eq(_ring_term(f.left), _ring_term(f.right))
    if isinstance(f, BNot):
        return Not(bool_to_ring_formula(f.body))
    if isinstance(f, BAnd):
        return And(bool_to_ring_formula(f.left), bool_to_ring_formula(f.right))
    if isinstance(f, BOr):
        return Or(bool_to_ring_formula(f.left), bool_to_ring_formula(f.right))
    if isinstance(f, BImplies):
        return Implies(bool_to_ring_formula(f.left), bool_to_ring_formula(f.right))
    if isinstance(f, BExists):
        return Exists(f.var, And(_idempotence_guard(f.var), bool_to_ring_formula(f.body)))
    if isinstance(f, BForall):
        return Forall(f.var, Implies(_idempotence_guard(f.var), bool_to_ring_formula(f.body)))
    raise TypeError(f"not a Boolean formula: {f!r}")


@pytest.mark.parametrize("text,expected", [
    ("y0 = 1", "x0 = 1"),
    ("~y0 = y1", "1-x0 = x1"),
    ("E y0. y0 = 0", "E x0. x0*x0 = x0 & x0 = 0"),
])
def test_bool_to_ring_formula_shapes(text, expected):
    assert format_ring_formula(bool_to_ring_formula(parse_bool_formula(text))) \
        == expected


@pytest.mark.parametrize("text", [
    "y0 = 1", "~y0 = y1", "E y0. y0 = 0", "y0 <= y1",
    "(y0 v y1) = 1", "A y2. y2 ^ y0 = y2 -> y2 <= y0",
    "E y2. y2 <= y0 & ~(y2 = 0)", "part2(y0, y1)",
    "A y2. E y3. y3 <= y2",
])
def test_bool_to_ring_soundness(text, suite_rings):
    f = parse_bool_formula(text)
    rf = bool_to_ring_formula(f)
    fv = sorted(free_variables(f))
    for ring in suite_rings[:5]:
        B = idempotent_algebra(ring)
        for vals in itertools.product(B.carrier, repeat=len(fv)):
            env = dict(zip(fv, vals))
            assert eval_bool_formula(B, f, env) == eval_direct(ring, rf, env)
