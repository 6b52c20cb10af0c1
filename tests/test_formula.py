"""Parser, printer and structural utilities for both languages."""

import random

import pytest

from ringfv.formula import (
    Add, And, BAnd, BEq, BExists, BForall, BNot, BOr, BImplies, BOT, BVar,
    Bot, Complement, Eq, Exists, Forall, Implies, Join, Meet, Mul, Not, ONE,
    Or, ParseError, Sub, TOP, Top, Var, W_OFFSET, ZERO, Zero, One, ast_size,
    canonical_relabel, canonicalize, children, format_bool_formula,
    format_ring_formula, free_variables, join_all, max_var_index,
    numeral, parse_bool_formula, parse_ring_formula, quantifier_depth,
    rebuild, substitute, substitute_bool)
from ringfv.rings import modular_ring
from ringfv.semantics import eval_direct


# --- parsing: ring language ---

def test_parse_idempotent_probe():
    f = parse_ring_formula("E x0. x0*x0 = x0 & ~(x0 = 0) & ~(x0 = 1)")
    v = Var(0)
    assert f == Exists(0, And(And(Eq(Mul(v, v), v), Not(Eq(v, ZERO))),
                              Not(Eq(v, ONE))))


def test_parse_trivial_equation():
    assert parse_ring_formula("0 = 0") == Eq(ZERO, ZERO)


def test_parse_numerals_desugar():
    three = Add(Add(ONE, ONE), ONE)
    assert parse_ring_formula("3 = 1+1+1") == Eq(three, three)


def test_leading_zeros_do_not_count_toward_the_digit_limit():
    assert parse_ring_formula("0004096 = 0") == Eq(numeral(4096), ZERO)
    assert parse_ring_formula("0" * 5000 + "7 = x" + "0" * 5000 + "3") \
        == Eq(numeral(7), Var(3))


@pytest.mark.parametrize("k", [*range(9), 4096])
def test_numeral_round_trip(k):
    assert parse_ring_formula(f"{k} = 0") == Eq(numeral(k), ZERO)
    assert parse_ring_formula(format_ring_formula(Eq(numeral(k), ZERO))) \
        == Eq(numeral(k), ZERO)


def test_precedence_and_associativity():
    f = parse_ring_formula("x0 = 0 | x1 = 0 & x2 = 0 -> x3 = 0")
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.right, And)
    g = parse_ring_formula("x0 = 0 & x1 = 0 & x2 = 0")
    assert g == And(And(Eq(Var(0), ZERO), Eq(Var(1), ZERO)), Eq(Var(2), ZERO))


def test_quantifier_body_extends_right():
    f = parse_ring_formula("E x0. x0 = 0 & x0 = 1")
    assert isinstance(f, Exists) and isinstance(f.body, And)


def test_negation_is_formula_level_in_ring_language():
    assert parse_ring_formula("~x0 = 0") == Not(Eq(Var(0), ZERO))


def test_term_parentheses():
    f = parse_ring_formula("(x0+x1)*x2 = x0*x2+x1*x2")
    assert isinstance(f.left, Mul) and isinstance(f.left.left, Add)


@pytest.mark.parametrize("bad", [
    "", "x0 =", "q0 = 0", "x0 == 0", "E x0 x0 = 0", "x0 = 0 &", "x = 0",
    "(x0 = 0", "E 3. x0 = 0",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_ring_formula(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_ring_formula("x0 = 0 & y1 = 0")
    assert exc.value.column == 10


# --- parsing: Boolean language ---

def test_parse_bool_top_equation():
    assert parse_bool_formula("y0 = 1") == BEq(BVar(0), TOP)


def test_parse_leq_sugar():
    assert parse_bool_formula("y0 <= y1") == BEq(Meet(BVar(0), BVar(1)), BVar(0))


def test_parse_part_macro_expansion():
    f = parse_bool_formula("E w0. E w1. part2(w0,w1) & w0 <= y0")
    w0, w1 = BVar(W_OFFSET), BVar(W_OFFSET + 1)
    expected = BExists(W_OFFSET, BExists(W_OFFSET + 1, BAnd(
        BAnd(BEq(Join(w0, w1), TOP), BEq(Meet(w0, w1), BOT)),
        BEq(Meet(w0, BVar(0)), w0))))
    assert f == expected


def test_complement_binds_to_term():
    assert parse_bool_formula("~y0 = y1") == BEq(Complement(BVar(0)), BVar(1))
    assert parse_bool_formula("~(y0 = y1)") == BNot(BEq(BVar(0), BVar(1)))


def test_bool_constants_limited():
    with pytest.raises(ParseError):
        parse_bool_formula("y0 = 2")
    with pytest.raises(ParseError):
        parse_bool_formula("part2(y0)")


# --- canonicalization ---

def test_canonicalize_forall():
    v = Var(0)
    assert canonicalize(Forall(0, Eq(v, v))) == Not(Exists(0, Not(Eq(v, v))))


def test_canonicalize_or_de_morgan():
    a, b = Eq(Var(0), ZERO), Eq(Var(1), ZERO)
    assert canonicalize(Or(a, b)) == Not(And(Not(a), Not(b)))


def test_canonicalize_fixes_atomic():
    f = Eq(Var(0), ONE)
    assert canonicalize(f) == f


def is_canonical(f) -> bool:
    """Whether f lies in the Eq/Not/And/Exists fragment."""
    if isinstance(f, Eq):
        return True
    if isinstance(f, And):
        return is_canonical(f.left) and is_canonical(f.right)
    return isinstance(f, (Not, Exists)) and is_canonical(f.body)


@pytest.mark.parametrize("text", [
    "x0 = 0 -> x1 = 0", "A x0. x0 = 0 | x0 = 1", "~(x0 = 0 -> x0 = 1)",
    "A x0. E x1. x0*x1 = x0", "~~(x0 = 0)",
])
def test_canonicalize_idempotent_and_canonical(text):
    f = parse_ring_formula(text)
    c = canonicalize(f)
    assert is_canonical(c)
    assert canonicalize(c) == c
    assert free_variables(c) == free_variables(f)


def test_canonicalize_preserves_semantics(z6):
    rng = random.Random(7)
    for _ in range(120):
        f = _random_ring_formula(rng, 3)
        env = {i: rng.randrange(6) for i in free_variables(f)}
        assert eval_direct(z6, f, env) == eval_direct(z6, canonicalize(f), env)


# --- free variables and substitution ---

def test_free_variables_examples():
    assert free_variables(Exists(0, Eq(Var(0), Var(1)))) == {1}
    assert free_variables(Eq(ZERO, ONE)) == frozenset()
    f = And(Eq(Var(0), Var(0)), Exists(0, Eq(Var(0), Var(2))))
    assert free_variables(f) == {0, 2}


def test_substitute_examples():
    assert substitute(Eq(Var(0), Var(1)), 0, ONE) == Eq(ONE, Var(1))
    bound = Exists(0, Eq(Var(0), Var(0)))
    assert substitute(bound, 0, ZERO) == bound


def test_substitute_avoids_capture():
    f = substitute(Exists(1, Eq(Var(0), Var(1))), 0, Var(1))
    assert isinstance(f, Exists) and f.var != 1
    assert f.body == Eq(Var(1), Var(f.var))


def test_substitute_bool_capture():
    f = BExists(2, BEq(Meet(BVar(0), BVar(2)), BVar(0)))
    g = substitute_bool(f, {0: BVar(2)})
    assert isinstance(g, BExists) and g.var != 2
    assert g.body == BEq(Meet(BVar(2), BVar(g.var)), BVar(2))


def test_canonical_relabel_merges_renamings():
    a = parse_ring_formula("x1 = 0 & (E x3. x3 = x1)")
    b = parse_ring_formula("x0 = 0 & (E x7. x7 = x0)")
    assert canonical_relabel(a) == canonical_relabel(b)
    assert canonical_relabel(parse_ring_formula("x0 = x1")) \
        == canonical_relabel(parse_ring_formula("x1 = x0"))


def test_relabel_keeps_free_and_bound_apart():
    f = parse_ring_formula("E x9. x9 = x5")
    g = canonical_relabel(f)
    assert free_variables(g) == {0}
    assert g == Exists(1, Eq(Var(1), Var(0)))


# --- printing round trips ---

def _random_ring_term(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([ZERO, ONE, Var(rng.randrange(3))])
    cls = rng.choice([Add, Sub, Mul])
    return cls(_random_ring_term(rng, depth - 1), _random_ring_term(rng, depth - 1))


def _random_ring_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Eq(_random_ring_term(rng, 2), _random_ring_term(rng, 2))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_ring_formula(rng, depth - 1))
    if kind < 4:
        cls = (And, Or, Implies)[kind - 1]
        return cls(_random_ring_formula(rng, depth - 1),
                   _random_ring_formula(rng, depth - 1))
    cls = Exists if kind == 4 else Forall
    return cls(rng.randrange(3), _random_ring_formula(rng, depth - 1))


def _random_bool_term(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        idx = rng.randrange(3)
        if rng.random() < 0.2:
            idx += W_OFFSET
        return rng.choice([BOT, TOP, BVar(idx)])
    kind = rng.randrange(3)
    if kind == 0:
        return Complement(_random_bool_term(rng, depth - 1))
    cls = Meet if kind == 1 else Join
    return cls(_random_bool_term(rng, depth - 1), _random_bool_term(rng, depth - 1))


def _random_bool_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return BEq(_random_bool_term(rng, 2), _random_bool_term(rng, 2))
    kind = rng.randrange(6)
    if kind == 0:
        return BNot(_random_bool_formula(rng, depth - 1))
    if kind < 4:
        cls = (BAnd, BOr, BImplies)[kind - 1]
        return cls(_random_bool_formula(rng, depth - 1),
                   _random_bool_formula(rng, depth - 1))
    cls = BExists if kind == 4 else BForall
    return cls(rng.randrange(3), _random_bool_formula(rng, depth - 1))


def test_ring_print_parse_round_trip():
    rng = random.Random(2026)
    for _ in range(400):
        f = _random_ring_formula(rng, 4)
        assert parse_ring_formula(format_ring_formula(f)) == f


def test_bool_print_parse_round_trip():
    rng = random.Random(2027)
    for _ in range(400):
        f = _random_bool_formula(rng, 4)
        assert parse_bool_formula(format_bool_formula(f)) == f


def test_leq_resugars():
    f = BEq(Meet(BVar(0), BVar(1)), BVar(0))
    assert format_bool_formula(f) == "y0 <= y1"


def test_structural_measures():
    f = parse_ring_formula("E x0. E x1. x0*x1 = 1")
    assert quantifier_depth(f) == 2
    assert ast_size(f) == 7
    assert quantifier_depth(parse_ring_formula("0 = 0")) == 0
    eq = f.body.body
    assert children(eq) == (Mul(Var(0), Var(1)), ONE)
    assert children(f) == (f.body,) and children(Not(eq)) == (eq,)
    assert children(Complement(BVar(0))) == (BVar(0),)
    assert children(Var(0)) == children(ZERO) == children(TOP) == ()
    assert rebuild(f.body, (Not(eq),)) == Exists(1, Not(eq))
    assert rebuild(eq, (ONE, ZERO)) == Eq(ONE, ZERO)
    assert rebuild(BVar(3), ()) == BVar(3)
    y0, y1, y2 = BVar(0), BVar(1), BVar(2)
    assert join_all([y0, y1, y2]) == Join(Join(y0, y1), y2)


# --- traversal properties on random formulas ---

def _random_formulas(seed, count=300):
    rng = random.Random(seed)
    return [_random_ring_formula(rng, 4) for _ in range(count)], \
        [_random_bool_formula(rng, 4) for _ in range(count)]


def test_canonical_relabel_properties():
    ring_fs, _ = _random_formulas(11)
    for f in ring_fs:
        g = canonical_relabel(f)
        assert canonical_relabel(g) == g
        assert ast_size(g) == ast_size(f)
        assert quantifier_depth(g) == quantifier_depth(f)
        assert free_variables(g) == set(range(len(free_variables(f))))


def test_identity_substitution_and_var_bounds():
    ring_fs, bool_fs = _random_formulas(12)
    for f in ring_fs:
        for v in range(4):
            assert substitute(f, v, Var(v)) == f
    for f in bool_fs:
        for v in (0, 1, 2, 3, W_OFFSET):
            assert substitute_bool(f, {v: BVar(v)}) == f
    for f in ring_fs + bool_fs:
        assert max_var_index(f) >= max(free_variables(f), default=-1)


def test_structural_equality_and_hash():
    first, second = _random_formulas(13, 50), _random_formulas(13, 50)
    for xs, ys in zip(first, second):
        for x, y in zip(xs, ys):
            assert x is not y and x == y and hash(x) == hash(y)
    assert Var(0) != BVar(0) and Eq(ZERO, ONE) != BEq(BOT, TOP)
