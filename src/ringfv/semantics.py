"""Brute-force first-order evaluation, and Boolean values computed in stalks.

eval_direct is the independent oracle for the whole artifact: plain
Tarskian satisfaction with quantifiers enumerated over the full carrier,
short-circuited but otherwise unoptimized on purpose.
"""

from __future__ import annotations

from .formula import (Add, And, Eq, Exists, Forall, Implies, Mul, Not, One,
                      Or, RingFormula, Sub, Var, Zero, free_variables)
from .rings import FiniteRing, atom_stalks, atoms

_MISSING = object()


class UnboundVariableError(ValueError):
    pass


def _check_env(formula, env):
    missing = free_variables(formula) - env.keys()
    if missing:
        names = ", ".join(f"x{i}" for i in sorted(missing))
        raise UnboundVariableError(f"unbound variable(s): {names}")


def eval_term(ring: FiniteRing, term, env):
    if isinstance(term, Var):
        try:
            return env[term.index]
        except KeyError:
            raise UnboundVariableError(f"unbound variable x{term.index}") from None
    if isinstance(term, Zero):
        return ring.zero
    if isinstance(term, One):
        return ring.one
    a = eval_term(ring, term.left, env)
    b = eval_term(ring, term.right, env)
    if isinstance(term, Add):
        return ring.add(a, b)
    if isinstance(term, Sub):
        return ring.sub(a, b)
    if isinstance(term, Mul):
        return ring.mul(a, b)
    raise TypeError(f"not a ring term: {term!r}")


def eval_direct(ring: FiniteRing, formula: RingFormula, env=None) -> bool:
    """Classical satisfaction of a ring formula under an assignment."""
    env = dict(env) if env else {}
    _check_env(formula, env)
    return _eval(ring, formula, env)


def _eval(ring, f, env):
    if isinstance(f, Eq):
        return eval_term(ring, f.left, env) == eval_term(ring, f.right, env)
    if isinstance(f, Not):
        return not _eval(ring, f.body, env)
    if isinstance(f, And):
        return _eval(ring, f.left, env) and _eval(ring, f.right, env)
    if isinstance(f, Or):
        return _eval(ring, f.left, env) or _eval(ring, f.right, env)
    if isinstance(f, Implies):
        return not _eval(ring, f.left, env) or _eval(ring, f.right, env)
    if isinstance(f, (Exists, Forall)):
        want = isinstance(f, Exists)
        var, body = f.var, f.body
        saved = env.get(var, _MISSING)
        result = not want
        for x in ring.elements:
            env[var] = x
            if _eval(ring, body, env) == want:
                result = want
                break
        if saved is _MISSING:
            del env[var]
        else:
            env[var] = saved
        return result
    raise TypeError(f"not a ring formula: {f!r}")


def localize_assignment(ring: FiniteRing, e, env) -> dict:
    """Push an assignment into the stalk at e: every value f becomes ef."""
    return {i: ring.mul(e, v) for i, v in env.items()}


def boolean_value(ring: FiniteRing, formula: RingFormula, env=None):
    """The join of all atoms whose stalks satisfy the formula locally.

    This is the unique idempotent b such that, for every atom e,
    e <= b iff the stalk at e satisfies the formula at the localized
    assignment; uniqueness holds because the finite algebra is atomic.
    """
    return boolean_value_batch(ring, (formula,), env)[0]


def boolean_value_batch(ring: FiniteRing, formulas, env=None) -> list:
    """Elementwise boolean_value with the stalks walked once."""
    env = dict(env) if env else {}
    formulas = tuple(formulas)
    for f in formulas:
        _check_env(f, env)
    values = [ring.zero] * len(formulas)
    for e, st in zip(atoms(ring), atom_stalks(ring)):
        local = localize_assignment(ring, e, env)
        for i, f in enumerate(formulas):
            if _eval(st, f, dict(local)):
                values[i] = ring.join_idempotents(values[i], e)
    return values


class StalkValueCache:
    """Boolean values of a fixed cell tuple, memoized per stalk.

    A cell's truth in a stalk depends only on the localized assignment
    restricted to the cell's free variables, so verdicts are cached per
    (cell, projected assignment).  masks() returns, per cell, the set of
    atoms whose stalks satisfy it, encoded as a bitmask in atom order;
    that set determines the Boolean value (join of those atoms).
    """

    def __init__(self, ring: FiniteRing, cells):
        self.ring = ring
        self.cells = tuple(cells)
        self.atoms = atoms(ring)
        self.stalks = atom_stalks(ring)
        self.full = (1 << len(self.atoms)) - 1
        self._cell_vars = [tuple(sorted(free_variables(c))) for c in self.cells]
        self._memo = [dict() for _ in self.stalks]

    def masks(self, env) -> tuple:
        out = [0] * len(self.cells)
        mul = self.ring.mul
        for ai, st in enumerate(self.stalks):
            e = st.unit
            local = {i: mul(e, v) for i, v in env.items()}
            memo = self._memo[ai]
            for ci, cell in enumerate(self.cells):
                key = (ci,) + tuple(local[i] for i in self._cell_vars[ci])
                hit = memo.get(key)
                if hit is None:
                    hit = _eval(st, cell, {i: local[i] for i in self._cell_vars[ci]})
                    memo[key] = hit
                if hit:
                    out[ci] |= 1 << ai
        return tuple(out)
