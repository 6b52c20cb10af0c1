"""Brute-force first-order evaluation, and Boolean values computed in stalks.

eval_direct is the independent oracle for the whole artifact: plain
Tarskian satisfaction with quantifiers enumerated over the full carrier.
The tree walk dispatches on each node's exact class and is short-circuited
but otherwise uncached on purpose, so it shares no memo with the stalk
layer it checks.
"""

from __future__ import annotations

import itertools
from operator import or_

from .formula import (Add, And, Eq, Exists, Forall, Implies, Mul, Not, One,
                      Or, RingFormula, Sub, Var, Zero, free_variables)
from .rings import FiniteRing, atom_joins, atom_stalks

_MISSING = object()


class UnboundVariableError(ValueError):
    pass


def _check_env(formula, env):
    fv = free_variables(formula)
    if not env.keys() >= fv:
        missing = fv - env.keys()
        names = ", ".join(f"x{i}" for i in sorted(missing))
        raise UnboundVariableError(f"unbound variable(s): {names}")


def eval_term(ring: FiniteRing, term, env):
    cls = type(term)
    if cls is Var:
        try:
            return env[term.index]
        except KeyError:
            raise UnboundVariableError(f"unbound variable x{term.index}") from None
    if cls is Mul:
        return ring.mul(eval_term(ring, term.left, env), eval_term(ring, term.right, env))
    if cls is Add:
        return ring.add(eval_term(ring, term.left, env), eval_term(ring, term.right, env))
    if cls is Sub:
        return ring.sub(eval_term(ring, term.left, env), eval_term(ring, term.right, env))
    if cls is Zero:
        return ring.zero
    if cls is One:
        return ring.one
    raise TypeError(f"not a ring term: {term!r}")


def eval_direct(ring: FiniteRing, formula: RingFormula, env=None) -> bool:
    """Classical satisfaction of a ring formula under an assignment."""
    env = dict(env) if env else {}
    _check_env(formula, env)
    return _eval(ring, formula, env)


def _eval(ring, f, env):
    """Satisfaction of f under env; env ends as it began, in keys, order
    and values, because a quantifier restores the binding it overwrote."""
    cls = type(f)
    if cls is Eq:
        return eval_term(ring, f.left, env) == eval_term(ring, f.right, env)
    if cls is And:
        return _eval(ring, f.left, env) and _eval(ring, f.right, env)
    if cls is Not:
        return not _eval(ring, f.body, env)
    if cls is Exists or cls is Forall:
        want = cls is Exists
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
    if cls is Or:
        return _eval(ring, f.left, env) or _eval(ring, f.right, env)
    if cls is Implies:
        return not _eval(ring, f.left, env) or _eval(ring, f.right, env)
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
    """Elementwise boolean_value at one assignment: the list of the
    formulas' Boolean values, the one-env case of boolean_values."""
    return next(boolean_values(ring, formulas, (env or {},)))


def boolean_values(ring: FiniteRing, formulas, envs):
    """Yield the list of the formulas' Boolean values at each env in turn.

    Every env must bind the formulas' free variables; an env that does not
    raises UnboundVariableError when it is reached.  Each env is localized
    through every stalk's x -> ex table (Stalk.localized).  A stalk's verdict
    row, the formulas' truth in that stalk, depends only on the localized
    (var, value) tuple, so each stalk memoizes its rows by that tuple for
    the whole call; on a miss every formula runs through _eval on one shared
    localized env, which _eval leaves as it found it.  A row is a packed
    int, bit i*atoms + a set when formula i holds in atom a's stalk, so the
    rows of all stalks OR into the atom masks, and each mask becomes its
    idempotent through the ring's join table (rings.atom_joins).
    """
    formulas = tuple(formulas)
    stalks = atom_stalks(ring)
    width = len(stalks)
    full = (1 << width) - 1
    shifts = range(0, len(formulas) * width, width)
    joins = atom_joins(ring)
    needed = set().union(*map(free_variables, formulas))
    per_stalk = [(st, st.localized, 1 << a, {}) for a, st in enumerate(stalks)]
    for env in envs:
        if not env.keys() >= needed:
            for f in formulas:
                _check_env(f, env)
        packed = 0
        for st, local, bit, memo in per_stalk:
            key = tuple([(var, local[x]) for var, x in env.items()])
            row = memo.get(key)
            if row is None:
                st_env = dict(key)
                row = 0
                for shift, f in zip(shifts, formulas):
                    if _eval(st, f, st_env):
                        row |= bit << shift
                memo[key] = row
            packed |= row
        yield [joins[packed >> shift & full] for shift in shifts]


def signed_leaves(formula) -> tuple:
    """The formula read as a conjunction of signed leaves, left to right.

    And is flattened under a positive sign and Not flips the sign; anything
    else (Eq, a quantifier, Or, Implies, a negated And) is one leaf.  The
    formula holds iff every leaf evaluates to its sign.
    """
    out, stack = [], [(formula, True)]
    while stack:
        f, positive = stack.pop()
        if isinstance(f, Not):
            stack.append((f.body, not positive))
        elif positive and isinstance(f, And):
            stack += ((f.right, True), (f.left, True))
        else:
            out.append((f, positive))
    return tuple(out)


class StalkValueCache:
    """Boolean values of a fixed cell tuple, memoized per stalk.

    Leaves: each cell is read as a conjunction of signed leaves
    (signed_leaves), and the distinct leaves of all cells are numbered once,
    so a cell is a pair of leaf bitsets, the leaves that must hold and the
    leaves that must fail.

    Rows: a cell's truth in a stalk depends only on the localized
    assignment, so each stalk memoizes one row per localized tuple of the
    cells' free variables, read off the distinct leaves.  On a miss every
    distinct leaf is evaluated once with _eval.  A row is one packed int:
    bit j*atoms + a is set when cell j holds in atom a's stalk, so a stalk's
    row only has bits of its own atom.

    Localization goes through the stalk's x -> ex table (Stalk.localized),
    which fills on demand.  packed() ORs the rows of all stalks at one
    assignment and grid() at every assignment of a variable list; unpack()
    turns a packed value into the tuple of per-cell atom masks (bit a of
    mask j is bit j*atoms + a), and masks() is unpack(packed()).  A cell's
    atom mask determines its Boolean value (the join of those atoms).
    """

    def __init__(self, ring: FiniteRing, cells):
        stalks = atom_stalks(ring)
        self.atoms = len(stalks)
        self.full = (1 << self.atoms) - 1
        self._elements = ring.elements
        # leaves are numbered by object, and by structure only on the first
        # sight of each object, so the sign-pattern cells' shared candidate
        # objects are hashed once, not once per cell
        by_id, index = {}, {}
        self._signs = []
        for cell in cells:
            pos = neg = 0
            for leaf, positive in signed_leaves(cell):
                number = by_id.get(id(leaf))
                if number is None:
                    number = by_id[id(leaf)] = index.setdefault(leaf, len(index))
                bit = 1 << number
                if positive:
                    pos |= bit
                else:
                    neg |= bit
            self._signs.append((pos, neg))
        self._leaves = tuple(index)
        self._shifts = range(0, len(self._signs) * self.atoms, self.atoms)
        # a cell's free variables are exactly those of its signed leaves
        self._vars = tuple(sorted(set().union(*map(free_variables, self._leaves))))
        self._stalks = [(st, 1 << ai, {}) for ai, st in enumerate(stalks)]

    def _row(self, st, bit, key) -> int:
        env = dict(zip(self._vars, key))
        truth = 0
        for li, leaf in enumerate(self._leaves):
            if _eval(st, leaf, env):
                truth |= 1 << li
        row = 0
        for pos, neg in reversed(self._signs):
            row <<= self.atoms
            if truth & pos == pos and not truth & neg:
                row |= bit
        return row

    def packed(self, env) -> int:
        values = [env[i] for i in self._vars]
        out = 0
        for st, bit, memo in self._stalks:
            local = st.localized
            key = tuple([local[v] for v in values])
            row = memo.get(key)
            if row is None:
                row = memo[key] = self._row(st, bit, key)
            out |= row
        return out

    def unpack(self, packed: int) -> tuple:
        full = self.full
        return tuple([packed >> shift & full for shift in self._shifts])

    def masks(self, env) -> tuple:
        return self.unpack(self.packed(env))

    def grid(self, variables):
        """packed() at every assignment of the ring's elements to variables,
        in itertools.product order; variables must include the cells' own.

        Per stalk, every element is localized once and the rows of all
        localized tuples are filled, so the per-assignment lookups and the
        OR across stalks run inside map and product.
        """
        variables = tuple(variables)
        used = [v in self._vars for v in variables]
        if sum(used) != len(self._vars):
            raise ValueError(f"grid over {variables} misses a cell variable "
                             f"of {self._vars}")
        out = None
        for st, bit, memo in self._stalks:
            local = list(map(st.localized.__getitem__, self._elements))
            distinct = tuple(dict.fromkeys(local))
            # an unused variable sits at None in the keys, so it takes
            # every ring value without multiplying the rows
            table = {}
            for key in itertools.product(*[distinct if u else (None,) for u in used]):
                short = tuple([k for k, u in zip(key, used) if u])
                row = memo.get(short)
                if row is None:
                    row = memo[short] = self._row(st, bit, short)
                table[key] = row
            rows = map(table.__getitem__, itertools.product(
                *[local if u else (None,) * len(local) for u in used]))
            out = rows if out is None else map(or_, out, rows)
        return out
