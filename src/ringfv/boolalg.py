"""The Boolean algebra of idempotents and evaluation of Boolean formulas.

The finite algebra is atomic, so the map sending an idempotent to the set
of atoms below it is an isomorphism onto the powerset of the atoms.
atom_mask reads it by a ring.mul scan and element_of_mask inverts it by
ring joins (rings.atom_joins), so the axiom checkers compare the two.
eval_bool_formula works on the powerset picture (bitmask per element)
and reads every quantifier literally, over all 2^atoms masks; tests pin it
against the ring-operation reading of the same formulas.

eval_psi gives the same verdicts faster.  It decides each phi_star block
(some partition w_0..w_m with w_j <= t_j satisfies phi) by walking the
assignments of atoms to cells, because those are exactly the partitions
of a finite atomic algebra (the finite Feferman-Vaught reduction): at most
(m+1)^atoms steps instead of (2^atoms)^(m+1); any other quantifier goes to
the literal reader.  Axiom 5's checker decides its patching side, phi* at
the cells' values, with eval_psi too.
"""

from __future__ import annotations

import functools
import itertools

from .formula import (BAnd, BEq, BExists, BForall, BImplies, BNot, BOr, Bot,
                      BoolFormula, BVar, Complement, Join, Meet, Top,
                      _var_name, free_variables, leq, max_var_index,
                      partition_conditions, substitute_bool)
from .rings import FiniteRing, atom_joins, atoms, idempotents
from .semantics import UnboundVariableError

_MISSING = object()


class IdempotentAlgebra:
    """The algebra B of idempotents of a ring, with the derived operations."""

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.carrier = idempotents(ring)
        self.atoms = atoms(ring)
        self.bot = ring.zero
        self.top = ring.one
        mask_of = {}
        for f in self.carrier:
            m = 0
            for i, e in enumerate(self.atoms):
                if ring.mul(e, f) == e:
                    m |= 1 << i
            mask_of[f] = m
        if len(set(mask_of.values())) != len(self.carrier) or \
                len(self.carrier) != 1 << len(self.atoms):
            raise ValueError(f"idempotents of {ring.label} do not form "
                             "an atomic Boolean algebra")  # unreachable for genuine rings
        self._mask_of = mask_of
        self._joins = atom_joins(ring)

    @property
    def size(self) -> int:
        return len(self.carrier)

    def meet(self, e, f):
        return self.ring.mul(e, f)

    def join(self, e, f):
        return self.ring.join_idempotents(e, f)

    def complement(self, e):
        return self.ring.complement_idempotent(e)

    def below(self, e, f) -> bool:
        return self.ring.mul(e, f) == e

    def atom_mask(self, e) -> int:
        try:
            return self._mask_of[e]
        except KeyError:
            raise ValueError(f"{e} is not an idempotent of {self.ring.label}") from None

    def element_of_mask(self, mask: int):
        return self._joins[mask]

    def __repr__(self):
        return f"<IdempotentAlgebra of {self.ring.label}, {self.size} elements>"


@functools.lru_cache(maxsize=None)
def idempotent_algebra(ring: FiniteRing) -> IdempotentAlgebra:
    return IdempotentAlgebra(ring)


def _term_mask(t, menv, full):
    if isinstance(t, BVar):
        try:
            return menv[t.index]
        except KeyError:
            raise UnboundVariableError(f"unbound variable y{t.index}") from None
    if isinstance(t, Bot):
        return 0
    if isinstance(t, Top):
        return full
    if isinstance(t, Complement):
        return full ^ _term_mask(t.body, menv, full)
    l = _term_mask(t.left, menv, full)
    r = _term_mask(t.right, menv, full)
    if isinstance(t, Meet):
        return l & r
    if isinstance(t, Join):
        return l | r
    raise TypeError(f"not a Boolean term: {t!r}")


def _beval(f, menv, full):
    if isinstance(f, BEq):
        return _term_mask(f.left, menv, full) == _term_mask(f.right, menv, full)
    if isinstance(f, BNot):
        return not _beval(f.body, menv, full)
    if isinstance(f, BAnd):
        return _beval(f.left, menv, full) and _beval(f.right, menv, full)
    if isinstance(f, BOr):
        return _beval(f.left, menv, full) or _beval(f.right, menv, full)
    if isinstance(f, BImplies):
        return not _beval(f.left, menv, full) or _beval(f.right, menv, full)
    if isinstance(f, (BExists, BForall)):
        want = isinstance(f, BExists)
        var, body = f.var, f.body
        saved = menv.get(var, _MISSING)
        result = not want
        for mask in range(full + 1):
            menv[var] = mask
            if _beval(body, menv, full) == want:
                result = want
                break
        if saved is _MISSING:
            del menv[var]
        else:
            menv[var] = saved
        return result
    raise TypeError(f"not a Boolean formula: {f!r}")


def eval_bool_formula(algebra: IdempotentAlgebra, formula: BoolFormula, env=None) -> bool:
    """Satisfaction in B; quantifiers range over the whole finite carrier."""
    env = env or {}
    missing = free_variables(formula) - env.keys()
    if missing:
        names = ", ".join(_var_name(i) for i in sorted(missing))
        raise UnboundVariableError(f"unbound variable(s): {names}")
    full = (1 << len(algebra.atoms)) - 1
    menv = {i: algebra.atom_mask(v) for i, v in env.items()}
    return _beval(formula, menv, full)


def make_partition_formula(m: int) -> BoolFormula:
    """Part_{m+1}(y_0..y_m): the join is 1 and the pairwise meets are 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return partition_conditions([BVar(i) for i in range(m + 1)])


def phi_star(phi: BoolFormula, m: int) -> BoolFormula:
    """The patching transform phi*(v_0..v_m).

    Asserts that some partition w_0..w_m refines the arguments cellwise
    (w_j <= v_j) with phi holding at the w's.  The w's get fresh indices
    above everything in phi.  m comes from the cell sequence, which may be
    longer than the variables phi happens to mention.  eval_psi recognizes
    this shape through partition_block.
    """
    if any(v > m for v in free_variables(phi)):
        raise ValueError(f"free variables of phi exceed v0..v{m}")
    base = max(max_var_index(phi) + 1, m + 1)
    ws = range(base, base + m + 1)
    return patching_block(ws, [BVar(j) for j in range(m + 1)],
                          substitute_bool(phi, {j: BVar(w) for j, w in enumerate(ws)}))


def patching_block(ws, ts, phi) -> BoolFormula:
    """E w_0 .. E w_m. Part(w_0..w_m) & w_0 <= t_0 & .. & w_m <= t_m & phi,
    over the variable indices ws: the shape partition_block matches."""
    body = partition_conditions([BVar(w) for w in ws])
    for w, t in zip(ws, ts):
        body = BAnd(body, leq(BVar(w), t))
    body = BAnd(body, phi)
    for w in reversed(ws):
        body = BExists(w, body)
    return body


def masks_form_partition(masks, full: int) -> bool:
    """Do the atom masks join to full with pairwise meets 0?"""
    joined = 0
    for m in masks:
        if joined & m:
            return False
        joined |= m
    return joined == full


def partitions_within(bounds, full: int):
    """Yield every partition (w_0..w_m) of the atoms with w_j <= bounds[j].

    A partition of the finite atomic algebra sends each atom to exactly one
    cell, so the walk is the product of each atom's allowed cells: at most
    (m+1)^atoms steps, and none when some atom fits under no bound.
    """
    choices = []
    for a in range(full.bit_length()):
        bit = 1 << a
        cells = [(j, bit) for j, b in enumerate(bounds) if b & bit]
        if not cells:
            return
        choices.append(cells)
    for assign in itertools.product(*choices):
        masks = [0] * len(bounds)
        for j, bit in assign:
            masks[j] |= bit
        yield masks


@functools.lru_cache(maxsize=None)
def partition_block(f: BExists):
    """Match the shape phi_star builds, else None.

    The shape is E w_0 .. E w_m. Part(w_0..w_m) & w_0 <= t_0 & .. &
    w_m <= t_m & phi with distinct w's and no w free in any t_j; the w's
    may carry any indices, since substitute_bool renames bound variables.
    Returns (ws, ts, phi).
    """
    ws = []
    body = f
    while isinstance(body, BExists):
        ws.append(body.var)
        body = body.body
    wset = set(ws)
    if len(wset) != len(ws) or not isinstance(body, BAnd):
        return None
    rest, phi = body.left, body.right
    ts = []
    for w in reversed(ws):
        if not isinstance(rest, BAnd):
            return None
        rest, cond = rest.left, rest.right
        if not (isinstance(cond, BEq) and isinstance(cond.left, Meet)
                and cond.left.left == BVar(w) and cond.right == BVar(w)):
            return None
        ts.append(cond.left.right)
    ts.reverse()
    if any(free_variables(t) & wset for t in ts):
        return None
    if rest != partition_conditions([BVar(w) for w in ws]):
        return None
    return tuple(ws), tuple(ts), phi


def _block_holds(block, menv, full):
    ws, ts, phi = block
    bounds = [_term_mask(t, menv, full) for t in ts]
    saved = [menv.get(w, _MISSING) for w in ws]
    result = False
    for masks in partitions_within(bounds, full):
        menv.update(zip(ws, masks))
        if _peval(phi, menv, full):
            result = True
            break
    for w, old in zip(ws, saved):
        if old is _MISSING:
            menv.pop(w, None)
        else:
            menv[w] = old
    return result


def _peval(f, menv, full):
    if isinstance(f, BEq):
        return _term_mask(f.left, menv, full) == _term_mask(f.right, menv, full)
    if isinstance(f, BNot):
        return not _peval(f.body, menv, full)
    if isinstance(f, BAnd):
        return _peval(f.left, menv, full) and _peval(f.right, menv, full)
    if isinstance(f, BOr):
        return _peval(f.left, menv, full) or _peval(f.right, menv, full)
    if isinstance(f, BImplies):
        return not _peval(f.left, menv, full) or _peval(f.right, menv, full)
    if isinstance(f, BExists):
        block = partition_block(f)
        if block is not None:
            return _block_holds(block, menv, full)
    if isinstance(f, (BExists, BForall)):
        return _beval(f, menv, full)
    raise TypeError(f"not a Boolean formula: {f!r}")


def eval_psi(formula: BoolFormula, masks, full: int) -> bool:
    """Satisfaction in B with variable j at masks[j].

    Same verdicts as eval_bool_formula, but each phi_star block is decided
    by partitions_within; every other quantifier goes to the literal
    reader _beval, which runs it over all masks.
    """
    return _peval(formula, dict(enumerate(masks)), full)
