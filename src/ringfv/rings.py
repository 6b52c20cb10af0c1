"""Finite commutative unital rings, their idempotents, atoms and stalks.

Rings are presented by an enumerable carrier plus total operations.  The
trivial ring is rejected everywhere: connectedness talk needs 0 != 1.
Ring values are immutable and hash by identity; the derived data
(idempotents, atoms, stalks, and the table from atom masks to the joins
of their atoms) is cached per ring object.  A product of at most
_TABLE_MAX elements computes its operations once, into tables over all
carrier pairs; larger products compute them coordinate by coordinate.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

# Products up to this size get operation tables: at most 4096 pairs per
# operation, about 4 ms to fill all three (Python 3.11, one Xeon core).
# At 210 elements it would be 44100 pairs per operation, each table about
# 3 MB, so larger products stay coordinatewise.
_TABLE_MAX = 64


class RingError(ValueError):
    pass


class FiniteRing:
    """Base: subclasses fill in label, elements, zero, one and the ops."""

    label: str
    elements: Sequence
    zero: object
    one: object

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    @property
    def size(self) -> int:
        return len(self.elements)

    def is_idempotent(self, x) -> bool:
        return self.mul(x, x) == x

    def complement_idempotent(self, e):
        return self.sub(self.one, e)

    def join_idempotents(self, e, f):
        return self.sub(self.add(e, f), self.mul(e, f))

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class ModularRing(FiniteRing):
    def __init__(self, n: int):
        if n < 2:
            raise RingError(f"Z/{n} is trivial or empty; need n >= 2")
        self.n = n
        self.label = f"Z/{n}"
        self.elements = range(n)
        self.zero = 0
        self.one = 1 % n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n


class _ProductCarrier(Sequence):
    """Cartesian product materialized by index arithmetic, not up front.

    A carrier of at most _TABLE_MAX elements (the products that get
    operation tables) keeps its elements in a tuple, which __getitem__
    indexes instead of splitting the index into coordinates.
    """

    def __init__(self, factors):
        self._factors = factors
        self._sizes = [f.size for f in factors]
        self._len = 1
        for s in self._sizes:
            self._len *= s
        self._listed = tuple(self) if self._len <= _TABLE_MAX else None

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if self._listed is not None:
            return self._listed[i]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(i)
        coords = []
        for factor, size in zip(reversed(self._factors), reversed(self._sizes)):
            i, r = divmod(i, size)
            coords.append(factor.elements[r])
        return tuple(reversed(coords))

    def __iter__(self):
        return itertools.product(*(f.elements for f in self._factors))

    def index(self, value):
        """Position of value: its coordinates' positions in mixed radix."""
        if not isinstance(value, tuple) or len(value) != len(self._factors):
            raise ValueError("not an element of the product")
        i = 0
        for factor, size, x in zip(self._factors, self._sizes, value):
            i = i * size + factor.elements.index(x)
        return i

    def __contains__(self, value):
        try:
            self.index(value)
        except ValueError:
            return False
        return True


def _op_tables(factors, carrier):
    """add, sub and mul over all pairs of carrier, each a dict keyed by
    (a, b) and valued in the carrier's own tuples.  Each factor's operation
    is listed over the factor's pairs, and itertools.product combines the
    lists in carrier order, so no product tuple is built in a Python loop."""
    own = {x: x for x in carrier}
    firsts = itertools.product(*([x for x in f.elements for _ in f.elements] for f in factors))
    seconds = itertools.product(*([y for _ in f.elements for y in f.elements] for f in factors))
    pairs = list(zip(map(own.__getitem__, firsts), map(own.__getitem__, seconds)))
    for name in ("add", "sub", "mul"):
        values = [[getattr(f, name)(x, y) for x in f.elements for y in f.elements]
                  for f in factors]
        yield dict(zip(pairs, map(own.__getitem__, itertools.product(*values))))


def _lookup(table, op):
    """table[a, b]; a pair outside the carrier is op(a, b), not stored."""
    def lookup(a, b):
        try:
            return table[a, b]
        except (KeyError, TypeError):  # outside the carrier, maybe unhashable
            pass
        return op(a, b)
    return lookup


class ProductRing(FiniteRing):
    """Direct product with coordinatewise operations.

    With at most _TABLE_MAX elements (64: three tables of 4096 pairs stay
    cheap to fill), add, sub and mul are looked up in tables that __init__
    fills from the factors' operations; the lookups shadow the coordinatewise
    methods below per instance.  The class methods stay the reference and
    answer pairs outside the carrier; larger products use them directly.
    """

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise RingError("a product ring needs at least one factor")
        self.factors = factors
        self.label = " x ".join(f.label for f in factors)
        self.elements = _ProductCarrier(factors)
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)
        if len(self.elements) <= _TABLE_MAX:
            add, sub, mul = _op_tables(factors, self.elements._listed)
            self.add = _lookup(add, self.add)
            self.sub = _lookup(sub, self.sub)
            self.mul = _lookup(mul, self.mul)

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def sub(self, a, b):
        return tuple(f.sub(x, y) for f, x, y in zip(self.factors, a, b))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))


class TableRing(FiniteRing):
    """Ring over carrier 0..k-1 given by explicit tables, axioms verified."""

    def __init__(self, add_table, mul_table, zero, one, label=None):
        add_table = tuple(tuple(row) for row in add_table)
        mul_table = tuple(tuple(row) for row in mul_table)
        k = len(add_table)
        self.label = label or f"table ring ({k} elements)"
        self.elements = range(k)
        self.zero = zero
        self.one = one
        self._add = add_table
        self._mul = mul_table
        self._verify()
        self._neg = tuple(self._negatives())

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def _verify(self):
        k = len(self.elements)
        for name, table in (("add", self._add), ("mul", self._mul)):
            if len(table) != k or any(len(row) != k for row in table):
                raise RingError(f"{name} table is not {k}x{k}")
            for a in range(k):
                for b in range(k):
                    if not 0 <= table[a][b] < k:
                        raise RingError(f"{name} table leaves the carrier at ({a},{b})")
        if not 0 <= self.zero < k or not 0 <= self.one < k:
            raise RingError("zero/one outside the carrier")
        if self.zero == self.one:
            raise RingError("trivial ring rejected: zero equals one")
        add, mul = self._add, self._mul
        zero, one = self.zero, self.one
        for a in range(k):
            if add[a][zero] != a:
                raise RingError(f"zero is not an additive identity: witness {a}")
            if mul[a][one] != a:
                raise RingError(f"one is not a multiplicative identity: witness {a}")
            if zero not in [add[a][b] for b in range(k)]:
                raise RingError(f"no additive inverse: witness {a}")
            for b in range(k):
                if add[a][b] != add[b][a]:
                    raise RingError(f"addition not commutative: witness ({a},{b})")
                if mul[a][b] != mul[b][a]:
                    raise RingError(f"multiplication not commutative: witness ({a},{b})")
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise RingError(f"addition not associative: witness ({a},{b},{c})")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise RingError(f"multiplication not associative: witness ({a},{b},{c})")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise RingError(f"distributivity fails: witness ({a},{b},{c})")

    def _negatives(self):
        for a in self.elements:
            for b in self.elements:
                if self._add[a][b] == self.zero:
                    yield b
                    break


class _Multiples(dict):
    """The map x -> ex of a ring, filled one x at a time on first lookup."""

    def __init__(self, ring: FiniteRing, e):
        super().__init__()
        self._mul = ring.mul
        self._e = e

    def __missing__(self, x):
        y = self[x] = self._mul(self._e, x)
        return y


class Stalk(FiniteRing):
    """The ring eR at a nonzero idempotent e, with unit e.

    localized[x] is ex for x in the parent ring; the table fills on demand,
    so it never holds more than the values actually localized.  add, sub
    and mul are the parent's own operations, bound per instance.
    """

    def __init__(self, parent: FiniteRing, e):
        self.parent = parent
        self.add = parent.add
        self.sub = parent.sub
        self.mul = parent.mul
        self.unit = e
        self.localized = _Multiples(parent, e)
        self.label = f"{parent.label} at {e}"
        seen = set()
        carrier = []
        for x in parent.elements:
            y = parent.mul(e, x)
            if y not in seen:
                seen.add(y)
                carrier.append(y)
        self.elements = tuple(carrier)
        self.zero = parent.zero
        self.one = e


def modular_ring(n: int) -> ModularRing:
    """The ring of residues [0, n-1] under mod-n arithmetic, n >= 2."""
    return ModularRing(n)


def product_ring(factors) -> ProductRing:
    """Direct product with coordinatewise operations."""
    return ProductRing(factors)


def table_ring(add_table, mul_table, zero, one, label=None) -> TableRing:
    """Ring from explicit tables; every ring axiom is checked exhaustively."""
    return TableRing(add_table, mul_table, zero, one, label)


@functools.lru_cache(maxsize=None)
def idempotents(ring: FiniteRing) -> tuple:
    """All x with x*x = x, in carrier order; always contains 0 and 1."""
    return tuple(x for x in ring.elements if ring.mul(x, x) == x)


@functools.lru_cache(maxsize=None)
def atoms(ring: FiniteRing) -> tuple:
    """Minimal nonzero idempotents under e <= f iff ef = e, in carrier order."""
    nonzero = [e for e in idempotents(ring) if e != ring.zero]
    out = []
    for e in nonzero:
        if all(f == e or ring.mul(e, f) != f for f in nonzero):
            out.append(e)
    return tuple(out)


def stalk(ring: FiniteRing, e) -> Stalk:
    """The localization of the ring at a nonzero idempotent e, realized as eR."""
    if e == ring.zero:
        raise RingError("cannot localize at 0")
    if not ring.is_idempotent(e):
        raise RingError(f"{e} is not idempotent")
    return _stalk(ring, e)


@functools.lru_cache(maxsize=None)
def _stalk(ring: FiniteRing, e) -> Stalk:
    return Stalk(ring, e)


def atom_stalks(ring: FiniteRing) -> tuple:
    """Stalks at the atoms, aligned with atoms(ring); only these are built."""
    return tuple(_stalk(ring, e) for e in atoms(ring))


class _AtomJoins(dict):
    """Atom mask -> the join of the atoms at its set bits, folded from 0 in
    atom order with ring.join_idempotents on the first lookup of the mask."""

    def __init__(self, ring: FiniteRing):
        super().__init__()
        self._ring = ring
        self._atoms = atoms(ring)

    def __missing__(self, mask):
        value = self._ring.zero
        for i, e in enumerate(self._atoms):
            if mask >> i & 1:
                value = self._ring.join_idempotents(value, e)
        self[mask] = value
        return value


@functools.lru_cache(maxsize=None)
def atom_joins(ring: FiniteRing) -> _AtomJoins:
    """The ring's table from atom masks (bit i: atoms(ring)[i]) to joins."""
    return _AtomJoins(ring)


def is_connected(ring: FiniteRing) -> bool:
    """True iff 0 and 1 are the only idempotents."""
    return set(idempotents(ring)) == {ring.zero, ring.one}
