"""Finite commutative unital rings, their idempotents, atoms and stalks.

Rings are presented by an enumerable carrier plus total operations.  The
trivial ring is rejected everywhere: connectedness talk needs 0 != 1.
Ring values are immutable and hash by identity; the derived data
(idempotents, atoms, stalks) is cached per ring object.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence


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
    """Cartesian product materialized by index arithmetic, not up front."""

    def __init__(self, factors):
        self._factors = factors
        self._sizes = [f.size for f in factors]
        self._len = 1
        for s in self._sizes:
            self._len *= s

    def __len__(self):
        return self._len

    def __getitem__(self, i):
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


class ProductRing(FiniteRing):
    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise RingError("a product ring needs at least one factor")
        self.factors = factors
        self.label = " x ".join(f.label for f in factors)
        self.elements = _ProductCarrier(factors)
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)

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
    so it never holds more than the values actually localized.
    """

    def __init__(self, parent: FiniteRing, e):
        self.parent = parent
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

    def add(self, a, b):
        return self.parent.add(a, b)

    def sub(self, a, b):
        return self.parent.sub(a, b)

    def mul(self, a, b):
        return self.parent.mul(a, b)


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


def is_connected(ring: FiniteRing) -> bool:
    """True iff 0 and 1 are the only idempotents."""
    return set(idempotents(ring)) == {ring.zero, ring.one}
