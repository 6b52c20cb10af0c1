"""Finite rings, idempotents, atoms and stalks."""

import itertools

import pytest

from ringfv import rings
from ringfv.formula import parse_ring_formula
from ringfv.rings import (ProductRing, RingError, Stalk, atom_stalks, atoms,
                          idempotents, is_connected, modular_ring, product_ring,
                          stalk, table_ring)
from ringfv.semantics import eval_direct
from ringfv.suites import ring_suite

GF4_ADD = [[a ^ b for b in range(4)] for a in range(4)]
_GF4 = {(0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 1): 1, (1, 2): 2,
        (1, 3): 3, (2, 2): 3, (2, 3): 1, (3, 3): 2}
GF4_MUL = [[_GF4[min(a, b), max(a, b)] for b in range(4)] for a in range(4)]


def z6_tables():
    add = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    mul = [[a * b % 6 for b in range(6)] for a in range(6)]
    return add, mul


def check_ring_axioms(ring):
    """Exhaustive commutative-unital-ring law check, used as an oracle."""
    elems = list(ring.elements)
    assert ring.zero != ring.one
    for a in elems:
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.sub(ring.zero, a)) == ring.zero
        assert ring.sub(a, a) == ring.zero
    for a, b in itertools.product(elems, repeat=2):
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.sub(a, b) == ring.add(a, ring.sub(ring.zero, b))
    for a, b, c in itertools.product(elems, repeat=3):
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


# --- constructors ---

def test_modular_ring_arithmetic(z6):
    assert z6.add(2, 5) == 1
    assert z6.mul(3, 4) == 0
    assert z6.size == 6


def test_modular_ring_z2_is_a_field():
    z2 = modular_ring(2)
    check_ring_axioms(z2)
    assert is_connected(z2)


def test_trivial_ring_rejected():
    with pytest.raises(RingError):
        modular_ring(1)
    with pytest.raises(RingError):
        modular_ring(0)


def test_product_ring_coordinatewise():
    p = product_ring([modular_ring(4), modular_ring(9)])
    assert p.size == 36
    assert p.add((3, 8), (1, 1)) == (0, 0)
    assert p.mul((2, 3), (2, 3)) == (0, 0)


def test_product_singleton():
    p = product_ring([modular_ring(2)])
    assert p.size == 2 and p.one == (1,)


def test_product_element_squares(z2xz3):
    assert z2xz3.mul((1, 0), (1, 0)) == (1, 0)


def test_product_rejects_empty():
    with pytest.raises(RingError):
        product_ring([])


def test_product_carrier_lazy_indexing():
    p = product_ring([modular_ring(4), modular_ring(9), modular_ring(25)])
    elems = p.elements
    assert len(elems) == 900
    assert elems[0] == (0, 0, 0)
    assert elems[899] == (3, 8, 24)
    assert elems[9 * 25] == (1, 0, 0)
    assert list(itertools.islice(iter(elems), 3)) == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]
    with pytest.raises(IndexError):
        elems[900]


def _tabled_products():
    suite = [r for r in ring_suite() if isinstance(r, ProductRing)]
    return suite + [product_ring([modular_ring(4), modular_ring(16)])]


@pytest.mark.parametrize("ring", _tabled_products(), ids=lambda r: r.label)
def test_product_tables_agree_with_coordinatewise_ops(ring):
    assert ring.size <= rings._TABLE_MAX
    assert {"add", "sub", "mul"} <= vars(ring).keys()
    carrier = set(itertools.product(*(f.elements for f in ring.factors)))
    for name in ("add", "sub", "mul"):
        tabled, reference = getattr(ring, name), getattr(ProductRing, name)
        for a, b in itertools.product(ring.elements, repeat=2):
            value = tabled(a, b)
            assert value == reference(ring, a, b)
            assert value in carrier


@pytest.mark.parametrize("ring", _tabled_products() + [
    product_ring([modular_ring(5), modular_ring(13)])], ids=lambda r: r.label)
def test_product_carrier_getitem_matches_iteration(ring):
    # up to _TABLE_MAX elements __getitem__ reads the kept tuple, above it
    # it splits the index into coordinates; both agree with iteration
    elems = ring.elements
    assert (elems._listed is not None) == (ring.size <= rings._TABLE_MAX)
    listed = list(elems)
    n = len(listed)
    for i in range(-n, n):
        assert elems[i] == listed[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            elems[i]


def test_product_above_the_table_bound_stays_coordinatewise():
    ring = product_ring([modular_ring(5), modular_ring(13)])
    assert ring.size == rings._TABLE_MAX + 1
    assert not {"add", "sub", "mul"} & vars(ring).keys()
    assert ring.mul((2, 5), (3, 7)) == (1, 9)


def test_product_table_outside_the_carrier_as_before():
    ring = product_ring([modular_ring(4), modular_ring(9)])
    outside = [((5, 0), (1, 1)), ((1, 1), (0, 10)), ([1, 2], (3, 3)),
               ((1, 2), [3, 3]), ((1, 2, 0), (1, 1))]
    for name in ("add", "sub", "mul"):
        for a, b in outside:
            assert getattr(ring, name)(a, b) == getattr(ProductRing, name)(ring, a, b)
    with pytest.raises(TypeError):
        ring.add(5, (0, 0))
    assert ring.add((1, 1), (3, 8)) == (0, 0)


@pytest.mark.parametrize("factors", [(4, 9), (2, 3, 5), (1000, 1000), (7,)])
def test_product_carrier_index_by_coordinates(factors):
    elems = product_ring([modular_ring(n) for n in factors]).elements
    positions = range(len(elems)) if len(elems) <= 64 else range(0, len(elems), 9973)
    for i in positions:
        assert elems.index(elems[i]) == i and elems[i] in elems
    assert elems.index(tuple(float(n - 1) for n in factors)) == len(elems) - 1
    bad = [3, [0] * len(factors), (0,) * (len(factors) + 1), (0,) * (len(factors) - 1),
           (factors[0],) + (0,) * (len(factors) - 1), (-1,) * len(factors), ("0",) * len(factors)]
    for value in bad:
        assert value not in elems
        with pytest.raises(ValueError):
            elems.index(value)


def test_nested_product_carrier_index():
    inner = product_ring([modular_ring(2), modular_ring(3)])
    elems = product_ring([inner, modular_ring(5)]).elements
    assert [elems.index(x) for x in elems] == list(range(30))
    assert ((1, 3), 0) not in elems


def test_table_ring_z2_accepted():
    t = table_ring([[0, 1], [1, 0]], [[0, 0], [0, 1]], 0, 1)
    check_ring_axioms(t)


def test_table_ring_gf4_accepted_and_connected():
    gf4 = table_ring(GF4_ADD, GF4_MUL, 0, 1, label="GF(4)")
    check_ring_axioms(gf4)
    assert is_connected(gf4)


def test_table_ring_rejects_noncommutative_mul():
    bad = [row[:] for row in GF4_MUL]
    bad[2][3] = 2
    with pytest.raises(RingError) as exc:
        table_ring(GF4_ADD, bad, 0, 1)
    assert "witness" in str(exc.value)


def test_table_ring_rejects_zero_equals_one():
    with pytest.raises(RingError):
        table_ring([[0]], [[0]], 0, 0)


# --- idempotents, atoms, stalks ---

def test_idempotents_z6(z6):
    assert idempotents(z6) == (0, 1, 3, 4)


def test_idempotents_z4(z4):
    assert idempotents(z4) == (0, 1)


def test_idempotents_z60(z60):
    assert len(idempotents(z60)) == 8


def test_atoms_examples(z6, z4, z60):
    assert atoms(z6) == (3, 4)
    assert set(atoms(z60)) == {45, 40, 36}
    assert atoms(z4) == (1,)


def test_stalk_z6_at_3(z6):
    s = stalk(z6, 3)
    assert tuple(s.elements) == (0, 3)
    assert s.one == 3 and s.mul(3, 3) == 3 and s.add(3, 3) == 0


def test_stalk_z6_at_4(z6):
    s = stalk(z6, 4)
    assert set(s.elements) == {0, 2, 4}
    assert s.one == 4 and s.mul(2, 4) == 2


def test_stalk_at_one_is_whole_ring(z6):
    assert stalk(z6, 1).size == 6


def test_stalk_rejects_bad_idempotent(z6):
    with pytest.raises(RingError):
        stalk(z6, 0)
    with pytest.raises(RingError):
        stalk(z6, 2)


def test_is_connected_examples(z4, z6):
    assert is_connected(z4)
    assert not is_connected(z6)
    assert not is_connected(product_ring([modular_ring(2), modular_ring(2)]))


# --- invariants ---

def test_stalks_satisfy_ring_axioms(suite_rings):
    for ring in suite_rings:
        for e in idempotents(ring):
            if e == ring.zero:
                continue
            s = stalk(ring, e)
            assert s.one == e
            if s.size <= 16:
                check_ring_axioms(s)


def test_atom_iff_connected_stalk(suite_rings):
    for ring in suite_rings:
        atom_set = set(atoms(ring))
        for e in idempotents(ring):
            if e == ring.zero:
                continue
            assert (e in atom_set) == is_connected(stalk(ring, e))


def test_stalk_kernel(suite_rings):
    # ex = 0 iff x lies in (1-e)R
    for ring in suite_rings[:6]:
        for e in idempotents(ring):
            if e == ring.zero:
                continue
            comp = ring.sub(ring.one, e)
            complement_ideal = {ring.mul(comp, x) for x in ring.elements}
            for x in ring.elements:
                assert (ring.mul(e, x) == ring.zero) == (x in complement_ideal)


def test_atom_stalks_aligned(z6):
    stalks = atom_stalks(z6)
    assert [s.unit for s in stalks] == list(atoms(z6))
    assert all(isinstance(s, Stalk) for s in stalks)


def test_only_atom_stalks_are_built(monkeypatch):
    built = []

    class CountingStalk(Stalk):
        def __init__(self, parent, e):
            built.append(e)
            super().__init__(parent, e)

    monkeypatch.setattr(rings, "Stalk", CountingStalk)
    ring = product_ring([modular_ring(2)] * 10)
    stalks = atom_stalks(ring)
    assert len(built) == len(atoms(ring)) == len(stalks) == 10
    whole = stalk(ring, ring.one)
    assert whole.size == ring.size and len(built) == 11
    assert stalk(ring, ring.one) is whole and len(built) == 11
    assert stalk(ring, atoms(ring)[0]) is stalks[0] and len(built) == 11


def test_localized_table_fills_on_demand():
    s = stalk(modular_ring(6), 4)
    assert len(s.localized) == 0
    assert [s.localized[x] for x in (5, 3, 5)] == [2, 0, 2]
    assert dict(s.localized) == {5: 2, 3: 0}


def test_stalk_agrees_with_quotient_presentation():
    """eR and the coset presentation of R/(1-e)R satisfy the same sentences."""
    add, mul = z6_tables()
    ring = table_ring(add, mul, 0, 1, label="Z/6 as tables")
    e = 3
    comp = ring.sub(ring.one, e)
    kernel = sorted({ring.mul(comp, x) for x in ring.elements})
    cosets = []
    for x in ring.elements:
        coset = frozenset(ring.add(x, k) for k in kernel)
        if coset not in cosets:
            cosets.append(coset)
    index = {x: cosets.index(c) for c in cosets for x in c}
    size = len(cosets)
    rep = [min(c) for c in cosets]
    q_add = [[index[ring.add(rep[i], rep[j])] for j in range(size)] for i in range(size)]
    q_mul = [[index[ring.mul(rep[i], rep[j])] for j in range(size)] for i in range(size)]
    quotient = table_ring(q_add, q_mul, index[0], index[1], label="Z/6 mod (1-3)")
    sentences = ["E x0. ~(x0 = 0)", "A x0. x0+x0 = 0", "A x0. x0*x0 = x0",
                 "E x0. x0*x0 = x0 & ~(x0 = 0) & ~(x0 = 1)"]
    s = stalk(ring, e)
    for text in sentences:
        f = parse_ring_formula(text)
        assert eval_direct(s, f) == eval_direct(quotient, f)
