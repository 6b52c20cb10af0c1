"""eval_psi against the literal reading _beval.

eval_psi decides each phi_star block by walking the assignments of atoms
to cells; _beval runs every quantifier over all masks.  The two must agree
on every formula and every mask tuple, partitions or not.
"""

import itertools
import random

import pytest

from ringfv.boolalg import (_beval, eval_psi, masks_form_partition,
                            partition_block, partitions_within, phi_star)
from ringfv.formula import (BAnd, BExists, BForall, BImplies, BNot, BOr, BVar,
                            Join, leq, parse_bool_formula, parse_ring_formula,
                            partition_conditions, substitute_bool)
from ringfv.residue import DEFAULT_SENTENCES
from ringfv.rings import modular_ring, product_ring
from ringfv.suites import default_depth2
from ringfv.translate import oracle_sweep, translate


@pytest.fixture(scope="module")
def psis():
    """(psi, cell count) of every default-depth2 and DEFAULT_SENTENCES
    translation; many formulas share a psi, so each pair is kept once."""
    formulas = list(default_depth2()) + [parse_ring_formula(t)
                                         for t in DEFAULT_SENTENCES]
    results = [translate(f) for f in formulas]
    return sorted({(r.bool_formula, len(r.cells)) for r in results},
                  key=lambda p: (p[1], str(p[0])))


def _chain_heads(f, under_exists=False):
    """Every BExists that does not sit directly under another BExists."""
    if isinstance(f, BExists):
        if not under_exists:
            yield f
        yield from _chain_heads(f.body, True)
    elif isinstance(f, (BNot, BForall)):
        yield from _chain_heads(f.body)
    elif isinstance(f, (BAnd, BOr, BImplies)):
        yield from _chain_heads(f.left)
        yield from _chain_heads(f.right)


def _partition_tuples(cells, natoms):
    """Every partition of natoms atoms into the given number of cells."""
    for assign in itertools.product(range(cells), repeat=natoms):
        masks = [0] * cells
        for atom, cell in enumerate(assign):
            masks[cell] |= 1 << atom
        yield tuple(masks)


def _agree(psi, masks, full):
    return eval_psi(psi, masks, full) == _beval(psi, dict(enumerate(masks)), full)


def test_every_translation_block_matches(psis):
    heads = [h for psi, _ in psis for h in _chain_heads(psi)]
    assert heads
    unmatched = [str(h) for h in heads if partition_block(h) is None]
    assert not unmatched, unmatched[:3]


@pytest.mark.parametrize("natoms", [1, 2])
def test_agrees_at_every_partition(psis, natoms):
    full = (1 << natoms) - 1
    for psi, cells in psis:
        for masks in _partition_tuples(cells, natoms):
            assert _agree(psi, masks, full), (str(psi), masks)


def test_agrees_at_sampled_partitions_three_atoms(psis):
    rng = random.Random(20261017)
    full = 7
    for psi, cells in psis:
        for _ in range(10):
            masks = [0] * cells
            for atom in range(3):
                masks[rng.randrange(cells)] |= 1 << atom
            assert _agree(psi, tuple(masks), full), (str(psi), masks)


def test_agrees_off_partitions(psis):
    rng = random.Random(7)
    for psi, cells in psis:
        for natoms in (1, 2, 3, 3, 3):
            full = (1 << natoms) - 1
            masks = tuple(rng.randrange(full + 1) for _ in range(cells))
            assert _agree(psi, masks, full), (str(psi), masks)


def test_partitions_within_is_exactly_the_bounded_partitions():
    rng = random.Random(3)
    for natoms, cells in ((0, 1), (1, 2), (2, 3), (3, 2), (3, 3)):
        full = (1 << natoms) - 1
        for _ in range(10):
            bounds = [rng.randrange(full + 1) for _ in range(cells)]
            walked = sorted(tuple(ws) for ws in partitions_within(bounds, full))
            brute = sorted(
                ws for ws in itertools.product(range(full + 1), repeat=cells)
                if masks_form_partition(ws, full)
                and all(w & ~b == 0 for w, b in zip(ws, bounds)))
            assert walked == brute, (natoms, bounds)


PHI = parse_bool_formula("y0 = 1 | y1 ^ y2 = 0")


def _block(ws, conds, phi):
    body = partition_conditions([BVar(w) for w in ws])
    for cond in conds:
        body = BAnd(body, cond)
    body = BAnd(body, phi)
    for w in reversed(ws):
        body = BExists(w, body)
    return body


def test_phi_star_matches_after_renaming():
    star = phi_star(PHI, 2)
    assert partition_block(star) == ((3, 4, 5), (BVar(0), BVar(1), BVar(2)),
                                     substitute_bool(PHI, {0: BVar(3), 1: BVar(4),
                                                           2: BVar(5)}))
    # the substituted terms mention the w's, so substitute_bool renames them
    renamed = substitute_bool(star, {0: Join(BVar(3), BVar(4)), 2: BVar(5)})
    ws, ts, _ = partition_block(renamed)
    assert not set(ws) & {3, 4, 5}
    assert ts == (Join(BVar(3), BVar(4)), BVar(1), BVar(5))
    full = 3
    for y1, y3, y4, y5 in itertools.product(range(full + 1), repeat=4):
        assert _agree(renamed, (0, y1, 0, y3, y4, y5), full)


def _near_misses():
    w = [3, 4, 5]
    phi = substitute_bool(PHI, {j: BVar(w[j]) for j in range(3)})
    bounds = [leq(BVar(w[j]), BVar(j)) for j in range(3)]
    yield "dropped leq", _block(w, bounds[:1] + bounds[2:], phi)
    yield "bound mentions a w", _block(
        w, bounds[:2] + [leq(BVar(5), Join(BVar(2), BVar(3)))], phi)
    yield "repeated w", _block(
        [3, 3, 5], [leq(BVar(3), BVar(0)), leq(BVar(3), BVar(1)), bounds[2]],
        substitute_bool(PHI, {0: BVar(3), 1: BVar(3), 2: BVar(5)}))
    yield "leqs out of order", _block(w, bounds[1:] + bounds[:1], phi)


@pytest.mark.parametrize("name,formula", list(_near_misses()))
def test_near_miss_falls_back_and_agrees(name, formula):
    assert partition_block(formula) is None, name
    for natoms in (1, 2):
        full = (1 << natoms) - 1
        for masks in itertools.product(range(full + 1), repeat=3):
            assert _agree(formula, masks, full), (name, masks)


@pytest.mark.parametrize("k", [5, 6])
def test_z2k_oracle_sweep(k):
    ring = product_ring([modular_ring(2)] * k)
    formula = parse_ring_formula("E x1. x1 = x0 & 1 = x1")
    report = oracle_sweep(ring, [formula], collect_limit=2 ** k)
    assert report.instances == 2 ** k
    assert report.ok, report.to_json()
