"""Acceptance suite: one test per criterion, printing one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The oracle-equivalence sweep (criteria 1 and 2) walks every ring of the
standard suite against the full default-depth2 formula suite with all
assignments over free variables; everything is exact, zero tolerance.
"""

import itertools
import json
import random

import pytest

from ringfv.axioms import run_axiom_suite
from ringfv.boolalg import idempotent_algebra
from ringfv.cli import main
from ringfv.formula import And, Not, Or, free_variables, parse_ring_formula
from ringfv.residue import atom_table, check_theorem_main, factor
from ringfv.rings import (atoms, idempotents, is_connected, modular_ring,
                          product_ring, stalk)
from ringfv.semantics import boolean_value_batch
from ringfv.suites import default_depth2, ring_suite
from ringfv.translate import oracle_sweep, translate


def verdict(number, name, ok, details):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {details}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_reports():
    suite = default_depth2()
    return [oracle_sweep(ring, suite) for ring in ring_suite()]


def test_criterion_1_oracle_equivalence(sweep_reports):
    instances = sum(r.instances for r in sweep_reports)
    mismatches = sum(r.mismatch_count for r in sweep_reports)
    verdict(1, "oracle equivalence", mismatches == 0,
            f"{instances} instances over {len(sweep_reports)} rings, "
            f"{mismatches} mismatches")


def test_criterion_2_partition_soundness(sweep_reports):
    failures = sum(r.partition_failure_count for r in sweep_reports)
    instances = sum(r.instances for r in sweep_reports)
    verdict(2, "partition soundness", failures == 0,
            f"{instances} instances, {failures} non-partitions")


def _lemma_identities_hold(ring, t1, t2, env):
    algebra = idempotent_algebra(ring)
    both, either, neg, v1, v2 = boolean_value_batch(
        ring, (And(t1, t2), Or(t1, t2), Not(t1), t1, t2), env)
    return (both == algebra.meet(v1, v2)
            and either == algebra.join(v1, v2)
            and neg == algebra.complement(v1))


def test_criterion_3_boolean_value_lemmas():
    pool = [parse_ring_formula(t) for t in (
        "x0 = 0", "x0 = 1", "x0 = x1", "x0*x0 = x0", "x0*x1 = 1",
        "x0+x1 = 0", "x0*x0 = x1", "~(x0 = 0)", "x0+x0 = 0",
        "E x1. x0*x1 = 1", "E x1. x1*x1 = x0", "x0 = 0 | x0 = 1",
        "x0 = 1 -> x0*x0 = 1", "A x1. x1*x0 = x1 -> x1 = 0")]
    rings = ring_suite()
    rng = random.Random(20260809)
    checked = 0
    bad = 0
    for _ in range(10000):
        ring = rings[rng.randrange(len(rings))]
        t1 = pool[rng.randrange(len(pool))]
        t2 = pool[rng.randrange(len(pool))]
        elems = ring.elements
        env = {i: elems[rng.randrange(ring.size)]
               for i in free_variables(t1) | free_variables(t2)}
        checked += 1
        if not _lemma_identities_hold(ring, t1, t2, env):
            bad += 1
    z6 = modular_ring(6)
    for t1, t2 in itertools.product(pool, repeat=2):
        fv = sorted(free_variables(t1) | free_variables(t2))
        for vals in itertools.product(z6.elements, repeat=len(fv)):
            checked += 1
            if not _lemma_identities_hold(z6, t1, t2, dict(zip(fv, vals))):
                bad += 1
    verdict(3, "boolean-value lemmas", bad == 0,
            f"{checked} instances (10000 sampled + exhaustive Z/6), {bad} failures")


def test_criterion_4_axiom_suite():
    failing = []
    instances = 0
    for ring in ring_suite():
        for report in run_axiom_suite(ring):
            instances += report.instances
            if not report.passed:
                failing.append((ring.label, report.check))
    verdict(4, "axiom suite", not failing,
            f"{instances} instances over 9 rings; failing: {failing or 'none'}")


def test_criterion_5_residue_decomposition():
    problems = []
    sentences_checked = 0
    for n in (6, 12, 30, 60, 210):
        table = atom_table(n)
        ring = modular_ring(n)
        if sorted(table.values()) != sorted(atoms(ring)):
            problems.append(f"atom table mismatch at n={n}")
        expected_count = 2 ** len(factor(n).factors)
        if len(idempotents(ring)) != expected_count:
            problems.append(f"idempotent count at n={n}")
        report = check_theorem_main(n)
        sentences_checked += len(report.verdicts)
        if not report.ok:
            problems.append(f"sentence disagreement at n={n}")
    if atom_table(60) != {4: 45, 3: 40, 5: 36}:
        problems.append("Z/60 atom table differs from {45, 40, 36}")
    verdict(5, "residue decomposition", not problems,
            f"n in (6, 12, 30, 60, 210), {sentences_checked} sentence "
            f"verdicts x4 evaluations; problems: {problems or 'none'}")


def _ring_laws_hold(ring):
    elems = list(ring.elements)
    for a in elems:
        if ring.add(a, ring.zero) != a or ring.mul(a, ring.one) != a:
            return False
        if ring.add(a, ring.sub(ring.zero, a)) != ring.zero:
            return False
    for a, b in itertools.product(elems, repeat=2):
        if ring.add(a, b) != ring.add(b, a) or ring.mul(a, b) != ring.mul(b, a):
            return False
    for a, b, c in itertools.product(elems, repeat=3):
        if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
            return False
        if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
            return False
        if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
            return False
    return True


def test_criterion_6_stalk_structure():
    checked = 0
    problems = []
    for ring in ring_suite():
        atom_set = set(atoms(ring))
        for e in idempotents(ring):
            if e == ring.zero:
                continue
            checked += 1
            st = stalk(ring, e)
            if st.one != e:
                problems.append(f"{ring.label} at {e}: unit is not e")
            if not _ring_laws_hold(st):
                problems.append(f"{ring.label} at {e}: ring laws fail")
            if (e in atom_set) != is_connected(st):
                problems.append(f"{ring.label} at {e}: atom/connected mismatch")
    verdict(6, "stalk structure", not problems,
            f"{checked} nonzero idempotents, exhaustive; "
            f"problems: {problems or 'none'}")


def test_criterion_7_connectedness_examples():
    problems = []
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            if not is_connected(modular_ring(p ** k)):
                problems.append(f"Z/{p ** k} not connected")
    product_cases = [
        product_ring([modular_ring(2), modular_ring(2)]),
        product_ring([modular_ring(4), modular_ring(9)]),
        product_ring([modular_ring(2), modular_ring(3), modular_ring(5)]),
        product_ring([modular_ring(3), modular_ring(3)]),
        product_ring([modular_ring(8), modular_ring(27)]),
        product_ring([modular_ring(2), modular_ring(2), modular_ring(2)]),
    ]
    for ring in product_cases:
        if is_connected(ring):
            problems.append(f"{ring.label} reported connected")
    verdict(7, "connectedness examples", not problems,
            f"9 prime-power rings + {len(product_cases)} products; "
            f"problems: {problems or 'none'}")


def test_criterion_8_cell_count_law():
    result = translate(parse_ring_formula("E x0. E x1. x0*x1 = 1"))
    counts = [s.cell_count for s in result.trace]
    ok = len(result.cells) == 16 and counts == [2, 4, 16]
    verdict(8, "cell-count law", ok,
            f"atomic 2 -> exists 4 -> exists 16; cells={len(result.cells)}, "
            f"trace={counts}")


def test_criterion_9_determinism(capsys):
    argv = ["check", "--ring", "zmod:12", "--formula-suite", "smoke", "--json"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    verdict(9, "determinism", ok,
            f"two check runs, {len(out1)} bytes each, byte-identical")
