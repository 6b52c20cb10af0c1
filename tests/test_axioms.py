"""The executable axiom checkers."""

import itertools
import random

import pytest

from ringfv.axioms import (DEFAULT_BUDGET, CheckBudget, _assignments,
                           _check_value_lemmas,
                           check_axiom1, check_axiom2,
                           check_axiom3, check_axiom4, check_axiom5,
                           default_formula_pool, default_partition_sequences,
                           default_phi_pool,
                           patch_witness, run_axiom_suite)
from ringfv.boolalg import _beval, eval_psi, idempotent_algebra, phi_star
from ringfv.formula import (Exists, format_ring_formula, free_variables,
                            parse_ring_formula)
from ringfv.rings import ModularRing, atoms, modular_ring, product_ring
from ringfv.semantics import (StalkValueCache, boolean_value,
                              boolean_value_batch)

FAST = CheckBudget(max_formulas=10, max_assignments=24)


def test_axiom1_counts(z6, z60, z4):
    assert check_axiom1(z60).instances == 7
    r = check_axiom1(z6)
    assert r.passed and r.instances == 3
    assert check_axiom1(z4).passed  # connected: the single atom is 1


def test_axiom1_fail_path_via_corrupted_join():
    class BrokenJoin(ModularRing):
        def join_idempotents(self, e, f):
            return self.mul(e, f)  # deliberately wrong: meet instead of join

    ring = BrokenJoin(6)
    report = check_axiom1(ring)
    assert not report.passed
    assert report.counterexample == {"idempotent": "1", "join_of_atoms": "0"}
    # axioms 2 and 4 read values through the same join table, so they
    # catch the wrong join against the ring.mul scan and eval_direct
    report = check_axiom2(ring, budget=FAST)
    assert not report.passed
    assert {"atom", "value"} <= report.counterexample.keys()
    assert not check_axiom4(ring, budget=FAST).passed


def test_axiom2_examples(z6):
    assert check_axiom2(z6, budget=FAST).passed
    assert boolean_value(z6, parse_ring_formula("0 = 0")) == 1
    assert boolean_value(z6, parse_ring_formula("0 = 1")) == 0


def test_axiom2_wrong_value_fails_at_first_instance_of_its_mask(z6, monkeypatch):
    """A wrong element for one atom mask is caught at the first instance
    whose value has that mask, although the scans run once per mask."""
    algebra = idempotent_algebra(z6)
    target, wrong = 1, algebra.element_of_mask(2)
    original = algebra.element_of_mask
    monkeypatch.setattr(algebra, "element_of_mask",
                        lambda mask: wrong if mask == target else original(mask))
    report = check_axiom2(z6, budget=FAST)
    # the checker's instance order: pool order, then product order (Z/6 is
    # small enough for every assignment)
    hits = [n for n, (theta, env) in enumerate(
        ((theta, dict(zip(sorted(free_variables(theta)), vals)))
         for theta in default_formula_pool()[:FAST.max_formulas]
         for vals in itertools.product(
             z6.elements, repeat=len(free_variables(theta)))), start=1)
        if algebra.atom_mask(boolean_value(z6, theta, env)) == target]
    assert len(hits) > 1 and hits[0] > 1
    assert not report.passed and report.instances == hits[0]
    assert report.counterexample["value"] == repr(wrong)


def test_axiom3_passes(z6, z60):
    assert check_axiom3(z6, budget=FAST).passed
    assert check_axiom3(z60, budget=FAST).passed


def test_axiom3_patching_example(z6):
    theta = parse_ring_formula("x0*x1 = x0")
    g = patch_witness(z6, theta, 1, {0: 2})
    exists_v = boolean_value(z6, Exists(1, theta), {0: 2})
    at_g = boolean_value(z6, theta, {0: 2, 1: g})
    assert z6.mul(exists_v, at_g) == exists_v  # exists <= at_g


def test_axiom3_no_witness_anywhere(z6):
    theta = parse_ring_formula("x0*x1 = 1")  # x0 = 0 has no inverse
    g = patch_witness(z6, theta, 1, {0: 0})
    assert boolean_value(z6, Exists(1, theta), {0: 0}) == 0
    assert g == 0


def test_axiom3_witness_everywhere(z6):
    theta = parse_ring_formula("x0+x1 = 0")
    g = patch_witness(z6, theta, 1, {0: 2})
    assert boolean_value(z6, theta, {0: 2, 1: g}) == 1


def test_axiom3_construction_complete(z6, z2xz3):
    """Patching succeeds whenever exhaustive search finds any witness."""
    pool = [parse_ring_formula(t) for t in
            ("x0*x1 = 1", "x1*x1 = x0", "x0+x1 = 1", "x1*x1 = x1 & ~(x1 = x0)")]
    for ring in (z6, z2xz3):
        B = idempotent_algebra(ring)
        for theta in pool:
            for v in ring.elements:
                env = {0: v}
                exists_v = boolean_value(ring, Exists(1, theta), env)
                found = None
                for g in ring.elements:
                    vg = boolean_value(ring, theta, {**env, 1: g})
                    if B.below(exists_v, vg):
                        found = g
                        break
                patched = patch_witness(ring, theta, 1, env)
                vp = boolean_value(ring, theta, {**env, 1: patched})
                assert found is not None
                assert B.below(exists_v, vp)


def test_axiom4_passes(z6, z4):
    assert check_axiom4(z6, budget=FAST).passed
    assert check_axiom4(z4, budget=FAST).passed


def test_axiom4_boolean_value_example(z6):
    value = boolean_value(z6, parse_ring_formula("x0 = 0"), {0: 3})
    assert value == 4  # 3 vanishes in the Z/3 stalk only, so not 1
    assert boolean_value(z6, parse_ring_formula("x0+x0 = 0"), {0: 3}) == 1


def test_axiom5_passes(z6, z4):
    assert check_axiom5(z6, budget=FAST).passed
    assert check_axiom5(z4, budget=FAST).passed


def test_axiom5_rejects_non_partition_input(z6):
    cells = (parse_ring_formula("x0 = 0"), parse_ring_formula("x0 = 0"))
    with pytest.raises(ValueError):
        check_axiom5(z6, partition_sequences=[(cells, 0)], budget=FAST)


def test_axiom5_isomorphic_rings_agree(z6, z2xz3):
    r1 = check_axiom5(z6, budget=FAST)
    r2 = check_axiom5(z2xz3, budget=FAST)
    assert r1.passed and r2.passed
    assert r1.instances == r2.instances


@pytest.mark.parametrize("ring", [
    modular_ring(4), modular_ring(6),
    product_ring([modular_ring(2), modular_ring(2)])],
    ids=["Z4", "Z6", "Z2xZ2"])
def test_axiom5_patching_side_matches_literal_beval(ring):
    """check_axiom5 decides phi* by eval_psi; the literal _beval reading
    must give the same verdict at every value tuple any witness reaches,
    for every partition sequence and phi the checker uses."""
    full = (1 << len(atoms(ring))) - 1
    verdicts = []
    for cells, witness in default_partition_sequences():
        m = len(cells) - 1
        params = sorted(set().union(*map(free_variables, cells)) - {witness})
        cache = StalkValueCache(ring, cells)
        value_tuples = {
            cache.masks({**dict(zip(params, vals)), witness: g})
            for vals in itertools.product(ring.elements, repeat=len(params))
            for g in ring.elements}
        for phi in default_phi_pool(m + 1):
            star = phi_star(phi, m)
            for masks in value_tuples:
                literal = _beval(star, dict(enumerate(masks)), full)
                assert eval_psi(star, masks, full) == literal, (phi, masks)
                verdicts.append(literal)
    assert True in verdicts and False in verdicts


def test_axiom5_patched_witness_reproduces_partition(z6):
    """In the partition-to-patching direction the constructed g gives
    boolean values equal to the chosen partition cells exactly."""
    cells, witness = default_partition_sequences()[1]  # cells of x0 = x1
    B = idempotent_algebra(z6)
    for v in z6.elements:
        env = {0: v}
        bounds = boolean_value_batch(
            z6, tuple(Exists(witness, c) for c in cells), env)
        # choose the partition that assigns each atom to its first live cell
        masks = [B.atom_mask(b) for b in bounds]
        chosen = [0] * len(cells)
        for i in range(len(B.atoms)):
            for j, m in enumerate(masks):
                if m >> i & 1:
                    chosen[j] |= 1 << i
                    break
        partition = [B.element_of_mask(m) for m in chosen]
        g = z6.zero
        for i, e in enumerate(B.atoms):
            j = next(j for j, m in enumerate(chosen) if m >> i & 1)
            st_elems = [x for x in z6.elements if z6.mul(e, x) == x]
            for cand in st_elems:
                local = {0: z6.mul(e, v), witness: cand}
                from ringfv.semantics import _eval
                from ringfv.rings import stalk
                if _eval(stalk(z6, e), cells[j], local):
                    g = z6.add(g, cand)
                    break
        assert boolean_value_batch(z6, cells, {**env, witness: g}) == partition


def test_run_axiom_suite_all_pass(z6, z4):
    for ring in (z6, z4):
        reports = run_axiom_suite(ring, FAST)
        assert {r.check for r in reports} >= {
            "axiom1", "axiom2", "axiom3", "axiom4", "axiom5",
            "boolean-laws", "lemma-conjunction", "lemma-negation",
            "lemma-disjunction"}
        assert all(r.passed for r in reports)


# instances per check at DEFAULT_BUDGET, every verdict a pass
SUITE_CHECKS = ("axiom1", "axiom2", "axiom3", "axiom4", "axiom5", "boolean-laws",
                "lemma-conjunction", "lemma-disjunction", "lemma-negation")
SUITE_INSTANCES = {
    "Z/4": (1, 121, 30, 247, 78, 8, 504, 504, 121),
    "Z/6": (3, 241, 40, 429, 114, 64, 1068, 1068, 241),
    "Z/8": (1, 401, 50, 659, 150, 8, 1840, 1840, 401),
    "Z/12": (3, 841, 70, 1263, 222, 64, 1928, 1928, 441),
    "Z/30": (7, 4801, 160, 6357, 546, 512, 2324, 2324, 621),
    "Z/60": (7, 921, 310, 2271, 1086, 512, 2984, 2984, 921),
    "Z/2 x Z/2": (3, 121, 30, 247, 78, 64, 504, 504, 121),
    "Z/4 x Z/9": (3, 6841, 190, 8919, 654, 64, 2456, 2456, 681),
    "Z/2 x Z/3 x Z/5": (7, 4801, 160, 6357, 546, 512, 2324, 2324, 621),
}


def test_run_axiom_suite_pinned_instances(suite_rings):
    got = {ring.label: [(r.check, r.instances, r.verdict)
                        for r in run_axiom_suite(ring, DEFAULT_BUDGET)]
           for ring in suite_rings}
    assert got == {label: [(c, n, "pass") for c, n in zip(SUITE_CHECKS, counts)]
                   for label, counts in SUITE_INSTANCES.items()}


def _lemma_instances(ring, budget, arity):
    """The value lemmas' instances in checker order, each with the reference
    values of its formulas: formula pairs (arity 2) or formulas (arity 1)
    from the pool, then every assignment (the ring has at most 8 elements)."""
    pool = [f for f in default_formula_pool()
            if len(free_variables(f)) <= 2][:budget.max_formulas]
    tuples = (list(itertools.product(pool, repeat=2))[:budget.max_formulas]
              if arity == 2 else [(t,) for t in pool])
    for ts in tuples:
        fv = sorted(set().union(*map(free_variables, ts)))
        for vals in itertools.product(ring.elements, repeat=len(fv)):
            env = dict(zip(fv, vals))
            yield ts, env, [boolean_value(ring, t, env) for t in ts]


def _env_json(env):
    return {f"x{k}": repr(v) for k, v in sorted(env.items())}


@pytest.mark.parametrize("law, arity, target", [
    ("meet", 2, (4, 3)), ("complement", 1, (3,)), ("join", 2, (0, 3))])
def test_value_lemma_fails_at_first_instance_of_a_wrong_law(law, arity, target,
                                                            monkeypatch):
    """An algebra law wrong on one input makes its lemma fail at the first
    instance whose formula values are that input, with that counterexample."""
    ring = modular_ring(6)
    algebra = idempotent_algebra(ring)
    original = getattr(algebra, law)
    monkeypatch.setattr(algebra, law, lambda *xs: (
        ring.one if xs == target else original(*xs)))
    hits = [(n, ts, env) for n, (ts, env, values) in enumerate(
        _lemma_instances(ring, FAST, arity), start=1) if tuple(values) == target]
    assert hits and hits[0][0] > 1 and original(*target) != ring.one
    n, ts, env = hits[0]
    reports = {r.check: r for r in _check_value_lemmas(ring, FAST)}
    failing = {"meet": "lemma-conjunction", "join": "lemma-disjunction",
               "complement": "lemma-negation"}[law]
    names = ("theta1", "theta2") if arity == 2 else ("theta",)
    assert reports[failing].verdict == "fail"
    assert reports[failing].instances == n
    assert reports[failing].counterexample == {
        **{k: format_ring_formula(t) for k, t in zip(names, ts)},
        "assignment": _env_json(env)}
    assert all(r.passed for check, r in reports.items() if check != failing)


def test_report_json_shape(z6):
    report = check_axiom1(z6)
    assert report.to_json() == {"ring": "Z/6", "axiom": "axiom1",
                                "instances": 3, "verdict": "pass"}


def test_budget_sampling_is_deterministic(z60):
    b = CheckBudget(max_formulas=6, max_assignments=10, seed=5)
    r1 = check_axiom2(z60, budget=b)
    r2 = check_axiom2(z60, budget=b)
    assert r1 == r2


def test_sampled_assignments_on_a_product_follow_the_seeded_draws():
    # the sample is elements[randrange(size)] per variable, drawn in order
    ring = product_ring([modular_ring(4), modular_ring(9)])
    envs = list(_assignments(ring, {0, 1}, DEFAULT_BUDGET, exhaustive_size=8))
    listed = list(ring.elements)
    rng = random.Random((DEFAULT_BUDGET.seed, ring.size, 2).__hash__())
    assert envs == [{v: listed[rng.randrange(ring.size)] for v in (0, 1)}
                    for _ in range(DEFAULT_BUDGET.max_assignments)]
    assert envs[:2] == [{0: (2, 3), 1: (2, 6)}, {0: (3, 7), 1: (0, 2)}]
    assert envs[-1] == {0: (1, 4), 1: (1, 0)}
