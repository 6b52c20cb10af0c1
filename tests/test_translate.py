"""The translation procedure, normalization and the equivalence harness."""

import importlib
import itertools

import pytest

from ringfv.boolalg import (eval_bool_formula, idempotent_algebra,
                            masks_form_partition, phi_star)
from ringfv.formula import (And, Exists, Not, canonicalize,
                            format_bool_formula, format_ring_formula,
                            free_variables, parse_bool_formula,
                            parse_ring_formula, substitute_bool)
from ringfv.rings import atom_stalks, atoms, modular_ring, product_ring
from ringfv.semantics import boolean_value_batch, eval_direct
from ringfv.suites import default_depth2, smoke_suite
from ringfv.translate import (FvEvaluator, TranslationSizeError,
                              TranslationResult,
                              _balanced_join, eval_via_fv, oracle_sweep,
                              translate)

# by module path: the package rebinds the name translate to the function
translate_module = importlib.import_module("ringfv.translate")


def normalize_to_partition(bool_formula, cells) -> tuple:
    """Repair (psi, cells) into an equivalent pair whose cells form a partition.

    This is the disjunctive-normal-form construction with the input cells
    as the propositional variables: output cell k is the sign pattern of
    the inputs given by the bits of k (bit l set means cell l positive),
    and the formula is rewritten over the joins of the matching patterns.
    The output cells are pairwise contradictory and jointly exhaustive by
    propositional logic alone, hence a partition sequence.
    """
    cells = tuple(cells)
    m = len(cells) - 1
    if m < 0:
        raise ValueError("need at least one cell")
    if any(v > m for v in free_variables(bool_formula)):
        raise ValueError(f"arity mismatch: psi mentions variables beyond v0..v{m}")
    out = []
    for k in range(1 << (m + 1)):
        conj = None
        for l in range(m + 1):
            lit = cells[l] if k >> l & 1 else Not(cells[l])
            conj = lit if conj is None else And(conj, lit)
        out.append(conj)
    mapping = {}
    for l in range(m + 1):
        ks = [k for k in range(1 << (m + 1)) if k >> l & 1]
        mapping[l] = _balanced_join(ks)
    return substitute_bool(bool_formula, mapping), tuple(out)


def _exists_by_normal_form(var, psi0, cells0):
    candidates = tuple(Exists(var, c) for c in cells0)
    return normalize_to_partition(phi_star(psi0, len(cells0) - 1), candidates)


def reference_translation(formula):
    """(psi, cells, trace) with the existential step taken literally:
    phi_star(psi0, m), then normalize_to_partition over the candidates."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(translate_module, "_exists_step", _exists_by_normal_form)
        return translate_module._translate(canonicalize(formula))


def assert_matches_reference(formula):
    result = translate(formula)
    assert (result.bool_formula, result.cells, result.trace) \
        == reference_translation(formula)


def test_exists_step_matches_normal_form_on_the_suites():
    # psi, cells and trace all equal, binder indices included
    for f in default_depth2() + smoke_suite():
        assert_matches_reference(f)


def test_translate_atomic_base_case():
    r = translate(parse_ring_formula("x0 = 0"))
    assert format_bool_formula(r.bool_formula) == "y0 = 1"
    assert [format_ring_formula(c) for c in r.cells] == ["x0 = 0", "~(x0 = 0)"]


def test_translate_negation_keeps_cells():
    base = translate(parse_ring_formula("x0 = 0"))
    neg = translate(parse_ring_formula("~(x0 = 0)"))
    assert neg.cells == base.cells
    assert format_bool_formula(neg.bool_formula) == "~(y0 = 1)"


def test_translate_existential_on_z6(z6):
    f = parse_ring_formula("E x0. x0 = 0")
    assert eval_via_fv(z6, f) is True
    assert eval_direct(z6, f) is True


def test_cell_count_law():
    atomic = translate(parse_ring_formula("x0 = x1"))
    assert len(atomic.cells) == 2
    conj = translate(parse_ring_formula("x0 = 0 & x1 = 0"))
    assert len(conj.cells) == 4
    single = translate(parse_ring_formula("E x1. x0*x1 = 1"))
    assert len(single.cells) == 4
    double = translate(parse_ring_formula("E x0. E x1. x0*x1 = 1"))
    assert len(double.cells) == 16
    bigger = translate(parse_ring_formula("x0 = 0 & x1 = 0 & x0 = x1"))
    assert len(bigger.cells) == 8


def test_trace_records_the_recursion():
    r = translate(parse_ring_formula("E x0. E x1. x0*x1 = 1"))
    assert [(s.op, s.cell_count) for s in r.trace] \
        == [("atomic", 2), ("exists", 4), ("exists", 16)]


def test_and_case_psi_uses_row_and_column_joins():
    r = translate(parse_ring_formula("x0 = 0 & x1 = 0"))
    assert format_bool_formula(r.bool_formula) == "(y0 v y1) = 1 & (y0 v y2) = 1"
    assert [format_ring_formula(c) for c in r.cells] == [
        "x0 = 0 & x1 = 0", "x0 = 0 & ~(x1 = 0)",
        "~(x0 = 0) & x1 = 0", "~(x0 = 0) & ~(x1 = 0)"]
    r = translate(parse_ring_formula("x0 = 0 & x1 = 1 & x0*x1 = x1"))
    assert format_bool_formula(r.bool_formula) == (
        "(y0 v y1 v (y2 v y3)) = 1 & (y0 v y1 v (y4 v y5)) = 1"
        " & (y0 v y2 v y4 v y6) = 1")


def test_normalize_single_cell():
    psi, cells = normalize_to_partition(parse_bool_formula("y0 = 1"),
                                        [parse_ring_formula("x0 = 0")])
    assert [format_ring_formula(c) for c in cells] == ["~(x0 = 0)", "x0 = 0"]
    assert format_bool_formula(psi) == "y1 = 1"


def test_normalize_two_cells_sign_patterns():
    a, b = parse_ring_formula("x0 = 0"), parse_ring_formula("x0 = 1")
    _, cells = normalize_to_partition(parse_bool_formula("y0 <= y1"), [a, b])
    assert cells == (And(Not(a), Not(b)), And(a, Not(b)),
                     And(Not(a), b), And(a, b))


def test_normalize_output_is_partition_sequence(z6, z60):
    a, b = parse_ring_formula("x0 = 0"), parse_ring_formula("x0*x0 = x0")
    _, cells = normalize_to_partition(parse_bool_formula("y0 v y1 = 1"), [a, b])
    for ring in (z6, z60):
        B = idempotent_algebra(ring)
        full = (1 << len(B.atoms)) - 1
        for v in ring.elements:
            values = boolean_value_batch(ring, cells, {0: v})
            assert masks_form_partition([B.atom_mask(e) for e in values], full)


def test_normalize_preserves_satisfaction(z6):
    # the rewritten formula agrees with the original on the boolean values
    B = idempotent_algebra(z6)
    a, b = parse_ring_formula("x0 = 0"), parse_ring_formula("x0*x0 = x0")
    phi = parse_bool_formula("y0 <= y1")
    psi, cells = normalize_to_partition(phi, [a, b])
    for v in z6.elements:
        old = boolean_value_batch(z6, (a, b), {0: v})
        new = boolean_value_batch(z6, cells, {0: v})
        lhs = eval_bool_formula(B, phi, dict(enumerate(old)))
        rhs = eval_bool_formula(B, psi, dict(enumerate(new)))
        assert lhs == rhs


def test_normalize_arity_mismatch():
    with pytest.raises(ValueError):
        normalize_to_partition(parse_bool_formula("y0 = 1 & y7 = 1"),
                               [parse_ring_formula("x0 = 0")])


def test_conjunction_refinement_row_joins(z6, z60):
    """The value of a factor cell is the join of its refinement row."""
    left = translate(parse_ring_formula("x0 = 0"))
    right = translate(parse_ring_formula("E x1. x0*x1 = 1"))
    combined = translate(parse_ring_formula("x0 = 0 & (E x1. x0*x1 = 1)"))
    a, b = len(left.cells), len(right.cells)
    assert len(combined.cells) == a * b
    for ring in (z6, z60):
        B = idempotent_algebra(ring)
        for v in ring.elements:
            env = {0: v}
            row = boolean_value_batch(ring, left.cells, env)
            col = boolean_value_batch(ring, right.cells, env)
            grid = boolean_value_batch(ring, combined.cells, env)
            for i in range(a):
                joined = ring.zero
                for j in range(b):
                    joined = B.join(joined, grid[i * b + j])
                assert joined == row[i]
            for j in range(b):
                joined = ring.zero
                for i in range(a):
                    joined = B.join(joined, grid[i * b + j])
                assert joined == col[j]


def test_translation_result_arity_check():
    source = parse_ring_formula("x0 = 0")
    cells = (source, Not(source))
    TranslationResult(source, parse_bool_formula("y1 = 1"), cells, ())
    with pytest.raises(ValueError, match="arity mismatch"):
        TranslationResult(source, parse_bool_formula("y2 = 1"), cells, ())


def test_translation_uniform_and_cached():
    f = parse_ring_formula("E x1. x0*x1 = 1")
    assert translate(f) is translate(f)
    g = parse_ring_formula("E x1. x0*x1 = 1")
    assert translate(g) == translate(f)


def test_eval_via_fv_matches_naive_composition(z6, z2xz3):
    f = parse_ring_formula("E x1. x0*x1 = 1")
    result = translate(f)
    for ring in (z6, z2xz3):
        B = idempotent_algebra(ring)
        ev = FvEvaluator(ring, result)
        for v in ring.elements:
            env = {0: v}
            values = boolean_value_batch(ring, result.cells, env)
            naive = eval_bool_formula(B, result.bool_formula, dict(enumerate(values)))
            assert ev.evaluate(env) == naive == eval_via_fv(ring, f, env)


@pytest.mark.parametrize("text,expected", [
    ("E x0. x0*x0 = x0 & ~(x0 = 0) & ~(x0 = 1)", {"Z/6": True, "Z/4": False}),
    ("0 = 1", {"Z/6": False, "Z/4": False}),
])
def test_eval_via_fv_known_cases(text, expected, z6, z4):
    f = parse_ring_formula(text)
    for ring in (z6, z4):
        assert eval_via_fv(ring, f) == expected[ring.label]


def test_oracle_sweep_smoke(suite_rings):
    for ring in suite_rings[:4]:
        report = oracle_sweep(ring, smoke_suite())
        assert report.ok, (report.mismatches, report.partition_failures)
        assert report.instances > 0


def test_oracle_sweep_with_table_ring_factor():
    # elements here are (index, residue) pairs, not plain integers
    from test_rings import GF4_ADD, GF4_MUL
    from ringfv.rings import table_ring
    gf4 = table_ring(GF4_ADD, GF4_MUL, 0, 1, label="GF(4)")
    ring = product_ring([gf4, modular_ring(9), modular_ring(5)])
    report = oracle_sweep(ring, smoke_suite())
    assert report.ok, (report.mismatches, report.partition_failures)


def test_oracle_sweep_on_a_stalk():
    # a stalk is itself a finite ring and goes through the same pipeline;
    # 45 and 36 are atoms of Z/60, 21 is a non-minimal idempotent
    from ringfv.rings import stalk
    big = modular_ring(60)
    for e in (45, 36, 21):
        report = oracle_sweep(stalk(big, e), smoke_suite())
        assert report.ok, (e, report.mismatches, report.partition_failures)


def test_oracle_sweep_reports_json(z6):
    report = oracle_sweep(z6, smoke_suite()[:3])
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["ring"] == "Z/6"


@pytest.mark.parametrize("method", ["evaluate_masks", "masks_form_partition"])
def test_oracle_sweep_counts_failures_beyond_collect_limit(z6, monkeypatch, method):
    # force every verdict (or every partition check) wrong and collect none
    original = getattr(FvEvaluator, method)
    monkeypatch.setattr(FvEvaluator, method,
                        lambda self, masks: not original(self, masks))
    formula = parse_ring_formula("E x1. x0*x1 = 1")
    report = oracle_sweep(z6, [formula], collect_limit=0)
    assert report.mismatches == () and report.partition_failures == ()
    counts = {"evaluate_masks": report.mismatch_count,
              "masks_form_partition": report.partition_failure_count}
    assert counts[method] == report.instances == 6
    assert not report.ok
    assert report.to_json()["ok"] is False


@pytest.mark.parametrize("texts", [
    ("x0 = x1", "x0*x1 = 0", "~(x0 = x1) & ~(x0*x1 = 0)"),
    ("x0 = 0", "x0 = x1 & ~(x0 = 0)"),
], ids=["overlapping", "not-covering"])
def test_partition_check_on_cells_that_are_not_a_partition(z6, z60, texts):
    """No monkeypatch: hand-built cells fail the partition check on some
    assignments, and the packed verdict matches the stalk-by-stalk masks."""
    cells = tuple(parse_ring_formula(t) for t in texts)
    psi = parse_bool_formula("y0 = 1")
    for ring in (z6, z60):
        ev = FvEvaluator(ring, TranslationResult(cells[0], psi, cells, ()))
        B = idempotent_algebra(ring)
        verdicts = set()
        for vals, packed in zip(itertools.product(ring.elements, repeat=2),
                                ev.mask_grid((0, 1))):
            values = boolean_value_batch(ring, cells, dict(enumerate(vals)))
            verdict = masks_form_partition([B.atom_mask(v) for v in values], ev.full)
            assert ev.masks_form_partition(packed) == verdict, (ring.label, vals)
            verdicts.add(verdict)
        assert verdicts == {True, False}, ring.label


def test_corollary_ring_equals_product_of_stalks(suite_rings):
    """Sentences agree between R and the product of its atom stalks."""
    sentences = [parse_ring_formula(t) for t in (
        "E x0. x0*x0 = x0 & ~(x0 = 0) & ~(x0 = 1)",
        "A x0. x0*x0*x0 = x0", "E x0. x0+x0 = 0 & ~(x0 = 0)",
        "E x0. x0*x0 = 0 & ~(x0 = 0)", "A x0. E x1. x0*x1 = x0")]
    for ring in suite_rings:
        factors = atom_stalks(ring)
        prod = product_ring(factors)
        for sentence in sentences:
            assert eval_direct(ring, sentence) == eval_direct(prod, sentence)


def test_depth_guard():
    """There is no depth cap: the cell cap refuses deep formulas."""
    deep = parse_ring_formula("E x0. E x1. E x2. E x3. x0*x1 = x2*x3")
    with pytest.raises(TranslationSizeError, match=r"at least 2\^65536 cells"):
        translate(deep)
    shallow = parse_ring_formula("E x0. E x1. x0 = x1")
    assert len(translate(shallow).cells) == 16


def test_cell_guard():
    wide = parse_ring_formula(
        "E x0. x0 = 0 & x0 = 1 & x0 = x1 & x0*x0 = x0 & x0+x0 = 0 & x0 = x2")
    with pytest.raises(TranslationSizeError) as exc:
        translate(wide)
    assert exc.value.estimated_cells == 2 ** 64
    # 2^(2^256) cells: the estimate stops at 2^65536 and says so
    triple = parse_ring_formula("E x0. E x1. E x2. x0 = 0 & x1 = 0 & x2 = 0")
    with pytest.raises(TranslationSizeError, match="at least 2\\^65536 cells"):
        translate(triple)


def test_translate_handles_derived_connectives(z6):
    for text in ("x0 = 0 | x0 = 1", "x0 = 0 -> x0*x0 = x0",
                 "A x1. x1*x0 = x1 -> x1 = 0"):
        f = parse_ring_formula(text)
        for v in z6.elements:
            assert eval_via_fv(z6, f, {0: v}) == eval_direct(z6, f, {0: v})


def test_translation_result_json():
    payload = translate(parse_ring_formula("x0 = 0")).to_json()
    assert payload == {
        "source": "x0 = 0", "psi": "y0 = 1",
        "cells": ["x0 = 0", "~(x0 = 0)"], "cell_count": 2,
        "trace": [{"op": "atomic", "cells": 2}]}


@pytest.mark.parametrize("text", [
    "x0 = 0", "E x1. x0*x1 = 1", "E x0. E x1. x0*x1 = 1",
    "x0 = 0 & (E x1. x0*x1 = 1)", "A x0. x0 = 0 | x0*x0 = x0",
])
def test_generated_output_round_trips(text):
    # the printers must survive machine-generated shapes, not just input ones
    result = translate(parse_ring_formula(text))
    assert parse_bool_formula(format_bool_formula(result.bool_formula)) \
        == result.bool_formula
    for cell in result.cells:
        assert parse_ring_formula(format_ring_formula(cell)) == cell
