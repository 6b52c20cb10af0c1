"""Factorization, CRT, atom tables and the residue decomposition harness."""

import pytest

from ringfv.residue import (DEFAULT_SENTENCES, atom_table, check_theorem_main,
                            compare_sentences, crt_solve, factor)
from ringfv.rings import atoms, is_connected, modular_ring
from ringfv.translate import TranslationDepthError

SUITE_N = (6, 12, 30, 60, 210)


def test_factor_examples():
    assert factor(60).factors == ((2, 2, 4), (3, 1, 3), (5, 1, 5))
    assert factor(8).factors == ((2, 3, 8),)
    assert factor(6).factors == ((2, 1, 2), (3, 1, 3))


def test_factor_reconstructs_n():
    for n in range(2, 400):
        decomposition = factor(n)
        prod = 1
        for p, k, q in decomposition.factors:
            assert q == p ** k
            assert n % q == 0 and n % (q * p) != 0  # maximal prime power
            prod *= q
        assert prod == n


def test_factor_rejects_small():
    with pytest.raises(ValueError):
        factor(1)


def test_crt_examples():
    assert crt_solve([(1, 2), (0, 3)]) == 3
    assert crt_solve([(1, 4), (0, 3), (0, 5)]) == 45
    assert crt_solve([(0, 7)]) == 0


def test_crt_uniqueness_brute_force():
    residues = [(3, 4), (2, 9), (4, 5)]
    u = crt_solve(residues)
    matches = [x for x in range(4 * 9 * 5)
               if all(x % q == r for r, q in residues)]
    assert matches == [u]


def test_crt_errors():
    with pytest.raises(ValueError):
        crt_solve([(1, 4), (1, 6)])
    with pytest.raises(ValueError):
        crt_solve([(5, 3)])
    with pytest.raises(ValueError):
        crt_solve([])


def test_atom_table_examples():
    assert atom_table(6) == {2: 3, 3: 4}
    assert atom_table(60) == {4: 45, 3: 40, 5: 36}
    assert atom_table(8) == {8: 1}


def test_atom_table_is_a_bijection():
    t = atom_table(60)
    assert sorted(t) == sorted(factor(60).prime_powers)
    assert len(set(t.values())) == len(t)


@pytest.mark.parametrize("n", SUITE_N)
def test_atom_table_agrees_with_scan(n):
    assert sorted(atom_table(n).values()) == sorted(atoms(modular_ring(n)))


@pytest.mark.parametrize("n", SUITE_N)
def test_idempotent_characterization(n):
    # r idempotent iff every maximal prime power divides r or r-1
    qs = factor(n).prime_powers
    for r in range(n):
        classical = all(r % q == 0 or (r - 1) % q == 0 for q in qs)
        assert (r * r % n == r) == classical


def test_connected_iff_prime_power():
    for n in range(2, 200):
        assert is_connected(modular_ring(n)) == (len(factor(n).factors) == 1)


@pytest.mark.parametrize("n,q", [(6, 2), (6, 3), (60, 4), (60, 3), (60, 5),
                                 (8, 8), (12, 4), (12, 3)])
def test_stalk_isomorphism(n, q):
    """x -> x mod q maps the stalk e_q * Z/n bijectively and
    operation-preservingly onto Z/q, checked exhaustively."""
    e = atom_table(n)[q]
    carrier = sorted({e * x % n for x in range(n)})
    assert sorted(z % q for z in carrier) == list(range(q))
    assert e % q == 1
    for a in carrier:
        for b in carrier:
            assert (a + b) % n % q == (a % q + b % q) % q
            assert a * b % n % q == (a % q) * (b % q) % q


def test_compare_sentences_keeps_order_and_flags_disagreement():
    z4, z2 = modular_ring(4), modular_ring(2)
    texts = ["E x0. x0*x0 = 0 & ~(x0 = 0)", "0 = 0"]
    nilpotent, trivial = compare_sentences(z4, z2, texts)
    assert (nilpotent.sentence, trivial.sentence) == tuple(texts)
    assert vars(nilpotent) == {"sentence": texts[0], "left": True, "right": False,
                               "left_fv": True, "right_fv": False}
    assert not nilpotent.ok and trivial.ok


def test_compare_sentences_refuses_open_formulas_and_deep_ones():
    z6 = modular_ring(6)
    with pytest.raises(ValueError, match="^sentence has free variables: x0 = 0$"):
        compare_sentences(z6, z6, ["0 = 0", "x0 = 0"])
    with pytest.raises(TranslationDepthError):
        compare_sentences(z6, z6, ["E x0. E x1. x0 = x1"], max_depth=1)


def test_default_sentences_are_thirty_closed_sentences():
    from ringfv.formula import free_variables, parse_ring_formula
    assert len(DEFAULT_SENTENCES) == 30
    for text in DEFAULT_SENTENCES:
        assert free_variables(parse_ring_formula(text)) == frozenset()


@pytest.mark.parametrize("n", (6, 12, 8))
def test_theorem_main_small(n):
    report = check_theorem_main(n)
    assert report.ok
    assert len(report.verdicts) == 30


def test_theorem_main_prime_power_is_isomorphic_presentation():
    report = check_theorem_main(8, sentences=DEFAULT_SENTENCES[:6])
    assert report.prime_powers == (8,)
    assert report.ok


def test_theorem_main_discriminating_sentences():
    report = check_theorem_main(6)
    by_text = {v.sentence: v.left for v in report.verdicts}
    assert by_text["E x0. x0*x0 = x0 & ~(x0 = 0)"] is True
    assert by_text["E x0. x0+x0 = 0 & ~(x0 = 0)"] is True
    assert by_text["E x0. x0*x0 = 0 & ~(x0 = 0)"] is False  # 6 squarefree
    assert by_text["A x0. x0*x0*x0 = x0"] is True           # classic for Z/6


def test_theorem_main_json(z6):
    payload = check_theorem_main(6, sentences=("0 = 0",)).to_json()
    assert payload["n"] == 6 and payload["prime_powers"] == [2, 3]
    assert payload["sentences"][0]["ok"] is True
