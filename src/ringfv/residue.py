"""Residue rings Z/n: factorization, CRT, atoms, and the decomposition harness.

For n with maximal prime powers q_1..q_r, the atoms of the idempotent
algebra of Z/n are exactly the CRT solutions e_q = 1 (mod q), 0 (mod q')
for q' != q, and Z/n satisfies the same sentences as the product of the
Z/q.  check_theorem_main exercises that equivalence sentence by sentence,
with the translation pipeline cross-checked against direct evaluation on
both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .formula import free_variables, parse_ring_formula
from .rings import modular_ring, product_ring
from .semantics import eval_direct
from .translate import eval_via_fv


@dataclass(frozen=True)
class PrimePowerDecomposition:
    n: int
    factors: tuple  # (prime, exponent, prime_power), sorted by prime

    @property
    def prime_powers(self) -> tuple:
        return tuple(q for _, _, q in self.factors)


def factor(n: int) -> PrimePowerDecomposition:
    """Trial-division factorization into maximal prime powers."""
    if n < 2:
        raise ValueError("need n >= 2")
    factors = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            k = 0
            q = 1
            while rest % p == 0:
                rest //= p
                k += 1
                q *= p
            factors.append((p, k, q))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1, rest))
    return PrimePowerDecomposition(n, tuple(factors))


def crt_solve(residues) -> int:
    """The unique u below the product with u = r (mod q) for every pair."""
    residues = list(residues)
    if not residues:
        raise ValueError("need at least one congruence")
    moduli = [q for _, q in residues]
    for i, qi in enumerate(moduli):
        for qj in moduli[i + 1:]:
            if math.gcd(qi, qj) != 1:
                raise ValueError(f"moduli {qi} and {qj} are not coprime")
    for r, q in residues:
        if not 0 <= r < q:
            raise ValueError(f"residue {r} out of range for modulus {q}")
    u, modulus = 0, 1
    for r, q in residues:
        # lift: adjust u by a multiple of the accumulated modulus
        t = ((r - u) * pow(modulus, -1, q)) % q
        u += modulus * t
        modulus *= q
    return u


def atom_table(n: int) -> dict:
    """Atoms of Z/n by CRT, as {q: e_q} with e_q = 1 (mod q), 0 (mod q').

    A prime power has the single atom 1.  Every produced element is
    verified idempotent and minimal against a scan of all idempotents.
    """
    qs = factor(n).prime_powers
    if len(qs) == 1:
        table = {qs[0]: 1 % n}
    else:
        table = {q: crt_solve([(1 if q2 == q else 0, q2) for q2 in qs]) for q in qs}
    nonzero_idempotents = [x for x in range(1, n) if x * x % n == x]
    for q, e in table.items():
        if e * e % n != e:
            raise ArithmeticError(f"CRT atom {e} for {q} is not idempotent mod {n}")
        below = [f for f in nonzero_idempotents if f * e % n == f and f != e]
        if below:
            raise ArithmeticError(f"CRT atom {e} for {q} is not minimal: {below[0]} below")
    return table


DEFAULT_SENTENCES = (
    # arithmetic identities and refutations
    "0 = 0",
    "~(0 = 1)",
    "1+1 = 2",
    "2+2 = 4",
    "~(2*2 = 5)",
    "2*3 = 6",
    # torsion and characteristic probes
    "E x0. x0+x0 = 0 & ~(x0 = 0)",
    "E x0. x0+x0+x0 = 0 & ~(x0 = 0)",
    "E x0. 5*x0 = 0 & ~(x0 = 0)",
    "A x0. 7*x0 = 0 -> x0 = 0",
    "E x0. x0+x0 = 1",
    "E x0. x0+x0+x0 = 1",
    "E x0. 5*x0 = 1",
    # nilpotents and idempotents
    "E x0. x0*x0 = 0 & ~(x0 = 0)",
    "E x0. x0*x0 = x0 & ~(x0 = 0)",
    "E x0. x0*x0 = x0 & ~(x0+x0 = 0)",
    "E x0. x0*x0 = x0 & ~(3*x0 = x0)",
    # units and squares
    "E x0. x0*x0 = 1 & ~(x0 = 1)",
    "E x0. x0*x0 = 2",
    "E x0. x0*x0 = x0+x0 & ~(x0 = 0)",
    "E x0. x0-1 = 1",
    # one-variable universal laws
    "A x0. x0*x0 = x0",
    "A x0. x0*x0*x0 = x0",
    "A x0. x0+x0 = 0 -> x0*x0 = x0",
    "A x0. x0*x0 = x0 -> x0*x0*x0 = x0",
    "A x0. x0 = 0 | ~(x0 = 0)",
    # quantifier alternations over atomic cores
    "A x0. E x1. x0+x1 = 0",
    "A x0. E x1. x1*x1 = x0",
    "E x0. A x1. x0*x1 = x0",
    "E x0. E x1. x0*x1 = 2",
)


@dataclass(frozen=True)
class SentenceVerdict:
    sentence: str
    left: bool
    right: bool
    left_fv: bool
    right_fv: bool

    @property
    def ok(self) -> bool:
        return self.left == self.right == self.left_fv == self.right_fv


@dataclass(frozen=True)
class TheoremMainReport:
    n: int
    prime_powers: tuple
    verdicts: tuple

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "prime_powers": list(self.prime_powers),
            "sentences": [vars(v) | {"ok": v.ok} for v in self.verdicts],
            "ok": self.ok,
        }


def compare_sentences(left, right, texts) -> tuple:
    """One SentenceVerdict per sentence: direct and translated evaluation on
    both rings.  An open formula is refused."""
    verdicts = []
    for text in texts:
        sentence = parse_ring_formula(text)
        if free_variables(sentence):
            raise ValueError(f"sentence has free variables: {text}")
        verdicts.append(SentenceVerdict(
            text,
            eval_direct(left, sentence),
            eval_direct(right, sentence),
            eval_via_fv(left, sentence),
            eval_via_fv(right, sentence),
        ))
    return tuple(verdicts)


def check_theorem_main(n: int, sentences=None) -> TheoremMainReport:
    """Z/n and the product of its maximal prime-power residue rings agree
    on every sentence, by direct evaluation and through the translation."""
    qs = factor(n).prime_powers
    texts = DEFAULT_SENTENCES if sentences is None else sentences
    verdicts = compare_sentences(modular_ring(n),
                                 product_ring([modular_ring(q) for q in qs]), texts)
    return TheoremMainReport(n, qs, verdicts)
