"""Deterministic formula suites and the standard ring suite.

The generated suites are the fixed test surface for the oracle-equivalence
harness: enumeration is purely structural, deduplicated up to renaming of
variables (free variables by first occurrence, bound ones alpha-style), and
ordered reproducibly, so identical inputs give byte-identical suites.
"""

from __future__ import annotations

import functools
import itertools

from .formula import (Add, And, Eq, Exists, Mul, Not, ONE, Sub, Var, ZERO,
                      ast_size, canonical_relabel, free_variables,
                      format_ring_formula, parse_ring_formula,
                      quantifier_depth)
from .rings import modular_ring, product_ring


def term_pool(var_indices, max_ops: int) -> tuple:
    """All ring terms with at most max_ops operators over 0, 1 and the vars."""
    by_ops = [[ZERO, ONE] + [Var(i) for i in var_indices]]
    for ops in range(1, max_ops + 1):
        layer = []
        for left_ops in range(ops):
            right_ops = ops - 1 - left_ops
            for l in by_ops[left_ops]:
                for r in by_ops[right_ops]:
                    layer += [Add(l, r), Sub(l, r), Mul(l, r)]
        by_ops.append(layer)
    return tuple(itertools.chain.from_iterable(by_ops))


def _dedup(formulas) -> list:
    seen = set()
    out = []
    for f in formulas:
        key = canonical_relabel(f)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _ordered(formulas) -> tuple:
    return tuple(sorted(formulas,
                        key=lambda f: (quantifier_depth(f), ast_size(f),
                                       format_ring_formula(f))))


@functools.lru_cache(maxsize=None)
def atomic_pool(var_indices=(0, 1), max_total_ops: int = 1) -> tuple:
    """Deduplicated equations t = s with a bounded operator budget."""
    terms = term_pool(var_indices, max_total_ops)
    ops = {t: (ast_size(t) - 1) // 2 for t in terms}  # binary operators only
    atoms = [Eq(t, s) for t in terms for s in terms
             if ops[t] + ops[s] <= max_total_ops]
    return _ordered(_dedup(atoms))


def _exists_closure(formulas) -> list:
    out = []
    for f in formulas:
        for v in sorted(free_variables(f)):
            out.append(Exists(v, f))
    return _dedup(out)


@functools.lru_cache(maxsize=None)
def default_depth2() -> tuple:
    """The default-depth2 suite: the fixed surface for equivalence checks.

    Strata, each enumerated exhaustively and deduplicated up to renaming:
    equations with at most one +,-,* over 0, 1, x0, x1; their negations;
    conjunctions of operator-free equations and their negations; every
    one-variable existential closure of all of the above; and depth-2
    existentials over three-variable one-operator equations, plus
    existentials over two-literal conjunctions of those.
    """
    atoms = list(atomic_pool((0, 1), 1))
    negs = [Not(a) for a in atoms]
    tiny = list(atomic_pool((0, 1), 0))
    tiny_lits = tiny + [Not(a) for a in tiny]
    conj = _dedup(And(a, b) for a, b in itertools.product(tiny_lits, repeat=2))
    depth1 = _exists_closure(atoms + negs + conj)

    core3 = [f for f in atomic_pool((0, 1, 2), 1)
             if len(free_variables(f)) == 3]
    depth2 = []
    for f in core3:
        for u, v in itertools.permutations(sorted(free_variables(f)), 2):
            depth2.append(Exists(u, Exists(v, f)))
            depth2.append(Exists(u, Not(Exists(v, f))))
    depth2 = _dedup(depth2)

    return _ordered(_dedup(atoms + negs + conj + depth1 + depth2))


@functools.lru_cache(maxsize=None)
def default_depth1() -> tuple:
    return tuple(f for f in default_depth2() if quantifier_depth(f) <= 1)


@functools.lru_cache(maxsize=None)
def smoke_suite() -> tuple:
    """A small fixed suite for fast checks and CLI determinism tests."""
    texts = (
        "0 = 0", "0 = 1", "x0 = 0", "~(x0 = 0)", "x0 = x1", "x0*x0 = x0",
        "x0 = 0 & x1 = 1", "x0 = 0 | x1 = 0", "x0 = 1 -> x0*x0 = 1",
        "E x0. x0*x0 = x0 & ~(x0 = 0) & ~(x0 = 1)",
        "E x1. x0*x1 = 1", "A x0. x0*x0*x0 = x0", "E x0. E x1. x0*x1 = 1",
        "A x1. x1*x0 = x1 -> x1 = 0",
    )
    return tuple(parse_ring_formula(t) for t in texts)


_SUITES = {
    "default-depth2": default_depth2,
    "default-depth1": default_depth1,
    "atomic": lambda: _ordered(atomic_pool((0, 1), 1)),
    "smoke": smoke_suite,
}


def available_suites() -> tuple:
    return tuple(sorted(_SUITES))


def formula_suite(name: str) -> tuple:
    try:
        return _SUITES[name]()
    except KeyError:
        raise ValueError(f"unknown formula suite {name!r}; "
                         f"available: {', '.join(available_suites())}") from None


def ring_suite() -> tuple:
    """The standard nine-ring test suite."""
    return (
        modular_ring(4),
        modular_ring(6),
        modular_ring(8),
        modular_ring(12),
        modular_ring(30),
        modular_ring(60),
        product_ring([modular_ring(2), modular_ring(2)]),
        product_ring([modular_ring(4), modular_ring(9)]),
        product_ring([modular_ring(2), modular_ring(3), modular_ring(5)]),
    )
