"""Translate first-order ring formulas into Boolean-algebra conditions over
stalks, and verify the translation against brute-force evaluation on finite
commutative unital rings."""

from .formula import (BoolFormula, BoolTerm, ParseError, RingFormula, RingTerm,
                      canonicalize, format_bool_formula, format_ring_formula,
                      free_variables, parse_bool_formula, parse_ring_formula,
                      substitute)
from .rings import (FiniteRing, RingError, Stalk, atoms, idempotents,
                    is_connected, modular_ring, product_ring, stalk, table_ring)
from .boolalg import (IdempotentAlgebra, eval_bool_formula, idempotent_algebra,
                      make_partition_formula, phi_star)
from .semantics import (UnboundVariableError, boolean_value,
                        boolean_value_batch, boolean_values, eval_direct)
from .translate import (TranslationResult, TranslationSizeError, eval_via_fv,
                        oracle_sweep, translate)
from .axioms import (AxiomReport, CheckBudget, check_axiom1, check_axiom2,
                     check_axiom3, check_axiom4, check_axiom5, run_axiom_suite)
from .residue import (DEFAULT_SENTENCES, PrimePowerDecomposition, atom_table,
                      check_theorem_main, crt_solve, factor)
from .suites import default_depth2, formula_suite, ring_suite

__all__ = [name for name in dir() if not name.startswith("_")]
