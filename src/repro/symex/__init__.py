"""Symbolic expression language and constraint solving.

This package is the reproduction's substitute for the KLEE expression
language and the STP solver used by the original Portend prototype.  It
provides:

* :mod:`repro.symex.expr` -- a small integer/boolean expression language with
  bounded symbolic variables,
* :mod:`repro.symex.simplify` -- constant folding and algebraic rewrites,
* :mod:`repro.symex.path_condition` -- accumulated branch constraints,
* :mod:`repro.symex.solver` -- a bounded-domain satisfiability and
  model-generation engine (interval narrowing plus enumeration), the one
  solver every analysis uses, the way Portend uses KLEE's STP.

All symbolic variables carry an explicit finite integer domain, which is what
makes a complete, dependency-free solver feasible: the workloads used in the
paper reproduction only ever mark a handful of small-domain inputs symbolic
(the paper itself uses two symbolic inputs per program, §5).
"""

from repro.symex.expr import (
    Op,
    SymExpr,
    SymVar,
    BinExpr,
    UnExpr,
    IteExpr,
    is_symbolic,
    free_variables,
    substitute,
    evaluate,
    sym_add,
    sym_sub,
    sym_mul,
    sym_div,
    sym_mod,
    sym_eq,
    sym_ne,
    sym_lt,
    sym_le,
    sym_gt,
    sym_ge,
    sym_and,
    sym_or,
    sym_not,
    sym_neg,
    sym_ite,
)
from repro.symex.simplify import simplify
from repro.symex.path_condition import PathCondition
from repro.symex.solver import Solver, SolverResult, SolverStats

__all__ = [
    "Op",
    "SymExpr",
    "SymVar",
    "BinExpr",
    "UnExpr",
    "IteExpr",
    "is_symbolic",
    "free_variables",
    "substitute",
    "evaluate",
    "simplify",
    "PathCondition",
    "Solver",
    "SolverResult",
    "SolverStats",
    "sym_add",
    "sym_sub",
    "sym_mul",
    "sym_div",
    "sym_mod",
    "sym_eq",
    "sym_ne",
    "sym_lt",
    "sym_le",
    "sym_gt",
    "sym_ge",
    "sym_and",
    "sym_or",
    "sym_not",
    "sym_neg",
    "sym_ite",
]
