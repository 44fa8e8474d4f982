"""Tests for the symex hot-path optimizations.

Covers the three layers added for solver performance:

* hash-consing (interned smart constructors + cached structural hash) must
  not change the structural-equality semantics documented in
  :mod:`repro.symex.expr`;
* the memoized simplifier must stay a pure function (and keep its existing
  identity guarantees);
* the memoizing solver must answer bit-identically with the cache on and
  off, across every query kind that shares the memo.
"""

import pickle

import pytest

import repro.symex.solver as solver_mod
from repro.symex.expr import (
    BinExpr,
    Op,
    SymVar,
    UnExpr,
    make_binary,
    make_unary,
    make_var,
    sym_add,
    sym_and,
    sym_eq,
    sym_ge,
    sym_gt,
    sym_le,
    sym_lt,
    sym_mul,
    sym_not,
    value_from_dict,
    value_to_dict,
)
from repro.symex.simplify import simplify
from repro.symex.solver import Solver, SolverResult


class TestHashConsing:
    def test_smart_constructors_intern(self):
        x = make_var("x", 0, 10)
        assert make_binary(Op.ADD, x, 1) is make_binary(Op.ADD, x, 1)
        assert make_unary(Op.NOT, x) is make_unary(Op.NOT, x)
        assert sym_add(x, 1) is sym_add(x, 1)
        assert make_var("x", 0, 10) is x

    def test_interning_preserves_structural_equality_semantics(self):
        # A node built by calling the constructor directly (bypassing the
        # interning layer) must stay equal to -- and hash like -- the
        # interned node; interning is a sharing optimization, not a new
        # equality relation.
        x = make_var("x", 0, 10)
        interned = make_binary(Op.ADD, x, 1)
        direct = BinExpr(Op.ADD, x, 1)
        assert interned == direct
        assert hash(interned) == hash(direct)
        assert interned is not direct
        # Different structure stays unequal.
        assert interned != BinExpr(Op.ADD, x, 2)
        assert UnExpr(Op.NOT, x) != UnExpr(Op.NEG, x)

    def test_symvar_domains_stay_distinct(self):
        assert make_var("x", 0, 10) != make_var("x", 0, 11)
        assert make_var("x", 0, 10) != make_var("y", 0, 10)
        assert SymVar("x", 0, 10) == make_var("x", 0, 10)

    def test_decoder_interns(self):
        x = make_var("x", 0, 10)
        expr = sym_add(sym_mul(x, 2), 1)
        rebuilt = value_from_dict(value_to_dict(expr))
        assert rebuilt is expr

    def test_cached_hash_not_pickled(self):
        x = SymVar("x", 0, 10)
        expr = BinExpr(Op.ADD, x, 1)
        hash(expr)  # populate the cache
        assert "_hash" in expr.__dict__
        clone = pickle.loads(pickle.dumps(expr))
        assert "_hash" not in clone.__dict__
        assert clone == expr
        assert hash(clone) == hash(expr)

    def test_deepcopy_still_shares(self):
        import copy

        expr = sym_add(make_var("x", 0, 10), 1)
        assert copy.deepcopy(expr) is expr


class TestSimplifyMemo:
    def test_identity_guarantees_survive_memoization(self):
        x = SymVar("x", 0, 10)
        # Twice: the second call is served from the memo and must preserve
        # the documented identity result.
        assert simplify(sym_add(x, 0)) is x
        assert simplify(sym_add(x, 0)) is x
        assert simplify(sym_mul(x, 1)) is x

    def test_memo_is_pure(self):
        x = make_var("x", 0, 10)
        expr = sym_and(sym_ge(x, 2), sym_le(x, 7))
        assert simplify(expr) == simplify(expr)
        assert simplify(expr) is simplify(expr)


def _query_battery(solver: Solver):
    """A deterministic battery covering every query kind sharing the memo."""
    x = make_var("x", 0, 20)
    y = make_var("y", 0, 20)
    constraints = [sym_ge(x, 3), sym_le(x, 9), sym_lt(y, 5)]
    results = []
    for _ in range(3):  # repeats exercise the cache-hit path
        results.append(solver.check(list(constraints)))
        results.append(solver.is_satisfiable(constraints + [sym_eq(x, 4)]))
        results.append(solver.is_satisfiable(constraints + [sym_eq(x, 15)], unknown_is_sat=False))
        results.append(solver.get_model(constraints))
        results.append(solver.must_hold(constraints, sym_gt(x, 2)))
        results.append(solver.must_hold(constraints, sym_gt(x, 5)))
        results.append(solver.check_value(constraints, sym_add(x, y), 5))
        results.append(solver.check_value(constraints, sym_add(x, y), 200))
        results.append(solver.value_range(constraints, sym_add(x, 1)))
        results.append(solver.check([sym_not(sym_eq(x, x))]))
    return results


class TestSolverCache:
    def test_cache_on_off_bit_equivalence(self):
        cached = _query_battery(Solver(max_assignments=50_000, enable_cache=True))
        uncached = _query_battery(Solver(max_assignments=50_000, enable_cache=False))
        assert cached == uncached

    def test_repeat_query_hits_without_reenumerating(self):
        solver = Solver(enable_cache=True)
        x = make_var("x", 0, 200)
        constraints = [sym_ge(x, 100), sym_le(x, 150)]
        first = solver.check(list(constraints))
        enumerated = solver.stats.enumerated_assignments
        assert solver.stats.cache_misses == 1
        second = solver.check(tuple(constraints))  # different container, same set
        assert second == first
        assert solver.stats.cache_hits == 1
        assert solver.stats.enumerated_assignments == enumerated
        assert solver.stats.queries == 2

    def test_hit_returns_a_fresh_model_dict(self):
        solver = Solver(enable_cache=True)
        x = make_var("x", 0, 10)
        model = solver.get_model([sym_eq(x, 7)])
        model["x"] = 999  # caller-side mutation must not poison the cache
        assert solver.get_model([sym_eq(x, 7)]) == {"x": 7}

    def test_key_is_order_and_duplicate_insensitive(self):
        solver = Solver(enable_cache=True)
        x = make_var("x", 0, 10)
        a, b = sym_ge(x, 2), sym_le(x, 5)
        first = solver.check([a, b])
        assert solver.check([b, a]) == first
        assert solver.check([a, b, a]) == first
        assert solver.stats.cache_hits == 2

    def test_unsat_and_unknown_are_cached(self):
        solver = Solver(max_assignments=2, enable_cache=True)
        x = make_var("x", 0, 200)
        y = make_var("y", 0, 200)
        unsat = solver.check([sym_eq(x, 3), sym_eq(x, 4)])
        assert unsat[0] is SolverResult.UNSAT
        assert solver.check([sym_eq(x, 4), sym_eq(x, 3)]) == unsat
        # Budget exhaustion (2 assignments for a 201x201 cross product).
        unknown = solver.check([sym_eq(sym_add(x, y), 399)])
        assert unknown[0] is SolverResult.UNKNOWN
        assert solver.check([sym_eq(sym_add(x, y), 399)]) == unknown

    def test_module_default_toggle(self):
        previous = solver_mod.set_cache_enabled_default(False)
        try:
            assert Solver().enable_cache is False
            solver_mod.set_cache_enabled_default(True)
            assert Solver().enable_cache is True
        finally:
            solver_mod.set_cache_enabled_default(previous)

    def test_value_range_memo(self):
        solver = Solver(enable_cache=True)
        x = make_var("x", 0, 10)
        constraints = [sym_ge(x, 2), sym_le(x, 4)]
        assert solver.value_range(constraints, sym_add(x, 1)) == (3, 5)
        enumerated = solver.stats.enumerated_assignments
        assert solver.value_range(constraints, sym_add(x, 1)) == (3, 5)
        assert solver.stats.enumerated_assignments == enumerated
        # Range queries participate in the hits+misses == queries invariant.
        assert solver.stats.queries == 2
        assert solver.stats.cache_hits + solver.stats.cache_misses == 2
