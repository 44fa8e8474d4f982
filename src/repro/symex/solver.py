"""Bounded-domain constraint solver.

This is the reproduction's stand-in for the STP/Kleaver solver that KLEE and
Cloud9 use.  The Portend algorithms only need three queries:

* *feasibility* of a path condition (``is_satisfiable``),
* *model generation* -- concrete inputs that drive the program down a
  primary path (``get_model``), and
* *membership* -- does a concrete alternate-execution output satisfy the
  symbolic output constraints of a primary execution (``check_value`` /
  ``is_satisfiable`` with an added equality), used by symbolic output
  comparison (§3.3.1).

Because every symbolic variable carries a finite domain (see
:class:`repro.symex.expr.SymVar`), the solver can be complete: it first
narrows per-variable intervals using the syntactically simple constraints
(``var <cmp> const``), then enumerates the remaining cross product up to a
configurable budget.  If the budget is exhausted the solver answers
``UNKNOWN``; callers decide how to treat that (the executor conservatively
treats unknown branches as feasible, matching KLEE's behaviour on solver
timeouts).

The solver memoizes itself: every :meth:`Solver.check` result (verdict *and*
model) is cached under a canonical fingerprint of the constraint set -- the
``frozenset`` of the constraints, which is order- and duplicate-insensitive
and cheap to hash thanks to the hash-consed expressions.  Because
``is_satisfiable``/``get_model``/``must_hold``/``check_value`` all funnel
into ``check`` (and ``value_range`` has its own memo), one exploration's
repeated queries -- e.g. the same symbolic-output membership test against
each of Ma alternate schedules -- enumerate assignments exactly once.  The
cache is deterministic: a hit returns bit-identically what the miss
computed, so cached and uncached runs classify identically (asserted by the
test suite).

A solver built with a :class:`SolverMemo` reads and writes that memo's
dicts instead of private ones.  The engine builds one fresh solver per task
on the solver memo its trace's context owns (see
:class:`repro.engine.tasks.TraceContext`), so the races and primary paths
of one trace share warm entries while each task's stats stay its own
delta.  Sharing is safe for the same reason caching is: a warm hit returns
bit-identically what the miss would have computed.  Nothing is persisted
to disk, so every engine run starts from empty solver memos.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.symex.expr import (
    BinExpr,
    Op,
    SymExpr,
    SymVar,
    Value,
    evaluate,
    free_variables,
    is_symbolic,
    make_binary,
    substitute,
)
from repro.symex.simplify import simplify


class SolverResult(enum.Enum):
    """Three-valued satisfiability verdict."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Counters describing solver work; exposed for the benchmark harness."""

    queries: int = 0
    enumerated_assignments: int = 0
    interval_prunes: int = 0
    unknown_answers: int = 0
    #: queries answered from the constraint-set memo
    cache_hits: int = 0
    #: queries that had to run the narrowing/enumeration machinery
    cache_misses: int = 0
    #: wall-clock seconds spent inside solver queries
    seconds: float = 0.0

    def reset(self) -> None:
        self.queries = 0
        self.enumerated_assignments = 0
        self.interval_prunes = 0
        self.unknown_answers = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.seconds = 0.0

    def to_dict(self) -> Dict[str, int]:
        """JSON-clean snapshot (travels back from engine worker tasks)."""
        return {
            "queries": self.queries,
            "enumerated_assignments": self.enumerated_assignments,
            "interval_prunes": self.interval_prunes,
            "unknown_answers": self.unknown_answers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "seconds": self.seconds,
        }


#: process-wide default for newly constructed solvers; the benchmark
#: harness flips this to measure the memo's effect (see
#: ``benchmarks/bench_engine.py``).  Results are bit-identical either way.
CACHE_ENABLED_DEFAULT = True


def set_cache_enabled_default(enabled: bool) -> bool:
    """Set the process-wide solver-cache default; returns the previous value."""
    global CACHE_ENABLED_DEFAULT
    previous = CACHE_ENABLED_DEFAULT
    CACHE_ENABLED_DEFAULT = bool(enabled)
    return previous


@dataclass
class SolverMemo:
    """The memo dicts of one or more solvers, keyed as :meth:`Solver.check`
    and :meth:`Solver.value_range` key them."""

    #: frozenset(constraints) -> (verdict, model)
    check: Dict[frozenset, Tuple[SolverResult, Optional[Dict[str, int]]]] = field(
        default_factory=dict
    )
    #: (frozenset(constraints), expr) -> (lo, hi) or None
    ranges: Dict[Tuple[frozenset, Value], object] = field(default_factory=dict)


@dataclass
class _Interval:
    lo: int
    hi: int

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def size(self) -> int:
        return 0 if self.is_empty() else self.hi - self.lo + 1


#: sentinel distinguishing "not cached" from a cached ``None`` range
_RANGE_MISS = object()


class Solver:
    """Complete-on-bounded-domains satisfiability and model generation."""

    #: entries per memo before it is cleared (clearing only costs future hits)
    CACHE_LIMIT = 65_536

    def __init__(
        self,
        max_assignments: int = 200_000,
        enable_cache: Optional[bool] = None,
        memo: Optional[SolverMemo] = None,
    ) -> None:
        self.max_assignments = max_assignments
        self.stats = SolverStats()
        self.enable_cache = (
            CACHE_ENABLED_DEFAULT if enable_cache is None else bool(enable_cache)
        )
        if memo is None or not self.enable_cache:
            memo = SolverMemo()
        #: shared by every query kind that funnels into :meth:`check`
        self._check_cache = memo.check
        self._range_cache = memo.ranges

    # ------------------------------------------------------------------ API

    def check(self, constraints: Sequence[Value]) -> Tuple[SolverResult, Optional[Dict[str, int]]]:
        """Return a (verdict, model) pair for the conjunction of constraints."""
        self.stats.queries += 1
        started = time.perf_counter()
        key: Optional[frozenset] = None
        if self.enable_cache:
            key = frozenset(constraints)
            cached = self._check_cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                verdict, model = cached
                self.stats.seconds += time.perf_counter() - started
                # Hand out a copy: callers may mutate the model dict.
                return verdict, (dict(model) if model is not None else None)
            self.stats.cache_misses += 1
        verdict, model = self._check_uncached(constraints)
        if key is not None:
            if len(self._check_cache) >= self.CACHE_LIMIT:
                self._check_cache.clear()
            self._check_cache[key] = (verdict, dict(model) if model is not None else None)
        self.stats.seconds += time.perf_counter() - started
        return verdict, model

    def _check_uncached(
        self, constraints: Sequence[Value]
    ) -> Tuple[SolverResult, Optional[Dict[str, int]]]:
        simplified: List[Value] = []
        for constraint in constraints:
            constraint = simplify(constraint)
            if not is_symbolic(constraint):
                if constraint == 0:
                    return SolverResult.UNSAT, None
                continue
            simplified.append(constraint)
        if not simplified:
            return SolverResult.SAT, {}

        variables = sorted(
            {var for constraint in simplified for var in free_variables(constraint)},
            key=lambda v: v.name,
        )
        intervals = self._narrow_intervals(simplified, variables)
        if intervals is None:
            return SolverResult.UNSAT, None
        model = self._enumerate(simplified, variables, intervals)
        if model is not None:
            return SolverResult.SAT, model
        if self._enumeration_was_exhaustive(variables, intervals):
            return SolverResult.UNSAT, None
        self.stats.unknown_answers += 1
        return SolverResult.UNKNOWN, None

    def is_satisfiable(self, constraints: Sequence[Value], unknown_is_sat: bool = True) -> bool:
        """Boolean convenience wrapper around :meth:`check`."""
        verdict, _ = self.check(constraints)
        if verdict is SolverResult.UNKNOWN:
            return unknown_is_sat
        return verdict is SolverResult.SAT

    def get_model(self, constraints: Sequence[Value]) -> Optional[Dict[str, int]]:
        """Return a satisfying assignment, or None if UNSAT/UNKNOWN."""
        verdict, model = self.check(constraints)
        if verdict is SolverResult.SAT:
            return {} if model is None else model
        return None

    def check_value(
        self, constraints: Sequence[Value], expr: Value, value: int
    ) -> bool:
        """Can ``expr`` take the concrete ``value`` under ``constraints``?

        This is the core query of symbolic output comparison: the concrete
        output of an alternate execution is accepted iff it lies in the set
        of values permitted by the primary execution's symbolic output.
        Unknown verdicts are treated as "yes" (conservative towards
        harmlessness, mirroring the paper's discussion of potential false
        negatives in §3.3.1).
        """
        if not is_symbolic(expr):
            return int(expr) == int(value)
        query = list(constraints) + [make_binary(Op.EQ, expr, int(value))]
        return self.is_satisfiable(query, unknown_is_sat=True)

    def must_hold(self, constraints: Sequence[Value], expr: Value) -> bool:
        """True when ``expr`` is nonzero under every model of ``constraints``."""
        if not is_symbolic(expr):
            return bool(expr)
        negated = list(constraints) + [make_binary(Op.EQ, expr, 0)]
        verdict, _ = self.check(negated)
        return verdict is SolverResult.UNSAT

    def value_range(
        self, constraints: Sequence[Value], expr: Value
    ) -> Optional[Tuple[int, int]]:
        """Best-effort (min, max) of ``expr`` under ``constraints``.

        Used by the memory model to decide whether a symbolic array index can
        possibly be out of bounds.  Returns None when nothing is known.
        """
        if not is_symbolic(expr):
            return int(expr), int(expr)
        # A range computation is a solver query like any other: counting it
        # here keeps the ``hits + misses == queries`` invariant of the
        # cache-enabled stats.
        self.stats.queries += 1
        started = time.perf_counter()
        key: Optional[Tuple[frozenset, Value]] = None
        if self.enable_cache:
            key = (frozenset(constraints), expr)
            cached = self._range_cache.get(key, _RANGE_MISS)
            if cached is not _RANGE_MISS:
                self.stats.cache_hits += 1
                self.stats.seconds += time.perf_counter() - started
                return cached
            self.stats.cache_misses += 1
        result = self._value_range_uncached(constraints, expr)
        if key is not None:
            if len(self._range_cache) >= self.CACHE_LIMIT:
                self._range_cache.clear()
            self._range_cache[key] = result
        self.stats.seconds += time.perf_counter() - started
        return result

    def _value_range_uncached(
        self, constraints: Sequence[Value], expr: Value
    ) -> Optional[Tuple[int, int]]:
        variables = sorted(free_variables(expr), key=lambda v: v.name)
        if not variables:
            return None
        all_constraints = [simplify(c) for c in constraints if is_symbolic(simplify(c))]
        intervals = self._narrow_intervals(all_constraints, variables)
        if intervals is None:
            return None
        lo_values: List[int] = []
        hi_values: List[int] = []
        budget = self.max_assignments
        assignments = self._assignment_iterator(variables, intervals)
        found = False
        for count, assignment in enumerate(assignments):
            if count >= budget:
                break
            self.stats.enumerated_assignments += 1
            if all_constraints and not _satisfies(all_constraints, assignment):
                continue
            value = substitute(expr, assignment)
            if is_symbolic(value):
                continue
            lo_values.append(int(value))
            hi_values.append(int(value))
            found = True
        if not found:
            return None
        return min(lo_values), max(hi_values)

    # ----------------------------------------------------------- internals

    def _narrow_intervals(
        self, constraints: Sequence[Value], variables: Sequence[SymVar]
    ) -> Optional[Dict[str, _Interval]]:
        """Narrow each variable's domain using ``var <cmp> const`` constraints."""
        intervals: Dict[str, _Interval] = {
            var.name: _Interval(var.lo, var.hi) for var in variables
        }
        for constraint in constraints:
            narrowed = _extract_simple_bound(constraint)
            if narrowed is None:
                continue
            name, op, const = narrowed
            if name not in intervals:
                continue
            interval = intervals[name]
            if op is Op.EQ:
                interval.lo = max(interval.lo, const)
                interval.hi = min(interval.hi, const)
            elif op is Op.LT:
                interval.hi = min(interval.hi, const - 1)
            elif op is Op.LE:
                interval.hi = min(interval.hi, const)
            elif op is Op.GT:
                interval.lo = max(interval.lo, const + 1)
            elif op is Op.GE:
                interval.lo = max(interval.lo, const)
            self.stats.interval_prunes += 1
            if interval.is_empty():
                return None
        return intervals

    def _assignment_iterator(
        self, variables: Sequence[SymVar], intervals: Dict[str, _Interval]
    ) -> Iterable[Dict[str, int]]:
        ranges = [
            range(intervals[var.name].lo, intervals[var.name].hi + 1) for var in variables
        ]
        names = [var.name for var in variables]
        for combination in itertools.product(*ranges):
            yield dict(zip(names, combination))

    def _enumeration_was_exhaustive(
        self, variables: Sequence[SymVar], intervals: Dict[str, _Interval]
    ) -> bool:
        total = 1
        for var in variables:
            total *= max(intervals[var.name].size(), 0)
            if total > self.max_assignments:
                return False
        return True

    def _enumerate(
        self,
        constraints: Sequence[Value],
        variables: Sequence[SymVar],
        intervals: Dict[str, _Interval],
    ) -> Optional[Dict[str, int]]:
        for count, assignment in enumerate(self._assignment_iterator(variables, intervals)):
            if count >= self.max_assignments:
                return None
            self.stats.enumerated_assignments += 1
            if _satisfies(constraints, assignment):
                return assignment
        return None


def _satisfies(constraints: Sequence[Value], assignment: Mapping[str, int]) -> bool:
    for constraint in constraints:
        value = substitute(constraint, assignment)
        if is_symbolic(value):
            # Partial assignment -- cannot confirm; treat as unsatisfied so
            # enumeration keeps looking for a complete witness.
            return False
        if int(value) == 0:
            return False
    return True


def _extract_simple_bound(constraint: Value) -> Optional[Tuple[str, Op, int]]:
    """Recognise ``var <cmp> const`` and ``const <cmp> var`` constraints."""
    if not isinstance(constraint, BinExpr):
        return None
    op = constraint.op
    if op not in (Op.EQ, Op.LT, Op.LE, Op.GT, Op.GE):
        return None
    left, right = constraint.left, constraint.right
    if isinstance(left, SymVar) and isinstance(right, int):
        return left.name, op, right
    if isinstance(right, SymVar) and isinstance(left, int):
        flipped = {Op.LT: Op.GT, Op.LE: Op.GE, Op.GT: Op.LT, Op.GE: Op.LE, Op.EQ: Op.EQ}
        return right.name, flipped[op], left
    return None
