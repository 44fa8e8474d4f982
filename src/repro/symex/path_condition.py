"""Path conditions: the accumulated branch constraints of an execution path.

Each execution state carries a :class:`PathCondition`.  When the interpreter
forks on a symbolic branch it appends the branch constraint (or its negation)
to the respective successor's path condition, exactly as KLEE annotates forked
states (§3.3 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Mapping, Tuple

from repro.symex.expr import (
    SymExpr,
    Value,
    evaluate,
    free_variables,
    is_symbolic,
)
from repro.symex.simplify import simplify


class PathCondition:
    """An ordered conjunction of boolean (0/1-valued) constraints."""

    __slots__ = ("_constraints", "_infeasible")

    def __init__(self, constraints: Iterable[Value] = ()) -> None:
        self._constraints: List[Value] = []
        self._infeasible = False
        for constraint in constraints:
            self.add(constraint)

    def add(self, constraint: Value) -> bool:
        """Add ``constraint``; return False if it is trivially unsatisfiable.

        Concretely-false constraints make the whole condition unsatisfiable
        (the condition remembers this); concretely-true constraints are
        dropped.  The caller (the executor) uses the return value as a cheap
        feasibility pre-check before asking the solver.
        """
        constraint = simplify(constraint)
        if not is_symbolic(constraint):
            if not constraint:
                self._infeasible = True
                return False
            return not self._infeasible
        self._constraints.append(constraint)
        return not self._infeasible

    @property
    def infeasible(self) -> bool:
        """True when a trivially-false constraint was added."""
        return self._infeasible

    def extend(self, constraints: Iterable[Value]) -> bool:
        ok = True
        for constraint in constraints:
            ok = self.add(constraint) and ok
        return ok

    @property
    def constraints(self) -> Tuple[Value, ...]:
        return tuple(self._constraints)

    def clone(self) -> "PathCondition":
        copy = PathCondition()
        copy._constraints = list(self._constraints)
        copy._infeasible = self._infeasible
        return copy

    def __deepcopy__(self, memo: dict) -> "PathCondition":
        return self.clone()

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Value]:
        return iter(self._constraints)

    def free_variables(self) -> frozenset:
        names = frozenset()
        for constraint in self._constraints:
            names = names | free_variables(constraint)
        return names

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        """Check whether a full assignment satisfies every constraint."""
        if self._infeasible:
            return False
        for constraint in self._constraints:
            if evaluate(constraint, assignment) == 0:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PathCondition({len(self._constraints)} constraints)"
