"""Symbolic program-output comparison (§3.3.1).

The primary execution runs with symbolic inputs, so its outputs are
sequences of symbolic formulae (mixed with concrete values); the alternate
executions are fully concrete.  The comparison accepts the alternate when,
for each output operation, the concrete output value lies in the set of
values allowed by the primary's symbolic output under the primary's path
condition.  A mismatch in the number of output operations, in the output
channels, or in any value is a difference.

The module also provides plain concrete comparison (used for ablations and
the Record/Replay-Analyzer-style baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.runtime.state import OutputRecord
from repro.symex.expr import ExprError, Value, is_symbolic, render, substitute
from repro.symex.path_condition import PathCondition
from repro.symex.solver import Solver


@dataclass
class OutputComparison:
    """Result of comparing two output sequences."""

    matches: bool
    differences: List[Tuple[str, str]] = field(default_factory=list)


def _describe(record: OutputRecord) -> str:
    return f"{record.label or record.pc}: {record.describe()}"


def compare_symbolic(
    primary_outputs: Sequence[OutputRecord],
    primary_condition: PathCondition,
    alternate_outputs: Sequence[OutputRecord],
    solver: Solver,
) -> OutputComparison:
    """Check that the alternate's concrete outputs satisfy the primary's.

    Following §3.3.1: "for each output operation, it checks that the concrete
    output (from the alternate) is in the set of values allowed by the
    constraints of the symbolic output (from the primary)".
    """
    differences: List[Tuple[str, str]] = []
    if len(primary_outputs) != len(alternate_outputs):
        differences.append(
            (
                f"{len(primary_outputs)} output operations in the primary",
                f"{len(alternate_outputs)} output operations in the alternate",
            )
        )
        return OutputComparison(False, differences)

    constraints = list(primary_condition.constraints)
    for primary, alternate in zip(primary_outputs, alternate_outputs):
        if primary.channel != alternate.channel:
            differences.append((_describe(primary), _describe(alternate)))
            continue
        if len(primary.values) != len(alternate.values):
            differences.append((_describe(primary), _describe(alternate)))
            continue
        for primary_value, alternate_value in zip(primary.values, alternate.values):
            if not _value_matches(primary_value, alternate_value, constraints, solver):
                differences.append(
                    (
                        f"{primary.label or primary.pc}: {render(primary_value)}",
                        f"{alternate.label or alternate.pc}: {render(alternate_value)}",
                    )
                )
                break
    return OutputComparison(not differences, differences)


def _value_matches(
    primary_value: Value,
    alternate_value: Value,
    constraints: Sequence[Value],
    solver: Solver,
) -> bool:
    if is_symbolic(alternate_value):
        # Alternates are fully concrete in Portend; if a symbolic value leaks
        # through (e.g. an unusual analysis configuration) fall back to a
        # structural comparison.
        return repr(primary_value) == repr(alternate_value)
    if not is_symbolic(primary_value):
        return int(primary_value) == int(alternate_value)
    return solver.check_value(constraints, primary_value, int(alternate_value))


def _concrete_values_equal(primary_value: Value, alternate_value: Value) -> bool:
    """Numeric equality of two output values, mirroring ``_value_matches``.

    Comparing by ``repr`` wrongly flags numerically equal values of
    different types (``1`` vs ``True``) or unsimplified constant expressions
    as output differences.  Constant-fold both sides first; only genuinely
    symbolic residues fall back to structural comparison.
    """
    try:
        primary_value = substitute(primary_value, {})
        alternate_value = substitute(alternate_value, {})
    except ExprError:
        return repr(primary_value) == repr(alternate_value)
    if not is_symbolic(primary_value) and not is_symbolic(alternate_value):
        return int(primary_value) == int(alternate_value)
    return repr(primary_value) == repr(alternate_value)


def compare_concrete(
    primary_outputs: Sequence[OutputRecord],
    alternate_outputs: Sequence[OutputRecord],
) -> OutputComparison:
    """Exact comparison of two concrete output sequences."""
    differences: List[Tuple[str, str]] = []
    if len(primary_outputs) != len(alternate_outputs):
        differences.append(
            (
                f"{len(primary_outputs)} output operations",
                f"{len(alternate_outputs)} output operations",
            )
        )
        return OutputComparison(False, differences)
    for primary, alternate in zip(primary_outputs, alternate_outputs):
        if (
            primary.channel != alternate.channel
            or len(primary.values) != len(alternate.values)
            or any(
                not _concrete_values_equal(p, a)
                for p, a in zip(primary.values, alternate.values)
            )
        ):
            differences.append((_describe(primary), _describe(alternate)))
    return OutputComparison(not differences, differences)
