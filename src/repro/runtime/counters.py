"""Interpreter hot-path counters.

One :class:`InterpCounters` instance is owned by each executor and shared by
reference with every :class:`~repro.runtime.state.ExecutionState` it creates
(and with the states' Memory/SyncState layers), so all executions driven by
one executor aggregate into a single set of counters.  The engine snapshots
them per task and emits an ``interp_stats`` event (see
:mod:`repro.engine.events`), which folds into the global stats line.
"""

from __future__ import annotations

from typing import Dict


class InterpCounters:
    """Statements executed, state forks, COW materializations, the
    alternate-enforcement spin cutoffs (runs cut short at a repeated state,
    and the steps they skipped instead of interpreting), and the
    ``MemoryAccess`` and ``SyncEvent`` events built for the runs' listeners."""

    __slots__ = (
        "statements",
        "forks",
        "cow_copies",
        "spin_cutoffs",
        "steps_skipped",
        "accesses",
        "sync_events",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.statements = 0
        self.forks = 0
        self.cow_copies = 0
        self.spin_cutoffs = 0
        self.steps_skipped = 0
        self.accesses = 0
        self.sync_events = 0

    def to_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"InterpCounters({fields})"
