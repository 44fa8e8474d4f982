"""Execution outcomes and crash information.

The original Portend watches for "basic" specification violations -- crashes
(memory errors, division by zero, assertion failures), deadlocks and infinite
loops (§3.5).  The runtime reports all of these through
:class:`ExecutionOutcome`, which the classifier then inspects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


class CrashKind(enum.Enum):
    """The kind of crash that terminated an execution."""

    DIVISION_BY_ZERO = "division by zero"
    OUT_OF_BOUNDS = "out-of-bounds memory access"
    DOUBLE_FREE = "double free"
    USE_AFTER_FREE = "use after free"
    INVALID_POINTER = "invalid pointer"
    ASSERTION_FAILURE = "assertion failure"
    EXPLICIT_ABORT = "abort"
    INVALID_SYNC = "invalid synchronisation usage"
    SEMANTIC_VIOLATION = "semantic property violation"


@dataclass(frozen=True)
class CrashInfo:
    """Details of a crash: what, where, and in which thread."""

    kind: CrashKind
    message: str
    tid: int
    pc: int
    label: str = ""
    stack: Tuple[str, ...] = ()

    def describe(self) -> str:
        where = self.label or f"pc={self.pc}"
        return f"{self.kind.value}: {self.message} (thread {self.tid} at {where})"


class OutcomeKind(enum.Enum):
    """How an execution terminated."""

    DONE = "completed"
    CRASH = "crash"
    DEADLOCK = "deadlock"
    LOOP_LIMIT = "loop iteration limit"
    INFEASIBLE = "infeasible path"


@dataclass(frozen=True)
class ExecutionOutcome:
    """Terminal status of an execution state."""

    kind: OutcomeKind
    crash: Optional[CrashInfo] = None
    detail: str = ""
    blocked_threads: Tuple[int, ...] = ()

    @property
    def is_failure(self) -> bool:
        """True when this outcome is a basic specification violation."""
        return self.kind in (OutcomeKind.CRASH, OutcomeKind.DEADLOCK)

    def describe(self) -> str:
        if self.kind is OutcomeKind.CRASH and self.crash is not None:
            return self.crash.describe()
        if self.kind is OutcomeKind.DEADLOCK:
            blocked = ", ".join(str(t) for t in self.blocked_threads)
            return f"deadlock (blocked threads: {blocked})"
        return self.detail or self.kind.value


class ProgramCrash(Exception):
    """Internal signal raised while executing a statement that crashes.

    The executor converts it into a CRASH outcome on the state; it never
    escapes :meth:`repro.runtime.executor.Executor.step`.
    """

    def __init__(self, kind: CrashKind, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message


class RetrySignal(Exception):
    """Internal signal: the statement blocked and must be re-executed later.

    Raised when e.g. a ``Lock`` finds the mutex held; the executor rolls the
    thread's instruction pointer back so the statement re-runs once the
    thread is woken.
    """
