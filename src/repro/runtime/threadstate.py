"""Per-thread execution state: call stack, status and blocking reason."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.lang.ast import Stmt, While
from repro.symex.expr import Value


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"


#: the members as module globals, which the interpreter and scheduler read
#: on every step: looking a member up on the enum class costs far more
RUNNABLE = ThreadStatus.RUNNABLE
BLOCKED = ThreadStatus.BLOCKED
FINISHED = ThreadStatus.FINISHED


@dataclass
class BlockEntry:
    """A statement block being executed; ``index`` points at the next stmt."""

    stmts: Tuple[Stmt, ...]
    index: int = 0

    def exhausted(self) -> bool:
        return self.index >= len(self.stmts)

    def clone(self) -> "BlockEntry":
        return BlockEntry(self.stmts, self.index)


@dataclass
class LoopEntry:
    """A ``while`` loop whose condition is about to be (re-)evaluated."""

    stmt: While
    iterations: int = 0

    def clone(self) -> "LoopEntry":
        return LoopEntry(self.stmt, self.iterations)


ControlEntry = Union[BlockEntry, LoopEntry]


@dataclass
class Frame:
    """A call-stack frame: locals plus a control stack of nested blocks.

    ``version`` implements copy-on-write forking: a frame is privately owned
    by its thread iff ``frame.version == thread.version``.  A state fork
    bumps the owning state's epoch on both sides (see
    :meth:`repro.runtime.state.ExecutionState.clone`), so every shared frame
    is lazily re-copied by :meth:`ExecutionState.frame_mut` before its first
    mutation after the fork.
    """

    function: str
    locals: Dict[str, Value]
    control: List[ControlEntry]
    return_target: Optional[str] = None
    call_label: str = ""
    version: int = 0

    def clone(self) -> "Frame":
        return Frame(
            function=self.function,
            locals=dict(self.locals),
            control=[entry.clone() for entry in self.control],
            return_target=self.return_target,
            call_label=self.call_label,
            version=self.version,
        )

    def cow_copy(self, version: int) -> "Frame":
        """A privately-owned copy: one locals dict and one control stack."""
        return Frame(
            function=self.function,
            locals=dict(self.locals),
            control=[entry.clone() for entry in self.control],
            return_target=self.return_target,
            call_label=self.call_label,
            version=version,
        )


@dataclass(frozen=True)
class StackEntry:
    """One entry of a report-friendly stack trace."""

    function: str
    label: str

    def describe(self) -> str:
        return f"{self.function} at {self.label}"


@dataclass
class ThreadState:
    """Everything the scheduler and interpreter need to know about a thread."""

    tid: int
    entry_function: str
    frames: List[Frame] = field(default_factory=list)
    status: ThreadStatus = RUNNABLE
    blocked_on: Optional[Tuple[str, object]] = None
    pending_reacquire: Optional[str] = None
    held_mutexes: List[str] = field(default_factory=list)
    result: Optional[Value] = None
    #: copy-on-write epoch: owned by a state iff == that state's cow_version
    version: int = 0

    def clone(self) -> "ThreadState":
        return ThreadState(
            tid=self.tid,
            entry_function=self.entry_function,
            frames=[frame.clone() for frame in self.frames],
            status=self.status,
            blocked_on=self.blocked_on,
            pending_reacquire=self.pending_reacquire,
            held_mutexes=list(self.held_mutexes),
            result=self.result,
            version=self.version,
        )

    def cow_copy(self, version: int) -> "ThreadState":
        """A shallow privately-owned copy: frames stay shared until mutated.

        The frame list itself is copied (so pushes/pops and per-frame
        replacement are private) but the :class:`Frame` objects are shared;
        they carry ``version == old epoch`` and are re-copied lazily by
        :meth:`ExecutionState.frame_mut` before mutation.
        """
        return ThreadState(
            tid=self.tid,
            entry_function=self.entry_function,
            frames=list(self.frames),
            status=self.status,
            blocked_on=self.blocked_on,
            pending_reacquire=self.pending_reacquire,
            held_mutexes=list(self.held_mutexes),
            result=self.result,
            version=version,
        )

    # ------------------------------------------------------------- inspection

    @property
    def is_runnable(self) -> bool:
        return self.status is RUNNABLE

    @property
    def is_finished(self) -> bool:
        return self.status is FINISHED

    @property
    def is_blocked(self) -> bool:
        return self.status is BLOCKED

    def current_frame(self) -> Optional[Frame]:
        return self.frames[-1] if self.frames else None

    def next_statement(self) -> Optional[Stmt]:
        """The statement this thread will execute on its next step.

        Assumes the control stack is normalised (exhausted blocks popped);
        for a :class:`LoopEntry` the ``while`` statement itself is returned,
        because the next step evaluates its condition.
        """
        if not self.frames:
            return None
        control = self.frames[-1].control
        if not control:
            return None
        top = control[-1]
        if type(top) is LoopEntry:
            return top.stmt
        return top.stmts[top.index] if top.index < len(top.stmts) else None

    def stack_trace(self) -> Tuple[StackEntry, ...]:
        """Report-friendly stack trace (innermost frame last)."""
        entries: List[StackEntry] = []
        for frame in self.frames:
            stmt = None
            for entry in reversed(frame.control):
                if isinstance(entry, LoopEntry):
                    stmt = entry.stmt
                    break
                if isinstance(entry, BlockEntry) and not entry.exhausted():
                    stmt = entry.stmts[entry.index]
                    break
            label = stmt.label if stmt is not None else frame.call_label or "<return>"
            entries.append(StackEntry(frame.function, label))
        return tuple(entries)
