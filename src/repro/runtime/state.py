"""The complete execution state of a program under interpretation.

An :class:`ExecutionState` bundles everything the executor mutates: shared
memory, per-thread stacks, synchronisation objects, the path condition, the
output/input logs and bookkeeping counters.  Portend checkpoints states by
cloning them (the "pre-race" and "post-race" checkpoints of Algorithm 1) and
the multi-path explorer forks them at symbolic branches, so cloning is a
first-class, cheap-ish operation: the program AST is shared, everything else
is copied.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lang.program import Program
from repro.runtime.counters import InterpCounters
from repro.runtime.errors import ExecutionOutcome
from repro.runtime.memory import Memory
from repro.runtime.sync import SyncState
from repro.runtime.threadstate import BlockEntry, Frame, ThreadState, ThreadStatus
from repro.symex.expr import SymVar, Value, is_symbolic, render
from repro.symex.path_condition import PathCondition

_state_ids = itertools.count(1)

#: copy-on-write epochs: a thread/frame is privately owned iff its version
#: matches the asking state's (resp. thread's) current epoch.  Epochs are
#: process-globally unique, so objects shared across a fork can never
#: accidentally match a freshly assigned epoch.
_cow_versions = itertools.count(1)


@dataclass(frozen=True)
class OutputRecord:
    """One program output operation (one ``write`` system call)."""

    channel: str
    values: Tuple[Value, ...]
    tid: int
    pc: int
    label: str
    step: int

    def is_concrete(self) -> bool:
        return not any(is_symbolic(v) for v in self.values)

    def describe(self) -> str:
        rendered = ", ".join(render(v) for v in self.values)
        return f"{self.channel}({rendered})"


@dataclass(frozen=True)
class InputRecord:
    """One consumed program input (non-deterministic system-call return)."""

    name: str
    value: Value
    tid: int
    pc: int
    step: int
    symbolic: bool


class ExecutionState:
    """Mutable state of one interpreted execution."""

    def __init__(self, program: Program) -> None:
        self.state_id: int = next(_state_ids)
        self.parent_id: Optional[int] = None
        self.program = program
        self.memory = Memory(program)
        self.sync = SyncState(program)
        self.threads: Dict[int, ThreadState] = {}
        self.next_tid: int = 0
        self.current_tid: Optional[int] = None
        self.path_condition = PathCondition()
        self.output_log: List[OutputRecord] = []
        self.input_log: List[InputRecord] = []
        self.symbolic_inputs: Dict[str, SymVar] = {}
        self.concrete_inputs: Dict[str, int] = {}
        self.symbolic_input_names: frozenset = frozenset()
        self.outcome: Optional[ExecutionOutcome] = None
        self.step_count: int = 0
        self.preemption_points: int = 0
        self.context_switches: int = 0
        self.symbolic_branches: int = 0
        self.notes: Dict[str, object] = {}
        self.counters = InterpCounters()
        self.cow_version: int = next(_cow_versions)
        self._output_owned = True
        self._input_owned = True
        self.memory.counters = self.counters
        self.sync.counters = self.counters

    def attach_counters(self, counters: InterpCounters) -> None:
        """Share one counters object between this state and its layers.

        The executor calls this from ``initial_state`` so every state forked
        from this one (clones share the reference) aggregates into the
        executor-owned counters.
        """
        self.counters = counters
        self.memory.counters = counters
        self.sync.counters = counters

    # ------------------------------------------------------------------ setup

    def add_thread(self, function: str, args: Dict[str, Value], call_label: str = "") -> ThreadState:
        """Create a new thread running ``function`` with bound arguments."""
        tid = self.next_tid
        self.next_tid += 1
        body = self.program.function(function).body
        frame = Frame(
            function=function,
            locals=dict(args),
            control=[BlockEntry(tuple(body), 0)],
            call_label=call_label,
            version=self.cow_version,
        )
        thread = ThreadState(
            tid=tid,
            entry_function=function,
            frames=[frame],
            version=self.cow_version,
        )
        self.threads[tid] = thread
        return thread

    # ------------------------------------------------------------------ clone

    def clone(self) -> "ExecutionState":
        """Fork this state, copy-on-write.

        Memory and sync objects are shared with the copy and materialized
        lazily on first write; thread states are shared via the COW epoch
        (both sides get a fresh ``cow_version``, so every existing thread and
        frame becomes unowned on *both* sides and is re-copied only when
        mutated through :meth:`thread_mut` / :meth:`frame_mut`).  The
        remaining per-state containers are tiny (path condition, inputs,
        notes) or append-only logs shared until the next append.
        """
        copy = ExecutionState.__new__(ExecutionState)
        copy.state_id = next(_state_ids)
        copy.parent_id = self.state_id
        copy.program = self.program
        copy.counters = self.counters
        copy.memory = self.memory.clone()
        copy.sync = self.sync.clone()
        copy.threads = dict(self.threads)
        copy.next_tid = self.next_tid
        copy.current_tid = self.current_tid
        copy.path_condition = self.path_condition.clone()
        copy.output_log = self.output_log
        copy.input_log = self.input_log
        self._output_owned = copy._output_owned = False
        self._input_owned = copy._input_owned = False
        copy.symbolic_inputs = dict(self.symbolic_inputs)
        copy.concrete_inputs = dict(self.concrete_inputs)
        copy.symbolic_input_names = self.symbolic_input_names
        copy.outcome = self.outcome
        copy.step_count = self.step_count
        copy.preemption_points = self.preemption_points
        copy.context_switches = self.context_switches
        copy.symbolic_branches = self.symbolic_branches
        copy.notes = dict(self.notes)
        self.cow_version = next(_cow_versions)
        copy.cow_version = next(_cow_versions)
        return copy

    def __deepcopy__(self, memo: dict) -> "ExecutionState":
        return self.clone()

    # --------------------------------------------------- copy-on-write access

    def thread_mut(self, tid: int) -> ThreadState:
        """The thread, privately owned: safe to mutate scalars and lists."""
        thread = self.threads[tid]
        if thread.version != self.cow_version:
            thread = thread.cow_copy(self.cow_version)
            self.threads[tid] = thread
            self.counters.cow_copies += 1
        return thread

    def frame_mut(self, tid: int, index: int = -1) -> Frame:
        """The thread's frame at ``index`` (default: the top one), privately
        owned: safe to mutate."""
        thread = self.thread_mut(tid)
        frame = thread.frames[index]
        if frame.version != thread.version:
            frame = frame.cow_copy(thread.version)
            thread.frames[index] = frame
            self.counters.cow_copies += 1
        return frame

    def append_output(self, record: OutputRecord) -> None:
        if not self._output_owned:
            self.output_log = list(self.output_log)
            self._output_owned = True
            self.counters.cow_copies += 1
        self.output_log.append(record)

    def append_input(self, record: InputRecord) -> None:
        if not self._input_owned:
            self.input_log = list(self.input_log)
            self._input_owned = True
            self.counters.cow_copies += 1
        self.input_log.append(record)

    # ------------------------------------------------------------- inspection

    @property
    def finished(self) -> bool:
        return self.outcome is not None

    def runnable_tids(self) -> List[int]:
        # Inlined status check: this scan sits on the scheduler's per-step
        # path for every preemption decision, where the ``is_runnable``
        # property call per thread is measurable on many-thread states.
        runnable = ThreadStatus.RUNNABLE
        return [
            tid
            for tid, thread in self.threads.items()
            if thread.status is runnable
        ]

    def blocked_tids(self) -> List[int]:
        return [tid for tid, thread in self.threads.items() if thread.is_blocked]

    def live_tids(self) -> List[int]:
        return [tid for tid, thread in self.threads.items() if not thread.is_finished]

    def all_finished(self) -> bool:
        return all(thread.is_finished for thread in self.threads.values())

    def thread(self, tid: int) -> ThreadState:
        return self.threads[tid]

    def blocked_reasons(self) -> Dict[int, Tuple[str, object]]:
        return {
            tid: thread.blocked_on
            for tid, thread in self.threads.items()
            if thread.is_blocked and thread.blocked_on is not None
        }

    # ---------------------------------------------------------------- outputs

    def concrete_output_signature(self) -> str:
        """Hash chain over concrete outputs (§4: Portend hashes program outputs)."""
        digest = hashlib.sha256()
        for record in self.output_log:
            digest.update(record.channel.encode("utf-8"))
            for value in record.values:
                digest.update(repr(value).encode("utf-8"))
        return digest.hexdigest()

    def output_summary(self) -> List[str]:
        return [record.describe() for record in self.output_log]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = self.outcome.kind.value if self.outcome else "running"
        return (
            f"ExecutionState(id={self.state_id}, program={self.program.name!r}, "
            f"threads={len(self.threads)}, steps={self.step_count}, {status})"
        )
