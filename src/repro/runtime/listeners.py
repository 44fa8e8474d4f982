"""Execution events and the listener interface.

The executor publishes events to listeners as the interpreted program runs;
the dynamic race detector, the trace recorder and Portend's specification
checker are all listeners.  Listeners must not mutate the execution state
(with the documented exception of :class:`repro.core.spec.SpecChecker`, which
may terminate a state when a semantic predicate fails).

Memory-access events are built on demand.  A listener declares up front which
locations it wants to hear about (:attr:`ExecutionListener.access_names`), a
:class:`ListenerGroup` folds those declarations once when it is built, and
the executor constructs a :class:`MemoryAccess` only for a location some
listener of the run asked for.  Only the race detectors and the
specification checker want every access; the classification runs watch one
or a few racing locations, and most runs watch none.  A listener that needs
the accessing thread's stack reads it from the state in
:meth:`ExecutionListener.on_access`.

Step, synchronisation and scheduling events are folded the same way: a
:class:`ListenerGroup` lists once, when it is built, the members whose class
overrides :meth:`ExecutionListener.on_step`, :meth:`~ExecutionListener.on_sync`
or :meth:`~ExecutionListener.on_schedule`, and the executor skips the call --
and for synchronisation the :class:`SyncEvent` itself -- when that list is
empty.  Only the happens-before detector reads sync events and only the trace
recorder reads scheduling decisions, so a run that records nothing builds no
sync event and makes no scheduling callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime.memory import MemoryLocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.state import ExecutionState


@dataclass(frozen=True)
class MemoryAccess:
    """One dynamic access to a shared-memory location."""

    tid: int
    location: MemoryLocation
    is_write: bool
    pc: int
    label: str
    step: int

    @property
    def kind(self) -> str:
        return "WRITE" if self.is_write else "READ"

    def describe(self) -> str:
        return (
            f"{self.kind} of {self.location.describe()} by thread {self.tid} "
            f"at {self.label or self.pc}"
        )


@dataclass(frozen=True)
class SyncEvent:
    """A synchronisation operation observed during execution.

    ``kind`` is one of: ``lock``, ``unlock``, ``cond_wait``, ``cond_signal``,
    ``cond_broadcast``, ``barrier_release``, ``spawn``, ``join``, ``exit``.
    ``peer`` identifies the other party when relevant (child/joined tid, or
    the set of released tids for barriers and broadcasts).
    """

    tid: int
    kind: str
    target: str
    pc: int
    step: int
    peer: Optional[Tuple[int, ...]] = None


class ExecutionListener:
    """Base listener with no-op callbacks; subclass and override as needed."""

    #: names (``MemoryLocation.name``: a global or array name, or a heap
    #: allocation id) of the locations whose accesses this listener wants;
    #: ``None`` means every access.  Read only when the subclass overrides
    #: :meth:`on_access`: a listener that does not wants no accesses.
    access_names: Optional[FrozenSet[str]] = None

    def on_step(self, state: "ExecutionState", tid: int, pc: int) -> None:
        """Called after every interpreter step."""

    def on_access(self, state: "ExecutionState", access: MemoryAccess) -> None:
        """Called for each shared-memory read and write the run builds an event for.

        The run builds an event for an access when some listener of the run
        wants its location (see :attr:`access_names`), so a listener that
        declares a set of names may also see accesses to other locations and
        must filter them itself.  ``state.thread(access.tid)`` is the
        accessing thread, positioned at the accessing statement.
        """

    def on_sync(self, state: "ExecutionState", event: SyncEvent) -> None:
        """Called for every synchronisation operation."""

    def on_schedule(
        self, state: "ExecutionState", chosen_tid: int, previous_tid: Optional[int], reason: str
    ) -> None:
        """Called whenever the scheduler makes (and commits) a decision."""

    def on_output(self, state: "ExecutionState", record) -> None:
        """Called when the program emits output (a ``write`` system call)."""

    def on_input(self, state: "ExecutionState", record) -> None:
        """Called when the program consumes an input (system-call return)."""

    def on_finish(self, state: "ExecutionState") -> None:
        """Called once when the state reaches a terminal outcome."""


class ListenerGroup(ExecutionListener):
    """Fans events out to an ordered collection of listeners.

    ``access_names`` is the fold of the members' interest: ``None`` when any
    member wants every access, else the union of their declared names.
    Access, step, sync and schedule events go only to the members that
    override the matching callback: the executor skips the per-step call when
    ``step_listeners`` is empty, and builds no ``SyncEvent`` and makes no
    ``on_schedule`` call when ``sync_listeners`` or ``schedule_listeners`` is.
    """

    def __init__(self, listeners: Sequence[ExecutionListener] = ()) -> None:
        self.listeners = list(listeners)
        self.step_listeners: List[ExecutionListener] = []
        self.sync_listeners: List[ExecutionListener] = []
        self.schedule_listeners: List[ExecutionListener] = []
        self._access_listeners: List[ExecutionListener] = []
        base = ExecutionListener
        for listener in self.listeners:
            kind = type(listener)
            if kind.on_step is not base.on_step:
                self.step_listeners.append(listener)
            if kind.on_sync is not base.on_sync:
                self.sync_listeners.append(listener)
            if kind.on_schedule is not base.on_schedule:
                self.schedule_listeners.append(listener)
            if kind.on_access is not base.on_access:
                self._access_listeners.append(listener)
        names: Optional[FrozenSet[str]] = frozenset()
        for listener in self._access_listeners:
            if listener.access_names is None:
                names = None
                break
            names |= listener.access_names
        self.access_names = names

    def on_step(self, state, tid, pc) -> None:
        for listener in self.step_listeners:
            listener.on_step(state, tid, pc)

    def on_access(self, state, access) -> None:
        for listener in self._access_listeners:
            listener.on_access(state, access)

    def on_sync(self, state, event) -> None:
        for listener in self.sync_listeners:
            listener.on_sync(state, event)

    def on_schedule(self, state, chosen_tid, previous_tid, reason) -> None:
        for listener in self.schedule_listeners:
            listener.on_schedule(state, chosen_tid, previous_tid, reason)

    def on_output(self, state, record) -> None:
        for listener in self.listeners:
            listener.on_output(state, record)

    def on_input(self, state, record) -> None:
        for listener in self.listeners:
            listener.on_input(state, record)

    def on_finish(self, state) -> None:
        for listener in self.listeners:
            listener.on_finish(state)
