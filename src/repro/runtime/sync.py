"""POSIX-style synchronisation objects and the wait-for graph.

Portend "treats all POSIX threads synchronization primitives as possible
preemption points" and keeps a lock graph to detect deadlocks (§3.1, §3.5).
This module provides the mutable synchronisation state of one execution
state plus the deadlock-detection helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lang.program import Program
from repro.runtime.errors import CrashKind, ProgramCrash


@dataclass
class MutexState:
    """A mutex: owning thread (or None) and the threads waiting for it."""

    name: str
    owner: Optional[int] = None
    waiters: List[int] = field(default_factory=list)

    def clone(self) -> "MutexState":
        return MutexState(self.name, self.owner, list(self.waiters))


@dataclass
class CondVarState:
    """A condition variable: the set of threads blocked in ``wait``."""

    name: str
    waiters: List[int] = field(default_factory=list)

    def clone(self) -> "CondVarState":
        return CondVarState(self.name, list(self.waiters))


@dataclass
class BarrierState:
    """A cyclic barrier with a fixed party count."""

    name: str
    parties: int
    arrived: List[int] = field(default_factory=list)
    generation: int = 0

    def clone(self) -> "BarrierState":
        return BarrierState(self.name, self.parties, list(self.arrived), self.generation)


class SyncState:
    """All synchronisation objects of one execution state.

    Cloning is copy-on-write at whole-layer granularity: sync state is a
    handful of small objects, so the first mutation after a fork re-copies
    all of them at once (one materialization) rather than tracking per-object
    ownership.  Mutators must go through the ``*_mut`` accessors; the plain
    accessors are read-only views.
    """

    def __init__(self, program: Program) -> None:
        self.mutexes: Dict[str, MutexState] = {
            name: MutexState(name) for name in program.mutexes
        }
        self.condvars: Dict[str, CondVarState] = {
            name: CondVarState(name) for name in program.condvars
        }
        self.barriers: Dict[str, BarrierState] = {
            name: BarrierState(name, parties) for name, parties in program.barriers.items()
        }
        self._owned = True
        self.counters = None

    def clone(self) -> "SyncState":
        """A copy-on-write clone; both sides relinquish ownership."""
        copy = SyncState.__new__(SyncState)
        copy.mutexes = self.mutexes
        copy.condvars = self.condvars
        copy.barriers = self.barriers
        copy.counters = self.counters
        self._owned = False
        copy._owned = False
        return copy

    def __deepcopy__(self, memo: dict) -> "SyncState":
        return self.clone()

    def _materialize(self) -> None:
        if self._owned:
            return
        self.mutexes = {name: m.clone() for name, m in self.mutexes.items()}
        self.condvars = {name: c.clone() for name, c in self.condvars.items()}
        self.barriers = {name: b.clone() for name, b in self.barriers.items()}
        self._owned = True
        if self.counters is not None:
            self.counters.cow_copies += 1

    # ----------------------------------------------------------------- lookup

    def mutex(self, name: str) -> MutexState:
        try:
            return self.mutexes[name]
        except KeyError as exc:
            raise ProgramCrash(
                CrashKind.INVALID_SYNC, f"use of undeclared mutex {name!r}"
            ) from exc

    def condvar(self, name: str) -> CondVarState:
        try:
            return self.condvars[name]
        except KeyError as exc:
            raise ProgramCrash(
                CrashKind.INVALID_SYNC, f"use of undeclared condition variable {name!r}"
            ) from exc

    def barrier(self, name: str) -> BarrierState:
        try:
            return self.barriers[name]
        except KeyError as exc:
            raise ProgramCrash(
                CrashKind.INVALID_SYNC, f"use of undeclared barrier {name!r}"
            ) from exc

    # ------------------------------------------------------ mutating accessors

    def mutex_mut(self, name: str) -> MutexState:
        self.mutex(name)  # canonical crash on undeclared names
        self._materialize()
        return self.mutexes[name]

    def condvar_mut(self, name: str) -> CondVarState:
        self.condvar(name)
        self._materialize()
        return self.condvars[name]

    def barrier_mut(self, name: str) -> BarrierState:
        self.barrier(name)
        self._materialize()
        return self.barriers[name]

    # --------------------------------------------------------- deadlock check

    def wait_for_edges(self, blocked_on: Dict[int, Tuple[str, object]]) -> List[Tuple[int, int]]:
        """Edges ``waiter -> owner`` of the wait-for graph over mutexes."""
        edges: List[Tuple[int, int]] = []
        for tid, reason in blocked_on.items():
            if reason is None:
                continue
            kind, target = reason
            if kind in ("mutex", "mutex-reacquire"):
                owner = self.mutex(str(target)).owner
                if owner is not None and owner != tid:
                    edges.append((tid, owner))
        return edges

    def find_lock_cycle(
        self, blocked_on: Dict[int, Tuple[str, object]]
    ) -> Optional[List[int]]:
        """Find a cycle in the mutex wait-for graph, if any.

        Returns the list of thread ids on the cycle (in order) or None.
        """
        edges = self.wait_for_edges(blocked_on)
        graph: Dict[int, int] = {src: dst for src, dst in edges}
        for start in graph:
            seen: List[int] = []
            node = start
            while node in graph:
                if node in seen:
                    return seen[seen.index(node):]
                seen.append(node)
                node = graph[node]
        return None
