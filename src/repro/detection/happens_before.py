"""Dynamic happens-before race detection.

The detector is an :class:`repro.runtime.listeners.ExecutionListener`: it
observes synchronisation events to maintain per-thread vector clocks and
per-synchronisation-object "last release" clocks, and observes shared-memory
accesses to find pairs of conflicting, concurrent accesses.

Setting ``ignore_mutexes=True`` removes mutex-induced happens-before edges.
This reproduces the paper's false-positive experiment (§5.2): "we
deliberately removed from Portend's race detector its awareness of mutex
synchronizations", which makes the detector report lock-protected accesses
as races; Portend then classifies those as "single ordering".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detection.race_report import AccessInfo, RaceInstance
from repro.detection.vector_clock import VectorClock
from repro.runtime.listeners import ExecutionListener, MemoryAccess, SyncEvent
from repro.runtime.memory import MemoryLocation


@dataclass
class _LocationHistory:
    """Recent accesses to one memory location, split by kind."""

    reads: List[Tuple[AccessInfo, VectorClock]] = field(default_factory=list)
    writes: List[Tuple[AccessInfo, VectorClock]] = field(default_factory=list)


class HappensBeforeDetector(ExecutionListener):
    """Vector-clock happens-before race detector."""

    def __init__(
        self,
        ignore_mutexes: bool = False,
        ignore_condvars: bool = False,
        history_limit: int = 128,
    ) -> None:
        self.ignore_mutexes = ignore_mutexes
        self.ignore_condvars = ignore_condvars
        self.history_limit = history_limit
        self.thread_clocks: Dict[int, VectorClock] = {}
        self.mutex_clocks: Dict[str, VectorClock] = {}
        self.cond_clocks: Dict[str, VectorClock] = {}
        self.thread_exit_clocks: Dict[int, VectorClock] = {}
        self.histories: Dict[MemoryLocation, _LocationHistory] = {}
        self.race_instances: List[RaceInstance] = []
        self.access_count = 0

    # ----------------------------------------------------------------- clocks

    def _clock(self, tid: int) -> VectorClock:
        clock = self.thread_clocks.get(tid)
        if clock is None:
            clock = VectorClock({tid: 1})
            self.thread_clocks[tid] = clock
        return clock

    def on_sync(self, state, event: SyncEvent) -> None:
        tid = event.tid
        clock = self._clock(tid)
        kind = event.kind

        if kind == "lock" and not self.ignore_mutexes:
            release = self.mutex_clocks.get(event.target)
            if release is not None:
                clock.merge(release)
        elif kind == "unlock" and not self.ignore_mutexes:
            self.mutex_clocks[event.target] = clock.copy()
        elif kind in ("cond_signal", "cond_broadcast") and not self.ignore_condvars:
            self.cond_clocks[event.target] = clock.copy()
            for peer in event.peer or ():
                self._clock(peer).merge(clock)
        elif kind == "cond_wait" and not self.ignore_condvars:
            # The happens-before edge from signal to wake is applied at signal
            # time (peer merge above); nothing to do at wait time.
            pass
        elif kind == "barrier_release":
            merged = VectorClock()
            for peer in event.peer or ():
                merged.merge(self._clock(peer))
            merged.merge(clock)
            for peer in event.peer or ():
                self._clock(peer).merge(merged)
            clock.merge(merged)
        elif kind == "spawn":
            for peer in event.peer or ():
                child = self._clock(peer)
                child.merge(clock)
                child.increment(peer)
        elif kind == "join":
            for peer in event.peer or ():
                exited = self.thread_exit_clocks.get(peer) or self.thread_clocks.get(peer)
                if exited is not None:
                    clock.merge(exited)
        elif kind == "exit":
            self.thread_exit_clocks[tid] = clock.copy()

        clock.increment(tid)

    # --------------------------------------------------------------- accesses

    def on_access(self, state, access: MemoryAccess) -> None:
        self.access_count += 1
        tid = access.tid
        clock = self._clock(tid)
        thread = state.thread(tid)
        info = AccessInfo.from_access(
            access, thread.stack_trace(), tuple(thread.held_mutexes)
        )
        history = self.histories.setdefault(access.location, _LocationHistory())

        # A write races with every concurrent previous read and write; a read
        # races only with concurrent previous writes.
        conflicting: List[Tuple[AccessInfo, VectorClock]] = list(history.writes)
        if access.is_write:
            conflicting += history.reads
        for previous, previous_clock in conflicting:
            if previous.tid == tid:
                continue
            if previous_clock.less_or_equal(clock):
                continue
            self.race_instances.append(RaceInstance(first=previous, second=info))

        bucket = history.writes if access.is_write else history.reads
        bucket.append((info, clock.copy()))
        if len(bucket) > self.history_limit:
            del bucket[0]

    # ----------------------------------------------------------------- output

    def races(self) -> List[RaceInstance]:
        return list(self.race_instances)
