"""Eraser-style lockset race detection.

Lockset detectors report a potential race whenever a shared location is
accessed by more than one thread and the intersection of the locks held at
those accesses becomes empty.  They are complete but imprecise (the paper
cites false-positive rates up to 84% for static/lockset-style detectors); the
reproduction uses this detector to generate imperfect race reports that
Portend must triage, demonstrating the "false positive handling" behaviour of
§5.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.detection.race_report import AccessInfo, RaceInstance
from repro.runtime.listeners import ExecutionListener, MemoryAccess
from repro.runtime.memory import MemoryLocation


@dataclass
class _LocksetState:
    """Per-location candidate lockset plus bookkeeping for reporting."""

    candidate: Optional[Set[str]] = None
    threads: Set[int] = field(default_factory=set)
    has_write: bool = False
    first_access: Optional[AccessInfo] = None
    reported: bool = False
    accesses: List[AccessInfo] = field(default_factory=list)


class LockSetDetector(ExecutionListener):
    """A simplified Eraser: report when the candidate lockset becomes empty."""

    def __init__(self, history_limit: int = 64) -> None:
        self.history_limit = history_limit
        self._locations: Dict[MemoryLocation, _LocksetState] = {}
        self.race_instances: List[RaceInstance] = []

    def on_access(self, state, access: MemoryAccess) -> None:
        tid = access.tid
        thread = state.thread(tid)
        locks_held = set(thread.held_mutexes)
        info = AccessInfo.from_access(access, thread.stack_trace(), tuple(sorted(locks_held)))
        location_state = self._locations.setdefault(access.location, _LocksetState())

        if location_state.candidate is None:
            location_state.candidate = set(locks_held)
        else:
            location_state.candidate &= locks_held
        location_state.threads.add(tid)
        location_state.has_write = location_state.has_write or access.is_write
        if location_state.first_access is None:
            location_state.first_access = info
        location_state.accesses.append(info)
        if len(location_state.accesses) > self.history_limit:
            del location_state.accesses[0]

        unprotected = not location_state.candidate
        shared = len(location_state.threads) > 1
        if unprotected and shared and location_state.has_write:
            partner = self._find_partner(location_state, info)
            if partner is not None:
                self.race_instances.append(RaceInstance(first=partner, second=info))

    @staticmethod
    def _find_partner(location_state: _LocksetState, current: AccessInfo) -> Optional[AccessInfo]:
        """Pick the most recent conflicting access from another thread."""
        for previous in reversed(location_state.accesses[:-1]):
            if previous.tid == current.tid:
                continue
            if previous.is_write or current.is_write:
                return previous
        return None

    def races(self) -> List[RaceInstance]:
        return list(self.race_instances)
