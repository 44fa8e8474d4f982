"""Scheduling policies for the single-processor cooperative scheduler.

Portend uses "a single-processor cooperative thread scheduler" (§3.1) and can
"preempt and schedule threads before/after synchronization operations and/or
racing accesses".  The executor consults a :class:`SchedulePolicy` at every
*preemption point*:

* a synchronisation statement is about to execute (``reason="sync"``),
* the current thread blocked, finished or does not exist (``reason="blocked"``),
* the next statement's pc is *watched*, i.e. it is one of the racing accesses
  under analysis (``reason="watched"``), or the previous statement executed by
  the thread was watched (``reason="after-watched"``).

A decision does not list the runnable threads first: each policy probes only
the tids it needs in ``state.threads`` (tids are dense, from 0, and threads
are never removed).  Round-robin takes the next runnable tid after the
current one, cyclically; a replay tries the recorded tid; a controlled run
tries its forced, then its preferred thread, and hands its forbidden set to
the wrapped policy as ``skip``, the tids to treat as not runnable.  Only the
random choice and the stuck paths list every thread.  When no thread is
runnable, every policy returns None without side effects: no recorded
decision is consumed, nothing is marked stuck and no random number is drawn.

Recording runs use :class:`RoundRobinPolicy`; replays use
:class:`ReplayPolicy`; Portend's analyses wrap either in a
:class:`ControlledPolicy` to steer the executions toward the primary or the
alternate ordering of the racing accesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Sequence, Set, TYPE_CHECKING

from repro.runtime.threadstate import RUNNABLE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.state import ExecutionState

_WATCHED = ("watched", "after-watched")
_NO_SKIP: AbstractSet[int] = frozenset()


def _runnable(state: "ExecutionState", tid: Optional[int], skip: AbstractSet[int]) -> bool:
    """Whether ``tid`` names a runnable thread outside ``skip``."""
    thread = state.threads.get(tid)
    return thread is not None and thread.status is RUNNABLE and tid not in skip


def _next_runnable(state: "ExecutionState", start: int, skip: AbstractSet[int]) -> Optional[int]:
    """The first runnable tid outside ``skip`` at or after ``start``,
    wrapping around to 0; None when there is none."""
    threads = state.threads
    count = len(threads)
    for tid in range(start, count):
        if threads[tid].status is RUNNABLE and tid not in skip:
            return tid
    for tid in range(min(start, count)):
        if threads[tid].status is RUNNABLE and tid not in skip:
            return tid
    return None


@dataclass(frozen=True)
class ScheduleDecision:
    """A committed scheduling decision, as recorded in schedule traces."""

    index: int
    tid: int
    pc: int
    step: int
    reason: str


class SchedulePolicy:
    """Base class: decide which runnable thread runs next."""

    #: when True, the executor records this policy's decisions in the trace
    recordable: bool = True

    def choose(
        self,
        state: "ExecutionState",
        current: Optional[int],
        reason: str,
        skip: AbstractSet[int] = _NO_SKIP,
    ) -> Optional[int]:
        """Return the runnable tid outside ``skip`` to schedule, or None if
        no choice can be made (always None, without side effects, when no
        such thread exists)."""
        raise NotImplementedError

    def reset(self) -> None:
        """Reset internal cursors (used when a policy is reused)."""


class RoundRobinPolicy(SchedulePolicy):
    """Fair round-robin at preemption points.

    At a sync preemption point the next runnable thread (in cyclic tid order
    after the current one) is chosen, which interleaves threads at every
    synchronisation operation; at watched points the current thread is kept
    (watched points only matter to ControlledPolicy).
    """

    def choose(self, state, current, reason, skip=_NO_SKIP) -> Optional[int]:
        if reason in _WATCHED and _runnable(state, current, skip):
            return current
        if current is None or current not in state.threads:
            return _next_runnable(state, 0, skip)
        return _next_runnable(state, current + 1, skip)


class CooperativePolicy(SchedulePolicy):
    """Keep the current thread running until it blocks or finishes."""

    def choose(self, state, current, reason, skip=_NO_SKIP) -> Optional[int]:
        if _runnable(state, current, skip):
            return current
        return _next_runnable(state, 0, skip)


class RandomPolicy(SchedulePolicy):
    """Uniformly random choice among runnable threads at preemption points.

    Used by multi-schedule analysis (§3.4): "at every preemption point in the
    alternate, Portend randomly decides which of the runnable threads to
    schedule next".
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def reset(self) -> None:
        self.rng = random.Random(self.seed)

    def choose(self, state, current, reason, skip=_NO_SKIP) -> Optional[int]:
        runnable = state.runnable_tids(skip)
        if not runnable:
            return None
        return self.rng.choice(runnable)


class ReplayPolicy(SchedulePolicy):
    """Replay the scheduling decisions stored in a schedule trace.

    The policy walks the recorded decisions in order.  If the recorded thread
    is not runnable (or the trace is exhausted), the policy marks itself as
    *diverged* and falls back to a deterministic round-robin choice; callers
    that need strict replay (the multi-path explorer pruning paths that do
    not obey the trace, §3.3) check :attr:`diverged`.
    """

    def __init__(self, decisions: Sequence[ScheduleDecision], fallback: Optional[SchedulePolicy] = None) -> None:
        self.decisions = list(decisions)
        self.cursor = 0
        self.diverged = False
        self.divergence_step: Optional[int] = None
        self.divergence_reason: Optional[str] = None
        self.skipped_decisions: List[ScheduleDecision] = []
        self.fallback = fallback or RoundRobinPolicy()

    def reset(self) -> None:
        self.cursor = 0
        self.diverged = False
        self.divergence_step = None
        self.divergence_reason = None
        self.skipped_decisions = []
        self.fallback.reset()

    def remaining(self) -> int:
        return len(self.decisions) - self.cursor

    def choose(self, state, current, reason, skip=_NO_SKIP) -> Optional[int]:
        if reason in _WATCHED:
            # Watched preemption points are introduced by the analysis and are
            # not part of the recorded trace: keep the current thread.
            if _runnable(state, current, skip):
                return current
            return self.fallback.choose(state, current, reason, skip)
        if self.cursor < len(self.decisions):
            decision = self.decisions[self.cursor]
            if _runnable(state, decision.tid, skip):
                self.cursor += 1
                return decision.tid
            # The fallback answers None exactly when no thread is runnable;
            # only then is the decision left unconsumed.
            choice = self.fallback.choose(state, current, reason, skip)
            if choice is None:
                return None
            # The decision is consumed and the replay diverges permanently,
            # even when the recorded tid is merely blocked right now; keep
            # the skipped decision and the reason so the multi-path explorer
            # (§3.3) can report *why* a path was pruned.
            self.cursor += 1
            self.skipped_decisions.append(decision)
            self._mark_diverged(state, self._describe_unrunnable(state, decision))
            return choice
        choice = self.fallback.choose(state, current, reason, skip)
        if choice is not None:
            self._mark_diverged(state, "recorded schedule exhausted")
        return choice

    def _describe_unrunnable(self, state, decision: ScheduleDecision) -> str:
        thread = getattr(state, "threads", {}).get(decision.tid)
        if thread is None:
            status = "not yet created"
        elif getattr(thread, "is_blocked", False):
            status = "blocked"
        elif getattr(thread, "is_finished", False):
            status = "finished"
        else:
            status = "not runnable"
        return (
            f"recorded tid {decision.tid} {status} at decision "
            f"{decision.index} (recorded step {decision.step})"
        )

    def _mark_diverged(self, state, reason: str) -> None:
        if not self.diverged:
            self.diverged = True
            self.divergence_step = state.step_count
            self.divergence_reason = reason


class ControlledPolicy(SchedulePolicy):
    """Wrap a base policy with analysis-driven overrides.

    Portend enforces the alternate ordering of a race by (a) forbidding the
    thread that performed the first racing access from running and (b)
    forcing the other racing thread to run, until it has performed its access
    (Algorithm 1, lines 5-7).  The executor consults the wrapped base policy
    whenever no override applies.
    """

    def __init__(self, base: SchedulePolicy) -> None:
        self.base = base
        self.forbidden: Set[int] = set()
        self.forced: Optional[int] = None
        self.preferred: Optional[int] = None
        self.stuck = False
        self.stuck_reason: Optional[str] = None

    @property
    def recordable(self) -> bool:  # type: ignore[override]
        return self.base.recordable

    def reset(self) -> None:
        self.base.reset()
        self.forbidden.clear()
        self.forced = None
        self.preferred = None
        self.stuck = False
        self.stuck_reason = None

    # ------------------------------------------------------------- directives

    def forbid(self, tid: int) -> None:
        self.forbidden.add(tid)

    def allow(self, tid: int) -> None:
        self.forbidden.discard(tid)

    def force(self, tid: Optional[int]) -> None:
        self.forced = tid

    def prefer(self, tid: Optional[int]) -> None:
        """Schedule ``tid`` whenever it is runnable, without getting stuck
        when it is not (other allowed threads keep running, e.g. to spawn or
        unblock it)."""
        self.preferred = tid

    # ----------------------------------------------------------------- choice

    def choose(self, state, current, reason, skip=_NO_SKIP) -> Optional[int]:
        forbidden = self.forbidden | skip if skip else self.forbidden
        if self.forced is not None:
            if _runnable(state, self.forced, forbidden):
                return self.forced
            # The thread we must run is blocked or forbidden: scheduling is
            # stuck; Algorithm 1 detects this via timeout / deadlock checks.
            return self._stuck(state, skip, f"forced thread {self.forced} not runnable")
        if self.preferred is not None and _runnable(state, self.preferred, forbidden):
            return self.preferred
        if not _runnable(state, current, forbidden):
            current = None
        choice = self.base.choose(state, current, reason, forbidden)
        if choice is None:
            return self._stuck(state, skip, "all runnable threads are forbidden")
        return choice

    def _stuck(self, state, skip: AbstractSet[int], why: str) -> None:
        """No allowed thread runs: stuck, unless no thread is runnable at all."""
        if state.runnable_tids(skip):
            self.stuck = True
            self.stuck_reason = why
        return None
