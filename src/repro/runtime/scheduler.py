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

Recording runs use :class:`RoundRobinPolicy`; replays use
:class:`ReplayPolicy`; Portend's analyses wrap either in a
:class:`ControlledPolicy` to steer the executions toward the primary or the
alternate ordering of the racing accesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.state import ExecutionState


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
        runnable: Sequence[int],
        current: Optional[int],
        reason: str,
    ) -> Optional[int]:
        """Return the tid to schedule, or None if no choice can be made."""
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

    def choose(self, state, runnable, current, reason) -> Optional[int]:
        if not runnable:
            return None
        if reason in ("watched", "after-watched") and current in runnable:
            return current
        if current is None or current not in state.threads:
            return min(runnable)
        ordered = sorted(runnable)
        for tid in ordered:
            if tid > current:
                return tid
        return ordered[0]


class CooperativePolicy(SchedulePolicy):
    """Keep the current thread running until it blocks or finishes."""

    def choose(self, state, runnable, current, reason) -> Optional[int]:
        if not runnable:
            return None
        if current in runnable:
            return current
        return min(runnable)


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

    def choose(self, state, runnable, current, reason) -> Optional[int]:
        if not runnable:
            return None
        return self.rng.choice(sorted(runnable))


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

    def choose(self, state, runnable, current, reason) -> Optional[int]:
        if not runnable:
            return None
        if reason in ("watched", "after-watched"):
            # Watched preemption points are introduced by the analysis and are
            # not part of the recorded trace: keep the current thread.
            if current in runnable:
                return current
            return self.fallback.choose(state, runnable, current, reason)
        if self.cursor < len(self.decisions):
            decision = self.decisions[self.cursor]
            self.cursor += 1
            if decision.tid in runnable:
                return decision.tid
            # The decision is consumed and the replay diverges permanently,
            # even when the recorded tid is merely blocked right now; keep
            # the skipped decision and the reason so the multi-path explorer
            # (§3.3) can report *why* a path was pruned.
            self.skipped_decisions.append(decision)
            self._mark_diverged(state, self._describe_unrunnable(state, decision))
            return self.fallback.choose(state, runnable, current, reason)
        self._mark_diverged(state, "recorded schedule exhausted")
        return self.fallback.choose(state, runnable, current, reason)

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

    def choose(self, state, runnable, current, reason) -> Optional[int]:
        allowed = [tid for tid in runnable if tid not in self.forbidden]
        if self.forced is not None:
            if self.forced in allowed:
                return self.forced
            # The thread we must run is blocked or forbidden: scheduling is
            # stuck; Algorithm 1 detects this via timeout / deadlock checks.
            self.stuck = True
            self.stuck_reason = f"forced thread {self.forced} not runnable"
            return None
        if not allowed:
            if runnable:
                self.stuck = True
                self.stuck_reason = "all runnable threads are forbidden"
            return None
        if self.preferred is not None and self.preferred in allowed:
            return self.preferred
        choice = self.base.choose(state, allowed, current if current in allowed else None, reason)
        if choice is None or choice not in allowed:
            return allowed[0] if allowed else None
        return choice
