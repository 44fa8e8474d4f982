"""Differential tests of the scan-free scheduling policies (:mod:`repro.runtime.scheduler`).

``SchedulePolicy.choose(state, current, reason, skip)`` probes only the tids
it needs, and ``Executor._decide`` no longer lists the runnable threads
before asking.  The oracle is the list-taking policies they replaced, kept
here with their ``choose(state, runnable, current, reason)`` bodies
unchanged and driven the way the replaced ``_decide`` drove them: list the
runnable threads, answer None when there are none, else ask the policy.
Over seeded random thread tables (1-150 threads, every status, every
reason, ``current`` None, unknown, finished or live, ``skip`` sets (the
oracle gets the runnable list without them), forced, preferred and
forbidden sets, replay decision lists with unrunnable tids and exhausted
cursors) both must give the same choice and leave the same policy state:
the replay cursor, divergence and skipped decisions, the controlled
policy's stuck flag and reason, and the random generator's state.  With
the oracle policies patched in, the serial registry gives the same 385
verdicts and the same interpreter counters.
"""

import random

import pytest

from repro.lang import ProgramBuilder
from repro.runtime.executor import Executor
from repro.runtime.scheduler import (
    ControlledPolicy,
    CooperativePolicy,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    ScheduleDecision,
)
from repro.runtime.state import ExecutionState
from repro.runtime.threadstate import ThreadState, ThreadStatus

from test_step_loop import _serial_registry


class OracleRoundRobinPolicy(RoundRobinPolicy):
    def choose(self, state, runnable, current, reason):
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


class OracleCooperativePolicy(CooperativePolicy):
    def choose(self, state, runnable, current, reason):
        if not runnable:
            return None
        if current in runnable:
            return current
        return min(runnable)


class OracleRandomPolicy(RandomPolicy):
    def choose(self, state, runnable, current, reason):
        if not runnable:
            return None
        return self.rng.choice(sorted(runnable))


class OracleReplayPolicy(ReplayPolicy):
    def __init__(self, decisions, fallback=None):
        super().__init__(decisions, fallback or OracleRoundRobinPolicy())

    def choose(self, state, runnable, current, reason):
        if not runnable:
            return None
        if reason in ("watched", "after-watched"):
            if current in runnable:
                return current
            return self.fallback.choose(state, runnable, current, reason)
        if self.cursor < len(self.decisions):
            decision = self.decisions[self.cursor]
            self.cursor += 1
            if decision.tid in runnable:
                return decision.tid
            self.skipped_decisions.append(decision)
            self._mark_diverged(state, self._describe_unrunnable(state, decision))
            return self.fallback.choose(state, runnable, current, reason)
        self._mark_diverged(state, "recorded schedule exhausted")
        return self.fallback.choose(state, runnable, current, reason)


class OracleControlledPolicy(ControlledPolicy):
    def choose(self, state, runnable, current, reason):
        allowed = [tid for tid in runnable if tid not in self.forbidden]
        if self.forced is not None:
            if self.forced in allowed:
                return self.forced
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


def _oracle_decide(self, state, policy, listeners, current, reason):
    """``Executor._decide`` before the scan-free policies."""
    runnable = state.runnable_tids()
    if not runnable:
        return None
    chosen = policy.choose(state, runnable, current, reason)
    if chosen is None:
        return None
    if reason in ("sync", "blocked"):
        state.preemption_points += 1
        listeners.on_schedule(state, chosen, current, reason)
    if chosen != current:
        state.context_switches += 1
    state.current_tid = chosen
    return chosen


_ORACLES = (
    (RoundRobinPolicy, OracleRoundRobinPolicy),
    (CooperativePolicy, OracleCooperativePolicy),
    (RandomPolicy, OracleRandomPolicy),
    (ReplayPolicy, OracleReplayPolicy),
    (ControlledPolicy, OracleControlledPolicy),
)


def use_oracle_policies(patch):
    """Decide every preemption point with the list-taking policies while
    ``patch`` is active."""
    for live, oracle in _ORACLES:
        patch.setattr(live, "choose", oracle.__dict__["choose"])
    patch.setattr(Executor, "_decide", _oracle_decide)


def _oracle_choose(policy, state, current, reason, skip):
    runnable = [tid for tid in state.runnable_tids() if tid not in skip]
    if not runnable:
        return None
    return policy.choose(state, runnable, current, reason)


# ------------------------------------------------------------ random tables

_REASONS = ("sync", "blocked", "watched", "after-watched")
_STATUSES = tuple(ThreadStatus)


def _program():
    b = ProgramBuilder("table")
    b.function("main").ret()
    return b.build()


def _table(rng, program):
    """A state whose threads have random statuses, some of them finished."""
    state = ExecutionState(program)
    count = rng.randint(1, 150)
    share = rng.choice((0.0, 0.02, 0.3, 0.7, 1.0))
    for tid in range(count):
        if rng.random() < share:
            status = ThreadStatus.RUNNABLE
        else:
            status = rng.choice(_STATUSES[1:])
        state.threads[tid] = ThreadState(tid=tid, entry_function="main", status=status)
    state.next_tid = count
    state.step_count = rng.randint(0, 500)
    return state


def _current(rng, state):
    count = len(state.threads)
    finished = [
        tid for tid, thread in state.threads.items() if thread.status is ThreadStatus.FINISHED
    ]
    options = [None, count + rng.randint(0, 3), -1, rng.randrange(count)]
    if finished:
        options.append(rng.choice(finished))
    return rng.choice(options)


def _decisions(rng, count):
    return [
        ScheduleDecision(
            index=index,
            tid=rng.randrange(count + 3),
            pc=rng.randrange(40),
            step=rng.randrange(500),
            reason="sync",
        )
        for index in range(rng.randint(0, 6))
    ]


def _pair(rng, count, depth=0):
    """A live policy and its oracle twin, built alike."""
    kinds = ["round-robin", "cooperative", "random", "replay"]
    if depth == 0:
        kinds.append("controlled")
    kind = rng.choice(kinds)
    if kind == "round-robin":
        return RoundRobinPolicy(), OracleRoundRobinPolicy()
    if kind == "cooperative":
        return CooperativePolicy(), OracleCooperativePolicy()
    if kind == "random":
        seed = rng.randrange(1000)
        return RandomPolicy(seed), OracleRandomPolicy(seed)
    if kind == "replay":
        decisions = _decisions(rng, count)
        if rng.random() < 0.5:
            live, oracle = ReplayPolicy(decisions), OracleReplayPolicy(decisions)
        else:
            seed = rng.randrange(1000)
            live = ReplayPolicy(decisions, fallback=RandomPolicy(seed))
            oracle = OracleReplayPolicy(decisions, fallback=OracleRandomPolicy(seed))
        live.cursor = oracle.cursor = rng.randint(0, len(decisions))
        return live, oracle
    base, oracle_base = _pair(rng, count, depth + 1)
    live, oracle = ControlledPolicy(base), OracleControlledPolicy(oracle_base)
    for tid in rng.sample(range(count + 2), rng.randint(0, min(count, 8))):
        live.forbid(tid)
        oracle.forbid(tid)
    if rng.random() < 0.3:
        forced = rng.randrange(count + 2)
        live.force(forced)
        oracle.force(forced)
    if rng.random() < 0.4:
        preferred = rng.randrange(count + 2)
        live.prefer(preferred)
        oracle.prefer(preferred)
    return live, oracle


def _view(policy):
    """Everything a decision may change in a policy."""
    view = {}
    if isinstance(policy, ReplayPolicy):
        view.update(
            cursor=policy.cursor,
            diverged=policy.diverged,
            divergence_step=policy.divergence_step,
            divergence_reason=policy.divergence_reason,
            skipped=list(policy.skipped_decisions),
            fallback=_view(policy.fallback),
        )
    if isinstance(policy, ControlledPolicy):
        view.update(
            stuck=policy.stuck, stuck_reason=policy.stuck_reason, base=_view(policy.base)
        )
    if isinstance(policy, RandomPolicy):
        view["rng"] = policy.rng.getstate()
    return view


@pytest.mark.parametrize("seed", range(8))
def test_policies_match_the_list_taking_oracle(seed):
    rng = random.Random(seed)
    program = _program()
    for _ in range(300):
        state = _table(rng, program)
        live, oracle = _pair(rng, len(state.threads))
        # Several decisions on one table walk the replay cursor and the RNG;
        # a status flip between them moves threads in and out of reach.
        for _ in range(rng.randint(1, 4)):
            current = _current(rng, state)
            reason = rng.choice(_REASONS)
            skip = frozenset()
            if rng.random() < 0.3:
                count = len(state.threads)
                skip = set(rng.sample(range(count), rng.randint(1, min(count, 3))))
                if rng.random() < 0.5:
                    skip.add(current)
                skip = frozenset(skip)
            expected = _oracle_choose(oracle, state, current, reason, skip)
            assert live.choose(state, current, reason, skip) == expected
            assert _view(live) == _view(oracle)
            tid = rng.randrange(len(state.threads))
            state.threads[tid].status = rng.choice(_STATUSES)


def test_nothing_runnable_consumes_and_draws_nothing():
    program = _program()
    state = ExecutionState(program)
    for tid in range(3):
        state.threads[tid] = ThreadState(
            tid=tid, entry_function="main", status=ThreadStatus.BLOCKED
        )
    replay = ReplayPolicy(
        [ScheduleDecision(index=0, tid=1, pc=0, step=0, reason="sync")],
        fallback=RandomPolicy(4),
    )
    controlled = ControlledPolicy(replay)
    controlled.force(2)
    draws = replay.fallback.rng.getstate()
    for policy in (replay, controlled):
        for reason in _REASONS:
            assert policy.choose(state, 0, reason) is None
    assert (replay.cursor, replay.diverged, controlled.stuck) == (0, False, False)
    assert replay.fallback.rng.getstate() == draws


def test_serial_registry_matches_the_oracle_policies(monkeypatch):
    rows, counters = _serial_registry()
    with monkeypatch.context() as patch:
        use_oracle_policies(patch)
        assert Executor._decide is _oracle_decide
        oracle_rows, oracle_counters = _serial_registry()
    assert len(rows) == 385
    assert rows == oracle_rows
    assert counters == oracle_counters
