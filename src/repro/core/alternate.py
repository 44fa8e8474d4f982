"""Primary replay and alternate-ordering enforcement.

This module is the record/replay choreography shared by every analysis
stage:

* :func:`replay_primary` returns the recorded trace's replay (optionally with
  different concrete inputs) with the checkpoints of one race: the state at
  its pre-race point, the memory right after its post-race point, and the
  completed execution -- lines 1-4 of Algorithm 1.  Only those checkpoints
  differ between the races of a trace, so the trace is replayed *once* per
  (trace, effective inputs, race-point locator mode, step budget,
  predicates, loop bound): one :class:`ReplayPolicy` run stops at every race's
  pre-race and post-race points, and the completed primary is shared by all
  races and by both classifier stages.  A small per-process memo keeps the
  last few such passes.  A pass that does not complete within the step
  budget falls back, for that key, to :func:`replay_primary_per_race`, the
  per-race replay with its exact per-phase budget; that function is also
  the test oracle the shared pass is checked against.
* :func:`run_alternate` primes a new execution with the pre-race checkpoint
  and enforces the alternate ordering of the racing accesses by preempting
  the thread that performed the first access and forcing the other racing
  thread to run -- lines 5-7 of Algorithm 1 -- then lets the execution
  continue under a configurable post-race schedule policy (round-robin for
  the deterministic single-post analysis, random for multi-schedule
  analysis, §3.4).  An enforcement run whose state repeats (the forced
  thread spinning on a flag only the preempted thread can set) is cut short
  at the repeat and fast-forwarded to the state the full budget would reach
  (:class:`_SpinCutoff`).
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.spec import SemanticPredicate, SpecChecker, diagnose_timeout
from repro.detection.race_report import RaceReport
from repro.lang import ast
from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.errors import ExecutionOutcome, OutcomeKind
from repro.runtime.executor import Executor, RunStatus
from repro.runtime.listeners import ExecutionListener, MemoryAccess
from repro.runtime.scheduler import (
    ControlledPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SchedulePolicy,
)
from repro.runtime.state import ExecutionState
from repro.runtime.threadstate import Frame, LoopEntry


class RacePointLocator:
    """Stop-predicate factory that finds the racing accesses during a replay.

    With identical inputs the replay is deterministic, so the recorded step
    numbers locate the racing accesses exactly; with different inputs (the
    multi-path primaries of §3.3) the locator falls back to matching the
    first dynamic occurrence of the racing thread/pc pair, tolerating the
    divergence the paper describes.
    """

    def __init__(self, race: RaceReport, use_steps: bool = True) -> None:
        self.race = race
        self.use_steps = use_steps

    def stop_before_first_access(self) -> Callable[[ExecutionState, int, object], bool]:
        first = self.race.first

        def predicate(state: ExecutionState, tid: int, stmt) -> bool:
            if tid != first.tid or stmt.pc != first.pc:
                return False
            if self.use_steps and state.step_count + 1 < first.step:
                return False
            return True

        return predicate

    def stop_after_second_access(self) -> Callable[[ExecutionState, int, object], bool]:
        second = self.race.second

        def predicate(state: ExecutionState, tid: int, stmt) -> bool:
            if tid != second.tid or stmt.pc != second.pc:
                return False
            if self.use_steps and state.step_count < second.step:
                return False
            return True

        return predicate

    def watched_pcs(self) -> frozenset:
        return frozenset((self.race.first.pc, self.race.second.pc))


class _RaceAccessWatcher(ExecutionListener):
    """Observes accesses to the racing location by a specific thread."""

    def __init__(self, race: RaceReport, tid: int) -> None:
        self.race = race
        self.tid = tid
        self.seen = False
        self.seen_pc: Optional[int] = None

    def _same_variable(self, access: MemoryAccess) -> bool:
        location = self.race.location
        return (
            access.location.space == location.space
            and access.location.name == location.name
        )

    def on_access(self, state, access: MemoryAccess) -> None:
        if self.seen or access.tid != self.tid:
            return
        if self._same_variable(access):
            self.seen = True
            self.seen_pc = access.pc


@dataclass
class PrimaryReplay:
    """The primary execution, replayed to completion with checkpoints.

    ``final_state`` and ``pre_race_checkpoint`` may be shared with other
    races of the same trace (see :func:`replay_primary`): read them or clone
    them, never mutate them.
    """

    final_state: ExecutionState
    pre_race_checkpoint: Optional[ExecutionState]
    post_race_snapshot: Optional[Tuple]
    reached_race: bool
    diverged: bool
    steps: int

    @property
    def outcome(self) -> Optional[ExecutionOutcome]:
        return self.final_state.outcome


class AlternateStatus(enum.Enum):
    """How the attempt to enforce the alternate ordering ended."""

    COMPLETED = "completed"
    TIMEOUT = "timeout"
    STUCK = "scheduling stuck"
    RACE_NOT_REACHED = "race not reached"


@dataclass
class AlternateResult:
    """One alternate execution: enforcement status plus final state."""

    status: AlternateStatus
    state: ExecutionState
    pre_race_checkpoint: Optional[ExecutionState]
    post_race_snapshot: Optional[Tuple] = None
    timeout_diagnosis: Optional[str] = None
    lock_cycle: Optional[List[int]] = None
    enforced_pc: Optional[int] = None
    steps: int = 0

    @property
    def outcome(self) -> Optional[ExecutionOutcome]:
        return self.state.outcome

    @property
    def enforced(self) -> bool:
        return self.status is AlternateStatus.COMPLETED


def _spec_listeners(predicates: Sequence[SemanticPredicate]) -> List[ExecutionListener]:
    return [SpecChecker(predicates)] if predicates else []


def _effective_inputs(
    trace: ExecutionTrace, concrete_inputs: Optional[Dict[str, int]]
) -> Dict[str, int]:
    inputs = dict(trace.concrete_inputs)
    if concrete_inputs:
        inputs.update(concrete_inputs)
    return inputs


def replay_primary_per_race(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    concrete_inputs: Optional[Dict[str, int]] = None,
    predicates: Sequence[SemanticPredicate] = (),
    max_steps: Optional[int] = None,
    use_steps: bool = True,
) -> PrimaryReplay:
    """Replay the primary for one race alone, from the initial state.

    Each of the three phases (to the pre-race point, to the post-race
    point, to completion) gets the full step budget.  This is the fallback
    of :func:`replay_primary` and the oracle its shared pass is tested
    against.
    """
    inputs = _effective_inputs(trace, concrete_inputs)
    locator = RacePointLocator(race, use_steps=use_steps)
    policy = ReplayPolicy(trace.decisions)
    state = executor.initial_state(concrete_inputs=inputs)
    listeners = _spec_listeners(predicates)
    budget = max_steps or executor.config.max_steps
    watched = locator.watched_pcs()

    # Phase 1: up to (but not including) the first racing access.
    result = executor.run(
        state,
        policy=policy,
        listeners=listeners,
        max_steps=budget,
        watched_pcs=watched,
        stop_before=locator.stop_before_first_access(),
    )
    pre_race = state.clone() if result.status is RunStatus.STOPPED_BEFORE else None
    reached_race = pre_race is not None

    snapshot = None
    if reached_race:
        # Phase 2: up to and including the second racing access.
        result = executor.run(
            state,
            policy=policy,
            listeners=listeners,
            max_steps=budget,
            watched_pcs=watched,
            stop_after=locator.stop_after_second_access(),
        )
        if result.status is RunStatus.STOPPED_AFTER:
            snapshot = state.memory.snapshot()

    # Phase 3: run to completion.
    if state.outcome is None:
        executor.run(
            state,
            policy=policy,
            listeners=listeners,
            max_steps=budget,
        )

    return PrimaryReplay(
        final_state=state,
        pre_race_checkpoint=pre_race,
        post_race_snapshot=snapshot,
        reached_race=reached_race,
        diverged=policy.diverged,
        steps=state.step_count,
    )


#: A race's stop points as the locator sees them:
#: ``(first.tid, first.pc, first.step, second.tid, second.pc, second.step)``.
_RacePoints = Tuple[int, int, int, int, int, int]


def _race_points(race: RaceReport) -> _RacePoints:
    first, second = race.first, race.second
    return (first.tid, first.pc, first.step, second.tid, second.pc, second.step)


@dataclass
class _ReplayBook:
    """One replay pass of a trace: the shared primary plus every race's
    ``(pre-race checkpoint, post-race snapshot)``.

    ``final_state`` is None when the pass did not complete within the step
    budget; every race of the key then takes the per-race fallback.  Races
    missing from ``points`` (not among ``trace.races``, or whose first
    access is a synchronisation statement) take it too.
    """

    #: held so the ``id(trace)`` in the memo key cannot be reused
    trace: ExecutionTrace
    final_state: Optional[ExecutionState]
    diverged: bool
    steps: int
    points: Dict[_RacePoints, List]


def _replay_book(
    executor: Executor,
    trace: ExecutionTrace,
    inputs: Dict[str, int],
    predicates: Sequence[SemanticPredicate],
    budget: int,
    use_steps: bool,
) -> _ReplayBook:
    """Replay ``trace`` once, stopping at every race's pre- and post-race point.

    Stops are transparent: the executor re-enters the scheduler on resume,
    and at a watched (non-synchronisation) point :class:`ReplayPolicy` keeps
    the current thread, so the schedule is the one each per-race replay
    follows.  A stop *before* a synchronisation statement would consume a
    second recorded decision on resume, so races whose first access is one
    are left to the per-race fallback.
    """
    points: Dict[_RacePoints, List] = {}
    for race in trace.races:
        if not isinstance(executor.program.statement_at(race.first.pc), ast.SYNC_STMTS):
            points.setdefault(_race_points(race), [None, None])
    # Pending stop points, indexed by (tid, pc): one dict lookup per
    # statement however many races the trace has.  A race's post-race point
    # is armed only once its pre-race point has been reached.
    pre: Dict[Tuple[int, int], List[_RacePoints]] = {}
    for key in points:
        pre.setdefault((key[0], key[1]), []).append(key)
    post: Dict[Tuple[int, int], List[_RacePoints]] = {}
    watched = frozenset(pc for key in points for pc in (key[1], key[4]))
    hits: List[_RacePoints] = []

    def stop_before(state: ExecutionState, tid: int, stmt) -> bool:
        waiting = pre.get((tid, stmt.pc))
        if not waiting:
            return False
        hits[:] = [
            key for key in waiting if not use_steps or state.step_count + 1 >= key[2]
        ]
        return bool(hits)

    def stop_after(state: ExecutionState, tid: int, stmt) -> bool:
        armed = post.get((tid, stmt.pc))
        if not armed:
            return False
        hits[:] = [key for key in armed if not use_steps or state.step_count >= key[5]]
        return bool(hits)

    def settle(index: Dict[Tuple[int, int], List[_RacePoints]], where: Tuple[int, int]) -> None:
        remaining = [key for key in index[where] if key not in hits]
        if remaining:
            index[where] = remaining
        else:
            del index[where]

    policy = ReplayPolicy(trace.decisions)
    state = executor.initial_state(concrete_inputs=inputs)
    listeners = _spec_listeners(predicates)
    used = 0
    while state.outcome is None:
        result = executor.run(
            state,
            policy=policy,
            listeners=listeners,
            max_steps=budget - used,
            watched_pcs=watched,
            stop_before=stop_before if pre else None,
            stop_after=stop_after if post else None,
        )
        used += result.steps_executed
        if result.status is RunStatus.STOPPED_BEFORE:
            checkpoint = state.clone()
            settle(pre, (hits[0][0], hits[0][1]))
            for key in hits:
                points[key][0] = checkpoint
                post.setdefault((key[3], key[4]), []).append(key)
        elif result.status is RunStatus.STOPPED_AFTER:
            snapshot = state.memory.snapshot()
            settle(post, (hits[0][3], hits[0][4]))
            for key in hits:
                points[key][1] = snapshot
        else:
            break
    return _ReplayBook(
        trace=trace,
        final_state=state if state.outcome is not None else None,
        diverged=policy.diverged,
        steps=state.step_count,
        points=points,
    )


#: executing-process memo of replay passes, most recently used last.  Serial
#: runs, engine tasks (which share one ExecutionTrace per trace token) and
#: the baselines all hit it without plumbing; bounded because serial runs
#: execute in the long-lived driving process.
_REPLAY_MEMO: "OrderedDict[tuple, _ReplayBook]" = OrderedDict()
_REPLAY_MEMO_LIMIT = 4


def reset_replay_memo() -> None:
    """Forget every replay pass (pool workers and each engine run start empty)."""
    _REPLAY_MEMO.clear()


def replay_primary(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    concrete_inputs: Optional[Dict[str, int]] = None,
    predicates: Sequence[SemanticPredicate] = (),
    max_steps: Optional[int] = None,
    use_steps: bool = True,
) -> PrimaryReplay:
    """Replay the primary execution, taking pre-race and post-race checkpoints.

    The replay pass is shared with every other race of ``trace`` replayed
    under the same inputs, locator mode, budget, predicates and loop bound;
    the result equals :func:`replay_primary_per_race`'s.
    """
    inputs = _effective_inputs(trace, concrete_inputs)
    budget = max_steps or executor.config.max_steps
    key = (
        id(trace),
        tuple(sorted(inputs.items())),
        use_steps,
        budget,
        tuple(predicate.name for predicate in predicates),
        executor.config.max_loop_iterations,
    )
    book = _REPLAY_MEMO.get(key)
    if book is None or book.trace is not trace:
        book = _replay_book(executor, trace, inputs, predicates, budget, use_steps)
        if len(_REPLAY_MEMO) >= _REPLAY_MEMO_LIMIT:
            _REPLAY_MEMO.popitem(last=False)
        _REPLAY_MEMO[key] = book
    else:
        _REPLAY_MEMO.move_to_end(key)
    found = book.points.get(_race_points(race)) if book.final_state is not None else None
    if found is None:
        return replay_primary_per_race(
            executor,
            program,
            trace,
            race,
            concrete_inputs=concrete_inputs,
            predicates=predicates,
            max_steps=max_steps,
            use_steps=use_steps,
        )
    checkpoint, snapshot = found
    return PrimaryReplay(
        final_state=book.final_state,
        pre_race_checkpoint=checkpoint,
        post_race_snapshot=snapshot,
        reached_race=checkpoint is not None,
        diverged=book.diverged,
        steps=book.steps,
    )


def enforcement_budget(timeout_factor: int, primary_steps: int, max_steps: int) -> int:
    """The step budget of an alternate execution (§4).

    Enforcement, and then the post-race run, each get ``timeout_factor ×``
    the primary's steps, at least 1,000 and at most ``max_steps`` (the
    per-execution cap).  A spin cutoff returns exactly what this budget
    would, so every caller takes it from here.
    """
    return min(max(1_000, timeout_factor * primary_steps), max_steps)


#: a loop's spin state is first sampled at this iteration count and then at
#: every power of two: O(log iterations) keys per loop entry, and none for
#: loops that end within a few iterations
_FIRST_SAMPLE = 4


def _is_increment(stmt: ast.Stmt) -> bool:
    """True for ``x = x + c`` (or ``x = c + x``) with a constant ``c``."""
    if not isinstance(stmt, ast.Assign) or not isinstance(stmt.target, ast.LocalRef):
        return False
    value = stmt.value
    if not isinstance(value, ast.BinOp) or value.op != "+":
        return False
    operands = {type(ast.as_expr(value.left)), type(ast.as_expr(value.right))}
    return operands == {ast.LocalRef, ast.Const} and stmt.target in (value.left, value.right)


def _induction_locals(loop: ast.While) -> FrozenSet[str]:
    """Locals whose only use anywhere in ``loop`` is ``x = x + c``.

    Nothing in the loop reads such a local except its own increment, so it
    cannot steer the loop: a spin that counts its iterations in one (as
    memcached's ``spins`` and ocean's ``spin_iters`` do) is still periodic.
    """
    increments = set()
    used = set(ast.local_reads(loop.cond))
    for stmt in ast.iter_statements(loop.body):
        if _is_increment(stmt):
            increments.add(stmt.target.name)
            continue
        for expr in ast.statement_expressions(stmt):
            used.update(ast.local_reads(expr))
        if isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.LocalRef):
                used.add(stmt.target.name)
        elif isinstance(stmt, (ast.Spawn, ast.Input, ast.Call, ast.Malloc)):
            used.add(stmt.target)
    return frozenset(increments - used)


@dataclass
class _Sample:
    """One spin sample: the state minus its monotone parts, and those parts."""

    iterations: int
    key: tuple
    #: ``(step_count, preemption_points, context_switches)``
    totals: Tuple[int, int, int]
    #: ``ThreadState.steps`` per thread, in thread order
    thread_steps: Tuple[int, ...]
    #: ``LoopEntry.iterations`` per loop entry, in thread/frame/control order
    loops: Tuple[int, ...]
    #: the sampled frame's concrete induction locals, ``(name, value)``
    induction: Tuple[Tuple[str, int], ...]


def _frame_key(frame: Frame, hidden: FrozenSet[str]) -> tuple:
    control = tuple(
        entry.stmt if type(entry) is LoopEntry else (entry.stmts, entry.index)
        for entry in frame.control
    )
    locals_ = tuple(item for item in frame.locals.items() if item[0] not in hidden)
    return (frame.function, frame.return_target, frame.call_label, locals_, control)


class _SpinCutoff:
    """Cuts an enforcement run short the first time its state repeats.

    The enforcement run is a deterministic function of its state (its
    policy is stateless), so once the state repeats the run is periodic and
    can never reach the racing access.  :meth:`sample` is the run's
    ``stop_before`` predicate.  Before a loop condition whose iteration
    count is a power of two (from :data:`_FIRST_SAMPLE` on) it keys the
    whole state, leaving out only what grows without steering anything:
    ``step_count``, per-thread ``steps``, ``LoopEntry.iterations``,
    ``preemption_points``, ``context_switches`` and the sampled loop's
    concrete induction locals.  Symbolic values compare structurally, the
    output/input logs by length (they only grow), SpecChecker state is part
    of the key, and a loop at a watched pc is never sampled.  When the key
    equals the same loop entry's previous sample the run stops there, and
    :meth:`skip` advances every left-out value by whole periods.
    """

    def __init__(
        self,
        watched: FrozenSet[int],
        listeners: Sequence[ExecutionListener],
        max_loop_iterations: int,
    ) -> None:
        self.watched = watched
        self.checkers = [item for item in listeners if isinstance(item, SpecChecker)]
        self.max_loop_iterations = max_loop_iterations
        self._samples: Dict[Tuple[int, int, int], _Sample] = {}
        self._induction: Dict[int, FrozenSet[str]] = {}
        self._repeat: Optional[Tuple[_Sample, _Sample, int, int]] = None

    def sample(self, state: ExecutionState, tid: int, stmt: ast.Stmt) -> bool:
        if type(stmt) is not ast.While:
            return False
        frames = state.threads[tid].frames
        control = frames[-1].control
        entry = control[-1]
        if type(entry) is not LoopEntry:
            return False
        count = entry.iterations
        if count < _FIRST_SAMPLE or count & (count - 1) or stmt.pc in self.watched:
            return False
        induction = self._induction.get(stmt.pc)
        if induction is None:
            induction = self._induction[stmt.pc] = _induction_locals(stmt)
        depth = len(frames) - 1
        current = self._take(state, tid, depth, count, induction)
        # A loop entry's position identifies it while it lives; a newer
        # entry at the same position overwrites the sample at iteration
        # _FIRST_SAMPLE before it could be compared at twice that.
        where = (tid, depth, len(control))
        previous = self._samples.get(where)
        self._samples[where] = current
        if previous is None or previous.iterations * 2 != count or previous.key != current.key:
            return False
        self._repeat = (previous, current, tid, depth)
        return True

    def _take(
        self,
        state: ExecutionState,
        tid: int,
        depth: int,
        count: int,
        induction: FrozenSet[str],
    ) -> _Sample:
        sampled = state.threads[tid].frames[depth]
        counted = tuple(
            item
            for item in sampled.locals.items()
            if item[0] in induction and type(item[1]) is int
        )
        hidden = frozenset(name for name, _value in counted)
        threads = []
        loops = []
        for other, thread in state.threads.items():
            frames = []
            for index, frame in enumerate(thread.frames):
                frames.append(
                    _frame_key(frame, hidden if other == tid and index == depth else frozenset())
                )
                loops.extend(
                    entry.iterations for entry in frame.control if type(entry) is LoopEntry
                )
            threads.append(
                (
                    other,
                    thread.entry_function,
                    thread.status,
                    thread.blocked_on,
                    thread.pending_reacquire,
                    tuple(thread.held_mutexes),
                    thread.result,
                    tuple(frames),
                )
            )
        sync = state.sync
        key = (
            tuple(threads),
            state.memory.key(),
            tuple((mutex.owner, tuple(mutex.waiters)) for mutex in sync.mutexes.values()),
            tuple(tuple(condvar.waiters) for condvar in sync.condvars.values()),
            tuple((tuple(barrier.arrived), barrier.generation) for barrier in sync.barriers.values()),
            state.next_tid,
            state.current_tid,
            state.path_condition.constraints,
            state.path_condition.infeasible,
            state.symbolic_branches,
            len(state.output_log),
            len(state.input_log),
            tuple(state.symbolic_inputs.items()),
            tuple(state.concrete_inputs.items()),
            state.symbolic_input_names,
            tuple(state.notes.items()),
            tuple(checker.violated for checker in self.checkers),
        )
        return _Sample(
            iterations=count,
            key=key,
            totals=(state.step_count, state.preemption_points, state.context_switches),
            thread_steps=tuple(thread.steps for thread in state.threads.values()),
            loops=tuple(loops),
            induction=counted,
        )

    def skip(self, state: ExecutionState, left: int) -> int:
        """Advance the state the run stopped at by as many whole periods as
        fit in ``left`` steps; return the steps skipped.

        Each unit of a run's step budget (a statement or a mutex reacquire
        attempt) advances ``step_count`` by one, so the period is measured
        in budget units.  No loop entry is taken past the iteration limit:
        the remaining steps run for real and end in ``LOOP_LIMIT`` exactly
        where the full run would.
        """
        assert self._repeat is not None
        previous, current, tid, depth = self._repeat
        period = current.totals[0] - previous.totals[0]
        periods = left // period
        for then, now in zip(previous.loops, current.loops):
            if now > then:
                periods = min(periods, (self.max_loop_iterations - now) // (now - then))
        if periods <= 0:
            return 0

        def advance(then: int, now: int) -> int:
            return now + periods * (now - then)

        state.step_count, state.preemption_points, state.context_switches = (
            advance(then, now) for then, now in zip(previous.totals, current.totals)
        )
        loops = iter(zip(previous.loops, current.loops))
        for other, then, now in zip(list(state.threads), previous.thread_steps, current.thread_steps):
            if now != then:
                state.thread_mut(other).steps = advance(then, now)
            for index, frame in enumerate(list(state.threads[other].frames)):
                for position, entry in enumerate(frame.control):
                    if type(entry) is not LoopEntry:
                        continue
                    then_loop, now_loop = next(loops)
                    if now_loop != then_loop:
                        owned = state.frame_mut(other, index)
                        owned.control[position].iterations = advance(then_loop, now_loop)
        if current.induction:
            frame = state.frame_mut(tid, depth)
            for (name, then), (_name, now) in zip(previous.induction, current.induction):
                frame.locals[name] = advance(then, now)
        skipped = periods * period
        state.counters.spin_cutoffs += 1
        state.counters.steps_skipped += skipped
        return skipped


def run_alternate(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    primary: PrimaryReplay,
    timeout_steps: int,
    post_race_policy: Optional[SchedulePolicy] = None,
    predicates: Sequence[SemanticPredicate] = (),
    capture_post_race_snapshot: bool = False,
) -> AlternateResult:
    """Enforce the alternate ordering of the racing accesses and run onwards.

    ``primary`` must have been produced by :func:`replay_primary` (its
    pre-race checkpoint seeds the alternate).  ``timeout_steps`` bounds the
    enforcement and the post-race execution; callers take it from
    :func:`enforcement_budget`.  An enforcement run that starts repeating
    its state is cut short and fast-forwarded (:class:`_SpinCutoff`): the
    result equals the one the full ``timeout_steps`` would give, final
    state included.
    """
    if primary.pre_race_checkpoint is None:
        return AlternateResult(
            status=AlternateStatus.RACE_NOT_REACHED,
            state=primary.final_state,
            pre_race_checkpoint=None,
        )

    first, second = race.first, race.second
    state = primary.pre_race_checkpoint.clone()
    # The checkpoint may come from a replay pass another task's executor
    # ran: count this alternate's statements on the executor running it.
    state.attach_counters(executor.counters)
    listeners = _spec_listeners(predicates)
    watcher = _RaceAccessWatcher(race, second.tid)
    locator = RacePointLocator(race, use_steps=False)
    watched = locator.watched_pcs()

    # Enforce the alternate order: preempt the thread that performed the
    # first racing access and let the other racing thread run (Algorithm 1,
    # line 6).  The other thread is preferred rather than strictly forced so
    # that, when it is momentarily blocked or not yet created, the remaining
    # threads can still run and unblock it.
    enforcement = ControlledPolicy(RoundRobinPolicy())
    enforcement.forbid(first.tid)
    enforcement.prefer(second.tid)

    def stop_after_enforced(state_, tid, stmt) -> bool:
        return watcher.seen

    cutoff = _SpinCutoff(watched, listeners, executor.config.max_loop_iterations)
    result = executor.run(
        state,
        policy=enforcement,
        listeners=listeners + [watcher],
        max_steps=timeout_steps,
        watched_pcs=watched,
        stop_before=cutoff.sample,
        stop_after=stop_after_enforced,
    )
    if result.status is RunStatus.STOPPED_BEFORE:
        # The state repeated: skip the whole periods left in the budget,
        # then run the remaining part of a period for real.
        left = timeout_steps - result.steps_executed
        result = executor.run(
            state,
            policy=enforcement,
            listeners=listeners + [watcher],
            max_steps=left - cutoff.skip(state, left),
            watched_pcs=watched,
            stop_after=stop_after_enforced,
        )

    if not watcher.seen:
        if state.outcome is not None:
            # The alternate terminated (crash, deadlock, ...) before the
            # forced thread reached its racing access; the classifier will
            # inspect the outcome directly (a deadlock or crash here is a
            # specification violation caused by the attempted reordering).
            return AlternateResult(
                status=AlternateStatus.COMPLETED,
                state=state,
                pre_race_checkpoint=primary.pre_race_checkpoint,
                steps=state.step_count,
            )
        if result.status is RunStatus.SCHEDULING_STUCK:
            cycle = state.sync.find_lock_cycle(state.blocked_reasons())
            return AlternateResult(
                status=AlternateStatus.STUCK,
                state=state,
                pre_race_checkpoint=primary.pre_race_checkpoint,
                lock_cycle=cycle,
                timeout_diagnosis=None,
                steps=state.step_count,
            )
        # Step budget exhausted while the forced thread spins: diagnose.
        diagnosis = diagnose_timeout(program, state, spinning_tid=second.tid)
        return AlternateResult(
            status=AlternateStatus.TIMEOUT,
            state=state,
            pre_race_checkpoint=primary.pre_race_checkpoint,
            timeout_diagnosis=diagnosis,
            steps=state.step_count,
        )

    # The alternate ordering was enforced; release the scheduler.
    snapshot = None
    if capture_post_race_snapshot and state.outcome is None:
        # Let the preempted thread perform its own racing access so that the
        # "state immediately after the race" is comparable with the primary's
        # post-race snapshot (this is what the Record/Replay-Analyzer
        # baseline diffs).
        follower = _RaceAccessWatcher(race, first.tid)
        release = ControlledPolicy(RoundRobinPolicy())
        release.force(first.tid)
        executor.run(
            state,
            policy=release,
            listeners=listeners + [follower],
            max_steps=min(timeout_steps, 5_000),
            watched_pcs=watched,
            stop_after=lambda s, t, st: follower.seen,
        )
        snapshot = state.memory.snapshot()

    if state.outcome is None:
        continuation = post_race_policy or RoundRobinPolicy()
        executor.run(
            state,
            policy=continuation,
            listeners=listeners,
            max_steps=timeout_steps,
            watched_pcs=frozenset(),
        )

    return AlternateResult(
        status=AlternateStatus.COMPLETED,
        state=state,
        pre_race_checkpoint=primary.pre_race_checkpoint,
        post_race_snapshot=snapshot,
        enforced_pc=watcher.seen_pc,
        steps=state.step_count,
    )

