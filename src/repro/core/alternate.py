"""Primary replay and alternate-ordering enforcement.

This module is the record/replay choreography shared by every analysis
stage:

* :func:`replay_primary` returns the recorded trace's replay (optionally with
  different concrete inputs) with the checkpoints of one race: the state at
  its pre-race point, the memory right after its post-race point (a
  copy-on-write clone, frozen only if a comparison needs it, see
  :meth:`Memory.same_snapshot`), and the completed execution -- lines 1-4
  of Algorithm 1.  Only those checkpoints differ between the races of a
  trace, so the trace is replayed *once* per
  (trace, program, effective inputs, race-point locator mode, step budget,
  predicates, loop bound): one :class:`ReplayPolicy` run stops at every race's
  pre-race and post-race points, and the completed primary is shared by all
  races and by both classifier stages.  The passes live in the trace's
  :class:`~repro.record_replay.memo.TraceMemo`, a required argument, as
  many as one race replays (the recorded inputs, then up to Mp multi-path
  primaries), so a race's input vectors cannot evict each other.  A race
  the pass cannot answer (its first access is a synchronisation statement,
  or the pass did not complete within the step budget) takes
  :func:`replay_primary_per_race`, the per-race replay with its exact
  per-phase budget; that function is also the test oracle the shared pass
  is checked against.
* :func:`run_alternate` primes a new execution with the pre-race checkpoint
  and enforces the alternate ordering of the racing accesses by preempting
  the thread that performed the first access and forcing the other racing
  thread to run -- lines 5-7 of Algorithm 1 -- then lets the execution
  continue under a post-race schedule: the single-post schedule (the
  preempted thread is released to make its racing access, then
  round-robin), which Algorithm 1 runs and which is the first of
  Algorithm 2's Ma schedules, or a seeded random policy for the others
  (§3.4).  An enforcement run whose state repeats (the forced thread
  spinning on a flag only the preempted thread can set) is cut short at the
  repeat and fast-forwarded to the state the full budget would reach
  (:class:`_SpinCutoff`).  Every caller hands in the race's
  :data:`EnforcementMemo`: every alternate of a checkpoint shares one
  enforcement and runs its post-race schedule on a clone of the enforced
  state, and the single-post alternate runs once.  A fresh memo per call
  enforces every alternate from its checkpoint.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.spec import SemanticPredicate, SpecChecker, diagnose_timeout
from repro.detection.race_report import RaceReport
from repro.lang import ast
from repro.lang.program import Program
from repro.record_replay.memo import TraceMemo
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.errors import ExecutionOutcome, OutcomeKind
from repro.runtime.executor import Executor, RunResult, RunStatus
from repro.runtime.listeners import ExecutionListener, MemoryAccess
from repro.runtime.memory import Memory
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
    """Observes accesses to the racing location by a specific thread.

    It wants only the racing location's name; ``_same_variable`` still
    checks the space, because another space may reuse the name.
    """

    def __init__(self, race: RaceReport, tid: int) -> None:
        self.race = race
        self.tid = tid
        self.access_names = frozenset((race.location.name,))
        self.seen = False

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


@dataclass
class PrimaryReplay:
    """The primary execution, replayed to completion with checkpoints.

    ``final_state``, ``pre_race_checkpoint`` and ``post_race_snapshot`` (a
    copy-on-write clone of the memory right after the second racing access)
    may be shared with other races of the same trace (see
    :func:`replay_primary`): read them or clone them, never mutate them.
    """

    final_state: ExecutionState
    pre_race_checkpoint: Optional[ExecutionState]
    post_race_snapshot: Optional[Memory]
    reached_race: bool
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
    """One alternate execution: enforcement status plus final state.

    ``post_race_snapshot`` is set by the single-post schedule only: the
    memory right after the release (see :func:`run_alternate`), a
    copy-on-write clone to read, never to mutate.
    """

    status: AlternateStatus
    state: ExecutionState
    post_race_snapshot: Optional[Memory] = None
    timeout_diagnosis: Optional[str] = None
    lock_cycle: Optional[List[int]] = None
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
    of :func:`replay_primary`, and it does fire: for a race whose first
    access is a synchronisation statement, which the shared pass cannot
    stop before without consuming a second recorded decision
    (``test_sync_first_access_leaves_other_races_on_the_recorded_schedule``),
    for every race of a pass that exhausts the step budget before the
    program ends (``test_small_budget_falls_back_with_per_race_verdicts``),
    and for a race outside ``trace.races``.  It is also the oracle the
    shared pass is tested against.  It keeps nothing, so it takes no memo.
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
            snapshot = state.memory.clone()

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
    ``(pre-race checkpoint, post-race memory)``, the memory a copy-on-write
    clone.

    ``final_state`` is None when the pass did not complete within the step
    budget; every race of the key then takes the per-race fallback.  Races
    missing from ``points`` (not among ``trace.races``, or whose first
    access is a synchronisation statement) take it too.
    """

    final_state: Optional[ExecutionState]
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
            snapshot = state.memory.clone()
            settle(post, (hits[0][3], hits[0][4]))
            for key in hits:
                points[key][1] = snapshot
        else:
            break
    return _ReplayBook(
        final_state=state if state.outcome is not None else None,
        steps=state.step_count,
        points=points,
    )


def replay_primary(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    concrete_inputs: Optional[Dict[str, int]] = None,
    predicates: Sequence[SemanticPredicate] = (),
    max_steps: Optional[int] = None,
    use_steps: bool = True,
    primaries: int = 1,
    *,
    memo: TraceMemo,
) -> PrimaryReplay:
    """Replay the primary execution, taking pre-race and post-race checkpoints.

    The replay pass is shared, through ``memo``, with every other race of
    ``trace`` replayed under the same inputs, locator mode, budget,
    predicates and loop bound; the result equals
    :func:`replay_primary_per_race`'s.  ``memo`` is the memo of ``trace``
    classified against the executor's program, and only of that pair.
    ``primaries`` is the number of multi-path primaries (Mp, §3.3) the
    caller replays per race: the memo keeps the largest such number of
    passes any caller asked for, plus the recorded inputs' one.
    """
    inputs = _effective_inputs(trace, concrete_inputs)
    budget = max_steps or executor.config.max_steps
    memo.replay_limit = max(memo.replay_limit, primaries + 1)
    key = (
        tuple(sorted(inputs.items())),
        use_steps,
        budget,
        tuple(predicate.name for predicate in predicates),
        executor.config.max_loop_iterations,
    )
    passes = memo.replays
    book = passes.get(key)
    if book is None:
        book = _replay_book(executor, trace, inputs, predicates, budget, use_steps)
        if len(passes) >= memo.replay_limit:
            passes.popitem(last=False)
        passes[key] = book
    else:
        passes.move_to_end(key)
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
    operands = {type(value.left), type(value.right)}
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
    ``step_count``, ``LoopEntry.iterations``,
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
        for other in list(state.threads):
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


@dataclass
class _Enforced:
    """An enforced alternate ordering, kept in an :data:`EnforcementMemo`."""

    #: held so the ``id(checkpoint)`` memo key cannot be reused
    checkpoint: ExecutionState
    #: the state right after the forced thread's racing access; never
    #: mutated, every alternate runs on a clone of it
    state: ExecutionState
    #: the single-post alternate, once run; its final state is never
    #: mutated, every request for it gets a clone
    single_post: Optional[AlternateResult] = None


#: One race's enforced alternate orderings, by ``(id(pre-race checkpoint),
#: timeout_steps)``.  ``classify_race`` and the Record/Replay-Analyzer
#: baseline make one per race and drop it with the race: a replay pass
#: shares a checkpoint between the races that stop at the same pre-race
#: point, so the memo must not outlive one race.
EnforcementMemo = Dict[Tuple[int, int], _Enforced]


def _enforce(
    executor: Executor,
    race: RaceReport,
    checkpoint: ExecutionState,
    timeout_steps: int,
    listeners: List[ExecutionListener],
) -> Tuple[ExecutionState, _RaceAccessWatcher, RunResult]:
    """Run a clone of ``checkpoint`` until the forced thread's racing access.

    Returns the state, the watcher that saw (or did not see) that access and
    the last run's result.  An enforcement run that starts repeating its
    state is cut short and fast-forwarded (:class:`_SpinCutoff`).
    """
    first, second = race.first, race.second
    state = checkpoint.clone()
    # The checkpoint may come from a replay pass another task's executor
    # ran: count this alternate's statements on the executor running it.
    state.attach_counters(executor.counters)
    watcher = _RaceAccessWatcher(race, second.tid)
    watched = RacePointLocator(race, use_steps=False).watched_pcs()

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
    return state, watcher, result


def _run_post_race(
    executor: Executor,
    race: RaceReport,
    state: ExecutionState,
    post_race_policy: Optional[SchedulePolicy],
    listeners: List[ExecutionListener],
    timeout_steps: int,
) -> Optional[Memory]:
    """Run an enforced alternate on to its end under its post-race schedule.

    ``post_race_policy`` None is the single-post schedule: the release
    forces the preempted thread to make its own racing access, and the
    memory right after that access is returned (a copy-on-write clone) for
    comparison with the primary's post-race memory.  The release is a fresh
    run, and the scheduler is consulted only at preemption points, so the
    enforced thread first runs on from its racing access to its next
    preemption point: the memory is not the one immediately after the
    race.  Round-robin continues from there.  Any other policy continues
    from the enforced state directly, and None is returned.
    """
    snapshot = None
    if post_race_policy is None and state.outcome is None:
        follower = _RaceAccessWatcher(race, race.first.tid)
        release = ControlledPolicy(RoundRobinPolicy())
        release.force(race.first.tid)
        executor.run(
            state,
            policy=release,
            listeners=listeners + [follower],
            max_steps=min(timeout_steps, 5_000),
            watched_pcs=RacePointLocator(race, use_steps=False).watched_pcs(),
            stop_after=lambda s, t, st: follower.seen,
        )
        snapshot = state.memory.clone()
    if state.outcome is None:
        executor.run(
            state,
            policy=post_race_policy or RoundRobinPolicy(),
            listeners=listeners,
            max_steps=timeout_steps,
            watched_pcs=frozenset(),
        )
    return snapshot


def run_alternate(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    primary: PrimaryReplay,
    timeout_steps: int,
    post_race_policy: Optional[SchedulePolicy] = None,
    predicates: Sequence[SemanticPredicate] = (),
    *,
    enforced: EnforcementMemo,
) -> AlternateResult:
    """Enforce the alternate ordering of the racing accesses and run onwards.

    ``primary`` must have been produced by :func:`replay_primary` (its
    pre-race checkpoint seeds the alternate).  ``timeout_steps`` bounds the
    enforcement and the post-race execution; callers take it from
    :func:`enforcement_budget`.  An enforcement run that starts repeating
    its state is cut short and fast-forwarded (:class:`_SpinCutoff`): the
    result equals the one the full ``timeout_steps`` would give, final
    state included.

    ``post_race_policy`` None (the default) is the single-post schedule of
    Algorithm 1, also the first of Algorithm 2's Ma schedules: the release
    lets the preempted thread make its racing access, the memory after it
    becomes ``post_race_snapshot`` (a copy-on-write clone, compared through
    :meth:`Memory.same_snapshot`), and round-robin continues.  Any other
    policy continues from the enforced state (see :func:`_run_post_race`).

    The alternates of one checkpoint differ only after the race: the
    enforcement is the same deterministic run, and only the post-race
    schedule changes.  ``enforced`` is the race's memo (see
    :data:`EnforcementMemo`): the first alternate of a checkpoint and
    budget keeps its enforced state, if the forced thread reached its
    racing access, and every alternate of that checkpoint runs its release
    and continuation on a clone of it.  The entry also keeps the
    single-post result: a second single-post request for the same
    checkpoint and budget (Algorithm 2's first alternate of the recorded
    inputs' path repeats Algorithm 1's) executes nothing and gets that
    result with a clone of its final state.  The result does not depend on
    what the memo held; ``steps`` still counts the enforcement.
    """
    checkpoint = primary.pre_race_checkpoint
    if checkpoint is None:
        return AlternateResult(status=AlternateStatus.RACE_NOT_REACHED, state=primary.final_state)

    listeners = _spec_listeners(predicates)
    key = (id(checkpoint), timeout_steps)
    kept = enforced.get(key)
    if kept is None:
        state, watcher, result = _enforce(executor, race, checkpoint, timeout_steps, listeners)
        if not watcher.seen:
            if state.outcome is not None:
                # The alternate terminated (crash, deadlock, ...) before the
                # forced thread reached its racing access; the classifier will
                # inspect the outcome directly (a deadlock or crash here is a
                # specification violation caused by the attempted reordering).
                return AlternateResult(
                    status=AlternateStatus.COMPLETED, state=state, steps=state.step_count
                )
            if result.status is RunStatus.SCHEDULING_STUCK:
                cycle = state.sync.find_lock_cycle(state.blocked_reasons())
                return AlternateResult(
                    status=AlternateStatus.STUCK,
                    state=state,
                    lock_cycle=cycle,
                    steps=state.step_count,
                )
            # Step budget exhausted while the forced thread spins: diagnose.
            diagnosis = diagnose_timeout(program, state, spinning_tid=race.second.tid)
            return AlternateResult(
                status=AlternateStatus.TIMEOUT,
                state=state,
                timeout_diagnosis=diagnosis,
                steps=state.step_count,
            )
        kept = enforced[key] = _Enforced(checkpoint, state)
    elif post_race_policy is None and kept.single_post is not None:
        return replace(kept.single_post, state=kept.single_post.state.clone())

    # The alternate ordering was enforced; release the scheduler on a clone.
    # A checker that fired ended the state, so a fresh one carries on
    # exactly as the enforcement's own would.
    state = kept.state.clone()
    snapshot = _run_post_race(
        executor, race, state, post_race_policy, listeners, timeout_steps
    )
    alternate = AlternateResult(
        status=AlternateStatus.COMPLETED,
        state=state,
        post_race_snapshot=snapshot,
        steps=state.step_count,
    )
    if post_race_policy is None:
        kept.single_post = alternate
        return replace(alternate, state=state.clone())
    return alternate
