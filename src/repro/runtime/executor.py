"""The interpreter / symbolic executor for mini-language programs.

This module plays the role of Cloud9/KLEE in the original system: it
interprets a :class:`repro.lang.program.Program`, models POSIX threads on a
single-processor cooperative scheduler, propagates symbolic values, forks
states at branches on symbolic conditions, and reports crashes, deadlocks and
other terminal outcomes.

The executor is deliberately re-entrant and state-free across runs: all
mutable data lives in the :class:`repro.runtime.state.ExecutionState`, so the
same executor object can drive recording runs, replays, primaries, alternates
and forked multi-path states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.lang import ast
from repro.lang.program import Program
from repro.runtime.errors import (
    CrashInfo,
    CrashKind,
    ExecutionOutcome,
    OutcomeKind,
    ProgramCrash,
    RetrySignal,
)
from repro.runtime.counters import InterpCounters
from repro.runtime.listeners import (
    ExecutionListener,
    ListenerGroup,
    MemoryAccess,
    SyncEvent,
)
from repro.runtime.memory import MemoryLocation
from repro.runtime.scheduler import RoundRobinPolicy, SchedulePolicy
from repro.runtime.state import ExecutionState, InputRecord, OutputRecord
from repro.runtime.threadstate import (
    BlockEntry,
    Frame,
    LoopEntry,
    ThreadState,
    ThreadStatus,
)
from repro.symex.expr import (
    Op,
    SymVar,
    Value,
    ConcreteEvaluationError,
    is_symbolic,
    make_binary,
    make_unary,
    sym_eq,
    sym_ne,
)
from repro.symex.simplify import simplify
from repro.symex.solver import Solver

_BINOP_TOKENS: Dict[str, Op] = {
    "+": Op.ADD,
    "-": Op.SUB,
    "*": Op.MUL,
    "/": Op.DIV,
    "%": Op.MOD,
    "==": Op.EQ,
    "!=": Op.NE,
    "<": Op.LT,
    "<=": Op.LE,
    ">": Op.GT,
    ">=": Op.GE,
    "&&": Op.AND,
    "||": Op.OR,
    "&": Op.BAND,
    "|": Op.BOR,
    "^": Op.BXOR,
    "<<": Op.SHL,
    ">>": Op.SHR,
}

_UNOP_TOKENS: Dict[str, Op] = {"!": Op.NOT, "-": Op.NEG}


class RunStatus(enum.Enum):
    """Why a call to :meth:`Executor.run` returned."""

    COMPLETED = "completed"
    STOPPED_BEFORE = "stopped before statement"
    STOPPED_AFTER = "stopped after statement"
    STEP_LIMIT = "step limit reached"
    SCHEDULING_STUCK = "scheduling stuck"


@dataclass
class RunResult:
    """Result of driving a state with :meth:`Executor.run`."""

    status: RunStatus
    state: ExecutionState
    forks: List[ExecutionState] = field(default_factory=list)
    steps_executed: int = 0
    stuck_reason: Optional[str] = None

    @property
    def timed_out(self) -> bool:
        """True when the run hit its step budget or could not be scheduled.

        Algorithm 1 treats both situations as the "alternate timed out" case
        (line 8): either the forced thread never became runnable, or the
        execution kept spinning without making progress.
        """
        return self.status in (RunStatus.STEP_LIMIT, RunStatus.SCHEDULING_STUCK)


@dataclass
class ExecutorConfig:
    """Tunables of the interpreter."""

    max_steps: int = 500_000
    max_loop_iterations: int = 100_000
    solver_max_assignments: int = 200_000
    record_access_stacks: bool = True


StopPredicate = Callable[[ExecutionState, int, ast.Stmt], bool]


class Executor:
    """Interprets programs and exposes stepping, running and forking."""

    def __init__(
        self,
        program: Program,
        solver: Optional[Solver] = None,
        config: Optional[ExecutorConfig] = None,
    ) -> None:
        if not program.finalized:
            program.finalize()
        self.program = program
        self.config = config or ExecutorConfig()
        self.solver = solver or Solver(self.config.solver_max_assignments)
        self.counters = InterpCounters()

    # ------------------------------------------------------------------ setup

    def initial_state(
        self,
        concrete_inputs: Optional[Dict[str, int]] = None,
        symbolic_inputs: Sequence[str] = (),
    ) -> ExecutionState:
        """Create a fresh state with the main thread ready to run.

        ``concrete_inputs`` supplies values returned by ``Input`` statements;
        inputs named in ``symbolic_inputs`` are marked symbolic instead
        (multi-path analysis, §3.3).
        """
        state = ExecutionState(self.program)
        state.attach_counters(self.counters)
        state.concrete_inputs = dict(concrete_inputs or {})
        state.symbolic_input_names = frozenset(symbolic_inputs)
        entry = self.program.entry
        params = self.program.function(entry).params
        args = {name: 0 for name in params}
        state.add_thread(entry, args, call_label=f"<start {entry}>")
        return state

    # -------------------------------------------------------------------- run

    def run(
        self,
        state: ExecutionState,
        policy: Optional[SchedulePolicy] = None,
        listeners: Sequence[ExecutionListener] = (),
        max_steps: Optional[int] = None,
        watched_pcs: FrozenSet[int] = frozenset(),
        stop_before: Optional[StopPredicate] = None,
        stop_after: Optional[StopPredicate] = None,
    ) -> RunResult:
        """Drive ``state`` until it terminates or a stop condition is met.

        Forked states (from symbolic branches) are collected in the result
        but not executed; callers that perform multi-path exploration manage
        their own worklist (see :mod:`repro.explore.paths`).
        """
        policy = policy or RoundRobinPolicy()
        group = ListenerGroup(list(listeners))
        budget = max_steps if max_steps is not None else self.config.max_steps
        forks: List[ExecutionState] = []
        steps = 0
        last_watched: Optional[int] = None

        while True:
            if state.outcome is not None:
                group.on_finish(state)
                return RunResult(RunStatus.COMPLETED, state, forks, steps)
            if steps >= budget:
                return RunResult(RunStatus.STEP_LIMIT, state, forks, steps)

            tid = self._schedule(state, policy, group, watched_pcs, last_watched)
            if tid is None:
                if state.all_finished():
                    state.outcome = ExecutionOutcome(OutcomeKind.DONE)
                    group.on_finish(state)
                    return RunResult(RunStatus.COMPLETED, state, forks, steps)
                if not state.runnable_tids():
                    state.outcome = self._deadlock_outcome(state)
                    group.on_finish(state)
                    return RunResult(RunStatus.COMPLETED, state, forks, steps)
                stuck_reason = getattr(policy, "stuck_reason", None)
                return RunResult(
                    RunStatus.SCHEDULING_STUCK, state, forks, steps, stuck_reason
                )

            thread = state.thread(tid)
            if thread.pending_reacquire is not None:
                self._attempt_reacquire(state, state.thread_mut(tid), group)
                steps += 1
                last_watched = None
                continue

            stmt = thread.next_statement()
            if stmt is None:
                # Nothing to execute (thread just finished); normalisation
                # already flipped its status, loop around for a new decision.
                self._finish_thread(state, state.thread_mut(tid), group)
                continue

            if stop_before is not None and stop_before(state, tid, stmt):
                return RunResult(RunStatus.STOPPED_BEFORE, state, forks, steps)

            new_forks = self._execute_step(state, tid, stmt, group)
            forks.extend(new_forks)
            steps += 1
            last_watched = stmt.pc if stmt.pc in watched_pcs else None

            if stop_after is not None and stop_after(state, tid, stmt):
                return RunResult(RunStatus.STOPPED_AFTER, state, forks, steps)

    # -------------------------------------------------------------- scheduling

    def _schedule(
        self,
        state: ExecutionState,
        policy: SchedulePolicy,
        listeners: ListenerGroup,
        watched_pcs: FrozenSet[int],
        last_watched: Optional[int],
    ) -> Optional[int]:
        current = state.current_tid
        reason = self._preemption_reason(state, current, watched_pcs, last_watched)
        if reason is None:
            # The current thread stays scheduled -- it is runnable (that is
            # what ``reason is None`` means), so the O(threads) runnable scan
            # below can be skipped entirely on the steady-state fast path.
            return current
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

    def _preemption_reason(
        self,
        state: ExecutionState,
        current: Optional[int],
        watched_pcs: FrozenSet[int],
        last_watched: Optional[int],
    ) -> Optional[str]:
        """Return the preemption reason, or None to keep the current thread."""
        if current is None or current not in state.threads:
            return "blocked"
        thread = state.thread(current)
        if not thread.is_runnable:
            return "blocked"
        stmt = thread.next_statement()
        if stmt is None:
            return "blocked"
        # Synchronisation statements take precedence: they are the preemption
        # points whose decisions are recorded in (and replayed from) the
        # schedule trace, so they must never be shadowed by the analysis-only
        # watched/after-watched points.
        if isinstance(stmt, ast.SYNC_STMTS):
            return "sync"
        if thread.pending_reacquire is not None:
            return "sync"
        if stmt.pc in watched_pcs:
            return "watched"
        if last_watched is not None:
            return "after-watched"
        return None

    def _deadlock_outcome(self, state: ExecutionState) -> ExecutionOutcome:
        blocked = tuple(sorted(state.blocked_tids()))
        return ExecutionOutcome(
            OutcomeKind.DEADLOCK,
            detail="all live threads are blocked",
            blocked_threads=blocked,
        )

    # --------------------------------------------------------------- stepping

    def _execute_step(
        self,
        state: ExecutionState,
        tid: int,
        stmt: ast.Stmt,
        listeners: ListenerGroup,
    ) -> List[ExecutionState]:
        """Execute one step of thread ``tid``; return any forked states."""
        thread = state.thread_mut(tid)
        assert thread.frames and thread.frames[-1].control, "thread has nothing to execute"
        frame = state.frame_mut(tid)
        top = frame.control[-1]
        forks: List[ExecutionState] = []

        state.step_count += 1
        thread.steps += 1
        state.counters.statements += 1

        try:
            if isinstance(top, LoopEntry):
                forks = self._step_loop(state, tid, top, listeners)
            else:
                assert isinstance(top, BlockEntry) and not top.exhausted()
                index = top.index
                top.index += 1
                try:
                    forks = self._dispatch(state, tid, stmt, listeners)
                except RetrySignal:
                    top.index = index
        except ProgramCrash as crash:
            self._record_crash(state, tid, stmt, crash)

        listeners.on_step(state, tid, stmt.pc)
        if state.outcome is None:
            self._normalize(state, tid, listeners)
        return forks

    def _step_loop(
        self,
        state: ExecutionState,
        tid: int,
        entry: LoopEntry,
        listeners: ListenerGroup,
    ) -> List[ExecutionState]:
        entry.iterations += 1
        if entry.iterations > self.config.max_loop_iterations:
            state.outcome = ExecutionOutcome(
                OutcomeKind.LOOP_LIMIT,
                detail=f"loop at {entry.stmt.label or entry.stmt.pc} exceeded iteration limit",
            )
            return []
        stmt = entry.stmt
        cond = self._eval(state, tid, stmt.cond, stmt, listeners)
        if not is_symbolic(cond):
            frame = state.frame_mut(tid)
            if cond != 0:
                frame.control.append(BlockEntry(stmt.body, 0))
            else:
                frame.control.pop()
            return []
        return self._fork_branch(
            state,
            tid,
            cond,
            on_true=lambda s: self._loop_take(s, tid, stmt, take=True),
            on_false=lambda s: self._loop_take(s, tid, stmt, take=False),
        )

    @staticmethod
    def _loop_take(state: ExecutionState, tid: int, stmt: ast.While, take: bool) -> None:
        frame = state.frame_mut(tid)
        assert frame.control
        top = frame.control[-1]
        assert isinstance(top, LoopEntry) and top.stmt is stmt
        if take:
            frame.control.append(BlockEntry(stmt.body, 0))
        else:
            frame.control.pop()

    # --------------------------------------------------------------- dispatch

    def _dispatch(
        self,
        state: ExecutionState,
        tid: int,
        stmt: ast.Stmt,
        listeners: ListenerGroup,
    ) -> List[ExecutionState]:
        if isinstance(stmt, ast.Assign):
            self._exec_assign(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.If):
            return self._exec_if(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.While):
            state.frame_mut(tid).control.append(LoopEntry(stmt))
        elif isinstance(stmt, ast.Lock):
            self._exec_lock(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Unlock):
            self._exec_unlock(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.CondWait):
            self._exec_cond_wait(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.CondSignal):
            self._exec_cond_signal(state, tid, stmt, listeners, broadcast=False)
        elif isinstance(stmt, ast.CondBroadcast):
            self._exec_cond_signal(state, tid, stmt, listeners, broadcast=True)
        elif isinstance(stmt, ast.BarrierWait):
            self._exec_barrier(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Spawn):
            self._exec_spawn(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Join):
            self._exec_join(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Output):
            self._exec_output(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Input):
            self._exec_input(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Assert):
            self._exec_assert(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Abort):
            raise ProgramCrash(CrashKind.EXPLICIT_ABORT, stmt.message)
        elif isinstance(stmt, ast.Call):
            self._exec_call(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Return):
            self._exec_return(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Malloc):
            self._exec_malloc(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Free):
            self._exec_free(state, tid, stmt, listeners)
        elif isinstance(stmt, (ast.Yield, ast.Sleep, ast.Nop)):
            pass
        elif isinstance(stmt, ast.Break):
            self._exec_break(state, tid)
        elif isinstance(stmt, ast.Continue):
            self._exec_continue(state, tid)
        else:  # pragma: no cover - defensive
            raise ProgramCrash(
                CrashKind.INVALID_SYNC, f"unsupported statement {type(stmt).__name__}"
            )
        return []

    # ------------------------------------------------------------- statements

    def _exec_assign(self, state, tid, stmt: ast.Assign, listeners) -> None:
        value = self._eval(state, tid, stmt.value, stmt, listeners)
        self._store(state, tid, stmt.target, value, stmt, listeners)

    def _exec_if(self, state, tid, stmt: ast.If, listeners) -> List[ExecutionState]:
        cond = self._eval(state, tid, stmt.cond, stmt, listeners)
        if not is_symbolic(cond):
            branch = stmt.then_body if cond != 0 else stmt.else_body
            if branch:
                state.frame_mut(tid).control.append(BlockEntry(branch, 0))
            return []
        return self._fork_branch(
            state,
            tid,
            cond,
            on_true=lambda s: self._enter_branch(s, tid, stmt.then_body),
            on_false=lambda s: self._enter_branch(s, tid, stmt.else_body),
        )

    @staticmethod
    def _enter_branch(state: ExecutionState, tid: int, body: Tuple[ast.Stmt, ...]) -> None:
        if body:
            state.frame_mut(tid).control.append(BlockEntry(body, 0))

    def _exec_lock(self, state, tid, stmt: ast.Lock, listeners) -> None:
        mutex = state.sync.mutex_mut(stmt.mutex)
        thread = state.thread_mut(tid)
        if mutex.owner is None:
            mutex.owner = tid
            if tid in mutex.waiters:
                mutex.waiters.remove(tid)
            thread.held_mutexes.append(stmt.mutex)
            listeners.on_sync(
                state,
                SyncEvent(tid, "lock", stmt.mutex, stmt.pc, state.step_count),
            )
            return
        if mutex.owner == tid:
            raise ProgramCrash(
                CrashKind.INVALID_SYNC, f"recursive lock of mutex {stmt.mutex!r}"
            )
        if tid not in mutex.waiters:
            mutex.waiters.append(tid)
        thread.status = ThreadStatus.BLOCKED
        thread.blocked_on = ("mutex", stmt.mutex)
        raise RetrySignal()

    def _exec_unlock(self, state, tid, stmt: ast.Unlock, listeners) -> None:
        mutex = state.sync.mutex_mut(stmt.mutex)
        thread = state.thread_mut(tid)
        if mutex.owner != tid:
            raise ProgramCrash(
                CrashKind.INVALID_SYNC,
                f"unlock of mutex {stmt.mutex!r} not held by thread {tid}",
            )
        mutex.owner = None
        if stmt.mutex in thread.held_mutexes:
            thread.held_mutexes.remove(stmt.mutex)
        self._wake_mutex_waiters(state, stmt.mutex)
        listeners.on_sync(
            state, SyncEvent(tid, "unlock", stmt.mutex, stmt.pc, state.step_count)
        )

    def _wake_mutex_waiters(self, state: ExecutionState, mutex_name: str) -> None:
        for other_tid, other in list(state.threads.items()):
            if not other.is_blocked or other.blocked_on is None:
                continue
            kind, target = other.blocked_on
            if target == mutex_name and kind in ("mutex", "mutex-reacquire"):
                other = state.thread_mut(other_tid)
                other.status = ThreadStatus.RUNNABLE
                other.blocked_on = None

    def _exec_cond_wait(self, state, tid, stmt: ast.CondWait, listeners) -> None:
        mutex = state.sync.mutex_mut(stmt.mutex)
        condvar = state.sync.condvar_mut(stmt.cond)
        thread = state.thread_mut(tid)
        if mutex.owner != tid:
            raise ProgramCrash(
                CrashKind.INVALID_SYNC,
                f"cond_wait on {stmt.cond!r} with mutex {stmt.mutex!r} not held",
            )
        mutex.owner = None
        if stmt.mutex in thread.held_mutexes:
            thread.held_mutexes.remove(stmt.mutex)
        self._wake_mutex_waiters(state, stmt.mutex)
        # The mutex release inside cond_wait creates the same happens-before
        # edge as an explicit unlock; publish it so the race detector sees it.
        listeners.on_sync(
            state, SyncEvent(tid, "unlock", stmt.mutex, stmt.pc, state.step_count)
        )
        condvar.waiters.append(tid)
        thread.status = ThreadStatus.BLOCKED
        thread.blocked_on = ("cond", stmt.cond)
        thread.pending_reacquire = stmt.mutex
        listeners.on_sync(
            state, SyncEvent(tid, "cond_wait", stmt.cond, stmt.pc, state.step_count)
        )

    def _exec_cond_signal(self, state, tid, stmt, listeners, broadcast: bool) -> None:
        condvar = state.sync.condvar(stmt.cond)
        to_wake = list(condvar.waiters) if broadcast else list(condvar.waiters[:1])
        if to_wake:
            condvar = state.sync.condvar_mut(stmt.cond)
        for waiter_tid in to_wake:
            condvar.waiters.remove(waiter_tid)
            waiter = state.thread_mut(waiter_tid)
            mutex_name = waiter.pending_reacquire
            mutex = state.sync.mutex(mutex_name) if mutex_name else None
            waiter.blocked_on = ("mutex-reacquire", mutex_name)
            if mutex is None or mutex.owner is None:
                waiter.status = ThreadStatus.RUNNABLE
                waiter.blocked_on = None
        kind = "cond_broadcast" if broadcast else "cond_signal"
        listeners.on_sync(
            state,
            SyncEvent(tid, kind, stmt.cond, stmt.pc, state.step_count, peer=tuple(to_wake)),
        )

    def _attempt_reacquire(self, state, thread: ThreadState, listeners) -> None:
        """Reacquire the mutex released by ``cond_wait`` once woken."""
        mutex_name = thread.pending_reacquire
        assert mutex_name is not None
        mutex = state.sync.mutex(mutex_name)
        state.step_count += 1
        thread.steps += 1
        if mutex.owner is None:
            mutex = state.sync.mutex_mut(mutex_name)
            mutex.owner = thread.tid
            thread.held_mutexes.append(mutex_name)
            thread.pending_reacquire = None
            listeners.on_sync(
                state,
                SyncEvent(thread.tid, "lock", mutex_name, 0, state.step_count),
            )
        else:
            thread.status = ThreadStatus.BLOCKED
            thread.blocked_on = ("mutex-reacquire", mutex_name)

    def _exec_barrier(self, state, tid, stmt: ast.BarrierWait, listeners) -> None:
        barrier = state.sync.barrier_mut(stmt.barrier)
        thread = state.thread_mut(tid)
        barrier.arrived.append(tid)
        if len(barrier.arrived) >= barrier.parties:
            released = tuple(barrier.arrived)
            barrier.arrived = []
            barrier.generation += 1
            for other_tid in released:
                other = state.thread(other_tid)
                if other.is_blocked and other.blocked_on == ("barrier", stmt.barrier):
                    other = state.thread_mut(other_tid)
                    other.status = ThreadStatus.RUNNABLE
                    other.blocked_on = None
            listeners.on_sync(
                state,
                SyncEvent(
                    tid, "barrier_release", stmt.barrier, stmt.pc, state.step_count,
                    peer=released,
                ),
            )
            return
        thread.status = ThreadStatus.BLOCKED
        thread.blocked_on = ("barrier", stmt.barrier)
        listeners.on_sync(
            state,
            SyncEvent(tid, "barrier_wait", stmt.barrier, stmt.pc, state.step_count),
        )

    def _exec_spawn(self, state, tid, stmt: ast.Spawn, listeners) -> None:
        function = self.program.function(stmt.function)
        values = [self._eval(state, tid, arg, stmt, listeners) for arg in stmt.args]
        if len(values) > len(function.params):
            raise ProgramCrash(
                CrashKind.INVALID_SYNC,
                f"spawn of {stmt.function!r} with too many arguments",
            )
        args = {name: 0 for name in function.params}
        for name, value in zip(function.params, values):
            args[name] = value
        child = state.add_thread(stmt.function, args, call_label=stmt.label)
        state.frame_mut(tid).locals[stmt.target] = child.tid
        listeners.on_sync(
            state,
            SyncEvent(tid, "spawn", stmt.function, stmt.pc, state.step_count, peer=(child.tid,)),
        )

    def _exec_join(self, state, tid, stmt: ast.Join, listeners) -> None:
        target = self._eval(state, tid, stmt.thread, stmt, listeners)
        if is_symbolic(target):
            raise ProgramCrash(CrashKind.INVALID_SYNC, "join on a symbolic thread id")
        target = int(target)
        if target not in state.threads:
            raise ProgramCrash(CrashKind.INVALID_SYNC, f"join on unknown thread {target}")
        other = state.thread(target)
        if other.is_finished:
            listeners.on_sync(
                state,
                SyncEvent(tid, "join", str(target), stmt.pc, state.step_count, peer=(target,)),
            )
            return
        thread = state.thread_mut(tid)
        thread.status = ThreadStatus.BLOCKED
        thread.blocked_on = ("join", target)
        raise RetrySignal()

    def _exec_output(self, state, tid, stmt: ast.Output, listeners) -> None:
        values = tuple(
            simplify(self._eval(state, tid, value, stmt, listeners)) for value in stmt.values
        )
        record = OutputRecord(
            channel=stmt.channel,
            values=values,
            tid=tid,
            pc=stmt.pc,
            label=stmt.label,
            step=state.step_count,
        )
        state.append_output(record)
        listeners.on_output(state, record)

    def _exec_input(self, state, tid, stmt: ast.Input, listeners) -> None:
        symbolic = stmt.name in state.symbolic_input_names
        if symbolic:
            var = state.symbolic_inputs.get(stmt.name)
            if var is None:
                var = SymVar(stmt.name, stmt.lo, stmt.hi)
                state.symbolic_inputs[stmt.name] = var
            value: Value = var
        elif stmt.name in state.concrete_inputs:
            value = int(state.concrete_inputs[stmt.name])
        else:
            value = stmt.default
        state.frame_mut(tid).locals[stmt.target] = value
        record = InputRecord(
            name=stmt.name,
            value=value,
            tid=tid,
            pc=stmt.pc,
            step=state.step_count,
            symbolic=symbolic,
        )
        state.append_input(record)
        listeners.on_input(state, record)

    def _exec_assert(self, state, tid, stmt: ast.Assert, listeners) -> None:
        cond = self._eval(state, tid, stmt.cond, stmt, listeners)
        if not is_symbolic(cond):
            if cond == 0:
                raise ProgramCrash(CrashKind.ASSERTION_FAILURE, stmt.message)
            return
        constraints = list(state.path_condition.constraints) + [sym_eq(cond, 0)]
        if self.solver.is_satisfiable(constraints, unknown_is_sat=False):
            raise ProgramCrash(
                CrashKind.ASSERTION_FAILURE,
                f"{stmt.message} (violable under current path condition)",
            )
        state.path_condition.add(sym_ne(cond, 0))

    def _exec_call(self, state, tid, stmt: ast.Call, listeners) -> None:
        function = self.program.function(stmt.function)
        values = [self._eval(state, tid, arg, stmt, listeners) for arg in stmt.args]
        args = {name: 0 for name in function.params}
        for name, value in zip(function.params, values):
            args[name] = value
        thread = state.thread_mut(tid)
        thread.frames.append(
            Frame(
                function=stmt.function,
                locals=args,
                control=[BlockEntry(function.body, 0)],
                return_target=stmt.target,
                call_label=stmt.label,
                version=thread.version,
            )
        )

    def _exec_return(self, state, tid, stmt: ast.Return, listeners) -> None:
        value: Value = 0
        if stmt.value is not None:
            value = self._eval(state, tid, stmt.value, stmt, listeners)
        thread = state.thread_mut(tid)
        self._pop_frame(state, thread, value, listeners)

    def _exec_malloc(self, state, tid, stmt: ast.Malloc, listeners) -> None:
        size = self._eval(state, tid, stmt.size, stmt, listeners)
        size = self._concretize(state, size, what="allocation size")
        pointer = state.memory.malloc(int(size))
        state.frame_mut(tid).locals[stmt.target] = pointer

    def _exec_free(self, state, tid, stmt: ast.Free, listeners) -> None:
        pointer = self._eval(state, tid, stmt.pointer, stmt, listeners)
        pointer = self._concretize(state, pointer, what="freed pointer")
        state.memory.free(int(pointer))

    def _exec_break(self, state, tid) -> None:
        frame = state.frame_mut(tid)
        while frame.control:
            entry = frame.control.pop()
            if isinstance(entry, LoopEntry):
                return
        raise ProgramCrash(CrashKind.INVALID_SYNC, "break outside of a loop")

    def _exec_continue(self, state, tid) -> None:
        frame = state.frame_mut(tid)
        while frame.control:
            if isinstance(frame.control[-1], LoopEntry):
                return
            frame.control.pop()
        raise ProgramCrash(CrashKind.INVALID_SYNC, "continue outside of a loop")

    # ------------------------------------------------------------ frame logic

    def _pop_frame(self, state, thread: ThreadState, value: Value, listeners) -> None:
        """Pop the top frame; ``thread`` must be privately owned (thread_mut)."""
        popped = thread.frames.pop()
        if thread.frames:
            if popped.return_target is not None:
                state.frame_mut(thread.tid).locals[popped.return_target] = value
        else:
            thread.result = value
            self._finish_thread(state, thread, listeners)

    def _finish_thread(self, state, thread: ThreadState, listeners) -> None:
        """Finish ``thread`` (must be privately owned) and wake its joiners."""
        if thread.is_finished:
            return
        thread.status = ThreadStatus.FINISHED
        thread.blocked_on = None
        thread.frames = []
        # Wake joiners.  ``blocked_on`` is None for almost every thread, so
        # testing it first keeps this scan -- O(threads) per thread exit --
        # to one attribute load and a failed comparison in the common case.
        join_key = ("join", thread.tid)
        for other_tid, other in list(state.threads.items()):
            if other.blocked_on == join_key and other.is_blocked:
                other = state.thread_mut(other_tid)
                other.status = ThreadStatus.RUNNABLE
                other.blocked_on = None
        listeners.on_sync(
            state,
            SyncEvent(thread.tid, "exit", thread.entry_function, 0, state.step_count),
        )

    def _normalize(self, state, tid: int, listeners) -> None:
        """Pop exhausted blocks and perform implicit returns."""
        thread = state.thread(tid)
        while thread.frames:
            frame = thread.frames[-1]
            while (
                frame.control
                and isinstance(frame.control[-1], BlockEntry)
                and frame.control[-1].exhausted()
            ):
                frame = state.frame_mut(tid)
                frame.control.pop()
            if frame.control:
                return
            thread = state.thread_mut(tid)
            self._pop_frame(state, thread, 0, listeners)
        if not thread.is_finished:
            self._finish_thread(state, state.thread_mut(tid), listeners)

    # ---------------------------------------------------------------- forking

    def _fork_branch(
        self,
        state: ExecutionState,
        tid: int,
        cond: Value,
        on_true: Callable[[ExecutionState], None],
        on_false: Callable[[ExecutionState], None],
    ) -> List[ExecutionState]:
        """Fork the state on a symbolic branch condition."""
        state.symbolic_branches += 1
        true_constraint = simplify(sym_ne(cond, 0))
        false_constraint = simplify(sym_eq(cond, 0))
        base = list(state.path_condition.constraints)
        true_feasible = self._side_feasible(base, true_constraint)
        false_feasible = self._side_feasible(base, false_constraint)

        if true_feasible and false_feasible:
            state.counters.forks += 1
            clone = state.clone()
            state.path_condition.add(true_constraint)
            on_true(state)
            clone.path_condition.add(false_constraint)
            on_false(clone)
            return [clone]
        if true_feasible:
            state.path_condition.add(true_constraint)
            on_true(state)
            return []
        if false_feasible:
            state.path_condition.add(false_constraint)
            on_false(state)
            return []
        state.outcome = ExecutionOutcome(
            OutcomeKind.INFEASIBLE, detail="both branch directions are infeasible"
        )
        return []

    def _side_feasible(self, base: List[Value], constraint: Value) -> bool:
        """Feasibility of one branch direction, skipping trivial solver calls.

        Domain-based simplification can fold a branch constraint to a
        concrete value even though the branch condition itself was symbolic.
        A concretely-false constraint is UNSAT regardless of the base (the
        solver short-circuits exactly this case), so the query is skipped.
        A concretely-true constraint still consults the solver: the solver
        drops it, making the query ``is_satisfiable(base)`` — which may
        itself be UNSAT or UNKNOWN, so the answer is not known for free.
        """
        if not is_symbolic(constraint) and int(constraint) == 0:
            return False
        return self.solver.is_satisfiable(base + [constraint])

    # ------------------------------------------------------------- evaluation

    def _eval(
        self,
        state: ExecutionState,
        tid: int,
        expr: ast.ExprLike,
        stmt: ast.Stmt,
        listeners: ListenerGroup,
    ) -> Value:
        expr = ast.as_expr(expr)
        if isinstance(expr, ast.Const):
            return expr.value
        if isinstance(expr, ast.LocalRef):
            frame = state.thread(tid).current_frame()
            if expr.name not in frame.locals:
                raise ProgramCrash(
                    CrashKind.INVALID_POINTER, f"read of undefined local {expr.name!r}"
                )
            return frame.locals[expr.name]
        if isinstance(expr, ast.GlobalRef):
            value = state.memory.load_global(expr.name)
            self._emit_access(
                state, tid, MemoryLocation("global", expr.name), False, stmt, listeners, value
            )
            return value
        if isinstance(expr, ast.ArrayRef):
            index = self._eval(state, tid, expr.index, stmt, listeners)
            index = self._check_array_index(state, expr.name, index)
            value = state.memory.load_array(expr.name, index)
            self._emit_access(
                state, tid, MemoryLocation("array", expr.name, index), False, stmt, listeners, value
            )
            return value
        if isinstance(expr, ast.HeapRef):
            pointer = self._eval(state, tid, expr.pointer, stmt, listeners)
            pointer = int(self._concretize(state, pointer, what="heap pointer"))
            index = self._eval(state, tid, expr.index, stmt, listeners)
            index = int(self._concretize(state, index, what="heap index"))
            value = state.memory.load_heap(pointer, index)
            self._emit_access(
                state,
                tid,
                MemoryLocation("heap", str(pointer), index),
                False,
                stmt,
                listeners,
                value,
            )
            return value
        if isinstance(expr, ast.InputRef):
            if expr.name in state.symbolic_inputs:
                return state.symbolic_inputs[expr.name]
            if expr.name in state.concrete_inputs:
                return int(state.concrete_inputs[expr.name])
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"reference to unread input {expr.name!r}"
            )
        if isinstance(expr, ast.UnOp):
            operand = self._eval(state, tid, expr.operand, stmt, listeners)
            return self._apply_unop(expr.op, operand)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(state, tid, expr, stmt, listeners)
        raise ProgramCrash(
            CrashKind.INVALID_POINTER, f"cannot evaluate expression {expr!r}"
        )

    def _eval_binop(self, state, tid, expr: ast.BinOp, stmt, listeners) -> Value:
        # Short-circuit && and || when the left operand is concrete, matching
        # C semantics (the right operand may have side conditions such as a
        # division).
        if expr.op in ("&&", "||"):
            left = self._eval(state, tid, expr.left, stmt, listeners)
            if not is_symbolic(left):
                if expr.op == "&&" and left == 0:
                    return 0
                if expr.op == "||" and left != 0:
                    return 1
                right = self._eval(state, tid, expr.right, stmt, listeners)
                return self._apply_binop(expr.op, 1 if left != 0 else 0, right)
            right = self._eval(state, tid, expr.right, stmt, listeners)
            return self._apply_binop(expr.op, left, right)
        left = self._eval(state, tid, expr.left, stmt, listeners)
        right = self._eval(state, tid, expr.right, stmt, listeners)
        if expr.op in ("/", "%") and not is_symbolic(right) and int(right) == 0:
            raise ProgramCrash(CrashKind.DIVISION_BY_ZERO, "division by zero")
        if expr.op in ("/", "%") and is_symbolic(right):
            # Assume the divisor is nonzero on this path (document in DESIGN):
            # the constraint is added so models generated later are consistent.
            state.path_condition.add(sym_ne(right, 0))
        return self._apply_binop(expr.op, left, right)

    def _apply_binop(self, token: str, left: Value, right: Value) -> Value:
        op = _BINOP_TOKENS.get(token)
        if op is None:
            raise ProgramCrash(CrashKind.INVALID_POINTER, f"unknown operator {token!r}")
        try:
            return simplify(make_binary(op, left, right))
        except ConcreteEvaluationError as exc:
            raise ProgramCrash(CrashKind.DIVISION_BY_ZERO, str(exc)) from exc

    def _apply_unop(self, token: str, operand: Value) -> Value:
        op = _UNOP_TOKENS.get(token)
        if op is None:
            raise ProgramCrash(CrashKind.INVALID_POINTER, f"unknown operator {token!r}")
        return simplify(make_unary(op, operand))

    # ---------------------------------------------------------------- storing

    def _store(
        self,
        state: ExecutionState,
        tid: int,
        target: ast.LValue,
        value: Value,
        stmt: ast.Stmt,
        listeners: ListenerGroup,
    ) -> None:
        if isinstance(target, ast.LocalRef):
            state.frame_mut(tid).locals[target.name] = value
            return
        if isinstance(target, ast.GlobalRef):
            state.memory.store_global(target.name, value)
            self._emit_access(
                state, tid, MemoryLocation("global", target.name), True, stmt, listeners, value
            )
            return
        if isinstance(target, ast.ArrayRef):
            index = self._eval(state, tid, target.index, stmt, listeners)
            index = self._check_array_index(state, target.name, index)
            state.memory.store_array(target.name, index, value)
            self._emit_access(
                state, tid, MemoryLocation("array", target.name, index), True, stmt, listeners, value
            )
            return
        if isinstance(target, ast.HeapRef):
            pointer = self._eval(state, tid, target.pointer, stmt, listeners)
            pointer = int(self._concretize(state, pointer, what="heap pointer"))
            index = self._eval(state, tid, target.index, stmt, listeners)
            index = int(self._concretize(state, index, what="heap index"))
            state.memory.store_heap(pointer, index, value)
            self._emit_access(
                state,
                tid,
                MemoryLocation("heap", str(pointer), index),
                True,
                stmt,
                listeners,
                value,
            )
            return
        raise ProgramCrash(CrashKind.INVALID_POINTER, f"cannot store to {target!r}")

    def _check_array_index(self, state: ExecutionState, name: str, index: Value) -> int:
        """Bounds-check an array index, concretising symbolic indices."""
        size = state.memory.array_size(name)
        if not is_symbolic(index):
            index = int(index)
            if index < 0 or index >= size:
                raise ProgramCrash(
                    CrashKind.OUT_OF_BOUNDS,
                    f"index {index} out of bounds for array {name!r} of size {size}",
                )
            return index
        constraints = list(state.path_condition.constraints)
        bounds = self.solver.value_range(constraints, index)
        if bounds is None:
            return int(self._concretize(state, index, what=f"index into {name}"))
        lo, hi = bounds
        if lo < 0 or hi >= size:
            raise ProgramCrash(
                CrashKind.OUT_OF_BOUNDS,
                f"symbolic index into array {name!r} may reach [{lo},{hi}] "
                f"outside of [0,{size - 1}]",
            )
        return int(self._concretize(state, index, what=f"index into {name}"))

    def _concretize(self, state: ExecutionState, value: Value, what: str) -> int:
        """Concretise a symbolic value by binding it to a model value."""
        if not is_symbolic(value):
            return int(value)
        constraints = list(state.path_condition.constraints)
        model = self.solver.get_model(constraints + [])
        if model is None:
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"cannot concretise symbolic {what}"
            )
        from repro.symex.expr import substitute

        concrete = substitute(value, model)
        if is_symbolic(concrete):
            # The model did not cover all variables of this expression; fall
            # back to a model of the expression's own variables.
            extended = self.solver.get_model(constraints + [sym_eq(value, value)])
            concrete = substitute(value, extended or {})
            if is_symbolic(concrete):
                raise ProgramCrash(
                    CrashKind.INVALID_POINTER, f"cannot concretise symbolic {what}"
                )
        state.path_condition.add(sym_eq(value, int(concrete)))
        return int(concrete)

    # ----------------------------------------------------------------- events

    def _emit_access(
        self,
        state: ExecutionState,
        tid: int,
        location: MemoryLocation,
        is_write: bool,
        stmt: ast.Stmt,
        listeners: ListenerGroup,
        value: Optional[Value],
    ) -> None:
        stack: Tuple = ()
        if self.config.record_access_stacks:
            stack = state.thread(tid).stack_trace(self.program)
        access = MemoryAccess(
            tid=tid,
            location=location,
            is_write=is_write,
            pc=stmt.pc,
            label=stmt.label,
            step=state.step_count,
            stack=stack,
            value=value,
        )
        listeners.on_access(state, access)

    def _record_crash(
        self, state: ExecutionState, tid: int, stmt: ast.Stmt, crash: ProgramCrash
    ) -> None:
        stack = tuple(entry.describe() for entry in state.thread(tid).stack_trace(self.program))
        info = CrashInfo(
            kind=crash.kind,
            message=crash.message,
            tid=tid,
            pc=stmt.pc,
            label=stmt.label,
            stack=stack,
        )
        state.outcome = ExecutionOutcome(OutcomeKind.CRASH, crash=info)
