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
import operator
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
    BLOCKED,
    FINISHED,
    RUNNABLE,
    BlockEntry,
    Frame,
    LoopEntry,
    ThreadState,
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


def _int_div(left: int, right: int) -> int:
    """C division of two ints: truncation toward zero, a crash on zero."""
    if right == 0:
        raise ProgramCrash(CrashKind.DIVISION_BY_ZERO, "division by zero")
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def _int_mod(left: int, right: int) -> int:
    """C remainder of two ints: the sign of ``left``, a crash on zero."""
    return left - right * _int_div(left, right)


#: the operators whose result on two ``int`` operands is plain Python
#: arithmetic (C semantics at unbounded width, comparisons as 0/1, division
#: truncating toward zero with the same crash on a zero divisor); the rest
#: -- shifts and the short-circuit pair -- keep their crash checks in
#: ``_apply_binop``
_INT_BINOPS: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _int_div,
    "%": _int_mod,
    "==": lambda left, right: 1 if left == right else 0,
    "!=": lambda left, right: 1 if left != right else 0,
    "<": lambda left, right: 1 if left < right else 0,
    "<=": lambda left, right: 1 if left <= right else 0,
    ">": lambda left, right: 1 if left > right else 0,
    ">=": lambda left, right: 1 if left >= right else 0,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
}

_UNOP_TOKENS: Dict[str, Op] = {"!": Op.NOT, "-": Op.NEG}

#: the statement types that are always preemption points (§3.1)
_SYNC_TYPES = frozenset(ast.SYNC_STMTS)


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


@dataclass
class ExecutorConfig:
    """Tunables of the interpreter."""

    max_steps: int = 500_000
    max_loop_iterations: int = 100_000
    solver_max_assignments: int = 200_000


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
        their own worklist (see :mod:`repro.explore.paths`).  The listeners'
        access interest is folded once here: a load or store builds a
        ``MemoryAccess`` only when some listener wants its location.
        """
        policy = policy or RoundRobinPolicy()
        group = ListenerGroup(list(listeners))
        budget = max_steps if max_steps is not None else self.config.max_steps
        forks: List[ExecutionState] = []
        steps = 0
        after_watched = False

        while True:
            if state.outcome is not None:
                group.on_finish(state)
                return RunResult(RunStatus.COMPLETED, state, forks, steps)
            if steps >= budget:
                return RunResult(RunStatus.STEP_LIMIT, state, forks, steps)

            # Keeping the current thread is the common case and consults no
            # policy: the statement that shows this step is no preemption
            # point is the statement executed.  Synchronisation statements
            # take precedence over the analysis-only watched points, because
            # their decisions are the ones recorded in (and replayed from)
            # the schedule trace.
            tid = state.current_tid
            thread = state.threads.get(tid)
            stmt = None
            if thread is not None and thread.status is RUNNABLE and thread.frames:
                # ThreadState.next_statement, inlined: this fetch runs
                # before every step.
                control = thread.frames[-1].control
                if control:
                    top = control[-1]
                    if type(top) is LoopEntry:
                        stmt = top.stmt
                    elif top.index < len(top.stmts):
                        stmt = top.stmts[top.index]
            if stmt is None:
                reason: Optional[str] = "blocked"
            elif type(stmt) in _SYNC_TYPES or thread.pending_reacquire is not None:
                reason = "sync"
            elif stmt.pc in watched_pcs:
                reason = "watched"
            elif after_watched:
                reason = "after-watched"
            else:
                reason = None

            if reason is not None:
                tid = self._decide(state, policy, group, tid, reason)
                if tid is None:
                    return self._unscheduled(state, policy, group, forks, steps)
                thread = state.threads[tid]
                if thread.pending_reacquire is not None:
                    self._attempt_reacquire(state, state.thread_mut(tid), group)
                    steps += 1
                    after_watched = False
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
            if new_forks:
                forks.extend(new_forks)
            steps += 1
            after_watched = stmt.pc in watched_pcs

            if stop_after is not None and stop_after(state, tid, stmt):
                return RunResult(RunStatus.STOPPED_AFTER, state, forks, steps)

    # -------------------------------------------------------------- scheduling

    def _decide(
        self,
        state: ExecutionState,
        policy: SchedulePolicy,
        listeners: ListenerGroup,
        current: Optional[int],
        reason: str,
    ) -> Optional[int]:
        """Ask the policy at a preemption point; commit and count its choice."""
        chosen = policy.choose(state, current, reason)
        if chosen is None:
            return None
        if reason in ("sync", "blocked"):
            state.preemption_points += 1
            if listeners.schedule_listeners:
                listeners.on_schedule(state, chosen, current, reason)
        if chosen != current:
            state.context_switches += 1
        state.current_tid = chosen
        return chosen

    def _unscheduled(
        self,
        state: ExecutionState,
        policy: SchedulePolicy,
        listeners: ListenerGroup,
        forks: List[ExecutionState],
        steps: int,
    ) -> RunResult:
        """The result of a run whose scheduler chose no thread."""
        if state.all_finished():
            state.outcome = ExecutionOutcome(OutcomeKind.DONE)
        elif not state.runnable_tids():
            state.outcome = ExecutionOutcome(
                OutcomeKind.DEADLOCK,
                detail="all live threads are blocked",
                blocked_threads=tuple(sorted(state.blocked_tids())),
            )
        else:
            stuck_reason = getattr(policy, "stuck_reason", None)
            return RunResult(RunStatus.SCHEDULING_STUCK, state, forks, steps, stuck_reason)
        listeners.on_finish(state)
        return RunResult(RunStatus.COMPLETED, state, forks, steps)

    # --------------------------------------------------------------- stepping

    def _execute_step(
        self,
        state: ExecutionState,
        tid: int,
        stmt: ast.Stmt,
        listeners: ListenerGroup,
    ) -> Optional[List[ExecutionState]]:
        """Execute one step of thread ``tid``; return any forked states.

        ``stmt`` is the thread's next statement: the ``while`` of a
        ``LoopEntry`` on top of the control stack, else the block's next one.
        An ``Assign`` -- most executed statements -- runs here in place.
        """
        # ExecutionState.frame_mut's fast path, inlined: the top frame is
        # owned when the thread and the frame carry the state's epoch.
        thread = state.threads[tid]
        frame = thread.frames[-1]
        if thread.version != state.cow_version or frame.version != thread.version:
            frame = state.frame_mut(tid)
        assert frame.control, "thread has nothing to execute"
        top = frame.control[-1]
        forks: Optional[List[ExecutionState]] = None

        state.step_count += 1
        state.counters.statements += 1

        try:
            if type(top) is LoopEntry:
                forks = self._step_loop(state, tid, top, listeners)
            else:
                index = top.index
                assert type(top) is BlockEntry and top.stmts[index] is stmt
                top.index = index + 1
                if type(stmt) is ast.Assign:
                    value = stmt.value
                    if type(value) is ast.Const:
                        value = value.value
                    else:
                        value = self._eval(state, tid, value, stmt, listeners)
                    target = stmt.target
                    kind = type(target)
                    if kind is ast.LocalRef:
                        frame.locals[target.name] = value
                    elif kind is ast.GlobalRef:
                        name = target.name
                        state.memory.store_global(name, value)
                        names = listeners.access_names
                        if names is None or name in names:
                            self._emit_access(
                                state, tid, MemoryLocation("global", name), True, stmt, listeners
                            )
                    else:
                        self._store(state, tid, target, value, stmt, listeners)
                    # An assignment leaves the control stack as it was: with
                    # statements left in the block there is nothing to
                    # normalise.
                    if index + 1 < len(top.stmts) and not listeners.step_listeners:
                        return None
                else:
                    try:
                        forks = _HANDLERS.get(type(stmt), Executor._exec_unsupported)(
                            self, state, tid, stmt, listeners
                        )
                    except RetrySignal:
                        top.index = index
        except ProgramCrash as crash:
            self._record_crash(state, tid, stmt, crash)

        if listeners.step_listeners:
            listeners.on_step(state, tid, stmt.pc)
        if state.outcome is None:
            # Most steps leave a loop or a block with statements left on
            # top: only a block that ran out (or a finished frame) needs
            # _normalize.
            frames = state.threads[tid].frames
            if frames:
                control = frames[-1].control
                if control:
                    top = control[-1]
                    if type(top) is LoopEntry or top.index < len(top.stmts):
                        return forks
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

    # ------------------------------------------------------------- statements

    # Every handler takes (state, tid, stmt, listeners) and returns the
    # states it forked, if any; _HANDLERS maps each statement type but
    # Assign, which _execute_step runs in place, to one.

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

    def _exec_while(self, state, tid, stmt: ast.While, listeners) -> None:
        state.frame_mut(tid).control.append(LoopEntry(stmt))

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
            self._emit_sync(state, listeners, tid, "lock", stmt.mutex, stmt.pc)
            return
        if mutex.owner == tid:
            raise ProgramCrash(
                CrashKind.INVALID_SYNC, f"recursive lock of mutex {stmt.mutex!r}"
            )
        if tid not in mutex.waiters:
            mutex.waiters.append(tid)
        thread.status = BLOCKED
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
        self._emit_sync(state, listeners, tid, "unlock", stmt.mutex, stmt.pc)

    def _wake_mutex_waiters(self, state: ExecutionState, mutex_name: str) -> None:
        # thread_mut only replaces existing keys, so the dict cannot change
        # size under this loop.
        for other_tid, other in state.threads.items():
            if not other.is_blocked or other.blocked_on is None:
                continue
            kind, target = other.blocked_on
            if target == mutex_name and kind in ("mutex", "mutex-reacquire"):
                other = state.thread_mut(other_tid)
                other.status = RUNNABLE
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
        self._emit_sync(state, listeners, tid, "unlock", stmt.mutex, stmt.pc)
        condvar.waiters.append(tid)
        thread.status = BLOCKED
        thread.blocked_on = ("cond", stmt.cond)
        thread.pending_reacquire = stmt.mutex
        self._emit_sync(state, listeners, tid, "cond_wait", stmt.cond, stmt.pc)

    def _exec_cond_signal(self, state, tid, stmt, listeners) -> None:
        broadcast = type(stmt) is ast.CondBroadcast
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
                waiter.status = RUNNABLE
                waiter.blocked_on = None
        kind = "cond_broadcast" if broadcast else "cond_signal"
        self._emit_sync(state, listeners, tid, kind, stmt.cond, stmt.pc, tuple(to_wake))

    def _attempt_reacquire(self, state, thread: ThreadState, listeners) -> None:
        """Reacquire the mutex released by ``cond_wait`` once woken."""
        mutex_name = thread.pending_reacquire
        assert mutex_name is not None
        mutex = state.sync.mutex(mutex_name)
        state.step_count += 1
        if mutex.owner is None:
            mutex = state.sync.mutex_mut(mutex_name)
            mutex.owner = thread.tid
            thread.held_mutexes.append(mutex_name)
            thread.pending_reacquire = None
            self._emit_sync(state, listeners, thread.tid, "lock", mutex_name, 0)
        else:
            thread.status = BLOCKED
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
                    other.status = RUNNABLE
                    other.blocked_on = None
            self._emit_sync(
                state, listeners, tid, "barrier_release", stmt.barrier, stmt.pc, released
            )
            return
        thread.status = BLOCKED
        thread.blocked_on = ("barrier", stmt.barrier)
        self._emit_sync(state, listeners, tid, "barrier_wait", stmt.barrier, stmt.pc)

    def _exec_spawn(self, state, tid, stmt: ast.Spawn, listeners) -> None:
        function = self.program.function(stmt.function)
        args: Dict[str, Value] = {}
        if stmt.args or function.params:
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
        self._emit_sync(
            state, listeners, tid, "spawn", stmt.function, stmt.pc, (child.tid,)
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
            self._emit_sync(state, listeners, tid, "join", str(target), stmt.pc, (target,))
            return
        thread = state.thread_mut(tid)
        thread.status = BLOCKED
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

    def _exec_abort(self, state, tid, stmt: ast.Abort, listeners) -> None:
        raise ProgramCrash(CrashKind.EXPLICIT_ABORT, stmt.message)

    def _exec_nothing(self, state, tid, stmt, listeners) -> None:
        """Yield, Sleep and Nop: a preemption point (the first two) and no effect."""

    def _exec_unsupported(self, state, tid, stmt, listeners) -> None:  # pragma: no cover
        raise ProgramCrash(
            CrashKind.INVALID_SYNC, f"unsupported statement {type(stmt).__name__}"
        )

    def _exec_break(self, state, tid, stmt, listeners) -> None:
        frame = state.frame_mut(tid)
        while frame.control:
            entry = frame.control.pop()
            if isinstance(entry, LoopEntry):
                return
        raise ProgramCrash(CrashKind.INVALID_SYNC, "break outside of a loop")

    def _exec_continue(self, state, tid, stmt, listeners) -> None:
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
        thread.status = FINISHED
        thread.blocked_on = None
        thread.frames = []
        # Wake joiners.  ``blocked_on`` is None for almost every thread, so
        # testing it first keeps this scan -- O(threads) per thread exit --
        # to one attribute load and a failed comparison in the common case.
        # thread_mut only replaces existing keys, so the dict cannot change
        # size under this loop.
        join_key = ("join", thread.tid)
        for other_tid, other in state.threads.items():
            if other.blocked_on == join_key and other.is_blocked:
                other = state.thread_mut(other_tid)
                other.status = RUNNABLE
                other.blocked_on = None
        self._emit_sync(state, listeners, thread.tid, "exit", thread.entry_function, 0)

    def _normalize(self, state, tid: int, listeners) -> None:
        """Pop exhausted blocks and perform implicit returns.

        ``_execute_step`` calls it only when the top control entry is
        neither a loop nor a block with statements left.
        """
        thread = state.threads[tid]
        while thread.frames:
            control = thread.frames[-1].control
            while (
                control
                and type(control[-1]) is BlockEntry
                and control[-1].index >= len(control[-1].stmts)
            ):
                control = state.frame_mut(tid).control
                control.pop()
            if control:
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
        kind = type(expr)
        if kind is ast.Const:
            return expr.value
        if kind is ast.LocalRef:
            local_values = state.threads[tid].frames[-1].locals
            if expr.name not in local_values:
                raise ProgramCrash(
                    CrashKind.INVALID_POINTER, f"read of undefined local {expr.name!r}"
                )
            return local_values[expr.name]
        if kind is ast.BinOp:
            return self._eval_binop(state, tid, expr, stmt, listeners)
        if kind is ast.GlobalRef:
            value = state.memory.load_global(expr.name)
            names = listeners.access_names
            if names is None or expr.name in names:
                self._emit_access(
                    state, tid, MemoryLocation("global", expr.name), False, stmt, listeners
                )
            return value
        if kind is ast.ArrayRef:
            index = self._eval(state, tid, expr.index, stmt, listeners)
            index = self._check_array_index(state, expr.name, index)
            value = state.memory.load_array(expr.name, index)
            names = listeners.access_names
            if names is None or expr.name in names:
                self._emit_access(
                    state, tid, MemoryLocation("array", expr.name, index), False, stmt, listeners
                )
            return value
        if kind is ast.HeapRef:
            pointer = self._eval(state, tid, expr.pointer, stmt, listeners)
            pointer = int(self._concretize(state, pointer, what="heap pointer"))
            index = self._eval(state, tid, expr.index, stmt, listeners)
            index = int(self._concretize(state, index, what="heap index"))
            value = state.memory.load_heap(pointer, index)
            names = listeners.access_names
            if names is None or str(pointer) in names:
                self._emit_access(
                    state, tid, MemoryLocation("heap", str(pointer), index), False, stmt, listeners
                )
            return value
        if kind is ast.InputRef:
            if expr.name in state.symbolic_inputs:
                return state.symbolic_inputs[expr.name]
            if expr.name in state.concrete_inputs:
                return int(state.concrete_inputs[expr.name])
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"reference to unread input {expr.name!r}"
            )
        if kind is ast.UnOp:
            operand = self._eval(state, tid, expr.operand, stmt, listeners)
            return self._apply_unop(expr.op, operand)
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
        # Two exact ints (a bool takes the general path) need no symbolic
        # constructor and no simplifier for the operators in _INT_BINOPS.
        if type(left) is int and type(right) is int:
            apply = _INT_BINOPS.get(expr.op)
            if apply is not None:
                return apply(left, right)
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
        """Store to an array or heap cell; ``_execute_step`` stores locals
        and globals itself."""
        kind = type(target)
        if kind is ast.ArrayRef:
            index = self._eval(state, tid, target.index, stmt, listeners)
            index = self._check_array_index(state, target.name, index)
            state.memory.store_array(target.name, index, value)
            names = listeners.access_names
            if names is None or target.name in names:
                self._emit_access(
                    state, tid, MemoryLocation("array", target.name, index), True, stmt, listeners
                )
            return
        if kind is ast.HeapRef:
            pointer = self._eval(state, tid, target.pointer, stmt, listeners)
            pointer = int(self._concretize(state, pointer, what="heap pointer"))
            index = self._eval(state, tid, target.index, stmt, listeners)
            index = int(self._concretize(state, index, what="heap index"))
            state.memory.store_heap(pointer, index, value)
            names = listeners.access_names
            if names is None or str(pointer) in names:
                self._emit_access(
                    state, tid, MemoryLocation("heap", str(pointer), index), True, stmt, listeners
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
        model = self.solver.get_model(constraints)
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
    ) -> None:
        """Publish one access; callers first check ``listeners.access_names``."""
        state.counters.accesses += 1
        access = MemoryAccess(
            tid=tid,
            location=location,
            is_write=is_write,
            pc=stmt.pc,
            label=stmt.label,
            step=state.step_count,
        )
        listeners.on_access(state, access)

    @staticmethod
    def _emit_sync(
        state: ExecutionState,
        listeners: ListenerGroup,
        tid: int,
        kind: str,
        target: str,
        pc: int,
        peer: Optional[Tuple[int, ...]] = None,
    ) -> None:
        """Publish one synchronisation event, built only when a listener of
        the run overrides ``on_sync``."""
        if listeners.sync_listeners:
            state.counters.sync_events += 1
            listeners.on_sync(state, SyncEvent(tid, kind, target, pc, state.step_count, peer))

    def _record_crash(
        self, state: ExecutionState, tid: int, stmt: ast.Stmt, crash: ProgramCrash
    ) -> None:
        stack = tuple(entry.describe() for entry in state.thread(tid).stack_trace())
        info = CrashInfo(
            kind=crash.kind,
            message=crash.message,
            tid=tid,
            pc=stmt.pc,
            label=stmt.label,
            stack=stack,
        )
        state.outcome = ExecutionOutcome(OutcomeKind.CRASH, crash=info)


#: statement type -> its handler (statement classes are never subclassed)
_HANDLERS: Dict[type, Callable[..., Optional[List[ExecutionState]]]] = {
    ast.If: Executor._exec_if,
    ast.While: Executor._exec_while,
    ast.Lock: Executor._exec_lock,
    ast.Unlock: Executor._exec_unlock,
    ast.CondWait: Executor._exec_cond_wait,
    ast.CondSignal: Executor._exec_cond_signal,
    ast.CondBroadcast: Executor._exec_cond_signal,
    ast.BarrierWait: Executor._exec_barrier,
    ast.Spawn: Executor._exec_spawn,
    ast.Join: Executor._exec_join,
    ast.Output: Executor._exec_output,
    ast.Input: Executor._exec_input,
    ast.Assert: Executor._exec_assert,
    ast.Abort: Executor._exec_abort,
    ast.Call: Executor._exec_call,
    ast.Return: Executor._exec_return,
    ast.Malloc: Executor._exec_malloc,
    ast.Free: Executor._exec_free,
    ast.Yield: Executor._exec_nothing,
    ast.Sleep: Executor._exec_nothing,
    ast.Nop: Executor._exec_nothing,
    ast.Break: Executor._exec_break,
    ast.Continue: Executor._exec_continue,
}
