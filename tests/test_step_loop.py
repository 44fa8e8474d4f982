"""Differential tests of the interpreter's step loop (:mod:`repro.runtime.executor`).

``Executor.run`` keeps the current thread without consulting the scheduler
unless the next statement is a preemption point, reads that statement
inline, runs an ``Assign`` in place and every other statement through a type
table, normalises the control stack only when a block ran out (an assign
with statements left in its block returns at once), computes ``int``/``int``
arithmetic without the symbolic constructors, and calls ``on_step`` only for
listeners that override it.  The oracle here is the loop it replaced, kept in
:class:`OracleExecutor` with only its calls into the statement handlers
adapted to their current signatures: it asks for a preemption reason before
every step, peeks the statement twice, resolves statements and expressions
through ``isinstance`` chains, runs an assign through ``_exec_assign`` (a
local written through ``frame_mut``, a global through its own store), builds
every binary operation through ``make_binary`` and ``simplify``, normalises
after every step and fans ``on_step`` out to every listener.  Both loops
must give:

* the same verdict for every race of the serial registry, and the same
  summed interpreter counters;
* the same ``RunResult`` (status, steps, stuck reason, forks), final state
  and listener callbacks in the same order, for recordings, replays with
  watched pcs, ``stop_before``/``stop_after`` runs, controlled runs that get
  stuck or run out of budget, and symbolic runs that fork;
* the same for an assign of every target kind (local, global, array, heap)
  and value kind (const, local, global, binary operation, symbolic input),
  mid-block, at the end of a block and of a ``while`` body, with and
  without an ``on_step`` listener and stopped right after it; for its
  crashes (an undeclared global, an undefined local, an array index out of
  bounds); and for an assign right after ``state.clone()``, which writes
  the clone only;
* the same value or the same crash for every binary operator over a grid of
  ints (past 2**31 too, negatives included, division and remainder by zero
  too) and bools, through the same calls into the general path for every
  operand pair the ``int`` fast path does not take.

The oracle shares ``ExecutionState.frame_mut`` and ``Memory.store_global``
with the live loop, so a change to what those copy would move both sides
alike; the registry test therefore also pins the serial counts (98,316
statements, 9,096 copy-on-write copies, 57 spin cutoffs).
"""

import pytest

from repro.core.alternate import RacePointLocator
from repro.engine import AnalysisEngine, EngineOptions
from repro.lang import ProgramBuilder, ast
from repro.lang.ast import add, arr, eq, glob, heap, local, logical_not, lt
from repro.record_replay.recorder import record_execution
from repro.runtime.errors import (
    CrashKind,
    ExecutionOutcome,
    OutcomeKind,
    ProgramCrash,
    RetrySignal,
)
from repro.runtime.counters import InterpCounters
from repro.runtime.executor import (
    _BINOP_TOKENS,
    _INT_BINOPS,
    Executor,
    RunResult,
    RunStatus,
)
from repro.runtime.listeners import ExecutionListener, ListenerGroup
from repro.runtime.memory import MemoryLocation
from repro.runtime.scheduler import (
    ControlledPolicy,
    CooperativePolicy,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
)
from repro.runtime.threadstate import BlockEntry, LoopEntry
from repro.symex.expr import ConcreteEvaluationError, is_symbolic, make_binary, sym_ne
from repro.symex.simplify import simplify
from repro.workloads import all_workload_names, load_workload


def _next_statement(thread):
    """The statement peek of the replaced loop."""
    frame = thread.current_frame()
    if frame is None or not frame.control:
        return None
    top = frame.control[-1]
    if isinstance(top, LoopEntry):
        return top.stmt
    if isinstance(top, BlockEntry) and not top.exhausted():
        return top.stmts[top.index]
    return None


class OracleExecutor(Executor):
    """The step loop before the preemption-point fast path and type tables."""

    def run(
        self,
        state,
        policy=None,
        listeners=(),
        max_steps=None,
        watched_pcs=frozenset(),
        stop_before=None,
        stop_after=None,
    ):
        policy = policy or RoundRobinPolicy()
        group = ListenerGroup(list(listeners))
        budget = max_steps if max_steps is not None else self.config.max_steps
        forks = []
        steps = 0
        last_watched = None

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
                    state.outcome = ExecutionOutcome(
                        OutcomeKind.DEADLOCK,
                        detail="all live threads are blocked",
                        blocked_threads=tuple(sorted(state.blocked_tids())),
                    )
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

            stmt = _next_statement(thread)
            if stmt is None:
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

    def _schedule(self, state, policy, listeners, watched_pcs, last_watched):
        current = state.current_tid
        reason = self._preemption_reason(state, current, watched_pcs, last_watched)
        if reason is None:
            return current
        runnable = state.runnable_tids()
        if not runnable:
            return None
        chosen = policy.choose(state, current, reason)
        if chosen is None:
            return None
        if reason in ("sync", "blocked"):
            state.preemption_points += 1
            listeners.on_schedule(state, chosen, current, reason)
        if chosen != current:
            state.context_switches += 1
        state.current_tid = chosen
        return chosen

    def _preemption_reason(self, state, current, watched_pcs, last_watched):
        if current is None or current not in state.threads:
            return "blocked"
        thread = state.thread(current)
        if not thread.is_runnable:
            return "blocked"
        stmt = _next_statement(thread)
        if stmt is None:
            return "blocked"
        if isinstance(stmt, ast.SYNC_STMTS):
            return "sync"
        if thread.pending_reacquire is not None:
            return "sync"
        if stmt.pc in watched_pcs:
            return "watched"
        if last_watched is not None:
            return "after-watched"
        return None

    def _execute_step(self, state, tid, stmt, listeners):
        thread = state.thread_mut(tid)
        assert thread.frames and thread.frames[-1].control, "thread has nothing to execute"
        frame = state.frame_mut(tid)
        top = frame.control[-1]
        forks = []

        state.step_count += 1
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

        for listener in listeners.listeners:
            listener.on_step(state, tid, stmt.pc)
        if state.outcome is None:
            self._normalize(state, tid, listeners)
        return forks

    def _dispatch(self, state, tid, stmt, listeners):
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
        elif isinstance(stmt, (ast.CondSignal, ast.CondBroadcast)):
            self._exec_cond_signal(state, tid, stmt, listeners)
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
            self._exec_break(state, tid, stmt, listeners)
        elif isinstance(stmt, ast.Continue):
            self._exec_continue(state, tid, stmt, listeners)
        else:
            raise ProgramCrash(
                CrashKind.INVALID_SYNC, f"unsupported statement {type(stmt).__name__}"
            )
        return []

    def _exec_assign(self, state, tid, stmt, listeners):
        """The replaced handler, with the local and global stores the live
        ``_store`` no longer makes."""
        value = self._eval(state, tid, stmt.value, stmt, listeners)
        target = stmt.target
        if isinstance(target, ast.LocalRef):
            state.frame_mut(tid).locals[target.name] = value
        elif isinstance(target, ast.GlobalRef):
            state.memory.store_global(target.name, value)
            names = listeners.access_names
            if names is None or target.name in names:
                self._emit_access(
                    state, tid, MemoryLocation("global", target.name), True, stmt, listeners
                )
        else:
            self._store(state, tid, target, value, stmt, listeners)

    def _normalize(self, state, tid, listeners):
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

    def _eval(self, state, tid, expr, stmt, listeners):
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
            names = listeners.access_names
            if names is None or expr.name in names:
                self._emit_access(
                    state, tid, MemoryLocation("global", expr.name), False, stmt, listeners
                )
            return value
        if isinstance(expr, ast.ArrayRef):
            index = self._eval(state, tid, expr.index, stmt, listeners)
            index = self._check_array_index(state, expr.name, index)
            value = state.memory.load_array(expr.name, index)
            names = listeners.access_names
            if names is None or expr.name in names:
                self._emit_access(
                    state, tid, MemoryLocation("array", expr.name, index), False, stmt, listeners
                )
            return value
        if isinstance(expr, ast.HeapRef):
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

    def _eval_binop(self, state, tid, expr, stmt, listeners):
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
            state.path_condition.add(sym_ne(right, 0))
        return self._apply_binop(expr.op, left, right)


#: the methods the oracle replaces; patching them onto Executor makes every
#: executor the pipeline builds run the replaced loop
_ORACLE_METHODS = (
    "run",
    "_schedule",
    "_preemption_reason",
    "_execute_step",
    "_dispatch",
    "_exec_assign",
    "_normalize",
    "_eval",
    "_eval_binop",
)


def use_oracle_loop(patch):
    """Run every ``Executor`` on the replaced loop while ``patch`` is active."""
    for name in _ORACLE_METHODS:
        patch.setattr(Executor, name, OracleExecutor.__dict__[name], raising=False)


# ---------------------------------------------------------------- registry


def _serial_registry():
    engine = AnalysisEngine(options=EngineOptions(parallel=0))
    names = all_workload_names(include_synthetic=True)
    runs = engine.analyze_workloads([load_workload(name) for name in names])
    rows = [
        {key: value for key, value in item.to_dict().items() if key != "analysis_seconds"}
        for run in runs
        for item in run.result.classified
    ]
    counters = dict.fromkeys(InterpCounters.__slots__, 0)
    for event in engine.events.snapshot():
        if event.get("kind") == "interp_stats":
            for key in counters:
                counters[key] += event[key]
    return rows, counters


def test_serial_registry_matches_the_replaced_loop(monkeypatch):
    rows, counters = _serial_registry()
    with monkeypatch.context() as patch:
        use_oracle_loop(patch)
        assert Executor.run is OracleExecutor.run
        oracle_rows, oracle_counters = _serial_registry()
    assert len(rows) == 385
    assert rows == oracle_rows
    assert counters == oracle_counters
    # The oracle shares ExecutionState.frame_mut and Memory.store_global with
    # the live loop, so only pinned figures show a change in what they copy.
    assert counters["statements"] == 98316
    assert counters["cow_copies"] == 9096
    assert counters["spin_cutoffs"] == 57


# ------------------------------------------------------------- direct runs


class _CallbackLog(ExecutionListener):
    """Every callback but ``on_step``, in order."""

    def __init__(self):
        self.events = []

    def on_access(self, state, access):
        self.events.append(("access", access))

    def on_sync(self, state, event):
        self.events.append(("sync", event))

    def on_schedule(self, state, chosen_tid, previous_tid, reason):
        self.events.append(("schedule", chosen_tid, previous_tid, reason, state.step_count))

    def on_output(self, state, record):
        self.events.append(("output", record))

    def on_input(self, state, record):
        self.events.append(("input", record))

    def on_finish(self, state):
        self.events.append(("finish", state.outcome))


class _EventLog(_CallbackLog):
    """Every callback, in order, with the step it arrived at."""

    def on_step(self, state, tid, pc):
        self.events.append(("step", tid, pc, state.step_count))


class _Nothing(ExecutionListener):
    """Overrides nothing: it must change nothing about the run it joins."""


def _state_view(state):
    return {
        "step_count": state.step_count,
        "preemption_points": state.preemption_points,
        "context_switches": state.context_switches,
        "current_tid": state.current_tid,
        "threads": [
            (tid, thread.status, thread.blocked_on, thread.result)
            for tid, thread in state.threads.items()
        ],
        "locals": [
            [dict(frame.locals) for frame in thread.frames]
            for thread in state.threads.values()
        ],
        "output_log": list(state.output_log),
        "input_log": list(state.input_log),
        "memory": state.memory.key(),
        "outcome": state.outcome,
        "path_condition": list(state.path_condition.constraints),
    }


def _result_view(result):
    return {
        "status": result.status,
        "steps_executed": result.steps_executed,
        "stuck_reason": result.stuck_reason,
        "state": _state_view(result.state),
        "forks": [_state_view(fork) for fork in result.forks],
    }


def _both(program, drive):
    """Run ``drive(executor)`` on the new loop and on the oracle; both return
    a comparable view."""
    new = drive(Executor(program))
    old = drive(OracleExecutor(program))
    assert new == old
    return new


def _sink_program():
    """Every statement kind: a barrier, a broadcast with waiters that must
    reacquire the mutex, calls, heap and array cells, break/continue, a
    symbolic input that forks an ``if`` and a ``while``, and an abort."""
    b = ProgramBuilder("sink")
    b.global_var("ready", 0)
    b.global_var("count", 0)
    b.array("cells", 4)
    b.mutex("m")
    b.condvar("c")
    b.barrier("b", 3)
    helper = b.function("helper", params=("x",))
    helper.ret(add(local("x"), 1))
    worker = b.function("worker", params=("p", "k"))
    worker.barrier_wait("b", label="w:1")
    worker.lock("m", label="w:2")
    with worker.while_(eq(glob("ready"), 0), label="w:3"):
        worker.cond_wait("c", "m", label="w:4")
    worker.assign(glob("count"), add(glob("count"), 1), label="w:5")
    worker.unlock("m", label="w:6")
    worker.assign(local("i"), 0, label="w:7")
    with worker.while_(1, label="w:8"):
        worker.assign(local("i"), add(local("i"), 1), label="w:9")
        with worker.if_(eq(local("i"), 2), label="w:10"):
            worker.continue_(label="w:11")
        with worker.if_(lt(3, local("i")), label="w:12"):
            worker.break_(label="w:13")
        worker.assign(arr("cells", local("i")), local("k"), label="w:14")
    worker.call("helper", [local("k")], target="r", label="w:15")
    worker.assign(heap(local("p"), local("k")), local("r"), label="w:16")
    worker.yield_(label="w:17")
    worker.ret(local("r"), label="w:18")
    main = b.function("main")
    main.input("n", "n", lo=0, hi=3, default=1, label="m:1")
    main.malloc("p", 3, label="m:2")
    main.spawn("t1", "worker", [local("p"), 1], label="m:3")
    main.spawn("t2", "worker", [local("p"), 2], label="m:4")
    main.barrier_wait("b", label="m:5")
    main.sleep(1, label="m:6")
    main.lock("m", label="m:7")
    main.assign(glob("ready"), 1, label="m:8")
    main.cond_broadcast("c", label="m:9")
    main.unlock("m", label="m:10")
    main.join(local("t1"), label="m:11")
    main.join(local("t2"), label="m:12")
    with main.while_(lt(local("n"), 2), label="m:13"):
        main.assign(local("n"), add(local("n"), 1), label="m:14")
    with main.if_(eq(local("n"), 3), label="m:15"):
        main.abort("n reached 3", label="m:16")
    main.output("stdout", [glob("count"), heap(local("p"), 2), logical_not(glob("ready"))], label="m:17")
    main.assert_(eq(glob("count"), 2), label="m:18")
    main.free(local("p"), label="m:19")
    main.nop(label="m:20")
    main.ret()
    return b.build()


def _run_view(executor, *, inputs=None, listeners=None, **run_kwargs):
    """One run from the initial state: its result, callbacks and counters."""
    log = _EventLog()
    state = executor.initial_state(concrete_inputs=inputs)
    result = executor.run(
        state, listeners=[log] if listeners is None else listeners(log), **run_kwargs
    )
    return {
        "result": _result_view(result),
        "events": log.events,
        "counters": executor.counters.to_dict(),
    }


def _explore_view(executor, symbolic, limit=40):
    """Run a symbolic state and every state it forks, depth first."""
    log = _EventLog()
    worklist = [executor.initial_state(symbolic_inputs=symbolic)]
    views = []
    while worklist and len(views) < limit:
        result = executor.run(worklist.pop(), listeners=[log])
        views.append(_result_view(result))
        worklist.extend(result.forks)
    return {"results": views, "events": log.events, "counters": executor.counters.to_dict()}


def _pc(program, label):
    return next(
        stmt.pc
        for function in program.functions.values()
        for stmt in ast.iter_statements(function.body)
        if stmt.label == label
    )


def _preferring(tid):
    def build():
        policy = ControlledPolicy(RoundRobinPolicy())
        policy.prefer(tid)
        return policy

    return build


class TestSinkProgram:
    @pytest.mark.parametrize(
        "policy",
        [RoundRobinPolicy, CooperativePolicy, lambda: RandomPolicy(seed=5)],
        ids=["round_robin", "cooperative", "random"],
    )
    def test_full_runs(self, policy):
        program = _sink_program()
        view = _both(program, lambda executor: _run_view(executor, policy=policy()))
        assert view["result"]["status"] is RunStatus.COMPLETED
        assert view["result"]["state"]["outcome"].kind is OutcomeKind.DONE

    def test_abort_and_nothing_listener(self):
        program = _sink_program()
        view = _both(
            program,
            lambda executor: _run_view(
                executor, inputs={"n": 3}, listeners=lambda log: [_Nothing(), log]
            ),
        )
        assert view["result"]["state"]["outcome"].kind is OutcomeKind.CRASH

    @pytest.mark.parametrize(
        "policy",
        [RoundRobinPolicy, lambda: RandomPolicy(seed=3), _preferring(2)],
        ids=["round_robin", "random", "preferring"],
    )
    def test_watched_pcs_and_stops(self, policy):
        # Round robin keeps the current thread at a watched point; a random
        # or a preferring policy may switch there and right after it.
        program = _sink_program()
        watched = frozenset({_pc(program, "w:5"), _pc(program, "w:14")})
        target = _pc(program, "w:16")
        seen = []

        def stop_before(state, tid, stmt):
            seen.append((tid, stmt.pc, state.step_count))
            return stmt.pc == target and tid == 2

        def stop_after(state, tid, stmt):
            return stmt.pc == _pc(program, "m:12")

        for kwargs in ({}, {"stop_before": stop_before}, {"stop_after": stop_after}):
            def drive(executor):
                seen.clear()
                view = _run_view(executor, policy=policy(), watched_pcs=watched, **kwargs)
                return view, tuple(seen)

            view, calls = _both(program, drive)
            if kwargs:
                assert view["result"]["status"] in (
                    RunStatus.STOPPED_BEFORE,
                    RunStatus.STOPPED_AFTER,
                )
            if "stop_before" in kwargs:
                # consulted before every statement the run executed
                assert len(calls) == view["counters"]["statements"] + 1

    def test_budget_and_stuck(self):
        program = _sink_program()
        for budget in (1, 7, 40):
            view = _both(program, lambda executor: _run_view(executor, max_steps=budget))
            assert view["result"]["status"] is RunStatus.STEP_LIMIT

        def stuck(executor):
            policy = ControlledPolicy(RoundRobinPolicy())
            policy.forbid(0)
            return _run_view(executor, policy=policy)

        view = _both(program, stuck)
        assert view["result"]["status"] is RunStatus.SCHEDULING_STUCK
        assert view["result"]["stuck_reason"]

    def test_symbolic_forks(self):
        program = _sink_program()
        view = _both(program, lambda executor: _explore_view(executor, symbolic=("n",)))
        assert len(view["results"]) > 2 and view["counters"]["forks"] > 0


@pytest.mark.parametrize("name", ["bbuf", "ctrace", "SQLite", "memcached"])
def test_record_replay_and_symbolic_runs_of_workloads(name):
    workload = load_workload(name)
    program = workload.program
    inputs = dict(workload.inputs)

    def record(executor):
        log = _EventLog()
        trace, state, result = record_execution(
            program, inputs, executor=executor, extra_listeners=[log]
        )
        return trace.to_dict(), _result_view(result), log.events

    _both(program, record)
    trace, _state, _run = record_execution(program, inputs)
    race = trace.races[0]
    locator = RacePointLocator(race)

    def replay(executor, **kwargs):
        return _run_view(
            executor,
            inputs=inputs,
            policy=ReplayPolicy(trace.decisions),
            watched_pcs=locator.watched_pcs(),
            **kwargs,
        )

    _both(program, replay)
    view = _both(
        program, lambda executor: replay(executor, stop_before=locator.stop_before_first_access())
    )
    assert view["result"]["status"] is RunStatus.STOPPED_BEFORE
    view = _both(
        program, lambda executor: replay(executor, stop_after=locator.stop_after_second_access())
    )
    assert view["result"]["status"] is RunStatus.STOPPED_AFTER
    if inputs:
        view = _both(
            program, lambda executor: _explore_view(executor, symbolic=tuple(inputs), limit=12)
        )
        assert view["counters"]["forks"] > 0


# ---------------------------------------------------------- in-place assign

_TARGETS = {
    "local": local("y"),
    "global": glob("g"),
    "array": arr("cells", 1),
    "heap": heap(local("p"), 2),
}
_VALUES = {
    "const": 7,
    "local": local("x"),
    "global": glob("h"),
    "binop": add(local("x"), glob("h")),
    "symbolic": ast.InputRef("n"),
}
_POSITIONS = ("mid_block", "block_end", "loop_end")


def _assign_program(target, value, position):
    """``target = value`` (label ``a``) in the middle of a block, as the last
    statement of an ``if`` body, or as the last of a ``while`` body; then an
    output of every location an assign can write."""
    b = ProgramBuilder("assign")
    b.global_var("g", 1)
    b.global_var("h", 4)
    b.global_var("gone", 0)
    b.array("cells", 3)
    main = b.function("main")
    main.input("n", "n", lo=0, hi=9)
    main.assign(local("x"), 5)
    main.assign(local("y"), 0)
    main.malloc("p", 3)
    if position == "mid_block":
        main.assign(target, value, label="a")
        main.nop()
    elif position == "block_end":
        with main.if_(1):
            main.assign(target, value, label="a")
    else:
        main.assign(local("i"), 0)
        with main.while_(lt(local("i"), 2)):
            main.assign(local("i"), add(local("i"), 1))
            main.assign(target, value, label="a")
    main.output("out", [local("y"), glob("g"), arr("cells", 1), heap(local("p"), 2)])
    main.ret()
    program = b.build()
    # Validation rejects a store to an undeclared global, so the crash case
    # drops its global only after the program is built.
    del program.globals["gone"]
    return program


def _assign_view(executor, program, symbolic, mode):
    """One run of an assign program in ``mode``: ``plain`` (no listener
    overrides ``on_step``), ``on_step``, or ``stop_after`` (the assign is a
    watched pc and the run stops right after it)."""
    log = _EventLog() if mode == "on_step" else _CallbackLog()
    kwargs = {}
    if mode == "stop_after":
        pc = _pc(program, "a")
        kwargs = {
            "watched_pcs": frozenset({pc}),
            "stop_after": lambda state, tid, stmt: stmt.pc == pc,
        }
    state = executor.initial_state(concrete_inputs={"n": 3}, symbolic_inputs=symbolic)
    result = executor.run(state, listeners=[log], **kwargs)
    return {
        "result": _result_view(result),
        "events": log.events,
        "counters": executor.counters.to_dict(),
    }


@pytest.mark.parametrize("value", sorted(_VALUES))
@pytest.mark.parametrize("target", sorted(_TARGETS))
def test_in_place_assign_matches_the_replaced_handler(target, value):
    symbolic = ("n",) if value == "symbolic" else ()
    for position in _POSITIONS:
        program = _assign_program(_TARGETS[target], _VALUES[value], position)
        for mode in ("plain", "on_step", "stop_after"):
            view = _both(
                program, lambda executor: _assign_view(executor, program, symbolic, mode)
            )
            status = view["result"]["status"]
            if mode == "stop_after":
                assert status is RunStatus.STOPPED_AFTER
            else:
                assert status is RunStatus.COMPLETED
                assert view["result"]["state"]["outcome"].kind is OutcomeKind.DONE
                assert len(view["result"]["state"]["output_log"]) == 1


@pytest.mark.parametrize(
    "target, value, kind, message",
    [
        (glob("gone"), 1, CrashKind.INVALID_POINTER, "write to undeclared global 'gone'"),
        (local("y"), local("undefined"), CrashKind.INVALID_POINTER, "read of undefined local"),
        (arr("cells", 9), 1, CrashKind.OUT_OF_BOUNDS, "index 9 out of bounds"),
    ],
    ids=["undeclared_global", "undefined_local", "array_out_of_bounds"],
)
def test_in_place_assign_crashes_as_the_replaced_handler(target, value, kind, message):
    for position in _POSITIONS:
        program = _assign_program(target, value, position)
        for mode in ("plain", "on_step"):
            view = _both(program, lambda executor: _assign_view(executor, program, (), mode))
            crash = view["result"]["state"]["outcome"].crash
            assert crash.kind is kind and message in crash.message
            assert crash.pc == _pc(program, "a")


@pytest.mark.parametrize("target", sorted(_TARGETS))
def test_in_place_assign_after_a_clone_writes_the_clone_only(target):
    program = _assign_program(_TARGETS[target], add(local("x"), 1), "mid_block")
    pc = _pc(program, "a")

    def drive(executor):
        state = executor.initial_state(concrete_inputs={"n": 3})
        executor.run(state, stop_before=lambda s, tid, stmt: stmt.pc == pc)
        before = _state_view(state)
        clone = state.clone()
        result = executor.run(clone, stop_after=lambda s, tid, stmt: stmt.pc == pc)
        assert result.status is RunStatus.STOPPED_AFTER
        assert _state_view(state) == before
        after = _state_view(clone)
        assert (after["locals"], after["memory"]) != (before["locals"], before["memory"])
        return _result_view(result), executor.counters.to_dict()

    _view, counters = _both(program, drive)
    assert counters["cow_copies"] > 0


# ------------------------------------------------------------ int fast path

#: negatives, 0, 1, small positives and values past 32 and 64 bits
_INT_GRID = (-(2**64) - 3, -(2**31) - 1, -7, -1, 0, 1, 2, 5, 31, 2**31 + 5, 2**40 + 1)


class _BinopBench:
    """One executor and state for evaluating ``a <op> b`` over locals; every
    call into ``_apply_binop`` (the general path) is recorded."""

    def __init__(self, executor_class=Executor):
        b = ProgramBuilder("binops")
        b.function("main").nop()
        self.executor = executor_class(b.build())
        self.state = self.executor.initial_state()
        self.general = []
        apply_binop = self.executor._apply_binop

        def spy(token, left, right):
            self.general.append(token)
            return apply_binop(token, left, right)

        self.executor._apply_binop = spy

    def eval(self, token, left, right):
        self.state.frame_mut(0).locals.update(a=left, b=right)
        expr = ast.BinOp(token, local("a"), local("b"))
        stmt = self.state.threads[0].next_statement()
        return self.executor._eval_binop(self.state, 0, expr, stmt, ListenerGroup([]))

    def outcome(self, token, left, right):
        """The value, or the crash's (kind, message)."""
        try:
            value = self.eval(token, left, right)
        except ProgramCrash as crash:
            return ("crash", crash.kind, crash.message)
        return (type(value), value)


@pytest.mark.parametrize("token", sorted(_INT_BINOPS))
def test_int_fast_path_matches_the_symbolic_constructors(token):
    bench = _BinopBench()
    for left in _INT_GRID:
        for right in _INT_GRID:
            try:
                expected = simplify(make_binary(_BINOP_TOKENS[token], left, right))
            except ConcreteEvaluationError:
                # a zero divisor: the crash the general path's check raises
                assert token in ("/", "%") and right == 0
                assert bench.outcome(token, left, right) == (
                    "crash", CrashKind.DIVISION_BY_ZERO, "division by zero"
                )
                continue
            value = bench.eval(token, left, right)
            assert type(value) is int and value == expected, (left, token, right)
    assert bench.general == []


@pytest.mark.parametrize("token", sorted(_BINOP_TOKENS))
def test_bools_and_crashing_operators_take_the_general_path(token):
    new, old = _BinopBench(), _BinopBench(OracleExecutor)
    cases = [(True, 3), (2, False), (True, True), (False, 0)]
    if token not in _INT_BINOPS:
        cases += [(left, right) for left in _INT_GRID for right in (-2, -1, 0, 1, 3)]
    for left, right in cases:
        assert new.outcome(token, left, right) == old.outcome(token, left, right)
    # the same calls into the general path as the oracle's _eval_binop
    assert new.general == old.general and new.general


def test_division_and_negative_shift_still_crash():
    bench = _BinopBench()
    for token in ("/", "%"):
        assert bench.outcome(token, 7, 0) == (
            "crash", CrashKind.DIVISION_BY_ZERO, "division by zero"
        )
    for token in ("<<", ">>"):
        assert bench.outcome(token, 7, -1) == (
            "crash", CrashKind.DIVISION_BY_ZERO, "negative shift amount"
        )
