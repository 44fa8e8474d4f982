"""Tests for the mini language, program container and interpreter runtime."""

import pytest

from repro.engine import TraceCache
from repro.lang import ProgramBuilder, ast
from repro.lang.ast import add, arr, div, eq, ge, glob, heap, local, logical_not, lt
from repro.lang.program import ProgramError
from repro.runtime.errors import CrashKind, OutcomeKind
from repro.runtime.executor import Executor, RunStatus
from repro.runtime.memory import Memory
from repro.runtime.scheduler import RandomPolicy, ReplayPolicy, RoundRobinPolicy
from repro.runtime.threadstate import ThreadStatus
from repro.symex.expr import BinExpr, Op, SymVar
from repro.workloads import all_workload_names, load_workload


def run_program(builder: ProgramBuilder, inputs=None, policy=None, max_steps=50_000):
    program = builder.build()
    executor = Executor(program)
    state = executor.initial_state(concrete_inputs=inputs or {})
    result = executor.run(state, policy=policy or RoundRobinPolicy(), max_steps=max_steps)
    return program, state, result


class TestProgramConstruction:
    def test_duplicate_global_rejected(self):
        b = ProgramBuilder("dup")
        b.global_var("x", 0)
        with pytest.raises(ProgramError):
            b.global_var("x", 1)

    def test_unknown_call_rejected(self):
        b = ProgramBuilder("badcall")
        main = b.function("main")
        main.call("missing")
        with pytest.raises(ProgramError):
            b.build()

    def test_pcs_are_unique_and_dense(self):
        b = ProgramBuilder("pcs")
        main = b.function("main")
        main.assign(local("a"), 1)
        with main.if_(eq(local("a"), 1)):
            main.assign(local("b"), 2)
        main.ret()
        program = b.build()
        pcs = program.all_pcs()
        assert len(pcs) == len(set(pcs)) == program.statement_count()

    def test_write_sets_are_transitive(self):
        b = ProgramBuilder("writes")
        b.global_var("g", 0)
        helper = b.function("helper")
        helper.assign(glob("g"), 1)
        main = b.function("main")
        main.call("helper")
        main.ret()
        program = b.build()
        assert ("global", "g") in program.write_set("main")


#: TraceCache.program_fingerprint (first 16 hex digits) of every registry
#: program; operand normalisation must not move them, because every
#: registry operand was already an expression node
_REGISTRY_FINGERPRINTS = {
    "AVV": "12051a932180ff8c",
    "DBM": "59578c5822de0d7a",
    "DCL": "90a862a62d91eee4",
    "RW": "c5319063505141d1",
    "SQLite": "2cc73eb82565a22b",
    "bbuf": "71f3fd043923e84b",
    "ctrace": "9eeaa9843222ba48",
    "fmm": "97b0f1fc35d04546",
    "memcached": "7189ec720c5748ec",
    "ocean": "713c6c763b5b6f4e",
    "pbzip2": "78b26ab9cc36d552",
    "stress": "8302e2f5158c5d95",
    "stress_deep": "c211028b77d1c523",
    "stress_harmful": "c225c39c6994ad86",
}


class TestOperandNormalisation:
    def test_direct_nodes_equal_helper_nodes(self):
        assert ast.BinOp("+", ast.LocalRef("x"), 1) == add(local("x"), 1)
        assert ast.BinOp("+", ast.LocalRef("x"), 1).right == ast.Const(1)
        assert ast.ArrayRef("a", 0) == arr("a", 0)
        assert ast.HeapRef(ast.LocalRef("p"), 1) == heap(local("p"), 1)
        assert ast.HeapRef(7, True).pointer == ast.Const(7)
        assert ast.HeapRef(7, True).index == ast.Const(1)
        assert ast.UnOp("!", 0) == logical_not(0)
        with pytest.raises(TypeError):
            ast.UnOp("!", "zero")

    def test_direct_nodes_evaluate_like_helper_nodes(self):
        def build(direct):
            b = ProgramBuilder("direct" if direct else "helpers")
            b.array("a", 2, fill=5)
            main = b.function("main")
            main.malloc("p", 2)
            if direct:
                main.assign(ast.ArrayRef("a", 1), ast.BinOp("+", ast.LocalRef("p"), 1))
                main.assign(ast.HeapRef(ast.LocalRef("p"), 1), ast.ArrayRef("a", 0))
                value = ast.BinOp("*", ast.HeapRef(ast.LocalRef("p"), 1), ast.UnOp("-", 2))
                main.output("out", [value, ast.ArrayRef("a", 1)])
            else:
                main.assign(arr("a", 1), add(local("p"), 1))
                main.assign(heap(local("p"), 1), arr("a", 0))
                value = ast.mul(heap(local("p"), 1), ast.UnOp("-", ast.Const(2)))
                main.output("out", [value, arr("a", 1)])
            main.ret()
            return b

        outputs = []
        for direct in (True, False):
            _program, state, result = run_program(build(direct))
            assert result.status is RunStatus.COMPLETED
            assert state.outcome.kind is OutcomeKind.DONE
            outputs.append([record.values for record in state.output_log])
        assert outputs[0] == outputs[1] == [(-10, 2)]

    def test_registry_fingerprints_are_unchanged(self):
        fingerprints = {
            name: TraceCache.program_fingerprint(load_workload(name).program)[:16]
            for name in all_workload_names(include_synthetic=True)
        }
        assert fingerprints == _REGISTRY_FINGERPRINTS


class TestSequentialExecution:
    def test_arithmetic_and_output(self):
        b = ProgramBuilder("arith")
        b.global_var("g", 3)
        main = b.function("main")
        main.assign(local("x"), add(glob("g"), 4))
        main.output("stdout", [local("x"), div(local("x"), 2)])
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.kind is OutcomeKind.DONE
        assert state.output_log[0].values == (7, 3)

    def test_while_loop_and_locals(self):
        b = ProgramBuilder("loop")
        main = b.function("main")
        main.assign(local("i"), 0)
        main.assign(local("sum"), 0)
        with main.while_(lt(local("i"), 5)):
            main.assign(local("sum"), add(local("sum"), local("i")))
            main.assign(local("i"), add(local("i"), 1))
        main.output("stdout", [local("sum")])
        main.ret()
        _, state, _ = run_program(b)
        assert state.output_log[0].values == (10,)

    def test_function_call_and_return_value(self):
        b = ProgramBuilder("call")
        callee = b.function("double_it", params=["v"])
        callee.ret(add(local("v"), local("v")))
        main = b.function("main")
        main.call("double_it", [21], target="result")
        main.output("stdout", [local("result")])
        main.ret()
        _, state, _ = run_program(b)
        assert state.output_log[0].values == (42,)

    def test_inputs_concrete_and_default(self):
        b = ProgramBuilder("inputs")
        main = b.function("main")
        main.input("x", "x", 0, 9, default=4)
        main.output("stdout", [local("x")])
        main.ret()
        _, state, _ = run_program(b, inputs={"x": 6})
        assert state.output_log[0].values == (6,)
        _, state, _ = run_program(b)
        assert state.output_log[0].values == (4,)

    def test_break_and_continue(self):
        b = ProgramBuilder("breaks")
        main = b.function("main")
        main.assign(local("i"), 0)
        main.assign(local("acc"), 0)
        with main.while_(lt(local("i"), 10)):
            main.assign(local("i"), add(local("i"), 1))
            with main.if_(eq(local("i"), 3)):
                main.continue_()
            with main.if_(eq(local("i"), 6)):
                main.break_()
            main.assign(local("acc"), add(local("acc"), local("i")))
        main.output("stdout", [local("acc"), local("i")])
        main.ret()
        _, state, _ = run_program(b)
        # 1 + 2 + 4 + 5 (3 skipped by continue, loop exits at 6)
        assert state.output_log[0].values == (12, 6)


class TestCrashes:
    def test_division_by_zero(self):
        b = ProgramBuilder("div0")
        b.global_var("z", 0)
        main = b.function("main")
        main.assign(local("x"), div(10, glob("z")))
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.kind is OutcomeKind.CRASH
        assert state.outcome.crash.kind is CrashKind.DIVISION_BY_ZERO

    def test_array_out_of_bounds(self):
        b = ProgramBuilder("oob")
        b.array("buf", 4)
        main = b.function("main")
        main.assign(arr("buf", 9), 1)
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.crash.kind is CrashKind.OUT_OF_BOUNDS

    def test_double_free_and_use_after_free(self):
        b = ProgramBuilder("heapbugs")
        main = b.function("main")
        main.malloc("p", 4)
        main.free(local("p"))
        main.free(local("p"))
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.crash.kind is CrashKind.DOUBLE_FREE

    def test_assertion_failure(self):
        b = ProgramBuilder("assert")
        b.global_var("mode", 0)
        main = b.function("main")
        main.assert_(eq(glob("mode"), 1), "bad mode")
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.crash.kind is CrashKind.ASSERTION_FAILURE

    def test_heap_read_write(self):
        b = ProgramBuilder("heap")
        main = b.function("main")
        main.malloc("p", 2)
        main.assign(heap(local("p"), 1), 5)
        main.output("stdout", [heap(local("p"), 1)])
        main.ret()
        _, state, _ = run_program(b)
        assert state.output_log[0].values == (5,)


class TestThreadsAndSync:
    def _counter_program(self, locked: bool) -> ProgramBuilder:
        b = ProgramBuilder("counter")
        b.global_var("count", 0)
        b.mutex("m")
        worker = b.function("worker")
        if locked:
            worker.lock("m")
        worker.assign(glob("count"), add(glob("count"), 1))
        if locked:
            worker.unlock("m")
        worker.ret()
        main = b.function("main")
        main.spawn("t1", "worker")
        main.spawn("t2", "worker")
        main.join(local("t1"))
        main.join(local("t2"))
        main.output("stdout", [glob("count")])
        main.ret()
        return b

    def test_two_workers_increment(self):
        _, state, _ = run_program(self._counter_program(locked=True))
        assert state.outcome.kind is OutcomeKind.DONE
        assert state.output_log[0].values == (2,)

    def test_join_waits_for_workers(self):
        _, state, _ = run_program(self._counter_program(locked=False))
        assert state.output_log[0].values == (2,)

    def test_deadlock_detected(self):
        b = ProgramBuilder("deadlock")
        b.mutex("a")
        b.mutex("b")
        w1 = b.function("w1")
        w1.lock("a")
        w1.yield_()
        w1.lock("b")
        w1.unlock("b")
        w1.unlock("a")
        w1.ret()
        w2 = b.function("w2")
        w2.lock("b")
        w2.yield_()
        w2.lock("a")
        w2.unlock("a")
        w2.unlock("b")
        w2.ret()
        main = b.function("main")
        main.spawn("t1", "w1")
        main.spawn("t2", "w2")
        main.join(local("t1"))
        main.join(local("t2"))
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.kind is OutcomeKind.DEADLOCK

    def test_condvar_handoff(self):
        b = ProgramBuilder("condvar")
        b.global_var("ready", 0)
        b.global_var("data", 0)
        b.mutex("m")
        b.condvar("c")
        producer = b.function("producer")
        producer.lock("m")
        producer.assign(glob("data"), 99)
        producer.assign(glob("ready"), 1)
        producer.cond_signal("c")
        producer.unlock("m")
        producer.ret()
        main = b.function("main")
        main.spawn("p", "producer")
        main.lock("m")
        with main.while_(eq(glob("ready"), 0)):
            main.cond_wait("c", "m")
        main.unlock("m")
        main.output("stdout", [glob("data")])
        main.join(local("p"))
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.kind is OutcomeKind.DONE
        assert state.output_log[0].values == (99,)

    def test_barrier_releases_all_parties(self):
        b = ProgramBuilder("barrier")
        b.global_var("done", 0)
        b.barrier("bar", 3)
        worker = b.function("worker")
        worker.barrier_wait("bar")
        worker.ret()
        main = b.function("main")
        main.spawn("t1", "worker")
        main.spawn("t2", "worker")
        main.barrier_wait("bar")
        main.join(local("t1"))
        main.join(local("t2"))
        main.output("stdout", [1])
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.kind is OutcomeKind.DONE

    def test_recursive_lock_is_a_crash(self):
        b = ProgramBuilder("recursive")
        b.mutex("m")
        main = b.function("main")
        main.lock("m")
        main.lock("m")
        main.ret()
        _, state, _ = run_program(b)
        assert state.outcome.crash.kind is CrashKind.INVALID_SYNC


class TestSymbolicExecution:
    def test_symbolic_branch_forks(self):
        b = ProgramBuilder("symbolic")
        main = b.function("main")
        main.input("x", "x", 0, 10, default=0)
        with main.if_(ge(local("x"), 5)):
            main.output("stdout", ["high" and 1])
        with main.else_():
            main.output("stdout", [0])
        main.ret()
        program = b.build()
        executor = Executor(program)
        state = executor.initial_state(symbolic_inputs=["x"])
        result = executor.run(state)
        assert len(result.forks) == 1
        assert state.symbolic_branches == 1
        # Both paths have a consistent path condition and one output each.
        fork = result.forks[0]
        executor.run(fork)
        assert len(state.output_log) == 1
        assert len(fork.output_log) == 1
        assert len(state.path_condition) >= 1

    def test_replay_reproduces_schedule_and_outputs(self):
        from repro.record_replay import record_execution, replay_execution

        b = ProgramBuilder("replay")
        b.global_var("x", 0)
        worker = b.function("worker")
        worker.assign(glob("x"), add(glob("x"), 1))
        worker.ret()
        main = b.function("main")
        main.spawn("t", "worker")
        main.assign(glob("x"), add(glob("x"), 10))
        main.join(local("t"))
        main.output("stdout", [glob("x")])
        main.ret()
        program = b.build()
        trace, state, _ = record_execution(program)
        replayed, _, policy = replay_execution(program, trace)
        assert not policy.diverged
        assert replayed.output_summary() == state.output_summary()
        assert replayed.step_count == state.step_count

    def test_random_policy_is_deterministic_per_seed(self):
        builder_outputs = []
        for _ in range(2):
            b = ProgramBuilder("rand")
            b.global_var("x", 0)
            worker = b.function("worker")
            worker.assign(glob("x"), 1)
            worker.ret()
            main = b.function("main")
            main.spawn("t", "worker")
            main.output("stdout", [glob("x")])
            main.join(local("t"))
            main.ret()
            _, state, _ = run_program(b, policy=RandomPolicy(seed=7))
            builder_outputs.append(state.output_summary())
        assert builder_outputs[0] == builder_outputs[1]


class TestReplayDivergenceDiagnostics:
    class _Thread:
        def __init__(self, blocked=False, finished=False):
            self.is_blocked = blocked
            self.is_finished = finished
            self.status = (
                ThreadStatus.BLOCKED if blocked
                else ThreadStatus.FINISHED if finished
                else ThreadStatus.RUNNABLE
            )

    class _State:
        def __init__(self, threads, step_count=5):
            self.threads = threads
            self.step_count = step_count

    def _decision(self, tid, index=0, step=3):
        from repro.runtime.scheduler import ScheduleDecision

        return ScheduleDecision(index=index, tid=tid, pc=1, step=step, reason="sync")

    def test_blocked_recorded_tid_is_reported_with_reason(self):
        # Regression: the skipped decision and the reason for divergence are
        # kept, so the multi-path explorer can say why a path was pruned.
        policy = ReplayPolicy([self._decision(tid=1, index=4)])
        state = self._State({0: self._Thread(), 1: self._Thread(blocked=True)})
        chosen = policy.choose(state, current=0, reason="sync")
        assert chosen == 0
        assert policy.diverged
        assert policy.divergence_step == state.step_count
        assert policy.skipped_decisions == [self._decision(tid=1, index=4)]
        assert "blocked" in policy.divergence_reason
        assert "decision 4" in policy.divergence_reason

    def test_finished_and_missing_tids_have_distinct_reasons(self):
        policy = ReplayPolicy([self._decision(tid=1), self._decision(tid=9, index=1)])
        state = self._State({0: self._Thread(), 1: self._Thread(finished=True)})
        policy.choose(state, current=0, reason="sync")
        assert "finished" in policy.divergence_reason
        fresh = ReplayPolicy([self._decision(tid=9)])
        fresh.choose(state, current=0, reason="sync")
        assert "not yet created" in fresh.divergence_reason

    def test_exhausted_trace_reason_and_reset(self):
        policy = ReplayPolicy([])
        state = self._State({0: self._Thread()})
        policy.choose(state, current=0, reason="sync")
        assert policy.diverged
        assert policy.divergence_reason == "recorded schedule exhausted"
        policy.reset()
        assert not policy.diverged
        assert policy.divergence_reason is None
        assert policy.skipped_decisions == []

    def test_explorer_records_prune_reasons(self):
        from repro.core import Portend
        from repro.core.config import PortendConfig
        from repro.explore.paths import MultiPathExplorer
        from repro.record_replay.memo import TraceMemo
        from repro.workloads import load_workload

        workload = load_workload("bbuf")
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)
        explorer = MultiPathExplorer(
            portend.executor,
            portend.program,
            trace,
            trace.races[0],
            max_primaries=PortendConfig().mp,
            memo=TraceMemo(),
        )
        explorer.explore()
        assert len(explorer.prune_reasons) == explorer.states_pruned


class TestPostRaceMemoryComparison:
    """``Memory.same_snapshot`` answers exactly ``snapshot() ==``: cheaply
    when the containers compare equal and every cell is concrete, through
    the snapshots otherwise."""

    @pytest.fixture
    def snapshots(self, monkeypatch):
        calls = []
        frozen = Memory.snapshot

        def counted(memory):
            calls.append(memory)
            return frozen(memory)

        monkeypatch.setattr(Memory, "snapshot", counted)
        return calls

    @staticmethod
    def _memory():
        b = ProgramBuilder("memories")
        b.global_var("x", 0)
        b.global_var("y", 0)
        b.array("a", 3)
        b.function("main").ret()
        return Memory(b.build())

    @staticmethod
    def _agree(left, right, snapshots):
        expected = left.snapshot() == right.snapshot()
        del snapshots[:]
        assert left.same_snapshot(right) == expected
        assert right.same_snapshot(left) == expected
        return expected

    def test_clones_sharing_containers_compare_without_snapshots(self, snapshots):
        memory = self._memory()
        memory.store_global("x", 3)
        clone = memory.clone()
        assert clone._globals is memory._globals
        assert self._agree(memory, clone, snapshots)
        assert snapshots == []

    def test_one_differing_int(self, snapshots):
        memory = self._memory()
        clone = memory.clone()
        clone.store_global("y", 1)
        assert not self._agree(memory, clone, snapshots)

    def test_true_equals_one(self, snapshots):
        memory, other = self._memory(), self._memory()
        memory.store_global("x", True)
        other.store_global("x", 1)
        assert self._agree(memory, other, snapshots)
        assert snapshots == []

    def test_arrays(self, snapshots):
        memory, other = self._memory(), self._memory()
        memory.store_array("a", 2, 5)
        other.store_array("a", 2, 5)
        assert self._agree(memory, other, snapshots)
        other.store_array("a", 1, 5)
        assert not self._agree(memory, other, snapshots)

    def test_freed_heap_objects(self, snapshots):
        memory = self._memory()
        pointer = memory.malloc(2)
        memory.store_heap(pointer, 1, 4)
        clone = memory.clone()
        clone.free(pointer)
        assert not self._agree(memory, clone, snapshots)
        memory.free(pointer)
        assert self._agree(memory, clone, snapshots)

    def test_symbolic_cells_with_equal_reprs_fall_back(self, snapshots):
        # Structurally different, printed alike: the containers differ, and
        # the snapshots (which render symbolic cells by repr) agree.
        x, z = SymVar("x", 0, 1), SymVar("z", 0, 1)
        xy, yz = SymVar("x:[0,1]) + SymVar(y", 0, 1), SymVar("y:[0,1]) * SymVar(z", 0, 1)
        memory, other = self._memory(), self._memory()
        memory.store_global("x", BinExpr(Op.MUL, xy, z))
        other.store_global("x", BinExpr(Op.ADD, x, yz))
        assert memory._globals != other._globals
        assert self._agree(memory, other, snapshots)
        assert snapshots

    def test_symbolic_cells_that_compare_equal_still_take_the_snapshots(self, snapshots):
        # A bool leaf equals an int leaf, but prints differently.
        x = SymVar("x", 0, 1)
        memory, other = self._memory(), self._memory()
        memory.store_global("x", BinExpr(Op.ADD, x, True))
        other.store_global("x", BinExpr(Op.ADD, x, 1))
        assert memory._globals == other._globals
        assert not self._agree(memory, other, snapshots)
        assert snapshots
