"""Tests for the interpreter's hot path and its configuration.

* **pin** -- what is left of the tree/compiled equivalence checks now
  that the tree walker is the only interpreter: ``PortendConfig`` and the
  benchmark's ``create_executor`` shim accept no other kernel, the CLI has
  no flag to pick one, the pinned field stays out of the classification
  fingerprint, and event logs written under either former kernel fold to
  the same stats;
* **copy-on-write** -- ``ExecutionState.clone`` must share untouched
  containers with the fork and materialize only what is actually mutated
  afterwards, with every materialization counted.
"""

import dataclasses

import pytest

from repro.core.config import PortendConfig
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine.events import fold_events, summarize_events
from repro.runtime.compile import create_executor
from repro.runtime.executor import Executor
from repro.workloads import load_workload


class TestCompiledEquivalence:
    """The compiled kernel is gone; ``PortendConfig.interp`` and
    ``create_executor`` stay only as pins to "tree", and old logs that name
    either kernel still fold like current ones."""

    def test_engine_folded_stats_match_across_kernels(self):
        engine = AnalysisEngine(options=EngineOptions())
        engine.analyze(["bbuf", "RW"])
        events = engine.last_run_events
        assert any(event["kind"] == "interp_stats" for event in events)

        def tagged(interp):
            # the same stream as a log written under either former kernel carries it
            return [
                dict(event, interp=interp) if event["kind"] == "interp_stats" else event
                for event in events
            ]

        folded = dataclasses.asdict(fold_events(events))
        interpreter = summarize_events(events)["interpreter"]
        assert interpreter["statements"] > 0
        for interp in ("tree", "compiled"):
            assert dataclasses.asdict(fold_events(tagged(interp))) == folded, interp
            assert summarize_events(tagged(interp))["interpreter"] == interpreter, interp

    def test_create_executor_modes(self):
        program = load_workload("bbuf").program
        assert type(create_executor(program)) is Executor
        assert type(create_executor(program, "tree")) is Executor
        for interp in ("compiled", "jit"):
            with pytest.raises(ValueError):
                create_executor(program, interp)

    def test_interp_is_excluded_from_classification_fingerprint(self):
        fingerprint = PortendConfig().classification_fingerprint()
        assert fingerprint == PortendConfig(interp="tree").classification_fingerprint()
        assert "interp" not in fingerprint

    def test_any_other_interpreter_is_rejected(self):
        with pytest.raises(ValueError):
            PortendConfig(interp="compiled")

    @pytest.mark.parametrize("field", ["interp", "solver_backend", "task_granularity"])
    def test_cli_rejects_a_flag_for_a_pinned_field(self, capsys, field):
        from repro.experiments.__main__ import main

        flag = "--" + field.replace("_", "-")
        with pytest.raises(SystemExit):
            main(["table3", "--workloads", "RW", flag, "tree"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class _CountingSolver:
    """Wraps a solver, counting is_satisfiable calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def is_satisfiable(self, constraints, **kwargs):
        self.calls += 1
        return self.inner.is_satisfiable(constraints, **kwargs)


class TestForkSolverSkip:
    def test_concrete_false_branch_skips_the_solver(self):
        executor = Executor(load_workload("bbuf").program)
        counting = _CountingSolver(executor.solver)
        executor.solver = counting
        assert executor._side_feasible([], 0) is False
        assert counting.calls == 0

    def test_concrete_true_branch_still_consults_the_solver(self):
        # A concretely-true constraint reduces the query to
        # is_satisfiable(base), which may be UNSAT -- it must not be skipped.
        executor = Executor(load_workload("bbuf").program)
        counting = _CountingSolver(executor.solver)
        executor.solver = counting
        assert executor._side_feasible([], 1) is True
        assert counting.calls == 1


def _running_state(steps=40):
    """A mid-execution state of a workload with threads, sync and memory."""
    workload = load_workload("bbuf")
    executor = Executor(workload.program)
    state = executor.initial_state(concrete_inputs=dict(workload.inputs))
    executor.run(state, max_steps=steps)
    return executor, state


def _state_image(state):
    """The values every copy-on-write layer of a state holds, by value."""
    return (
        state.memory.key(),
        {
            tid: [dict(frame.locals) for frame in thread.frames]
            for tid, thread in state.threads.items()
        },
        {
            name: (mutex.owner, list(mutex.waiters))
            for name, mutex in state.sync.mutexes.items()
        },
    )


def _write_every_layer(state):
    """Write through each mutator: globals, an array, a frame and a mutex."""
    memory = state.memory
    memory.store_global(next(iter(memory.globals_view())), 123)
    memory.store_array(next(iter(memory.arrays_view())), 0, 456)
    tid = min(tid for tid, thread in state.threads.items() if thread.frames)
    state.frame_mut(tid).locals["cow_probe"] = 789
    state.sync.mutex_mut(next(iter(state.sync.mutexes))).waiters.append(99)


class TestCopyOnWrite:
    def test_clone_shares_untouched_containers(self):
        _, state = _running_state()
        clone = state.clone()
        assert clone.memory._globals is state.memory._globals
        assert clone.memory._arrays is state.memory._arrays
        assert clone.memory._heap is state.memory._heap
        assert clone.sync.mutexes is state.sync.mutexes
        assert clone.output_log is state.output_log
        for tid in state.threads:
            assert clone.threads[tid] is state.threads[tid]
            assert clone.threads[tid].frames is state.threads[tid].frames

    def test_mutation_materializes_only_the_touched_container(self):
        _, state = _running_state()
        clone = state.clone()
        name = next(iter(state.memory._globals))
        before = clone.counters.cow_copies
        clone.memory.store_global(name, 123)
        # Exactly the globals dict was copied; arrays, heap and sync stay
        # shared, and the parent still sees the pre-write value container.
        assert clone.memory._globals is not state.memory._globals
        assert clone.memory._arrays is state.memory._arrays
        assert clone.memory._heap is state.memory._heap
        assert clone.sync.mutexes is state.sync.mutexes
        assert clone.counters.cow_copies == before + 1
        assert state.memory.load_global(name) != 123

    def test_thread_mut_materializes_one_thread_lazily(self):
        _, state = _running_state()
        clone = state.clone()
        tids = sorted(clone.threads)
        target = tids[0]
        thread = clone.thread_mut(target)
        assert clone.threads[target] is thread
        assert thread is not state.threads[target]
        # Only the requested thread was copied.
        for tid in tids[1:]:
            assert clone.threads[tid] is state.threads[tid]
        # The parent's view of the copied thread is untouched.
        thread.held_mutexes.append("only-in-the-clone")
        assert "only-in-the-clone" not in state.threads[target].held_mutexes

    def test_frame_mut_materializes_one_frame(self):
        _, state = _running_state()
        clone = state.clone()
        tid = sorted(tid for tid, t in clone.threads.items() if t.frames)[0]
        frame = clone.frame_mut(tid)
        assert clone.threads[tid].frames[-1] is frame
        assert frame is not state.threads[tid].frames[-1]

    def test_sync_materializes_whole_layer_once(self):
        _, state = _running_state()
        clone = state.clone()
        before = clone.counters.cow_copies
        mutex_name = next(iter(clone.sync.mutexes))
        first = clone.sync.mutex_mut(mutex_name)
        second = clone.sync.mutex_mut(mutex_name)
        assert first is second
        assert clone.sync.mutexes is not state.sync.mutexes
        assert clone.counters.cow_copies == before + 1

    def test_clone_writes_never_reach_the_parent(self):
        _, state = _running_state()
        before = _state_image(state)
        clone = state.clone()
        _write_every_layer(clone)
        assert _state_image(clone) != before
        assert _state_image(state) == before

    def test_parent_writes_never_reach_the_clone(self):
        # Ownership is dropped on both sides of a fork, so the parent's
        # next write copies too instead of mutating the shared container.
        _, state = _running_state()
        clone = state.clone()
        before = _state_image(clone)
        _write_every_layer(state)
        assert _state_image(state) != before
        assert _state_image(clone) == before

    def test_fork_counter_counts_symbolic_forks(self):
        workload = load_workload("bbuf")
        executor = Executor(workload.program)
        state = executor.initial_state(concrete_inputs=dict(workload.inputs))
        executor.run(state)
        assert executor.counters.statements == state.step_count
        assert executor.counters.forks == 0  # concrete run: no symbolic branches
