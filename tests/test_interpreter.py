"""Tests for the interpreter hot-path kernels.

Two halves, matching the runtime work they cover:

* **equivalence** -- the compiled dispatch kernel must be bit-identical to
  the tree walker on every registry workload: same traces, same verdicts
  (including prune diagnostics), same folded event stats, same interpreter
  counters, and the same merged results under adversarially shuffled
  pool-completion order;
* **copy-on-write** -- ``ExecutionState.clone`` must share untouched
  containers with the fork and materialize only what is actually mutated
  afterwards, with every materialization counted.
"""

import dataclasses
import random

import pytest

from repro.core.config import PortendConfig
from repro.core.portend import Portend
from repro.engine import AnalysisEngine, EngineOptions, PoolDispatcher
from repro.engine.events import fold_events
from repro.runtime.compile import (
    INTERP_MODES,
    CompiledExecutor,
    compiled_program_for,
    create_executor,
    reset_compiled_cache,
)
from repro.runtime.executor import Executor
from repro.workloads import all_workload_names, load_workload

from test_streaming import NAMES, _DeferredPool, _full_signature, _shuffled_wait


def _analysis_outcome(name, interp):
    """Everything one workload's serial analysis produces, minus timing."""
    workload = load_workload(name)
    config = PortendConfig(interp=interp)
    portend = Portend(workload.program, config=config, predicates=workload.predicates)
    trace = portend.record(inputs=dict(workload.inputs))
    result = portend.classify_trace(trace)
    classified = [
        {
            key: value
            for key, value in item.to_dict().items()
            if key != "analysis_seconds"
        }
        for item in result.classified
    ]
    counters = portend.executor.counters
    return {
        "trace": trace.to_dict(),
        "classified": classified,
        "prune_reasons": [
            sorted(item.prune_reasons) for item in result.classified
        ],
        "counters": counters.to_dict(),
    }


class TestCompiledEquivalence:
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_every_registry_workload_is_bit_identical(self, name):
        tree = _analysis_outcome(name, "tree")
        compiled = _analysis_outcome(name, "compiled")
        assert tree["trace"] == compiled["trace"], name
        assert tree["classified"] == compiled["classified"], name
        assert tree["prune_reasons"] == compiled["prune_reasons"], name
        # Bit-identity extends to the interpreter's own accounting: the
        # compiled kernel executes the same statements, takes the same
        # forks and materializes the same COW copies.
        assert tree["counters"] == compiled["counters"], name

    def test_engine_folded_stats_match_across_kernels(self):
        names = ["bbuf", "RW"]
        summaries = {}
        for interp in INTERP_MODES:
            engine = AnalysisEngine(
                config=PortendConfig(interp=interp),
                options=EngineOptions(granularity="race"),
            )
            runs = engine.analyze(names)
            # Compare the folded counters minus the wall-clock fields: the
            # overlap clocks measure real elapsed time, which pooled runs
            # (REPRO_PARALLEL is honored here) cannot reproduce exactly.
            folded = dataclasses.asdict(fold_events(engine.last_run_events))
            counters = {
                key: value
                for key, value in folded.items()
                if "seconds" not in key
            }
            summaries[interp] = (_full_signature(runs), counters)
        assert summaries["tree"] == summaries["compiled"]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_shuffled_completion_under_compiled_interp(self, monkeypatch, seed):
        # The fake-pool harness from the streaming tests, run with the
        # compiled kernel: futures complete in shuffled order and the merge
        # must still be bit-identical to the serial tree reference.
        reference = AnalysisEngine(
            options=EngineOptions(granularity="race")
        ).analyze(NAMES)
        rng = random.Random(seed)
        pool = _DeferredPool()
        monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
        monkeypatch.setattr(PoolDispatcher, "acquire_for", lambda self, payloads: pool)
        monkeypatch.setattr("repro.engine.engine.wait", _shuffled_wait(pool, rng))
        shuffled = AnalysisEngine(
            config=PortendConfig(interp="compiled"),
            options=EngineOptions(parallel=2, granularity="path"),
        ).analyze(NAMES)
        assert not pool.pending
        assert _full_signature(reference) == _full_signature(shuffled)

    def test_create_executor_modes(self):
        program = load_workload("bbuf").program
        assert type(create_executor(program, "tree")) is Executor
        assert isinstance(create_executor(program, "compiled"), CompiledExecutor)
        with pytest.raises(ValueError):
            create_executor(program, "jit")

    def test_compiled_programs_are_shared_by_fingerprint(self):
        # The registry rebuilds a fresh Program per load; the compiled table
        # must be compiled once and reused across instances via the content
        # fingerprint.
        reset_compiled_cache()
        first = compiled_program_for(load_workload("bbuf").program)
        second = compiled_program_for(load_workload("bbuf").program)
        assert first is second
        reset_compiled_cache()
        third = compiled_program_for(load_workload("bbuf").program)
        assert third is not first

    def test_interp_is_excluded_from_classification_fingerprint(self):
        tree = PortendConfig(interp="tree").classification_fingerprint()
        compiled = PortendConfig(interp="compiled").classification_fingerprint()
        assert tree == compiled
        assert "interp" not in tree


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


def _running_state(interp="tree", steps=40):
    """A mid-execution state of a workload with threads, sync and memory."""
    workload = load_workload("bbuf")
    executor = create_executor(workload.program, interp=interp)
    state = executor.initial_state(concrete_inputs=dict(workload.inputs))
    executor.run(state, max_steps=steps)
    return executor, state


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
        assert state.threads[target].steps == thread.steps

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

    def test_clone_eager_shares_nothing(self):
        _, state = _running_state()
        eager = state.clone_eager()
        assert eager.memory._globals is not state.memory._globals
        assert eager.memory._arrays is not state.memory._arrays
        assert eager.sync.mutexes is not state.sync.mutexes
        assert eager.output_log is not state.output_log
        for tid in state.threads:
            assert eager.threads[tid] is not state.threads[tid]

    def test_fork_counter_counts_symbolic_forks(self):
        workload = load_workload("bbuf")
        executor = create_executor(workload.program)
        state = executor.initial_state(concrete_inputs=dict(workload.inputs))
        executor.run(state)
        assert executor.counters.statements == state.step_count
        assert executor.counters.forks == 0  # concrete run: no symbolic branches
