"""Tests for the shared primary replay of :mod:`repro.core.alternate`.

:func:`replay_primary` answers every race of a trace from one replay pass
per (trace, program, effective inputs, locator mode, budget, predicates,
loop bound);
:func:`replay_primary_per_race` replays one race alone from the initial
state, exactly as every race used to, and is the oracle here:

* **equivalence** -- for every race of every registry workload, the shared
  result equals the per-race replay (pre-race
  checkpoint, post-race snapshot, steps, final state), also
  under different concrete inputs, with the stateful semantic-predicate
  checker, and beside a race whose first access is a synchronisation
  statement;
* **hazards** -- a step budget too small for the pass takes the per-race
  fallback and yields the verdicts of per-race replay, classification never
  mutates the shared final state, alternates count their statements on the
  executor that runs them, a pass of one program never answers a race
  replayed on another (each pair has its own context, and so its own
  memo), and fresh pool workers start with no loaded context;
* **bounds** -- a memo keeps one race's working set of passes (its Mp
  primaries plus the recorded inputs), so a serial ``stress_deep`` pass
  builds each of its 6 passes once;
* **no process memo** -- the memo is an argument, so the facade's serial
  pass executes the engine's serial statement count, and no module of
  ``repro`` keeps a memo in a global.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.core import alternate
from repro.core.alternate import (
    replay_primary,
    replay_primary_per_race,
    run_alternate,
)
from repro.core.config import PortendConfig
from repro.core.portend import Portend
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine import tasks
from repro.engine.tasks import (
    ContextSpool,
    TraceContext,
    execute_task,
    pool_worker_initializer,
)
from repro.lang.ast import SYNC_STMTS, add, eq, glob, local
from repro.lang.builder import ProgramBuilder
from repro.record_replay.memo import TraceMemo
from repro.workloads import all_workload_names, all_workloads, load_workload
from repro.workloads.memcached import build_memcached
from test_spin_cutoff import _frozen


def _state_view(state):
    """Everything observable about an execution state."""
    threads = {}
    for tid, thread in state.threads.items():
        stmt = thread.next_statement()
        threads[tid] = (str(thread.status), stmt.pc if stmt is not None else None)
    return (
        state.step_count,
        state.memory.snapshot(),
        threads,
        state.current_tid,
        state.outcome,
        [repr(record) for record in state.output_log],
    )


def _replay_view(replay):
    checkpoint = replay.pre_race_checkpoint
    return (
        replay.reached_race,
        replay.steps,
        _frozen(replay.post_race_snapshot),
        None if checkpoint is None else _state_view(checkpoint),
        _state_view(replay.final_state),
    )


def _portend(name, interp="tree", semantic=False):
    workload = load_workload(name)
    predicates = list(workload.predicates)
    if semantic:
        predicates += list(workload.semantic_predicates)
    portend = Portend(
        workload.program, config=PortendConfig(interp=interp), predicates=predicates
    )
    return workload, portend, portend.record(inputs=dict(workload.inputs))


def _assert_matches_oracle(portend, trace, inputs=None, use_steps=True):
    memo = TraceMemo()
    for race in trace.races:
        kwargs = dict(
            concrete_inputs=inputs,
            predicates=portend.predicates,
            max_steps=portend.config.max_steps_per_execution,
            use_steps=use_steps,
        )
        shared = replay_primary(
            portend.executor, portend.program, trace, race, memo=memo, **kwargs
        )
        oracle = replay_primary_per_race(
            portend.executor, portend.program, trace, race, **kwargs
        )
        assert _replay_view(shared) == _replay_view(oracle), race.race_id


def _classified(portend, trace):
    result = portend.classify_trace(trace)
    return [
        {k: v for k, v in item.to_dict().items() if k != "analysis_seconds"}
        for item in result.classified
    ]


def _replay_alone(*args, memo, primaries, **kwargs):
    """:func:`replay_primary_per_race` at a stage's call site: it keeps no
    passes, so it takes no memo and no working-set size."""
    return replay_primary_per_race(*args, **kwargs)


def _per_race_classification(monkeypatch, portend, trace):
    """Classify with every stage replaying each race alone."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.single_pre_post.replay_primary", _replay_alone)
        patch.setattr("repro.core.multi_path.replay_primary", _replay_alone)
        return _classified(portend, trace)


class TestSharedPassEquivalence:
    # one interpreter; the parameter keeps the "-tree" suffix of these ids
    @pytest.mark.parametrize("interp", ["tree"])
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_every_race_matches_per_race_replay(self, name, interp):
        _workload, portend, trace = _portend(name, interp)
        _assert_matches_oracle(portend, trace)

    @pytest.mark.parametrize("name", ["ocean", "pbzip2", "ctrace", "bbuf", "stress_deep"])
    def test_input_variants_match_per_race_replay(self, name):
        # The multi-path primaries of §3.3: other inputs, located by the
        # first dynamic occurrence of each racing (tid, pc).
        workload, portend, trace = _portend(name)
        for inputs in (
            {key: 0 for key in workload.inputs},
            {key: value + 1 for key, value in workload.inputs.items()},
        ):
            _assert_matches_oracle(portend, trace, inputs=inputs, use_steps=False)

    def test_unreached_race_matches_per_race_replay(self):
        # ``gate`` decides whether the writers touch ``gated``; ``plain``
        # races either way, so one pass reaches one race and misses the other.
        b = ProgramBuilder("gated")
        b.global_var("gate", 0)
        b.global_var("gated", 0)
        b.global_var("plain", 0)
        writer = b.function("writer")
        with writer.if_(eq(glob("gate"), 1)):
            writer.assign(glob("gated"), 1)
        writer.assign(glob("plain"), 1)
        writer.ret()
        main = b.function("main")
        main.input("g", "gate", 0, 1, default=1)
        main.assign(glob("gate"), local("g"))
        main.spawn("t1", "writer")
        main.spawn("t2", "writer")
        main.join(local("t1"))
        main.join(local("t2"))
        main.output("stdout", [glob("gated"), glob("plain")])
        main.ret()
        portend = Portend(b.build())
        trace = portend.record(inputs={"gate": 1})
        assert len(trace.races) == 2

        _assert_matches_oracle(portend, trace, inputs={"gate": 0}, use_steps=False)
        memo = TraceMemo()
        reached = [
            replay_primary(
                portend.executor, portend.program, trace, race,
                concrete_inputs={"gate": 0}, use_steps=False, memo=memo,
            ).reached_race
            for race in trace.races
        ]
        assert sorted(reached) == [False, True]

    def test_sync_first_access_leaves_other_races_on_the_recorded_schedule(self):
        # main's Spawn reads ``x`` before the writer stores it: a race whose
        # first access is a synchronisation statement.  Stopping the shared
        # pass before it would consume a second recorded decision on resume
        # and derail every other race of the trace.
        b = ProgramBuilder("spawn_arg")
        b.global_var("x", 0)
        b.global_var("y", 0)
        b.mutex("mu")
        writer = b.function("writer")
        writer.yield_()
        writer.yield_()
        writer.assign(glob("x"), 1)
        writer.assign(glob("y"), 2)
        writer.ret()
        reader = b.function("reader", params=["v"])
        reader.assign(glob("y"), add(glob("y"), local("v")))
        reader.ret()
        main = b.function("main")
        main.spawn("t1", "writer")
        main.spawn("t2", "reader", args=[glob("x")])
        main.lock("mu")
        main.assign(glob("y"), glob("x"))
        main.unlock("mu")
        main.join(local("t1"))
        main.join(local("t2"))
        main.output("stdout", [glob("x"), glob("y")])
        main.ret()
        portend = Portend(b.build())
        trace = portend.record()
        assert any(
            isinstance(portend.program.statement_at(race.first.pc), SYNC_STMTS)
            for race in trace.races
        )
        _assert_matches_oracle(portend, trace)

    def test_semantic_predicates_match_per_race_replay(self):
        _workload, portend, trace = _portend("fmm", semantic=True)
        assert len(portend.predicates) > len(load_workload("fmm").predicates)
        _assert_matches_oracle(portend, trace)


class TestSharedPassHazards:
    def test_small_budget_falls_back_with_per_race_verdicts(self, monkeypatch):
        _workload, recorder, trace = _portend("memcached")
        steps = replay_primary_per_race(
            recorder.executor, recorder.program, trace, trace.races[0]
        ).steps
        config = PortendConfig(max_steps_per_execution=steps * 2 // 3)
        portend = Portend(recorder.program, config=config, predicates=recorder.predicates)

        expected = _per_race_classification(monkeypatch, portend, trace)
        fallbacks = []

        def counting(*args, **kwargs):
            fallbacks.append(args[3].race_id)
            return replay_primary_per_race(*args, **kwargs)

        memos = []
        classify_race = Portend.classify_race

        def keeping(self, trace, race, memo=None):
            memos.append(memo)
            return classify_race(self, trace, race, memo=memo)

        monkeypatch.setattr(alternate, "replay_primary_per_race", counting)
        monkeypatch.setattr(Portend, "classify_race", keeping)
        assert _classified(portend, trace) == expected
        assert set(fallbacks) == {race.race_id for race in trace.races}
        # One memo for the call's races, holding only passes that fell back.
        (memo,) = {id(memo): memo for memo in memos}.values()
        books = memo.replays.values()
        assert books and all(book.final_state is None for book in books)

    def test_semantic_classification_matches_per_race_replay(self, monkeypatch):
        _workload, portend, trace = _portend("fmm", semantic=True)
        expected = _per_race_classification(monkeypatch, portend, trace)
        assert _classified(portend, trace) == expected

    def test_classification_leaves_shared_final_state_alone(self):
        _workload, portend, trace = _portend("pbzip2")
        first, second = trace.races[0], trace.races[1]
        memo = TraceMemo()
        replay = replay_primary(
            portend.executor, portend.program, trace, first,
            predicates=portend.predicates,
            max_steps=portend.config.max_steps_per_execution,
            memo=memo,
        )
        before = _replay_view(replay)
        for race in trace.races:
            portend.classify_race(trace, race, memo=memo)
        again = replay_primary(
            portend.executor, portend.program, trace, second,
            predicates=portend.predicates,
            max_steps=portend.config.max_steps_per_execution,
            memo=memo,
        )
        assert again.final_state is replay.final_state
        assert _replay_view(replay) == before

    def test_alternate_counts_on_the_running_executor(self):
        _workload, builder, trace = _portend("RW")
        race = trace.races[0]
        primary = replay_primary(
            builder.executor, builder.program, trace, race, memo=TraceMemo()
        )
        runner = Portend(builder.program)
        built = builder.executor.counters.statements
        run_alternate(runner.executor, runner.program, trace, race, primary, 1_000, enforced={})
        assert builder.executor.counters.statements == built
        assert runner.executor.counters.statements > 0

    def test_memo_is_bounded(self):
        # A memo keeps one race's working set of passes: its primaries plus
        # the recorded inputs.
        workload, portend, trace = _portend("bbuf")
        race = trace.races[0]
        memo = TraceMemo()
        for primaries in (1, 3):
            for value in range(primaries + 4):
                replay_primary(
                    portend.executor, portend.program, trace, race,
                    concrete_inputs={"quiet_producers": value}, use_steps=False,
                    primaries=primaries, memo=memo,
                )
            assert len(memo.replays) == primaries + 1
        # Another trace's context has a memo of its own.
        other = TraceContext(
            portend.record(inputs=dict(workload.inputs)),
            portend.config,
            portend.program,
            tuple(portend.predicates),
        )
        replay_primary(
            portend.executor, portend.program, other.trace, other.trace.races[0],
            memo=other.memo,
        )
        assert len(other.memo.replays) == 1
        assert len(memo.replays) == 4

    def test_pass_of_another_program_is_not_served(self):
        # A what-if variant classified against the same trace: its context
        # is another (trace, program) pair, so its races replay on its own
        # program, never from the first program's pass.
        _workload, portend, trace = _portend("memcached")
        variant = Portend(
            build_memcached(remove_slab_lock=True).program,
            config=portend.config,
            predicates=portend.predicates,
        )
        contexts = [
            TraceContext(trace, runner.config, runner.program, tuple(runner.predicates))
            for runner in (portend, variant)
        ]
        for race in trace.races:
            replay_primary(
                portend.executor, portend.program, trace, race, memo=contexts[0].memo
            )
        assert contexts[0].memo.replays and not contexts[1].memo.replays
        differs = 0
        for race in trace.races:
            shared = replay_primary(
                variant.executor, variant.program, trace, race, memo=contexts[1].memo
            )
            oracle = replay_primary_per_race(
                variant.executor, variant.program, trace, race
            )
            assert _replay_view(shared) == _replay_view(oracle), race.race_id
            first = replay_primary_per_race(
                portend.executor, portend.program, trace, race
            )
            differs += _replay_view(first) != _replay_view(oracle)
        assert differs > 0

    def test_a_races_input_vectors_do_not_evict_each_other(self, monkeypatch):
        # Every stress_deep race replays the recorded inputs and 5 multi-path
        # primaries, the same 6 vectors for all 12 races: one pass each.  A
        # memo that cycles them rebuilds 6 passes per race (72).
        built = []
        build = alternate._replay_book

        def counting(executor, trace, *args):
            built.append(trace.program)
            return build(executor, trace, *args)

        monkeypatch.setattr(alternate, "_replay_book", counting)
        AnalysisEngine(options=EngineOptions(parallel=0)).analyze_workloads(
            [load_workload("stress_deep")]
        )
        assert built == ["stress_deep"] * 6

    def test_pool_worker_initializer_empties_the_memo(self, tmp_path, monkeypatch):
        # A worker's memo is that of its loaded context: the initializer
        # drops the context, and a reload starts with an empty memo.
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        workload, portend, trace = _portend("RW")
        spool = ContextSpool()
        path = spool.write(
            TraceContext(trace, portend.config, portend.program, tuple(portend.predicates))
        )
        payload = {"workload": "RW", "race_id": trace.races[0].race_id, "spool": path}
        try:
            execute_task(payload)
            loaded = tasks._CONTEXT[1]
            assert tasks._CONTEXT[0] == path and loaded.memo.replays
            pool_worker_initializer()
            assert tasks._CONTEXT is None
            assert not tasks._spooled_context(path).memo.replays
        finally:
            tasks.reset_context_memo()
            spool.remove()


class TestNoProcessMemo:
    def test_facade_executes_the_serial_pin(self):
        # Each classify_trace call shares one memo among its races, exactly
        # as the engine's serial drain shares its context's.
        statements = 0
        for workload in all_workloads():
            portend = Portend(workload.program, predicates=workload.predicates)
            trace = portend.record(inputs=dict(workload.inputs))
            before = portend.executor.counters.statements
            portend.classify_trace(trace)
            statements += portend.executor.counters.statements - before
        assert statements == 10_872

    def test_the_only_process_globals(self):
        # The trace's shared work travels with its context: the only state
        # a process keeps across calls is the fault plan, the loaded
        # spooled context and the solver's cache default.
        root = Path(repro.__file__).parent
        assigned = set()
        for path in sorted(root.rglob("*.py")):
            module = ".".join(path.relative_to(root).with_suffix("").parts)
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Global):
                    assigned.update(f"{module}.{name}" for name in node.names)
        assert assigned == {
            "engine.faults._ACTIVE",
            "engine.tasks._CONTEXT",
            "symex.solver.CACHE_ENABLED_DEFAULT",
        }
