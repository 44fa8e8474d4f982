"""Tests for the shared primary replay of :mod:`repro.core.alternate`.

:func:`replay_primary` answers every race of a trace from one replay pass
per (trace, effective inputs, locator mode, budget, predicates, loop bound);
:func:`replay_primary_per_race` replays one race alone from the initial
state, exactly as every race used to, and is the oracle here:

* **equivalence** -- for every race of every registry workload, the shared
  result equals the per-race replay (pre-race
  checkpoint, post-race snapshot, steps, divergence, final state), also
  under different concrete inputs, with the stateful semantic-predicate
  checker, and beside a race whose first access is a synchronisation
  statement;
* **hazards** -- a step budget too small for the pass takes the per-race
  fallback and yields the verdicts of per-race replay, classification never
  mutates the shared final state, alternates count their statements on the
  executor that runs them, and fresh pool workers start with an empty memo.
"""


import pytest

from repro.core import alternate
from repro.core.alternate import (
    replay_primary,
    replay_primary_per_race,
    reset_replay_memo,
    run_alternate,
)
from repro.core.config import PortendConfig
from repro.core.portend import Portend
from repro.engine.tasks import pool_worker_initializer
from repro.lang.ast import SYNC_STMTS, add, eq, glob, local
from repro.lang.builder import ProgramBuilder
from repro.workloads import all_workload_names, load_workload


@pytest.fixture(autouse=True)
def _empty_memo():
    reset_replay_memo()
    yield
    reset_replay_memo()


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
        replay.diverged,
        replay.post_race_snapshot,
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
    for race in trace.races:
        kwargs = dict(
            concrete_inputs=inputs,
            predicates=portend.predicates,
            max_steps=portend.config.max_steps_per_execution,
            use_steps=use_steps,
        )
        shared = replay_primary(portend.executor, portend.program, trace, race, **kwargs)
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


def _per_race_classification(monkeypatch, portend, trace):
    """Classify with every stage replaying each race alone."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.core.single_pre_post.replay_primary", replay_primary_per_race)
        patch.setattr("repro.core.multi_path.replay_primary", replay_primary_per_race)
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
        reached = [
            replay_primary(
                portend.executor, portend.program, trace, race,
                concrete_inputs={"gate": 0}, use_steps=False,
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

        reset_replay_memo()
        monkeypatch.setattr(alternate, "replay_primary_per_race", counting)
        assert _classified(portend, trace) == expected
        assert set(fallbacks) == {race.race_id for race in trace.races}
        assert all(book.final_state is None for book in alternate._REPLAY_MEMO.values())

    def test_semantic_classification_matches_per_race_replay(self, monkeypatch):
        _workload, portend, trace = _portend("fmm", semantic=True)
        expected = _per_race_classification(monkeypatch, portend, trace)
        reset_replay_memo()
        assert _classified(portend, trace) == expected

    def test_classification_leaves_shared_final_state_alone(self):
        _workload, portend, trace = _portend("pbzip2")
        first, second = trace.races[0], trace.races[1]
        replay = replay_primary(
            portend.executor, portend.program, trace, first,
            predicates=portend.predicates,
            max_steps=portend.config.max_steps_per_execution,
        )
        before = _replay_view(replay)
        portend.classify_trace(trace)
        again = replay_primary(
            portend.executor, portend.program, trace, second,
            predicates=portend.predicates,
            max_steps=portend.config.max_steps_per_execution,
        )
        assert again.final_state is replay.final_state
        assert _replay_view(replay) == before

    def test_alternate_counts_on_the_running_executor(self):
        _workload, builder, trace = _portend("RW")
        race = trace.races[0]
        primary = replay_primary(builder.executor, builder.program, trace, race)
        runner = Portend(builder.program)
        built = builder.executor.counters.statements
        run_alternate(runner.executor, runner.program, trace, race, primary, 1_000)
        assert builder.executor.counters.statements == built
        assert runner.executor.counters.statements > 0

    def test_memo_is_bounded(self):
        _workload, portend, trace = _portend("bbuf")
        race = trace.races[0]
        for value in range(alternate._REPLAY_MEMO_LIMIT + 3):
            replay_primary(
                portend.executor, portend.program, trace, race,
                concrete_inputs={"quiet_producers": value}, use_steps=False,
            )
        assert len(alternate._REPLAY_MEMO) == alternate._REPLAY_MEMO_LIMIT

    def test_pool_worker_initializer_empties_the_memo(self):
        _workload, portend, trace = _portend("RW")
        replay_primary(portend.executor, portend.program, trace, trace.races[0])
        assert alternate._REPLAY_MEMO
        pool_worker_initializer()
        assert not alternate._REPLAY_MEMO
