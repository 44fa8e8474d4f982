"""Tests for the shared multi-path search of :mod:`repro.explore.paths`.

:meth:`MultiPathExplorer.explore` walks one lazily extended breadth-first
search per (trace, program, symbolic inputs, step bound, executor and solver
configuration); :meth:`MultiPathExplorer.explore_per_race` runs one race's
search alone, exactly as every race used to, and is the oracle here:

* **equivalence** -- for every registry race whose single stage needs paths,
  the shared walk yields the oracle's primaries, state counts and prune
  reasons, whichever race extends the search first, also under the tightest
  stop rules (``max_states=1``, ``max_primaries=1``);
* **solver parity** -- every explorer issues the oracle's solver queries:
  equal stats and ``solver_query`` event sequences on a worker cache;
* **hazards** -- prune reasons number states by pop order, so they do not
  depend on process history; statements count on the executor that runs
  them; a race outside ``trace.races`` takes the per-race search; the memo
  is bounded and starts empty in every engine run and pool worker.
"""

import dataclasses
import random

import pytest

from repro.core import Portend, PortendConfig
from repro.core.classifier import needs_multipath, run_single_stage
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine.tasks import pool_worker_initializer
from repro.explore import paths
from repro.explore.paths import MultiPathExplorer, reset_explore_memo
from repro.lang.ast import eq, glob, local
from repro.lang.builder import ProgramBuilder
from repro.runtime.executor import Executor
from repro.symex.solver import Solver, WorkerSolverCache
from repro.workloads import Workload, all_workload_names, load_workload


@pytest.fixture(autouse=True)
def _empty_memo():
    reset_explore_memo()
    yield
    reset_explore_memo()


@pytest.fixture(scope="module")
def path_races():
    """``(workload, trace, races)`` for every registry trace with a race
    whose single stage needs paths (the races the engine explores)."""
    config = PortendConfig()
    cases = []
    for name in all_workload_names(include_synthetic=True):
        workload = load_workload(name)
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)
        races = [
            race
            for race in trace.races
            if needs_multipath(
                run_single_stage(
                    portend.executor, portend.program, trace, race, config,
                    predicates=portend.predicates,
                ),
                config,
            )
        ]
        if races:
            cases.append((workload, trace, races))
    assert sum(len(races) for _w, _t, races in cases) == 196
    return cases


def _explorer(workload, trace, race, config, solver=None):
    """An explorer on a fresh executor, as each engine task builds one."""
    portend = Portend(workload.program, config=config, solver=solver)
    return MultiPathExplorer.for_config(
        portend.executor, portend.program, trace, race, config
    )


def _shared_only(explorer):
    """The explorer, with the per-race fallback of ``explore`` disabled."""

    def fallback():
        raise AssertionError(f"race {explorer.race.race_id} left the shared search")

    explorer.explore_per_race = fallback
    return explorer


def _primary(path):
    """Every field of a primary, its path condition as its constraints."""
    return (
        path.index,
        path.path_condition.constraints,
        path.path_condition.infeasible,
        tuple(path.symbolic_outputs),
        dict(path.concrete_inputs),
        path.diverged_after_race,
        path.race_reached_step,
        path.symbolic_branches,
        path.outcome,
    )


def _view(explorer, primaries):
    return (
        [_primary(path) for path in primaries],
        explorer.states_explored,
        explorer.states_pruned,
        explorer.prune_reasons,
    )


def _ordered(races, order):
    if order == "forward":
        return list(races)
    if order == "reversed":
        return list(reversed(races))
    shuffled = list(races)
    random.Random(18).shuffle(shuffled)
    return shuffled


class TestSharedSearchEquivalence:
    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    @pytest.mark.parametrize(
        "config",
        [PortendConfig(), PortendConfig(max_explored_states=1), PortendConfig(mp=1)],
        ids=["default", "max_states=1", "max_primaries=1"],
    )
    def test_every_path_race_matches_per_race_search(self, path_races, config, order):
        for workload, trace, races in path_races:
            reset_explore_memo()
            for race in _ordered(races, order):
                shared = _shared_only(_explorer(workload, trace, race, config))
                oracle = _explorer(workload, trace, race, config)
                assert _view(shared, shared.explore()) == _view(
                    oracle, oracle.explore_per_race()
                ), (workload.name, race.race_id)

    @pytest.mark.parametrize("order", ["forward", "shuffled"])
    def test_solver_queries_match_per_race_search(self, path_races, order):
        # Both sides attach every explorer's solver to one worker cache
        # each, as pool tasks do: the shared walk's re-issued queries must
        # be the cache hits the oracle's repeated search makes.
        config = PortendConfig()
        for workload, trace, races in path_races:
            reset_explore_memo()
            caches = {"shared": WorkerSolverCache(), "oracle": WorkerSolverCache()}
            for race in _ordered(races, order):
                seen = {}
                for side, cache in caches.items():
                    events = []
                    solver = Solver(shared_cache=cache, event_sink=events.append)
                    explorer = _explorer(workload, trace, race, config, solver=solver)
                    if side == "shared":
                        _shared_only(explorer).explore()
                    else:
                        explorer.explore_per_race()
                    stats = solver.stats.to_dict()
                    stats.pop("seconds")
                    queries = [
                        {k: v for k, v in event.items() if k != "seconds"}
                        for event in events
                    ]
                    seen[side] = (stats, queries)
                assert seen["shared"] == seen["oracle"], (workload.name, race.race_id)


def _moded_writer():
    """Two writers whose racing store is guarded by the symbolic ``mode``."""
    b = ProgramBuilder("moded_writer")
    b.global_var("mode", 0)
    b.global_var("x", 0)
    writer = b.function("writer")
    with writer.if_(eq(glob("mode"), 1)):
        writer.assign(glob("x"), 1)
    writer.ret()
    main = b.function("main")
    main.input("m", "mode", 0, 1, default=1)
    main.assign(glob("mode"), local("m"))
    main.spawn("t1", "writer")
    main.spawn("t2", "writer")
    main.join(local("t1"))
    main.join(local("t2"))
    main.output("stdout", [glob("x")])
    main.ret()
    return b.build()


def _verdicts(runs):
    return [
        {k: v for k, v in item.to_dict().items() if k != "analysis_seconds"}
        for run in runs
        for item in run.result.classified
    ]


class TestSharedSearchHazards:
    def test_prune_reasons_do_not_depend_on_process_history(self):
        portend = Portend(_moded_writer())
        trace = portend.record(inputs={"mode": 1})
        (race,) = trace.races
        config = PortendConfig()
        reasons = []
        for _ in range(2):
            reset_explore_memo()
            explorer = MultiPathExplorer.for_config(
                portend.executor, portend.program, trace, race, config
            )
            explorer.explore()
            reasons.append(explorer.prune_reasons)
        assert reasons[0] == reasons[1] == [
            "state 2: path never exercised the target race"
        ]

    def test_pruned_verdicts_match_serial_and_pooled(self):
        workload = Workload(
            name="moded_writer", program=_moded_writer(), inputs={"mode": 1}
        )
        serial, pooled = (
            _verdicts(
                AnalysisEngine(options=EngineOptions(parallel=parallel)).analyze_workloads(
                    [workload]
                )
            )
            for parallel in (0, 2)
        )
        assert serial[0]["prune_reasons"]
        assert serial == pooled

    def test_statements_count_on_the_running_executor(self):
        workload = load_workload("bbuf")
        portend = Portend(workload.program)
        trace = portend.record(workload.inputs)
        race = trace.races[0]
        first = _explorer(workload, trace, race, PortendConfig(mp=1))
        first.explore()
        ran = first.executor.counters.statements
        assert ran > 0
        second = _explorer(workload, trace, race, PortendConfig(mp=1))
        second.explore()
        assert second.executor.counters.statements == 0
        third = _explorer(workload, trace, race, PortendConfig())
        third.explore()
        assert first.executor.counters.statements == ran
        assert third.executor.counters.statements > 0

    def test_race_outside_the_trace_takes_the_per_race_search(self, monkeypatch):
        workload = load_workload("bbuf")
        portend = Portend(workload.program)
        trace = portend.record(workload.inputs)
        race = trace.races[0]
        swapped = dataclasses.replace(race, first=race.second, second=race.first)
        assert paths._watch(swapped) not in {paths._watch(r) for r in trace.races}
        expected_explorer = _explorer(workload, trace, swapped, PortendConfig())
        expected = _view(expected_explorer, expected_explorer.explore_per_race())

        fallbacks = []
        per_race = MultiPathExplorer.explore_per_race

        def counting(explorer):
            fallbacks.append(explorer.race)
            return per_race(explorer)

        monkeypatch.setattr(MultiPathExplorer, "explore_per_race", counting)
        explorer = _explorer(workload, trace, swapped, PortendConfig())
        assert _view(explorer, explorer.explore()) == expected
        assert fallbacks == [swapped]

    def test_search_whose_run_raised_is_rebuilt(self, monkeypatch):
        workload = load_workload("bbuf")
        portend = Portend(workload.program)
        trace = portend.record(workload.inputs)
        race = trace.races[0]
        run = Executor.run

        def failing(self, *args, **kwargs):
            raise RuntimeError("injected")

        with monkeypatch.context() as patch:
            patch.setattr(Executor, "run", failing)
            with pytest.raises(RuntimeError):
                _explorer(workload, trace, race, PortendConfig()).explore()
        assert Executor.run is run
        shared = _explorer(workload, trace, race, PortendConfig())
        oracle = _explorer(workload, trace, race, PortendConfig())
        assert _view(shared, shared.explore()) == _view(oracle, oracle.explore_per_race())

    def test_memo_is_bounded(self):
        workload = load_workload("bbuf")
        portend = Portend(workload.program)
        for _ in range(paths._EXPLORE_MEMO_LIMIT + 2):
            trace = portend.record(workload.inputs)
            _explorer(workload, trace, trace.races[0], PortendConfig()).explore()
        assert len(paths._EXPLORE_MEMO) == paths._EXPLORE_MEMO_LIMIT

    def test_back_to_back_engine_runs_start_empty(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze(["bbuf"])
        assert paths._EXPLORE_MEMO
        stale = object()
        paths._EXPLORE_MEMO["stale"] = stale
        engine.analyze(["bbuf"])
        assert "stale" not in paths._EXPLORE_MEMO
        assert len(paths._EXPLORE_MEMO) == 1

    def test_pool_worker_initializer_empties_the_memo(self):
        workload = load_workload("RW")
        portend = Portend(workload.program)
        trace = portend.record(workload.inputs)
        _explorer(workload, trace, trace.races[0], PortendConfig()).explore()
        assert paths._EXPLORE_MEMO
        pool_worker_initializer()
        assert not paths._EXPLORE_MEMO
