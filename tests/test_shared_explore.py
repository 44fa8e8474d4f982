"""Tests for the shared multi-path search of :mod:`repro.explore.paths`.

:meth:`MultiPathExplorer.explore` walks one lazily extended breadth-first
search per (symbolic inputs, step bound, executor and solver configuration),
kept in the trace memo the explorer is built with;
:func:`explore_per_race` runs one race's breadth-first search alone, exactly
as every race used to, and is the oracle here:

* **equivalence** -- for every registry race whose single stage needs paths,
  the shared walk yields the oracle's primaries, state counts and prune
  reasons, whichever race extends the search first, also under the tightest
  stop rules (``max_states=1``, ``max_primaries=1``);
* **solver cost** -- on a shared solver memo, each explorer misses, enumerates
  and answers UNKNOWN exactly as the oracle does, and issues no more
  queries (a state another explorer ran issues none);
* **hazards** -- prune reasons number states by pop order, so they do not
  depend on process history; statements count on the executor that runs
  them; a race outside ``trace.races`` walks a search of its own, memoised
  nowhere, and classifies as with the oracle; a memo belongs to the call or
  context that made it, so a trace classified before is unreachable, and
  nothing of it survives into the next engine run or a fresh pool worker.
"""

import dataclasses
import gc
import random
import weakref
from collections import deque

import pytest

from repro.core import Portend, PortendConfig
from repro.core.categories import RaceClass
from repro.core.classifier import classify_race, single_classify
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine import engine as engine_module
from repro.engine import tasks
from repro.engine.tasks import ContextSpool, TraceContext, pool_worker_initializer
from repro.explore import paths
from repro.explore.paths import MultiPathExplorer
from repro.lang.ast import add, eq, glob, local, lt
from repro.lang.builder import ProgramBuilder
from repro.record_replay.memo import TraceMemo
from repro.runtime.executor import Executor
from repro.symex.solver import Solver, SolverMemo
from repro.workloads import Workload, all_workload_names, load_workload


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
        memo = TraceMemo()
        races = [
            race
            for race in trace.races
            if single_classify(
                portend.executor, portend.program, trace, race, config,
                predicates=portend.predicates, enforced={}, memo=memo,
            ).verdict is RaceClass.OUTPUT_SAME
        ]
        if races:
            cases.append((workload, trace, races))
    assert sum(len(races) for _w, _t, races in cases) == 196
    return cases


def _explorer(workload, trace, race, config, memo, solver=None):
    """An explorer on a fresh executor and the trace's ``memo``, as each
    engine task builds one."""
    portend = Portend(workload.program, config=config, solver=solver)
    return MultiPathExplorer.for_config(
        portend.executor, portend.program, trace, race, config, memo=memo
    )


def explore_per_race(explorer):
    """The oracle: ``explorer``'s race searched alone, breadth first from the
    initial state, every state run on the explorer's executor under a
    tracker that watches this race only."""
    tracker = paths._RaceReachedTracker([explorer.race])
    worklist = deque([explorer._initial_state(explorer.symbolic_input_names())])
    primaries = []
    while worklist and len(primaries) < explorer.max_primaries:
        if explorer.states_explored >= explorer.max_states:
            break
        popped, forks = paths._run_popped(
            explorer.executor,
            explorer.trace,
            worklist.popleft(),
            tracker,
            explorer.max_steps_per_state,
        )
        worklist.extend(forks)
        explorer._consider(popped, primaries)
    return primaries


def _walked_the_memo(memo, trace):
    """Assert that the trace's races walked one search, memoised in ``memo``."""
    (search,) = memo.searches.values()
    assert search.trace is trace
    assert search.tracker.watches == {paths._watch(race) for race in trace.races}


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
            memo = TraceMemo()
            for race in _ordered(races, order):
                shared = _explorer(workload, trace, race, config, memo)
                oracle = _explorer(workload, trace, race, config, TraceMemo())
                assert _view(shared, shared.explore()) == _view(
                    oracle, explore_per_race(oracle)
                ), (workload.name, race.race_id)
            _walked_the_memo(memo, trace)

    @pytest.mark.parametrize("order", ["forward", "shuffled"])
    def test_solver_queries_match_per_race_search(self, path_races, order):
        # Both sides build every explorer's solver on one solver memo each,
        # as engine tasks do.  The oracle re-runs every state per race,
        # so its repeated queries are cache hits; the shared walk does not
        # issue them.  The work the solver does is the same race by race.
        config = PortendConfig()
        for workload, trace, races in path_races:
            memo = TraceMemo()
            memos = {"shared": SolverMemo(), "oracle": SolverMemo()}
            for race in _ordered(races, order):
                stats = {}
                for side, solver_memo in memos.items():
                    solver = Solver(memo=solver_memo)
                    explorer = _explorer(
                        workload, trace, race, config,
                        memo if side == "shared" else TraceMemo(), solver=solver,
                    )
                    if side == "shared":
                        explorer.explore()
                    else:
                        explore_per_race(explorer)
                    stats[side] = solver.stats
                shared, oracle = stats["shared"], stats["oracle"]
                where = (workload.name, race.race_id)
                assert shared.cache_misses == oracle.cache_misses, where
                assert shared.enumerated_assignments == oracle.enumerated_assignments, where
                assert shared.unknown_answers == oracle.unknown_answers, where
                assert shared.queries <= oracle.queries, where
            _walked_the_memo(memo, trace)


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


def _looped_writers():
    """Two writers that each add to ``x`` four times under the symbolic
    ``mode``, yielding between adds: swapping a race's accesses still gives
    a race the alternate can enforce, one that multi-path analysis
    explores."""
    b = ProgramBuilder("looped_writers")
    b.global_var("mode", 0)
    b.global_var("x", 0)
    writer = b.function("writer")
    writer.assign(local("i"), 0)
    with writer.while_(lt(local("i"), 4)):
        with writer.if_(eq(glob("mode"), 1)):
            writer.assign(glob("x"), add(glob("x"), 1))
        writer.yield_()
        writer.assign(local("i"), add(local("i"), 1))
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


def _swapped_race():
    """The looped writers' workload, trace and race, and that race with its
    accesses swapped: a report outside the trace."""
    workload = Workload(name="looped_writers", program=_looped_writers(), inputs={"mode": 1})
    trace = Portend(workload.program).record(workload.inputs)
    (race,) = trace.races
    swapped = dataclasses.replace(race, first=race.second, second=race.first)
    assert paths._watch(swapped) != paths._watch(race)
    return workload, trace, race, swapped


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
            explorer = MultiPathExplorer.for_config(
                portend.executor, portend.program, trace, race, config, memo=TraceMemo()
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
        memo = TraceMemo()
        first = _explorer(workload, trace, race, PortendConfig(mp=1), memo)
        first.explore()
        ran = first.executor.counters.statements
        assert ran > 0
        second = _explorer(workload, trace, race, PortendConfig(mp=1), memo)
        second.explore()
        assert second.executor.counters.statements == 0
        third = _explorer(workload, trace, race, PortendConfig(), memo)
        third.explore()
        assert first.executor.counters.statements == ran
        assert third.executor.counters.statements > 0

    def test_race_outside_the_trace_takes_the_per_race_search(self):
        workload, trace, race, swapped = _swapped_race()
        oracle = _explorer(workload, trace, swapped, PortendConfig(), TraceMemo())
        expected = _view(oracle, explore_per_race(oracle))
        assert expected[0] and expected[2]

        memo = TraceMemo()
        _explorer(workload, trace, race, PortendConfig(), memo).explore()
        searches = memo.searches
        (search,) = searches.values()
        kept, popped = dict(searches), len(search.popped)
        explorer = _explorer(workload, trace, swapped, PortendConfig(), memo)
        assert _view(explorer, explorer.explore()) == expected
        # It ran every state on its own executor, as the oracle did, and
        # neither extended a memoised search nor added one.
        ran = explorer.executor.counters.statements
        assert ran == oracle.executor.counters.statements > 0
        assert memo.searches == kept and len(search.popped) == popped

    def test_race_outside_the_trace_classifies_as_with_the_oracle(self, monkeypatch):
        workload, trace, _race, swapped = _swapped_race()
        portend = Portend(workload.program)
        memo = TraceMemo()

        def classified():
            item = classify_race(
                portend.executor, portend.program, trace, swapped, memo=memo
            )
            return {k: v for k, v in item.to_dict().items() if k != "analysis_seconds"}

        result = classified()
        explored = []

        def oracle(explorer):
            explored.append(explorer.race)
            return explore_per_race(explorer)

        monkeypatch.setattr(MultiPathExplorer, "explore", oracle)
        assert classified() == result
        assert explored == [swapped]
        assert result["stage"] == "multi-path/multi-schedule"
        assert not memo.searches

    def test_search_whose_run_raised_is_rebuilt(self, monkeypatch):
        workload = load_workload("bbuf")
        portend = Portend(workload.program)
        trace = portend.record(workload.inputs)
        race = trace.races[0]
        run = Executor.run

        def failing(self, *args, **kwargs):
            raise RuntimeError("injected")

        memo = TraceMemo()
        with monkeypatch.context() as patch:
            patch.setattr(Executor, "run", failing)
            with pytest.raises(RuntimeError):
                _explorer(workload, trace, race, PortendConfig(), memo).explore()
        assert Executor.run is run
        (broken,) = memo.searches.values()
        assert broken.broken
        shared = _explorer(workload, trace, race, PortendConfig(), memo)
        oracle = _explorer(workload, trace, race, PortendConfig(), TraceMemo())
        assert _view(shared, shared.explore()) == _view(oracle, explore_per_race(oracle))

    def test_a_trace_classified_before_is_unreachable(self, monkeypatch):
        # The facade's memo goes with its classify_trace call: once the
        # caller drops trace A, its trace, replay passes and search go too,
        # while a later call on trace B builds its own.
        workload = load_workload("bbuf")
        portend = Portend(workload.program, predicates=workload.predicates)
        memos = []
        classify_race = Portend.classify_race

        def noting(self, trace, race, memo=None):
            memos.append(memo)
            return classify_race(self, trace, race, memo=memo)

        monkeypatch.setattr(Portend, "classify_race", noting)
        first = portend.record(workload.inputs)
        portend.classify_trace(first, first.races[:1])
        (kept,) = memos
        assert kept.replays and kept.searches
        refs = [
            weakref.ref(held)
            for held in (first, kept, *kept.replays.values(), *kept.searches.values())
        ]
        del kept, first
        memos.clear()
        second = portend.record(workload.inputs)
        portend.classify_trace(second, second.races[:1])
        assert memos[0].searches
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_back_to_back_engine_runs_start_empty(self, monkeypatch):
        # Every context (and so every memo) of a run is the run's own: none
        # outlives it, and a run with nothing to classify still drops the
        # loaded context the last one left.
        made = []

        class Noted(TraceContext):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(engine_module, "TraceContext", Noted)
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze(["bbuf"])
        gc.collect()
        assert len(made) == 1 and made[0]() is None
        tasks._CONTEXT = ("stale", TraceContext(None, None, None, ()))
        engine.analyze_workloads([])
        assert tasks._CONTEXT is None

    def test_pool_worker_initializer_empties_the_memo(self, tmp_path, monkeypatch):
        # A worker's searches live in its loaded context's memo: the
        # initializer drops the context, and a reload starts empty.
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        workload = load_workload("RW")
        trace = Portend(workload.program).record(workload.inputs)
        spool = ContextSpool()
        path = spool.write(TraceContext(trace, PortendConfig(), workload.program, ()))
        try:
            context = tasks._spooled_context(path)
            _explorer(
                workload, context.trace, context.trace.races[0], PortendConfig(),
                context.memo,
            ).explore()
            assert tasks._CONTEXT[1].memo.searches
            pool_worker_initializer()
            assert tasks._CONTEXT is None
            assert not tasks._spooled_context(path).memo.searches
        finally:
            tasks.reset_context_memo()
            spool.remove()
