"""Tests for shipped primaries, adaptive granularity, and cache lifecycle.

The guarantee under test: classifying from a serialized
:class:`~repro.explore.paths.PrimaryPath` -- what every ``PathTask`` does --
produces verdicts bit-identical to re-deriving the primary with
``explore_primary`` (the test-only equivalence oracle), on every registry
race whose plan needs paths, and a path-granularity engine run performs
zero redundant prefix explorations.
"""

import json

import pytest

from repro.core import Portend, PortendConfig
from repro.core.classifier import needs_multipath, run_single_stage
from repro.core.multi_path import analyze_primary_path
from repro.engine import AnalysisEngine, EngineOptions, choose_granularity
from repro.explore.paths import MultiPathExplorer, PrimaryPath, explore_primary
from repro.runtime.errors import (
    CrashInfo,
    CrashKind,
    ExecutionOutcome,
    OutcomeKind,
)
from repro.runtime.state import OutputRecord
from repro.workloads import all_workload_names, load_workload
from repro.workloads.stress import build_stress, build_stress_deep


def _full_signature(runs):
    return [
        {key: value for key, value in item.to_dict().items() if key != "analysis_seconds"}
        for run in runs
        for item in run.result.classified
    ]


def _explore(name, race_index=0):
    workload = load_workload(name)
    portend = Portend(workload.program, predicates=workload.predicates)
    trace = portend.record(workload.inputs)
    race = trace.races[race_index]
    config = PortendConfig()
    explorer = MultiPathExplorer.for_config(
        portend.executor, portend.program, trace, race, config
    )
    return workload, portend, trace, race, config, explorer.explore()


class TestPrimaryPathRoundTrip:
    def test_json_round_trip_preserves_every_field(self):
        _workload, _portend, _trace, _race, _config, primaries = _explore("bbuf")
        assert len(primaries) > 1
        for path in primaries:
            data = json.loads(json.dumps(path.to_dict()))
            rebuilt = PrimaryPath.from_dict(data)
            assert rebuilt.index == path.index
            assert rebuilt.path_condition.constraints == path.path_condition.constraints
            assert rebuilt.symbolic_outputs == path.symbolic_outputs
            assert rebuilt.concrete_inputs == path.concrete_inputs
            assert rebuilt.diverged_after_race == path.diverged_after_race
            assert rebuilt.race_reached_step == path.race_reached_step
            assert rebuilt.symbolic_branches == path.symbolic_branches
            assert rebuilt.outcome == path.outcome
            assert rebuilt.to_dict() == path.to_dict()

    def test_shipped_path_is_an_equivalence_oracle_for_explore_primary(self):
        # Every registry race whose plan fans out into path tasks: the
        # shipped (JSON round-tripped) primary and explore_primary's
        # re-derivation must yield equal per-path verdicts.
        config = PortendConfig()
        checked = 0
        for name in all_workload_names(include_synthetic=True):
            workload = load_workload(name)
            predicates = list(workload.predicates)
            portend = Portend(workload.program, predicates=predicates)
            trace = portend.record(workload.inputs)
            for race in trace.races:
                outcome = run_single_stage(
                    portend.executor, portend.program, trace, race, config,
                    predicates=predicates,
                )
                if not needs_multipath(outcome, config):
                    continue
                explorer = MultiPathExplorer.for_config(
                    portend.executor, portend.program, trace, race, config
                )
                for path in explorer.explore():
                    shipped = PrimaryPath.from_dict(
                        json.loads(json.dumps(path.to_dict()))
                    )
                    rederived = explore_primary(
                        portend.executor, portend.program, trace, race, config,
                        path.index,
                    )
                    verdicts = [
                        analyze_primary_path(
                            portend.executor, portend.program, trace, race, config,
                            candidate, predicates=predicates,
                        ).to_dict()
                        for candidate in (path, shipped, rederived)
                    ]
                    assert verdicts[0] == verdicts[1] == verdicts[2], (name, race.race_id)
                    checked += 1
        assert checked > 0

    def test_crash_outcome_round_trips(self):
        outcome = ExecutionOutcome(
            kind=OutcomeKind.CRASH,
            crash=CrashInfo(
                kind=CrashKind.ASSERTION_FAILURE,
                message="x > 0",
                tid=2,
                pc=17,
                label="a.c:3",
                stack=("main", "worker"),
            ),
            detail="boom",
        )
        data = json.loads(json.dumps(outcome.to_dict()))
        assert ExecutionOutcome.from_dict(data) == outcome
        assert ExecutionOutcome.from_dict(data).describe() == outcome.describe()

    def test_deadlock_outcome_round_trips(self):
        outcome = ExecutionOutcome(kind=OutcomeKind.DEADLOCK, blocked_threads=(1, 2))
        assert ExecutionOutcome.from_dict(json.loads(json.dumps(outcome.to_dict()))) == outcome

    def test_output_record_round_trips_symbolic_values(self):
        from repro.symex.expr import make_var, sym_add

        record = OutputRecord(
            channel="diag",
            values=(sym_add(make_var("n", 0, 9), 1), 7),
            tid=0,
            pc=3,
            label="a.c:9",
            step=41,
        )
        assert OutputRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record


class TestShippedPrimariesInEngine:
    NAMES = ["bbuf", "SQLite", "RW"]

    def test_path_granularity_performs_zero_reexplorations(self, monkeypatch):
        # Serially every task runs in this process, so counting explorer
        # runs here sees them all: only plans explore, path tasks never do.
        explorations = []
        explore = MultiPathExplorer.explore

        def counting_explore(explorer):
            explorations.append(explorer)
            return explore(explorer)

        monkeypatch.setattr(MultiPathExplorer, "explore", counting_explore)
        engine = AnalysisEngine(options=EngineOptions(parallel=0, granularity="path"))
        engine.analyze(self.NAMES)
        submits = [e for e in engine.last_run_events if e["kind"] == "task_submit"]
        plans = [e for e in submits if e["stage"] == "plan"]
        paths = [e for e in submits if e["stage"] == "path"]
        assert paths  # the batch really fanned out into path tasks
        assert 0 < len(explorations) <= len(plans)

    def test_pooled_shipping_matches_serial(self):
        serial = AnalysisEngine().analyze(self.NAMES)
        pooled = AnalysisEngine(
            options=EngineOptions(parallel=2, granularity="path")
        ).analyze(self.NAMES)
        assert _full_signature(serial) == _full_signature(pooled)

    def test_solver_counters_are_aggregated(self):
        engine = AnalysisEngine()
        engine.analyze(["bbuf"])
        stats = engine.last_run_stats
        assert stats.solver_queries > 0
        assert stats.solver_cache_hits + stats.solver_cache_misses == stats.solver_queries
        assert "solver queries" in stats.summary()


class TestAdaptiveGranularity:
    def test_chooser_keys_on_batch_shape(self):
        # Serial runs never fan out.
        assert choose_granularity(1, 0) == "race"
        assert choose_granularity(1, 1) == "race"
        # SQLite-like: one race cannot fill a pool -> per-path tasks.
        assert choose_granularity(1, 4) == "path"
        assert choose_granularity(7, 4) == "path"
        # Stress-like: plenty of race tasks per worker -> no fan-out tax.
        assert choose_granularity(8, 4) == "race"
        assert choose_granularity(160, 4) == "race"
        # The threshold scales with the pool, not a fixed constant.
        assert choose_granularity(8, 8) == "path"
        assert choose_granularity(16, 8) == "race"

    def test_auto_mixes_granularities_within_one_batch(self):
        # bbuf (6 races < 2*2 workers? no: 6 >= 4 -> race), SQLite (1 race ->
        # path).  Either way the verdicts match a race-grain reference.
        runs = AnalysisEngine(
            options=EngineOptions(parallel=2, granularity="auto")
        ).analyze(["SQLite", "bbuf"])
        reference = AnalysisEngine(options=EngineOptions(granularity="race")).analyze(
            ["SQLite", "bbuf"]
        )
        assert _full_signature(runs) == _full_signature(reference)

    def test_auto_picks_race_for_stress_like_batches(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=2, granularity="auto"))
        engine.analyze_workloads([build_stress(races=8)])
        # 8 races >= 2*2 workers: race granularity, hence no plan or path tasks.
        stages = {
            event["stage"]
            for event in engine.last_run_events
            if event["kind"] == "task_submit"
        }
        assert stages == {"record", "classify"}


class TestStressDeepWorkload:
    def test_build_is_parameterized_and_harmless(self):
        from repro.core.categories import RaceClass

        workload = build_stress_deep(slots=2)
        run = AnalysisEngine().analyze_workloads([workload])[0]
        assert run.result.distinct_races() == 2
        assert all(
            item.classification is RaceClass.K_WITNESS_HARMLESS
            for item in run.result.classified
        )

    def test_each_race_fans_out_into_many_primary_paths(self):
        workload = build_stress_deep(slots=2)
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)
        config = PortendConfig()
        explorer = MultiPathExplorer.for_config(
            portend.executor, portend.program, trace, trace.races[0], config
        )
        primaries = explorer.explore()
        # The branch chain yields more feasible paths than the Mp budget.
        assert len(primaries) == config.effective_mp()
        assert all(path.symbolic_branches > 1 for path in primaries)

    def test_registered_but_excluded_from_table1(self):
        assert "stress_deep" not in all_workload_names()
        assert "stress_deep" in all_workload_names(include_synthetic=True)
        workload = load_workload("stress_deep")
        assert workload.expected_distinct_races == len(workload.ground_truth)

    def test_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            build_stress_deep(slots=0)

    def test_solver_cache_cuts_enumeration_on_stress_deep(self):
        import repro.symex.solver as solver_mod

        workload = build_stress_deep(slots=2)

        def run(enabled):
            previous = solver_mod.set_cache_enabled_default(enabled)
            try:
                engine = AnalysisEngine()
                runs = engine.analyze_workloads([workload])
                return _full_signature(runs), engine.last_run_stats.solver_assignments_enumerated
            finally:
                solver_mod.set_cache_enabled_default(previous)

        sig_off, enumerated_off = run(False)
        sig_on, enumerated_on = run(True)
        assert sig_off == sig_on
        assert enumerated_on <= enumerated_off * 0.7  # >= 30% drop


class TestCacheLifecycle:
    def test_trace_cache_lru_eviction(self, tmp_path):
        import os

        from repro.engine import TraceCache

        cache = TraceCache(tmp_path, max_entries=2)
        config = PortendConfig()
        stored = []
        for index, name in enumerate(["RW", "DCL", "AVV"]):
            workload = load_workload(name)
            trace = Portend(workload.program).record(workload.inputs)
            path = cache.store(name, workload.inputs, config, trace)
            # Deterministic recency order regardless of filesystem timestamp
            # granularity.
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
            stored.append((name, workload))
        cache._evict_overflow()
        names = {p.name for p in tmp_path.glob("*.json")}
        assert len(names) == 2
        assert not any(name.startswith("RW-") for name in names)  # LRU victim
        # Survivors still load.
        name, workload = stored[2]
        assert cache.load(name, workload.inputs, config) is not None

    def test_hits_are_persisted_and_reported(self, tmp_path):
        from repro.engine import TraceCache, collect_cache_info

        cache = TraceCache(tmp_path)
        workload = load_workload("RW")
        trace = Portend(workload.program).record(workload.inputs)
        cache.store("RW", workload.inputs, PortendConfig(), trace)
        for _ in range(3):
            assert cache.load("RW", workload.inputs, PortendConfig()) is not None
        rows = collect_cache_info(tmp_path)
        assert len(rows) == 1
        assert rows[0]["kind"] == "trace"
        assert rows[0]["hits"] == 3
        assert rows[0]["age_seconds"] >= 0

    def test_cache_info_covers_both_layers(self, tmp_path):
        from repro.engine import collect_cache_info

        AnalysisEngine(options=EngineOptions(cache_dir=str(tmp_path))).analyze(["RW"])
        rows = collect_cache_info(tmp_path)
        kinds = {row["kind"] for row in rows}
        # Both result layers; nothing else of a run is persisted.
        assert kinds == {"trace", "classification"}

    def test_cache_info_cli(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        AnalysisEngine(options=EngineOptions(cache_dir=str(tmp_path))).analyze(["RW"])
        assert main(["cache-info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache-info:" in out
        assert "classification" in out and "trace" in out

    def test_engine_honors_cache_max_entries(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path), cache_max_entries=3)
        AnalysisEngine(options=options).analyze(["bbuf"])  # 6 races -> 6 cls entries
        classification_entries = list(tmp_path.glob("*-cls-*.json"))
        assert len(classification_entries) == 3
