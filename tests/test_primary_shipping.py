"""Tests for pooled classification, the deep-path stress workload, and the
cache lifecycle.

Every race is one stage-3 task, pooled or serial, so a pooled run must be
verdict-identical to a serial one and submit exactly one classify task per
race.
"""

import pytest

from repro.core import Portend, PortendConfig
from repro.engine import AnalysisEngine, EngineOptions
from repro.explore.paths import MultiPathExplorer
from repro.workloads import all_workload_names, load_workload
from repro.workloads.stress import build_stress, build_stress_deep


def _full_signature(runs):
    return [
        {key: value for key, value in item.to_dict().items() if key != "analysis_seconds"}
        for run in runs
        for item in run.result.classified
    ]


class TestPooledClassification:
    NAMES = ["bbuf", "SQLite", "RW"]

    def test_pooled_run_matches_serial(self):
        serial = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(self.NAMES)
        pooled = AnalysisEngine(options=EngineOptions(parallel=2)).analyze(self.NAMES)
        assert _full_signature(serial) == _full_signature(pooled)

    def test_solver_counters_are_aggregated(self):
        engine = AnalysisEngine()
        engine.analyze(["bbuf"])
        stats = engine.last_run_stats
        assert stats.solver_queries > 0
        assert stats.solver_cache_hits + stats.solver_cache_misses == stats.solver_queries
        assert "solver queries" in stats.summary()

    def test_every_race_is_one_classify_task(self):
        # One-race workloads (SQLite) and many-race ones (stress) alike: a
        # pooled run's stage 3 is one classify task per race and nothing
        # else.
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        runs = engine.analyze_workloads(
            [load_workload("SQLite"), build_stress(races=8)]
        )
        submits = [e for e in engine.last_run_events if e["kind"] == "task_submit"]
        assert {event["stage"] for event in submits} == {"record", "classify"}
        classify = [event for event in submits if event["stage"] == "classify"]
        assert len(classify) == sum(len(run.result.classified) for run in runs)

    def test_warm_cache_submits_no_classify_tasks(self, tmp_path):
        # Only classification-cache misses become tasks: a warm pooled run
        # records nothing and classifies nothing, yet returns the cold
        # run's verdicts.
        options = EngineOptions(parallel=2, cache_dir=str(tmp_path))
        cold = AnalysisEngine(options=options).analyze(self.NAMES)
        engine = AnalysisEngine(options=options)
        warm = engine.analyze(self.NAMES)
        submits = [e for e in engine.last_run_events if e["kind"] == "task_submit"]
        assert submits == []
        assert engine.last_run_stats.classifications_computed == 0
        assert _full_signature(cold) == _full_signature(warm)


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
