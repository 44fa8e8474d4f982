"""Tests for pooled classification, the deep-path stress workload, and the
cache lifecycle.

Every race is one stage-3 task, pooled or serial, so a pooled run must be
verdict-identical to a serial one and submit exactly one classify task per
race.
"""

import json

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
        assert {event["stage"] for event in submits} == {"classify"}
        classify = [event for event in submits if event["stage"] == "classify"]
        assert len(classify) == sum(len(run.result.classified) for run in runs)

    def test_warm_cache_submits_no_classify_tasks(self, tmp_path):
        # Only classification-cache misses become tasks: a warm pooled run
        # records nothing and classifies nothing, yet returns the cold
        # run's verdicts -- timings included, since each entry is the dict
        # the worker sent.
        options = EngineOptions(parallel=2, cache_dir=str(tmp_path))
        cold = AnalysisEngine(options=options).analyze(self.NAMES)
        engine = AnalysisEngine(options=options)
        warm = engine.analyze(self.NAMES)
        submits = [e for e in engine.last_run_events if e["kind"] == "task_submit"]
        assert submits == []
        assert engine.last_run_stats.classifications_computed == 0
        assert [i.to_dict() for r in cold for i in r.result.classified] == [
            i.to_dict() for r in warm for i in r.result.classified
        ]


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
    def test_loads_only_read_and_info_reports_the_entry(self, tmp_path):
        from repro.engine import TraceCache, collect_cache_info

        cache = TraceCache(tmp_path)
        workload = load_workload("RW")
        trace = Portend(workload.program).record(workload.inputs)
        path = cache.store("RW", workload.inputs, PortendConfig(), trace)
        before = (path.stat().st_size, path.stat().st_mtime_ns)
        for _ in range(3):
            assert cache.load("RW", workload.inputs, PortendConfig()) is not None
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert (path.stat().st_size, path.stat().st_mtime_ns) == before
        rows = collect_cache_info(tmp_path)
        assert len(rows) == 1
        assert rows[0]["kind"] == "trace"
        assert rows[0]["entries"] == 1
        assert rows[0]["size_bytes"] == before[0]
        assert "hits" not in rows[0]
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

        AnalysisEngine(options=EngineOptions(cache_dir=str(tmp_path))).analyze(["bbuf"])
        assert main(["cache-info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache-info:" in out
        assert "classification" in out and "trace" in out
        # One classification file holds all six bbuf races; a trace file
        # holds one trace.  Columns: kind, age, entries, size, file.
        rows = [line.split() for line in out.splitlines()[2:]]
        assert sorted((row[0], int(row[2])) for row in rows) == [
            ("classification", 6),
            ("trace", 1),
        ]

    def test_old_layout_classification_files_are_dropped(self, tmp_path, capsys):
        # A version-1 classification file holds one race and no "entries":
        # no key reaches it again, so the next store of its program deletes
        # it, though nothing else ever prunes the directory.  A file of
        # the current layout written for another config stays, and serves.
        from repro.experiments.__main__ import main

        cache_dir = str(tmp_path)
        AnalysisEngine(options=EngineOptions(cache_dir=cache_dir)).analyze(["bbuf"])
        (live,) = tmp_path.glob("bbuf-cls-*.json")
        entry = next(iter(json.loads(live.read_text())["entries"].values()))
        old = tmp_path / "bbuf-cls-0123456789abcdef.json"
        old.write_text(json.dumps(
            {"key": "0123456789abcdef" * 4, "stored_at": 0.0,
             "classified": entry["classified"]}
        ))

        AnalysisEngine(
            config=PortendConfig(seed=7), options=EngineOptions(cache_dir=cache_dir)
        ).analyze(["bbuf"])
        assert main(["cache-info", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert old.name not in out
        assert not old.exists()
        assert live.name in out
        assert len(list(tmp_path.glob("bbuf-cls-*.json"))) == 2

        engine = AnalysisEngine(options=EngineOptions(cache_dir=cache_dir))
        engine.analyze(["bbuf"])
        assert engine.last_run_stats.classifications_computed == 0
