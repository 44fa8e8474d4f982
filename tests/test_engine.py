"""Tests for the parallel batch analysis engine and the serialization layer."""

import json

import pytest

from repro.core import Portend, PortendConfig
from repro.core.categories import ClassifiedRace
from repro.engine import AnalysisEngine, EngineOptions, TraceCache, execute_task
from repro.experiments.runner import analyze_workload
from repro.record_replay.trace import ExecutionTrace
from repro.symex.expr import (
    BinExpr,
    IteExpr,
    Op,
    SymVar,
    UnExpr,
    sym_add,
    value_from_dict,
    value_to_dict,
)
from repro.workloads import Workload, load_workload


def _record_trace(name="bbuf"):
    workload = load_workload(name)
    portend = Portend(workload.program, predicates=workload.predicates)
    return workload, portend, portend.record(workload.inputs)


def _classification_signature(classified):
    return [
        (
            item.race.race_id,
            item.classification,
            item.k,
            item.paths_explored,
            item.schedules_explored,
            item.stage,
            item.evidence.spec_violation_kind,
            item.evidence.output_difference,
        )
        for item in classified
    ]


class TestValueSerialization:
    def test_concrete_round_trip(self):
        assert value_from_dict(value_to_dict(7)) == 7
        assert value_from_dict(value_to_dict(True)) == 1

    def test_symbolic_round_trip_preserves_structure(self):
        x = SymVar("x", 0, 100)
        expr = IteExpr(
            BinExpr(Op.GE, x, 10), UnExpr(Op.NEG, x), sym_add(x, 1)
        )
        data = json.loads(json.dumps(value_to_dict(expr)))
        assert value_from_dict(data) == expr


class TestTraceSerialization:
    def test_execution_trace_json_round_trip(self):
        _, _, trace = _record_trace()
        data = json.loads(json.dumps(trace.to_dict()))
        rebuilt = ExecutionTrace.from_dict(data)
        assert rebuilt.program == trace.program
        assert rebuilt.decisions == trace.decisions
        assert rebuilt.concrete_inputs == trace.concrete_inputs
        assert rebuilt.input_log == trace.input_log
        assert rebuilt.step_count == trace.step_count
        assert rebuilt.preemption_points == trace.preemption_points
        assert rebuilt.outcome == trace.outcome
        assert len(rebuilt.races) == len(trace.races)
        for original, restored in zip(trace.races, rebuilt.races):
            assert restored.race_id == original.race_id
            assert restored.first == original.first
            assert restored.second == original.second
            assert restored.instances == original.instances

    def test_classified_race_json_round_trip(self):
        _, portend, trace = _record_trace()
        classified = portend.classify_race(trace, trace.races[0])
        data = json.loads(json.dumps(classified.to_dict()))
        rebuilt = ClassifiedRace.from_dict(data)
        assert rebuilt.classification is classified.classification
        assert rebuilt.k == classified.k
        assert rebuilt.stage == classified.stage
        assert rebuilt.race.race_id == classified.race.race_id
        assert rebuilt.race.first == classified.race.first
        assert rebuilt.evidence.to_dict() == classified.evidence.to_dict()

    def test_portend_config_round_trip_and_unknown_keys(self):
        config = PortendConfig(mp=3, ma=4, seed=7, enable_multi_schedule=False)
        data = dict(config.to_dict())
        assert PortendConfig.from_dict(data) == config
        data["future_knob"] = 1
        assert PortendConfig.from_dict(data) == config

    def test_race_seed_is_per_race_deterministic(self):
        config = PortendConfig()
        assert config.race_seed(1) == config.race_seed(1)
        assert config.race_seed(1) != config.race_seed(2)
        assert config.race_seed(1, 0) != config.race_seed(1, 1)


class TestEngine:
    #: workloads the equivalence test covers (bbuf + the micro-benchmarks)
    NAMES = ["bbuf", "AVV", "DCL", "DBM", "RW"]

    def test_serial_and_parallel_classifications_are_identical(self):
        serial = AnalysisEngine().analyze(self.NAMES)
        parallel = AnalysisEngine(options=EngineOptions(parallel=2)).analyze(self.NAMES)
        for serial_run, parallel_run in zip(serial, parallel):
            assert _classification_signature(
                serial_run.result.classified
            ) == _classification_signature(parallel_run.result.classified)

    def test_engine_matches_the_direct_portend_pipeline(self):
        workload, portend, _ = _record_trace("bbuf")
        direct = portend.analyze(workload.inputs)
        engine_run = AnalysisEngine().analyze(["bbuf"])[0]
        assert _classification_signature(
            direct.classified
        ) == _classification_signature(engine_run.result.classified)

    def test_ad_hoc_workload_on_the_pool_matches_classify_trace(self):
        # The pooled way to classify an arbitrary program: wrap it in a
        # Workload (any name; the program itself ships to the workers).
        workload, portend, trace = _record_trace("bbuf")
        serial = portend.classify_trace(trace)
        ad_hoc = Workload(
            name="ad-hoc",
            program=workload.program,
            inputs=dict(workload.inputs),
            predicates=list(workload.predicates),
        )
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        pooled = engine.analyze_workloads([ad_hoc])[0]
        assert _classification_signature(
            serial.classified
        ) == _classification_signature(pooled.result.classified)

    def test_execute_task_rebuilds_registry_workloads(self):
        _, portend, trace = _record_trace("RW")
        payload = {
            "workload": "RW",
            "race_id": trace.races[0].race_id,
            "trace": json.loads(json.dumps(trace.to_dict())),
            "config": PortendConfig().to_dict(),
        }
        result = ClassifiedRace.from_dict(execute_task(payload)["classified"])
        direct = portend.classify_race(trace, trace.races[0])
        assert result.classification is direct.classification
        assert result.k == direct.k

    def test_whatif_program_overrides_registry_rebuild(self):
        from repro.workloads.memcached import build_memcached

        workload = build_memcached(remove_slab_lock=True)
        run = analyze_workload(workload, options=EngineOptions(parallel=2))
        by_var = {c.race.location.name: c for c in run.result.classified}
        # The slab race only exists in the what-if variant; classifying it
        # requires the task to carry the actual program, not the registry's.
        assert "slab_index" in by_var
        assert run.result.distinct_races() == 19


class TestTraceCache:
    def test_cache_hit_skips_re_recording(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        first = AnalysisEngine(options=options)
        run1 = first.analyze(["RW"])[0]
        assert not run1.trace_cached
        assert first.cache.hits == 0 and first.cache.misses == 1
        assert list(tmp_path.glob("*.json"))

        second = AnalysisEngine(options=options)
        run2 = second.analyze(["RW"])[0]
        assert run2.trace_cached
        assert second.cache.hits == 1
        assert _classification_signature(
            run1.result.classified
        ) == _classification_signature(run2.result.classified)

    def test_cache_key_depends_on_program_and_inputs(self):
        config = PortendConfig()
        base = TraceCache.key("bbuf", {"n": 1}, config)
        assert TraceCache.key("bbuf", {"n": 1}, config) == base
        assert TraceCache.key("bbuf", {"n": 2}, config) != base
        assert TraceCache.key("ocean", {"n": 1}, config) != base
        assert TraceCache.key("bbuf", {"n": 1}, config, "fp") != base

    def test_cache_distinguishes_whatif_variants_sharing_a_name(self, tmp_path):
        # Regression: the registry memcached and the what-if variant share
        # the name "memcached" and the same inputs; keying on the program
        # content fingerprint keeps their traces apart.
        from repro.workloads.memcached import build_memcached

        options = EngineOptions(cache_dir=str(tmp_path))
        engine = AnalysisEngine(options=options)
        default_run = engine.analyze_workloads([load_workload("memcached")])[0]
        whatif_run = engine.analyze_workloads([build_memcached(remove_slab_lock=True)])[0]
        assert not whatif_run.trace_cached  # must NOT reuse the default trace
        assert default_run.result.distinct_races() == 18
        assert whatif_run.result.distinct_races() == 19
        # Each variant still hits its own cache entry on re-analysis.
        again = AnalysisEngine(options=options)
        assert again.analyze_workloads([build_memcached(remove_slab_lock=True)])[0].trace_cached
        assert again.analyze_workloads([load_workload("memcached")])[0].trace_cached

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        engine = AnalysisEngine(options=options)
        engine.analyze(["RW"])
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        fresh = AnalysisEngine(options=options)
        run = fresh.analyze(["RW"])[0]
        assert not run.trace_cached
        assert fresh.cache.misses >= 1

    def test_damaged_trace_body_with_valid_key_is_a_miss(self, tmp_path):
        # Regression: an entry whose key matches but whose trace body fails
        # to decode (e.g. a bad value encoding raising ExprError) must be a
        # miss, not a crash.
        options = EngineOptions(cache_dir=str(tmp_path))
        AnalysisEngine(options=options).analyze(["RW"])
        for path in tmp_path.glob("*.json"):
            entry = json.loads(path.read_text())
            if "trace" not in entry:  # classification entries share the dir
                continue
            entry["trace"]["input_log"] = [
                {
                    "name": "x",
                    "value": {"kind": "bogus"},
                    "tid": 0,
                    "pc": 0,
                    "step": 0,
                    "symbolic": False,
                }
            ]
            path.write_text(json.dumps(entry))
        run = AnalysisEngine(options=options).analyze(["RW"])[0]
        assert not run.trace_cached

    def test_program_fingerprint_is_stable_across_rebuilds(self):
        first = TraceCache.program_fingerprint(load_workload("bbuf").program)
        second = TraceCache.program_fingerprint(load_workload("bbuf").program)
        assert first == second  # Stmt.uid (a process-global counter) is excluded


class TestExperimentsCli:
    def test_parallel_workload_subset_flags(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        exit_code = main(
            [
                "table3",
                "--workloads",
                "RW,bbuf",
                "--parallel",
                "2",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "RW" in out and "bbuf" in out
        assert list(tmp_path.glob("*.json"))
