"""Tests for the engine pipeline: engine equivalence, the per-path merge, and
the caches."""

import json

import pytest

from repro.core import Portend, PortendConfig
from repro.core.categories import ClassifiedRace, RaceClass, SpecViolationKind
from repro.core.multi_path import PathVerdict, merge_path_verdicts
from repro.core.report import PortendReport
from repro.engine import (
    AnalysisEngine,
    ClassificationCache,
    EngineOptions,
    TraceCache,
)
from repro.explore.paths import MultiPathExplorer
from repro.workloads import all_workload_names, load_workload
from repro.workloads.stress import build_stress


def _full_signature(runs):
    """Everything in the classification output except wall-clock timing."""
    return [
        {key: value for key, value in item.to_dict().items() if key != "analysis_seconds"}
        for run in runs
        for item in run.result.classified
    ]


#: a small batch that covers every verdict class and multi-path races
NAMES = ["bbuf", "RW", "SQLite"]


class TestEngineEquivalence:
    def test_parallel_is_bit_identical_to_serial(self):
        serial = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(NAMES)
        parallel = AnalysisEngine(options=EngineOptions(parallel=2)).analyze(NAMES)
        assert _full_signature(serial) == _full_signature(parallel)

    def test_engine_matches_direct_portend_pipeline(self):
        workload = load_workload("bbuf")
        portend = Portend(workload.program, predicates=workload.predicates)
        direct = portend.analyze(workload.inputs)
        engine_run = AnalysisEngine().analyze(["bbuf"])[0]
        direct_sig = [
            {k: v for k, v in item.to_dict().items() if k != "analysis_seconds"}
            for item in direct.classified
        ]
        engine_sig = [
            {k: v for k, v in item.to_dict().items() if k != "analysis_seconds"}
            for item in engine_run.result.classified
        ]
        assert direct_sig == engine_sig


    @pytest.mark.parametrize("name", ["SQLite", "AVV", "DCL", "DBM", "RW"])
    def test_one_race_program_pooled_matches_serial(self, name):
        # The one-race programs are the batches a pool could only speed up
        # by splitting a race; they classify as one whole-race task, with
        # verdicts identical to the serial drain's.
        serial = AnalysisEngine(options=EngineOptions(parallel=0)).analyze([name])
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        pooled = engine.analyze([name])
        assert engine.last_run_stats.pools_created == 1
        classify_submits = [
            event
            for event in engine.last_run_events
            if event["kind"] == "task_submit" and event["stage"] == "classify"
        ]
        assert len(classify_submits) == len(serial[0].result.classified) == 1
        assert _full_signature(serial) == _full_signature(pooled)


class TestExplorePrimaryPrefix:
    def test_bfs_prefix_matches_full_exploration(self):
        # The search is breadth-first over a deterministic worklist, so the
        # primaries found with max_primaries = i + 1 are exactly the first
        # i + 1 primaries of the full exploration.  bbuf races explore 4
        # primary paths under the default config.
        workload = load_workload("bbuf")
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)
        race = trace.races[0]
        config = PortendConfig()
        explorer = MultiPathExplorer.for_config(
            portend.executor, portend.program, trace, race, config
        )
        full = explorer.explore()
        assert len(full) > 1
        for index, expected in enumerate(full):
            prefix = MultiPathExplorer.for_config(
                portend.executor,
                portend.program,
                trace,
                race,
                config,
                max_primaries=index + 1,
            ).explore()
            assert len(prefix) == index + 1
            found = prefix[index]
            assert found.index == expected.index
            assert found.concrete_inputs == expected.concrete_inputs
            assert found.race_reached_step == expected.race_reached_step
            assert found.symbolic_branches == expected.symbolic_branches

    def test_max_primaries_beyond_the_path_count_returns_every_primary(self):
        # A budget larger than the tree stops at the last primary: the
        # search neither pads nor repeats paths.
        workload = load_workload("bbuf")
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)
        race = trace.races[0]
        config = PortendConfig()

        def explore(**limits):
            return MultiPathExplorer.for_config(
                portend.executor, portend.program, trace, race, config, **limits
            ).explore()

        full = explore()
        beyond = explore(max_primaries=len(full) + 3)
        assert [p.index for p in beyond] == [p.index for p in full]
        assert [p.concrete_inputs for p in beyond] == [p.concrete_inputs for p in full]


class TestMergePathVerdicts:
    def _verdict(self, index, **kwargs):
        return PathVerdict(path_index=index, **kwargs)

    def test_witnesses_and_schedules_accumulate(self):
        merged = merge_path_verdicts(
            [
                self._verdict(0, witnesses=2, schedules_explored=2, symbolic_branches=1),
                self._verdict(1, witnesses=1, schedules_explored=2, symbolic_branches=3),
            ],
            paths_explored=2,
        )
        assert merged.verdict is RaceClass.K_WITNESS_HARMLESS
        assert merged.witnesses == 3
        assert merged.schedules_explored == 4
        assert merged.dependent_branches == 3

    def test_first_spec_violation_wins_and_truncates(self):
        merged = merge_path_verdicts(
            [
                self._verdict(0, witnesses=2, schedules_explored=2),
                self._verdict(
                    1,
                    spec_violated=True,
                    spec_violation_kind=SpecViolationKind.CRASH,
                    crash_description="boom",
                    failing_inputs={"n": 3},
                    schedules_explored=1,
                ),
                # Counters after the violating path must be ignored, exactly
                # as the serial loop (which never runs them) would.
                self._verdict(2, witnesses=5, schedules_explored=2),
            ],
            paths_explored=3,
        )
        assert merged.verdict is RaceClass.SPEC_VIOLATED
        assert merged.witnesses == 2
        assert merged.schedules_explored == 3
        assert merged.evidence.spec_violation_kind is SpecViolationKind.CRASH
        assert merged.evidence.failing_inputs == {"n": 3}

    def test_first_output_difference_supplies_evidence(self):
        merged = merge_path_verdicts(
            [
                self._verdict(
                    0,
                    saw_output_difference=True,
                    output_difference=[("a", "b")],
                    difference_inputs={"n": 1},
                    schedules_explored=2,
                ),
                self._verdict(
                    1,
                    saw_output_difference=True,
                    output_difference=[("c", "d")],
                    difference_inputs={"n": 2},
                    schedules_explored=2,
                    witnesses=1,
                ),
            ],
            paths_explored=2,
        )
        assert merged.verdict is RaceClass.OUTPUT_DIFFERS
        assert merged.evidence.output_difference == [("a", "b")]
        assert merged.evidence.failing_inputs == {"n": 1}

    def test_verdict_order_is_path_index_not_arrival(self):
        early = self._verdict(
            0,
            saw_output_difference=True,
            output_difference=[("a", "b")],
            difference_inputs={"n": 1},
        )
        late = self._verdict(
            1,
            saw_output_difference=True,
            output_difference=[("c", "d")],
            difference_inputs={"n": 2},
        )
        # Results arriving out of order (as pool completion may) must merge
        # identically.
        assert (
            merge_path_verdicts([late, early], paths_explored=2).evidence.output_difference
            == merge_path_verdicts([early, late], paths_explored=2).evidence.output_difference
        )


class TestClassificationCache:
    def test_warm_run_computes_zero_classifications(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        cold_runs = AnalysisEngine(options=options).analyze(["RW", "bbuf"])
        warm_engine = AnalysisEngine(options=options)
        warm_runs = warm_engine.analyze(["RW", "bbuf"])
        assert warm_engine.last_run_stats.classifications_computed == 0
        assert warm_engine.last_run_stats.traces_recorded == 0
        assert warm_engine.classification_cache.hits == 7
        assert [run.classifications_cached for run in warm_runs] == [1, 6]
        # Cached classifications round-trip exactly (timings included).
        cold = [i.to_dict() for r in cold_runs for i in r.result.classified]
        warm = [i.to_dict() for r in warm_runs for i in r.result.classified]
        assert cold == warm

    @pytest.mark.parametrize(
        "config",
        [
            PortendConfig(seed=7),  # race_seed base
            PortendConfig(mp=2),  # Mp limit
            PortendConfig(ma=1),  # Ma limit
            PortendConfig().single_path_only(),  # ablation switches
        ],
    )
    def test_config_change_invalidates(self, tmp_path, config):
        options = EngineOptions(cache_dir=str(tmp_path))
        AnalysisEngine(options=options).analyze(["RW"])
        runs = AnalysisEngine(config=config, options=options).analyze(["RW"])
        assert runs[0].stats.classifications_computed >= 1

    def test_predicate_mode_invalidates(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        AnalysisEngine(options=options).analyze(["fmm"])
        runs = AnalysisEngine(
            options=EngineOptions(cache_dir=str(tmp_path), use_semantic_predicates=True)
        ).analyze(["fmm"])
        assert runs[0].stats.classifications_computed >= 1

    def test_program_content_keeps_whatif_variants_apart(self, tmp_path):
        from repro.workloads.memcached import build_memcached

        options = EngineOptions(cache_dir=str(tmp_path))
        engine = AnalysisEngine(options=options)
        engine.analyze_workloads([load_workload("memcached")])
        whatif = AnalysisEngine(options=options)
        whatif_run = whatif.analyze_workloads([build_memcached(remove_slab_lock=True)])[0]
        # Same registry name, same inputs, different program content: every
        # race must be classified fresh, never served from the default build.
        assert whatif_run.classifications_cached == 0
        assert whatif_run.stats.classifications_computed == whatif_run.result.distinct_races()

    def test_corrupt_classification_entry_is_a_miss(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        AnalysisEngine(options=options).analyze(["RW"])
        corrupted = 0
        for path in tmp_path.glob("*-cls-*.json"):
            path.write_text("{not json")
            corrupted += 1
        assert corrupted == 1
        fresh = AnalysisEngine(options=options)
        run = fresh.analyze(["RW"])[0]
        assert run.classifications_cached == 0
        assert run.stats.classifications_computed == 1
        assert fresh.classification_cache.misses >= 1

    def test_predicate_logic_change_invalidates_fingerprint(self):
        from repro.core.spec import SemanticPredicate

        holds = SemanticPredicate("inv", lambda state: True)
        fails = SemanticPredicate("inv", lambda state: False)
        rebuilt = SemanticPredicate("inv", lambda state: True)
        base = ClassificationCache.predicate_fingerprint([holds])
        # Same name, different logic → different key (no stale verdicts).
        assert ClassificationCache.predicate_fingerprint([fails]) != base
        # Identical logic rebuilt → same key (warm runs stay warm).
        assert ClassificationCache.predicate_fingerprint([rebuilt]) == base
        # Nested code objects (comprehensions, inner lambdas) must not leak
        # memory addresses into the fingerprint.
        nested_a = SemanticPredicate("n", lambda s: all(x for x in [True]))
        nested_b = SemanticPredicate("n", lambda s: all(x for x in [True]))
        assert ClassificationCache.predicate_fingerprint(
            [nested_a]
        ) == ClassificationCache.predicate_fingerprint([nested_b])

    def test_predicate_captured_parameters_invalidate_fingerprint(self):
        import functools

        from repro.core.spec import SemanticPredicate

        def make(limit):
            return SemanticPredicate("bound", lambda state: limit > 0)

        # Same bytecode, different captured cell value → different key.
        assert ClassificationCache.predicate_fingerprint(
            [make(5)]
        ) != ClassificationCache.predicate_fingerprint([make(6)])
        assert ClassificationCache.predicate_fingerprint(
            [make(5)]
        ) == ClassificationCache.predicate_fingerprint([make(5)])

        def check(state, limit=0):
            return limit > 0

        # functools.partial bindings participate too.
        five = SemanticPredicate("p", functools.partial(check, limit=5))
        six = SemanticPredicate("p", functools.partial(check, limit=6))
        five_again = SemanticPredicate("p", functools.partial(check, limit=5))
        assert ClassificationCache.predicate_fingerprint(
            [five]
        ) != ClassificationCache.predicate_fingerprint([six])
        assert ClassificationCache.predicate_fingerprint(
            [five]
        ) == ClassificationCache.predicate_fingerprint([five_again])
        # Argument defaults as well.
        default_five = SemanticPredicate("d", lambda state, limit=5: limit > 0)
        default_six = SemanticPredicate("d", lambda state, limit=6: limit > 0)
        assert ClassificationCache.predicate_fingerprint(
            [default_five]
        ) != ClassificationCache.predicate_fingerprint([default_six])

    def test_predicate_fingerprint_stable_under_hash_randomization(self):
        # A set-literal constant (`in {'a', 'b'}`) must not leak per-process
        # string-hash iteration order into the fingerprint: warm-cache hits
        # depend on keys being identical across interpreter invocations.
        import subprocess
        import sys

        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.core.spec import SemanticPredicate\n"
            "from repro.engine.cache import ClassificationCache\n"
            "p = SemanticPredicate('set-const', lambda s: 'x' in {'deadlock', 'crash', 'x'})\n"
            "print(ClassificationCache.predicate_fingerprint([p]))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
            ).stdout.strip()
            for seed in ("0", "1", "42")
        }
        assert len(outputs) == 1, outputs

    def test_key_covers_race_and_predicates(self):
        config = PortendConfig()
        base = ClassificationCache.key("bbuf", {"n": 1}, config, 1)
        assert ClassificationCache.key("bbuf", {"n": 1}, config, 1) == base
        assert ClassificationCache.key("bbuf", {"n": 1}, config, 2) != base
        assert ClassificationCache.key("bbuf", {"n": 2}, config, 1) != base
        assert ClassificationCache.key("bbuf", {"n": 1}, PortendConfig(seed=3), 1) != base
        assert ClassificationCache.key("bbuf", {"n": 1}, config, 1, "fp") != base
        assert (
            ClassificationCache.key(
                "bbuf", {"n": 1}, config, 1, use_semantic_predicates=True
            )
            != base
        )
        assert (
            ClassificationCache.key(
                "bbuf", {"n": 1}, config, 1, predicate_fingerprint="p1|p2"
            )
            != base
        )


class TestConcurrentRecording:
    def test_parallel_recording_is_deterministic(self):
        names = ["RW", "DCL", "bbuf"]
        serial = AnalysisEngine().analyze(names)
        parallel = AnalysisEngine(options=EngineOptions(parallel=2)).analyze(names)
        for serial_run, parallel_run in zip(serial, parallel):
            assert (
                serial_run.result.trace.to_dict() == parallel_run.result.trace.to_dict()
            )

    def test_recorded_in_worker_equals_recorded_via_cache_roundtrip(self, tmp_path):
        # A trace recorded under parallel dispatch and stored must satisfy a
        # subsequent serial engine exactly (cache hit, identical results).
        options_parallel = EngineOptions(parallel=2, cache_dir=str(tmp_path))
        first = AnalysisEngine(options=options_parallel).analyze(["bbuf"])
        options_serial = EngineOptions(cache_dir=str(tmp_path))
        second_engine = AnalysisEngine(options=options_serial)
        second = second_engine.analyze(["bbuf"])
        assert second[0].trace_cached
        assert _full_signature(first) == _full_signature(second)


class TestStressWorkload:
    def test_build_is_parameterized(self):
        workload = build_stress(races=6)
        run = AnalysisEngine().analyze_workloads([workload])[0]
        assert run.result.distinct_races() == 6
        assert all(
            item.classification is RaceClass.K_WITNESS_HARMLESS
            for item in run.result.classified
        )

    def test_registry_build_defaults_to_hundreds(self):
        workload = load_workload("stress")
        assert workload.expected_distinct_races >= 100
        assert len(workload.ground_truth) == workload.expected_distinct_races

    def test_not_part_of_the_table1_list(self):
        assert "stress" not in all_workload_names()
        assert "stress" in all_workload_names(include_synthetic=True)

    def test_rejects_zero_races(self):
        with pytest.raises(ValueError):
            build_stress(races=0)


class TestPruneReporting:
    def test_report_renders_prune_reasons(self):
        workload = load_workload("RW")
        portend = Portend(workload.program)
        result = portend.analyze(workload.inputs)
        classified = result.classified[0]
        classified.paths_pruned = 7
        classified.prune_reasons = [f"state {i}: path never exercised the target race" for i in range(7)]
        text = PortendReport(classified).render()
        assert "pruned primary-path candidates: 7" in text
        assert "state 0: path never exercised the target race" in text
        assert "... and 2 more" in text  # truncated at MAX_PRUNE_REASONS

    def test_summary_includes_pruned_total(self):
        workload = load_workload("RW")
        portend = Portend(workload.program)
        result = portend.analyze(workload.inputs)
        assert "pruned paths" not in result.summary()
        result.classified[0].paths_pruned = 3
        assert "pruned paths: 3" in result.summary()
        assert result.total_paths_pruned() == 3

    def test_prune_fields_survive_serialization(self):
        workload = load_workload("RW")
        portend = Portend(workload.program)
        result = portend.analyze(workload.inputs)
        classified = result.classified[0]
        classified.paths_pruned = 2
        classified.prune_reasons = ["state 1: x", "state 2: y"]
        data = json.loads(json.dumps(classified.to_dict()))
        rebuilt = ClassifiedRace.from_dict(data)
        assert rebuilt.paths_pruned == 2
        assert rebuilt.prune_reasons == ["state 1: x", "state 2: y"]


class TestExperimentsCliStats:
    def test_warm_cli_run_reports_zero_classifications(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        argv = [
            "table3",
            "--workloads",
            "RW",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        out_cold = capsys.readouterr().out
        assert "classifications computed=1" in out_cold
        assert main(argv) == 0
        out_warm = capsys.readouterr().out
        assert "classifications computed=0" in out_warm
        assert "classification-cache hits=1" in out_warm
