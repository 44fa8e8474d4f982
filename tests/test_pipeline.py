"""Tests for the engine pipeline: engine equivalence, the golden verdicts, and
the caches."""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.core import Portend, PortendConfig, multi_path
from repro.core.alternate import AlternateStatus
from repro.core.categories import ClassifiedRace, RaceClass, SpecViolationKind
from repro.core.report import PortendReport
from repro.engine import (
    AnalysisEngine,
    ClassificationCache,
    EngineOptions,
    TraceCache,
)
from repro.explore.paths import MultiPathExplorer
from repro.runtime.errors import ExecutionOutcome, OutcomeKind
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
    """The multi-path fold, driven through ``classify_multipath`` with
    scripted primaries and alternates: each path's alternates are listed in
    policy order, and an alternate's output is ``"same"`` when it matches its
    primary's."""

    def _fold(self, monkeypatch, script):
        ran = []

        def replay(executor, program, trace, race, concrete_inputs=None, **kwargs):
            return SimpleNamespace(
                outcome=None,
                reached_race=True,
                steps=10,
                path=concrete_inputs["n"],
                final_state=SimpleNamespace(output_log="same"),
            )

        def alternate(executor, program, trace, race, primary, timeout_steps, post_race_policy=None, **kwargs):
            ran.append((primary.path, post_race_policy))
            status, outcome, output = script[primary.path][post_race_policy]
            return SimpleNamespace(
                status=status,
                outcome=outcome,
                state=SimpleNamespace(output_log=output),
                timeout_diagnosis=None,
                lock_cycle=None,
            )

        def compare(*args):
            output = args[-2]
            return SimpleNamespace(matches=output == "same", differences=output)

        paths = [
            SimpleNamespace(
                index=index,
                outcome=None,
                concrete_inputs={"n": index},
                symbolic_outputs=[],
                path_condition=None,
            )
            for index in range(len(script))
        ]
        explorer = SimpleNamespace(explore=lambda: paths, states_pruned=0, prune_reasons=[])
        monkeypatch.setattr(
            multi_path, "MultiPathExplorer", SimpleNamespace(for_config=lambda *a, **k: explorer)
        )
        monkeypatch.setattr(multi_path, "replay_primary", replay)
        monkeypatch.setattr(multi_path, "run_alternate", alternate)
        monkeypatch.setattr(multi_path, "compare_symbolic", compare)
        monkeypatch.setattr(
            multi_path, "alternate_schedule_policies", lambda count, seed: [0, 1]
        )
        access = SimpleNamespace(tid=0, label="x", pc=0)
        result = multi_path.classify_multipath(
            SimpleNamespace(solver=None),
            None,
            SimpleNamespace(concrete_inputs={"n": 0}, decisions=[]),
            SimpleNamespace(race_id=1, first=access, second=access),
            PortendConfig(),
        )
        return result, ran

    def test_witnesses_and_schedules_accumulate(self, monkeypatch):
        done = AlternateStatus.COMPLETED
        result, ran = self._fold(
            monkeypatch,
            [
                [(done, None, "same"), (done, None, "same")],
                # ad-hoc synchronisation: a schedule explored, no witness
                [(done, None, "same"), (AlternateStatus.TIMEOUT, None, "same")],
            ],
        )
        assert result.verdict is RaceClass.K_WITNESS_HARMLESS
        assert result.paths_explored == 2
        assert result.witnesses == 3
        assert result.schedules_explored == 4
        assert ran == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert result.evidence.notes == [
            "alternate of primary path 1 prevented by ad-hoc synchronisation"
        ]

    def test_first_spec_violation_wins_and_truncates(self, monkeypatch):
        done = AlternateStatus.COMPLETED
        crash = ExecutionOutcome(OutcomeKind.CRASH, detail="boom")
        result, ran = self._fold(
            monkeypatch,
            [
                [(done, None, "same"), (done, None, "same")],
                [(done, crash, "same"), (done, None, "same")],
                # Never run: the fold stops at path 1's first alternate, so
                # these counters must not be folded in.
                [(done, None, "same"), (done, None, "same")],
            ],
        )
        assert ran == [(0, 0), (0, 1), (1, 0)]
        assert result.verdict is RaceClass.SPEC_VIOLATED
        assert result.paths_explored == 3
        assert result.witnesses == 2
        assert result.schedules_explored == 3
        assert result.evidence.spec_violation_kind is SpecViolationKind.CRASH
        assert result.evidence.crash_description == (
            "alternate of primary path 1 with inputs {'n': 1}: boom"
        )
        assert result.evidence.failing_inputs == {"n": 1}

    def test_first_output_difference_supplies_evidence(self, monkeypatch):
        done = AlternateStatus.COMPLETED
        result, ran = self._fold(
            monkeypatch,
            [
                [(done, None, "same"), (done, None, [("a", "b")])],
                [(done, None, [("c", "d")]), (done, None, "same")],
            ],
        )
        assert len(ran) == 4
        assert result.verdict is RaceClass.OUTPUT_DIFFERS
        assert result.witnesses == 2
        assert result.evidence.output_difference == [("a", "b")]
        assert result.evidence.failing_inputs == {"n": 0}


#: sha256 of ``json.dumps(signature, sort_keys=True)`` per registry workload,
#: where the signature is the serial run's ``ClassifiedRace.to_dict()`` list
#: without ``analysis_seconds``.  The values are the verdicts the paper's
#: tables are reproduced from; a classifier change must leave them as they are.
GOLDEN_VERDICTS = {
    "SQLite": "a696f64edadb0bcec466b673a3f8e1cb485c9ed670de1042880882347195884e",
    "ocean": "a68dc58764c1b38da286a0c4e2630975f8e55c5de8846a309079869e90050d73",
    "fmm": "35a6efd10cb7782f9ccaa94364d606c792e8116281f7108e6e2189c7adc6aef9",
    "memcached": "f06558feaf988426bb5e5ae13a08b7d180043377980d7bb31de21c8f2f43b0ae",
    "pbzip2": "53bc9a74d204cf77f06af3f3bec69e025a410284d438fb4b79238203a2120455",
    "ctrace": "7cab6cde2fe3386d3f525b04befc037a14859af40d7ddfdff983c39a8a466c40",
    "bbuf": "c557ed78907f700e80a2d63bb21642989d5c3414f71b708a249f8300a9d9bb8c",
    "AVV": "1d8b08712ae825d695df571bae9caf29b46af62e71f4008551001ed743880cd6",
    "DCL": "a00c150160ce01ea5ce8feca971934e0fe149289954482c0eedf7dd1665d736b",
    "DBM": "21769637f7210628e7ebe5eb94a76c09fa795a4f67a009624b6bf571c14d656b",
    "RW": "4d9df60392d84d4cb89ac69af9f4e7b22d035afb3a99d199377f4040bf02ed23",
    "stress": "a5aedad687ae2fe4508065b7321fbc05eef9f3431991eea3c828b8dacc8af55a",
    "stress_deep": "5163c4fcac96a641f36f81266f4e6ac0e7a20237800e8d797f605a74133ac4c0",
    "stress_harmful": "41e206b1480e22e6d1c01c2619409b52573e9c2a61d2993a00ae92bcb8feb645",
}


class TestGoldenVerdicts:
    def test_every_registry_workload_matches_its_golden_hash(self):
        # Every verdict, k, counter and piece of evidence of all 385
        # registry races; a mismatch names the workloads whose races moved
        # (a multi-path fold that lets a later output difference win moves
        # bbuf and ctrace).
        names = all_workload_names(include_synthetic=True)
        assert sorted(names) == sorted(GOLDEN_VERDICTS)
        runs = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(names)
        mismatched = [
            run.workload.name
            for run in runs
            if hashlib.sha256(
                json.dumps(_full_signature([run]), sort_keys=True).encode()
            ).hexdigest()
            != GOLDEN_VERDICTS[run.workload.name]
        ]
        assert mismatched == []


class TestClassificationCache:
    def test_warm_run_computes_zero_classifications(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        cold_runs = AnalysisEngine(options=options).analyze(["RW", "bbuf"])
        warm_engine = AnalysisEngine(options=options)
        warm_runs = warm_engine.analyze(["RW", "bbuf"])
        assert warm_engine.last_run_stats.classifications_computed == 0
        assert warm_engine.last_run_stats.traces_recorded == 0
        assert warm_engine.last_run_stats.classification_cache_hits == 7
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
        AnalysisEngine(options=options).analyze(["bbuf"])
        corrupted = 0
        for path in tmp_path.glob("*-cls-*.json"):
            path.write_text("{not json")
            corrupted += 1
        assert corrupted == 1
        fresh = AnalysisEngine(options=options)
        run = fresh.analyze(["bbuf"])[0]
        assert run.classifications_cached == 0
        assert run.stats.classifications_computed == 6
        assert fresh.last_run_stats.classification_cache_hits == 0
        # The rewritten file serves every race again.
        warm = AnalysisEngine(options=options).analyze(["bbuf"])[0]
        assert warm.classifications_cached == 6

    def test_one_classification_file_per_workload(self, monkeypatch, tmp_path):
        stores = []
        original = ClassificationCache.store

        def counting(cache, program, file_key, entries):
            stores.append((program, len(entries)))
            return original(cache, program, file_key, entries)

        monkeypatch.setattr(ClassificationCache, "store", counting)
        AnalysisEngine(options=EngineOptions(cache_dir=str(tmp_path))).analyze(["bbuf", "RW"])
        # Written once per workload, when its last race lands, not per chunk.
        assert sorted(stores) == [("RW", 1), ("bbuf", 6)]
        files = sorted(path.name for path in tmp_path.glob("*-cls-*.json"))
        assert [name.split("-cls-")[0] for name in files] == ["RW", "bbuf"]
        entries = {
            name: json.loads((tmp_path / name).read_text())["entries"] for name in files
        }
        assert sorted(len(held) for held in entries.values()) == [1, 6]

    def test_file_missing_one_race_recomputes_only_that_race(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        AnalysisEngine(options=options).analyze(["bbuf"])
        (path,) = tmp_path.glob("*-cls-*.json")
        before = json.loads(path.read_text())
        dropped = sorted(before["entries"])[2]
        edited = dict(before, entries={
            race: entry for race, entry in before["entries"].items() if race != dropped
        })
        path.write_text(json.dumps(edited))
        engine = AnalysisEngine(options=options)
        run = engine.analyze(["bbuf"])[0]
        assert run.classifications_cached == 5
        assert run.stats.classifications_computed == 1
        assert engine.last_run_stats.classification_cache_hits == 5
        # The file is rewritten with the union: the five served entries as
        # they were, plus the recomputed one.
        after = json.loads(path.read_text())
        assert sorted(after["entries"]) == sorted(before["entries"])
        for race, entry in before["entries"].items():
            if race != dropped:
                assert after["entries"][race] == entry
        assert after["entries"][dropped]["key"] == before["entries"][dropped]["key"]

    def test_warm_run_leaves_the_cache_dir_untouched(self, tmp_path):
        # A load only reads: a warm run writes, renames and touches nothing.
        options = EngineOptions(cache_dir=str(tmp_path))
        AnalysisEngine(options=options).analyze(["bbuf", "RW"])

        def listing():
            return sorted(
                (path.name, path.stat().st_size, path.stat().st_mtime_ns)
                for path in tmp_path.iterdir()
            )

        before = listing()
        assert len(before) == 4  # one trace and one classification file each
        for _ in range(2):
            warm = AnalysisEngine(options=options)
            warm.analyze(["bbuf", "RW"])
            assert warm.last_run_stats.classification_cache_hits == 7
            assert listing() == before

    def test_pooled_warm_run_leaves_the_cache_dir_untouched(self, tmp_path):
        # The driver alone touches the cache, so a pooled warm run only
        # reads too, and is served every result without classifying.
        serial = EngineOptions(parallel=0, cache_dir=str(tmp_path))
        cold_runs = AnalysisEngine(options=serial).analyze(["RW", "bbuf"])

        def listing():
            return sorted(
                (path.name, path.stat().st_size, path.stat().st_mtime_ns)
                for path in tmp_path.iterdir()
            )

        before = listing()
        warm = AnalysisEngine(
            options=EngineOptions(parallel=2, cache_dir=str(tmp_path))
        )
        warm_runs = warm.analyze(["RW", "bbuf"])
        assert listing() == before
        assert warm.last_run_stats.trace_cache_hits == 2
        assert warm.last_run_stats.classification_cache_hits == 7
        assert warm.last_run_stats.classifications_computed == 0
        cold = [i.to_dict() for r in cold_runs for i in r.result.classified]
        served = [i.to_dict() for r in warm_runs for i in r.result.classified]
        assert cold == served

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
        # The race is in the entry key only; every other input changes the
        # file key, and with it every entry key.
        config = PortendConfig()
        base_file = ClassificationCache.file_key("bbuf", {"n": 1}, config)
        base = ClassificationCache.entry_key(base_file, 1)
        assert ClassificationCache.file_key("bbuf", {"n": 1}, config) == base_file
        assert ClassificationCache.entry_key(base_file, 1) == base
        assert ClassificationCache.entry_key(base_file, 2) != base
        for file_key in (
            ClassificationCache.file_key("bbuf", {"n": 2}, config),
            ClassificationCache.file_key("bbuf", {"n": 1}, PortendConfig(seed=3)),
            ClassificationCache.file_key("bbuf", {"n": 1}, config, "fp"),
            ClassificationCache.file_key(
                "bbuf", {"n": 1}, config, use_semantic_predicates=True
            ),
            ClassificationCache.file_key(
                "bbuf", {"n": 1}, config, predicate_fingerprint="p1|p2"
            ),
        ):
            assert file_key != base_file
            assert ClassificationCache.entry_key(file_key, 1) != base


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
