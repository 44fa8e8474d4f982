"""Tests for the parallel batch analysis engine and the serialization layer."""

import gc
import json
import os
import pickle
import tempfile
import weakref
from dataclasses import replace

import pytest

import repro.engine.engine as engine_module
from repro.core import Portend, PortendConfig, SemanticPredicate
from repro.core.categories import ClassifiedRace
from repro.engine import AnalysisEngine, EngineOptions, TraceCache, execute_task
from repro.engine.dispatch import PoolSupervisor
from repro.engine import tasks
from repro.engine.tasks import (
    ContextSpool,
    TraceContext,
    execute_payload_chunk,
    reset_context_memo,
)
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

from test_streaming import _full_signature


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
        # The config travels as an object; its dict is only the cache-key
        # input, and it names every field, so it rebuilds the config.  An
        # unknown knob is an error, never silently dropped.
        config = PortendConfig(mp=3, ma=4, seed=7, enable_multi_schedule=False)
        data = dict(config.to_dict())
        assert PortendConfig(**data) == config
        data["future_knob"] = 1
        with pytest.raises(TypeError, match="future_knob"):
            PortendConfig(**data)

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

    def test_serial_run_without_a_cache_encodes_nothing(self, monkeypatch):
        # Tasks take the trace and config objects and return the
        # ClassifiedRace: only the cache files use the dict format, so a
        # serial run with no cache dir never encodes or decodes one.
        calls = []

        def spy_method(owner, name):
            original = getattr(owner, name)

            def spy(self):
                calls.append(f"{owner.__name__}.{name}")
                return original(self)

            monkeypatch.setattr(owner, name, spy)

        def spy_classmethod(owner, name):
            original = getattr(owner, name, None)

            def spy(cls, data):
                calls.append(f"{owner.__name__}.{name}")
                return original(data)

            monkeypatch.setattr(owner, name, classmethod(spy), raising=False)

        for owner in (ExecutionTrace, ClassifiedRace):
            spy_method(owner, "to_dict")
            spy_classmethod(owner, "from_dict")
        spy_classmethod(PortendConfig, "from_dict")
        runs = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(["bbuf", "RW"])
        assert sum(len(run.result.classified) for run in runs) > 0
        assert calls == []

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

    def test_closure_workload_runs_inline_beside_the_pool(self, monkeypatch):
        # A predicate closure does not pickle: that workload's chunks run in
        # the driver while the other workload's chunks still go to the pool,
        # and the verdicts match a serial run.
        rw = load_workload("RW")
        closure = Workload(
            name="RW-closure",
            program=rw.program,
            inputs=dict(rw.inputs),
            predicates=list(rw.predicates)
            + [SemanticPredicate("always", lambda state: True)],
        )
        batch = [load_workload("bbuf"), closure]
        serial = AnalysisEngine(options=EngineOptions(parallel=0)).analyze_workloads(batch)
        submitted, _recorded, _timeline = _spy_submits_and_recordings(monkeypatch)
        pooled = AnalysisEngine(options=EngineOptions(parallel=2)).analyze_workloads(batch)
        assert {(name, inline) for name, _worker, inline in submitted} == {
            ("bbuf", False),
            ("RW-closure", True),
        }
        assert _full_signature(pooled) == _full_signature(serial)

    def test_whatif_program_overrides_registry_rebuild(self):
        from repro.workloads.memcached import build_memcached

        workload = build_memcached(remove_slab_lock=True)
        run = analyze_workload(workload, options=EngineOptions(parallel=2))
        by_var = {c.race.location.name: c for c in run.result.classified}
        # The slab race only exists in the what-if variant; classifying it
        # requires the task to carry the actual program, not the registry's.
        assert "slab_index" in by_var
        assert run.result.distinct_races() == 19


def _spy_submits_and_recordings(monkeypatch):
    """Spy on the supervisor's submits and the driver's recordings.

    Returns ``(submitted, recorded, timeline)``: ``(workload, worker,
    inline)`` per submitted chunk, ``(program, pid)`` per recording, and
    both in call order as ``("submit" | "record", name)`` steps.
    """
    submitted, recorded, timeline = [], [], []
    submit = PoolSupervisor.submit
    record = engine_module.record_program_trace

    def spy_submit(self, worker, payloads, tag, inline=False):
        name = payloads[0]["workload"]
        submitted.append((name, worker, inline))
        timeline.append(("submit", name))
        return submit(self, worker, payloads, tag, inline=inline)

    def spy_record(program, **kwargs):
        recorded.append((program.name, os.getpid()))
        timeline.append(("record", program.name))
        return record(program, **kwargs)

    monkeypatch.setattr(PoolSupervisor, "submit", spy_submit)
    monkeypatch.setattr(engine_module, "record_program_trace", spy_record)
    return submitted, recorded, timeline


def _spool_dirs():
    return sorted(
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith("repro-spool-")
    )


class TestContextSpool:
    """A pooled run pickles each trace's context once, into a run-scoped
    ``repro-spool-*`` dir; its payloads carry only the file's path."""

    def test_pooled_payloads_name_the_spool_file(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        payloads = []
        submit = PoolSupervisor.submit

        def spy_submit(self, worker, chunk, tag, inline=False):
            payloads.extend(chunk)
            return submit(self, worker, chunk, tag, inline=inline)

        monkeypatch.setattr(PoolSupervisor, "submit", spy_submit)
        AnalysisEngine(options=EngineOptions(parallel=2)).analyze(["bbuf", "RW"])
        assert payloads
        assert {frozenset(payload) for payload in payloads} == {
            frozenset({"workload", "race_id", "spool"})
        }
        # One file per trace, shared by every chunk of that trace.
        files = {payload["workload"]: set() for payload in payloads}
        for payload in payloads:
            files[payload["workload"]].add(payload["spool"])
        assert all(len(pairs) == 1 for pairs in files.values())
        assert len({pairs.pop() for pairs in files.values()}) == 2
        assert _spool_dirs() == []

    def test_serial_run_writes_no_spool(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        writes = []
        write = ContextSpool.write

        def spy_write(self, context):
            writes.append(context)
            return write(self, context)

        monkeypatch.setattr(ContextSpool, "write", spy_write)
        AnalysisEngine(options=EngineOptions(parallel=0)).analyze(["bbuf", "RW"])
        assert writes == []
        assert list(tmp_path.iterdir()) == []

    def test_pooled_run_removes_its_spool(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        seen = []
        write = ContextSpool.write

        def spy_write(self, context):
            path = write(self, context)
            seen.append(_spool_dirs())
            return path

        monkeypatch.setattr(ContextSpool, "write", spy_write)
        AnalysisEngine(options=EngineOptions(parallel=2)).analyze(["bbuf", "RW"])
        assert [len(dirs) for dirs in seen] == [1, 1]
        assert _spool_dirs() == []

    def test_drain_that_raises_removes_its_spool(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def broken_wait(*_args, **_kwargs):
            assert len(_spool_dirs()) == 1
            raise RuntimeError("drain failed")

        monkeypatch.setattr(engine_module, "wait", broken_wait)
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        with pytest.raises(RuntimeError, match="drain failed"):
            engine.analyze(["bbuf", "RW"])
        assert _spool_dirs() == []

    def test_a_process_loads_each_context_once(self, tmp_path, monkeypatch):
        # Every chunk of a trace on one process classifies against the one
        # context the slot loaded from the spool.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        workload, _portend, trace = _record_trace("RW")
        spool = ContextSpool()
        path = spool.write(
            TraceContext(trace, PortendConfig(), workload.program, tuple(workload.predicates))
        )
        payloads = [
            {"workload": "RW", "race_id": race.race_id, "spool": path}
            for race in trace.races
        ]
        reset_context_memo()
        try:
            first = tasks._spooled_context(path)
            spool.remove()
            for payload, race in zip(payloads, trace.races):
                # The verdict comes back without its race, and it is the
                # verdict of the payload's race.
                classified = execute_task(payload)["classified"]
                assert tasks._CONTEXT == (path, first)
                assert classified.race is None
                assert _verdict(classified) == _verdict(_portend.classify_race(trace, race))
        finally:
            reset_context_memo()
        assert first.trace is not trace

    def test_a_context_never_pickles_its_memo(self):
        workload, _portend, trace = _record_trace("bbuf")
        context = TraceContext(
            trace, PortendConfig(), workload.program, tuple(workload.predicates)
        )
        before = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        execute_task(
            {"workload": "bbuf", "race_id": trace.races[0].race_id, "context": context}
        )
        assert context.memo.replays and context.memo.searches
        assert pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL) == before
        loaded = pickle.loads(before)
        assert loaded.memo is not context.memo
        assert not loaded.memo.replays and not loaded.memo.searches
        assert not loaded.memo.solver.check and not loaded.memo.solver.ranges

    def test_spooled_chunks_of_a_trace_share_the_loaded_contexts_memo(
        self, tmp_path, monkeypatch
    ):
        # Two chunks of one trace back to back in one process execute what
        # one chunk of both races does: the second reuses the replay
        # passes and search the first left in the loaded context's memo.
        # A chunk of another trace's spool then replaces the context, and
        # the first one's passes and search go with it.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spool = ContextSpool()

        def spooled(name):
            workload, _portend, trace = _record_trace(name)
            path = spool.write(
                TraceContext(
                    trace, PortendConfig(), workload.program, tuple(workload.predicates)
                )
            )
            return [
                {"workload": name, "race_id": race.race_id, "spool": path}
                for race in trace.races
            ]

        def statements(payloads):
            outputs = execute_payload_chunk(execute_task, payloads)
            return sum(
                event["statements"]
                for output in outputs
                for event in output["events"]
                if event["kind"] == "interp_stats"
            )

        bbuf, whole, alone, rw = spooled("bbuf"), spooled("bbuf"), spooled("bbuf"), spooled("RW")
        half = len(bbuf) // 2
        assert half > 0
        reset_context_memo()
        try:
            split = statements(bbuf[:half])
            second_half = statements(bbuf[half:])
            loaded = tasks._CONTEXT[1]
            assert loaded.memo.replays and loaded.memo.searches
            refs = [
                weakref.ref(held)
                for held in (
                    loaded,
                    loaded.trace,
                    loaded.memo,
                    *loaded.memo.replays.values(),
                    *loaded.memo.searches.values(),
                )
            ]
            del loaded
            statements(rw)
            gc.collect()
            assert [ref() for ref in refs] == [None] * len(refs)
            assert split + second_half == statements(whole)
            # The sharing is real: the second half alone, on a context of
            # its own, executes more.
            assert statements(alone[half:]) > second_half
        finally:
            reset_context_memo()
            spool.remove()

    def test_chunks_of_a_trace_share_one_search_per_worker(self):
        # Each pooled chunk used to unpickle its own program copy, and the
        # shared search is keyed by program identity, so every chunk
        # rebuilt its trace's search: 60 forks on stress_deep, 90 on the
        # mixed batch.  Now each of the 2 workers builds it at most once.
        for names, forks in (
            (["stress_deep"], 15),
            (["bbuf", "stress_deep", "ctrace"], 21),
        ):
            serial = AnalysisEngine(options=EngineOptions(parallel=0))
            serial.analyze(names)
            assert serial.last_run_stats.interp_forks == forks
            pooled = AnalysisEngine(options=EngineOptions(parallel=2))
            pooled.analyze(names)
            assert pooled.last_run_stats.interp_forks <= 2 * forks


class TestTraceCache:
    def test_cache_hit_skips_re_recording(self, tmp_path):
        options = EngineOptions(cache_dir=str(tmp_path))
        first = AnalysisEngine(options=options)
        run1 = first.analyze(["RW"])[0]
        assert not run1.trace_cached
        assert first.last_run_stats.trace_cache_hits == 0
        assert first.last_run_stats.traces_recorded == 1
        assert list(tmp_path.glob("*.json"))

        second = AnalysisEngine(options=options)
        run2 = second.analyze(["RW"])[0]
        assert run2.trace_cached
        assert second.last_run_stats.trace_cache_hits == 1
        assert second.last_run_stats.traces_recorded == 0
        assert _classification_signature(
            run1.result.classified
        ) == _classification_signature(run2.result.classified)

    #: a batch whose middle workload is a trace-cache hit once RW is cached
    MIXED = ["bbuf", "RW", "SQLite"]

    def _mixed_pooled_run(self, monkeypatch, tmp_path):
        """Cache RW's trace (not its classifications), then run
        :attr:`MIXED` on a pool with the supervisor's submits and the
        driver's recordings spied on (see :func:`_spy_submits_and_recordings`)."""
        options = EngineOptions(parallel=2, cache_dir=str(tmp_path))
        AnalysisEngine(options=EngineOptions(parallel=0, cache_dir=str(tmp_path))).analyze(
            ["RW"]
        )
        for path in tmp_path.glob("*-cls-*.json*"):
            path.unlink()
        engine = AnalysisEngine(options=options)
        submitted, recorded, timeline = _spy_submits_and_recordings(monkeypatch)
        return engine, engine.analyze(self.MIXED), submitted, recorded, timeline

    def test_pooled_run_records_each_miss_once_in_the_driver(self, monkeypatch, tmp_path):
        # Recording runs in the driving process, once per trace-cache miss
        # and in batch order; the pool is only ever handed classification
        # chunks.
        engine, runs, submitted, recorded, _timeline = self._mixed_pooled_run(
            monkeypatch, tmp_path
        )
        assert recorded == [("bbuf", os.getpid()), ("SQLite", os.getpid())]
        assert [run.trace_cached for run in runs] == [False, True, False]
        assert engine.last_run_stats.traces_recorded == 2
        assert engine.last_run_stats.trace_cache_hits == 1
        # RW's trace is a hit, but its races are not: they go to the pool.
        assert engine.last_run_stats.classifications_computed == sum(
            len(run.result.classified) for run in runs
        )
        assert submitted
        assert {worker for _name, worker, _inline in submitted} == {execute_task}
        assert not any(inline for _name, _worker, inline in submitted)

    def test_mixed_hits_and_misses_match_a_serial_run(self, monkeypatch, tmp_path):
        _engine, runs, _submitted, _recorded, _timeline = self._mixed_pooled_run(
            monkeypatch, tmp_path
        )
        serial = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(self.MIXED)
        assert _full_signature(runs) == _full_signature(serial)
        for pooled_run, serial_run in zip(runs, serial):
            assert pooled_run.result.trace == serial_run.result.trace

    def test_each_recording_submits_its_chunks_before_the_next(
        self, monkeypatch, tmp_path
    ):
        # The trace-cache hit's chunks enter the pool first; then each miss
        # is recorded and its chunks submitted before the driver records the
        # next, so the pool classifies one workload while the next records.
        *_rest, timeline = self._mixed_pooled_run(monkeypatch, tmp_path)
        steps = [
            step for i, step in enumerate(timeline) if not i or timeline[i - 1] != step
        ]
        assert steps == [
            ("submit", "RW"),
            ("record", "bbuf"),
            ("submit", "bbuf"),
            ("record", "SQLite"),
            ("submit", "SQLite"),
        ]

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
        assert fresh.last_run_stats.trace_cache_hits == 0
        assert fresh.last_run_stats.traces_recorded == 1

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


def _count_walks(monkeypatch):
    """Count ``_canonical`` calls (every node of every fingerprint walk)."""
    import repro.engine.cache as cache_module

    walks = []
    original = cache_module._canonical

    def counting(obj):
        walks.append(1)
        return original(obj)

    monkeypatch.setattr(cache_module, "_canonical", counting)
    return walks


class TestProgramFingerprint:
    def test_second_call_on_one_program_walks_nothing(self, monkeypatch):
        program = load_workload("bbuf").program
        first = TraceCache.program_fingerprint(program)
        walks = _count_walks(monkeypatch)
        assert TraceCache.program_fingerprint(program) == first
        assert walks == []

    def test_second_pass_over_one_batch_walks_nothing(self, monkeypatch):
        batch = [load_workload("RW"), load_workload("bbuf")]
        first = AnalysisEngine().analyze_workloads(batch)
        walks = _count_walks(monkeypatch)
        second = AnalysisEngine().analyze_workloads(batch)
        assert walks == []
        assert _classification_signature(
            first[1].result.classified
        ) == _classification_signature(second[1].result.classified)

    @staticmethod
    def _count_fingerprints(monkeypatch):
        """Record the program of every ``TraceCache.program_fingerprint`` call."""
        calls = []
        original = TraceCache.program_fingerprint

        def counting(program):
            calls.append(program)
            return original(program)

        monkeypatch.setattr(TraceCache, "program_fingerprint", staticmethod(counting))
        return calls

    def test_a_run_without_a_cache_fingerprints_no_program(self, monkeypatch):
        calls = self._count_fingerprints(monkeypatch)
        batch = [load_workload(name) for name in ("RW", "bbuf", "ctrace")]
        runs = AnalysisEngine(options=EngineOptions(parallel=0)).analyze_workloads(batch)
        assert all(run.result.classified for run in runs)
        assert calls == []

    def test_a_cached_run_fingerprints_each_program_once(self, monkeypatch, tmp_path):
        batch = [load_workload(name) for name in ("RW", "bbuf")]
        # the digests the trace keys must carry, taken before counting
        digests = [TraceCache.program_fingerprint(w.program) for w in batch]
        calls = self._count_fingerprints(monkeypatch)
        options = EngineOptions(parallel=0, cache_dir=str(tmp_path))
        AnalysisEngine(options=options).analyze_workloads(batch)
        assert calls == [w.program for w in batch]
        cache = TraceCache(str(tmp_path))
        config = PortendConfig()
        for workload, digest in zip(batch, digests):
            key = TraceCache.key(workload.name, workload.inputs, config, digest)
            assert cache._path(workload.name, key).exists()
        engine = AnalysisEngine(options=options)
        rerun = engine.analyze_workloads([load_workload(w.name) for w in batch])
        assert all(run.trace_cached for run in rerun)
        assert engine.last_run_stats.classifications_computed == 0

    def test_mutating_a_global_yields_a_fresh_digest(self):
        program = load_workload("RW").program
        before = TraceCache.program_fingerprint(program)
        name = sorted(program.globals)[0]
        program.globals[name] += 1
        after = TraceCache.program_fingerprint(program)
        fresh = load_workload("RW").program
        fresh.globals[name] += 1
        assert after != before
        assert after == TraceCache.program_fingerprint(fresh)

    def test_replacing_a_function_yields_a_fresh_digest(self):
        import dataclasses

        def widen(program):
            function = program.functions[program.entry]
            program.functions[program.entry] = dataclasses.replace(
                function, params=function.params + ("extra",)
            )

        program = load_workload("RW").program
        before = TraceCache.program_fingerprint(program)
        widen(program)
        after = TraceCache.program_fingerprint(program)
        fresh = load_workload("RW").program
        widen(fresh)
        assert after != before
        assert after == TraceCache.program_fingerprint(fresh)

    def test_unfinalized_programs_are_never_memoised(self, monkeypatch):
        from repro.engine.cache import _FINGERPRINTS
        from repro.lang.program import Program

        program = Program("draft")
        program.add_global("g", 1)
        first = TraceCache.program_fingerprint(program)
        assert program not in _FINGERPRINTS
        walks = _count_walks(monkeypatch)
        assert TraceCache.program_fingerprint(program) == first
        assert walks  # recomputed, not served from a memo

    def test_whatif_variant_differs_from_the_default_build(self):
        from repro.workloads.memcached import build_memcached

        assert TraceCache.program_fingerprint(
            build_memcached(remove_slab_lock=True).program
        ) != TraceCache.program_fingerprint(build_memcached().program)

    def test_every_declaration_field_is_hashed(self):
        # A new public Program field must join PROGRAM_FIELDS, or two
        # programs differing only there would share cache entries.
        from repro.engine.cache import PROGRAM_FIELDS
        from repro.lang.program import Program

        public = {name for name in vars(Program("p")) if not name.startswith("_")}
        assert public == set(PROGRAM_FIELDS)


def _verdict(classified):
    """A verdict's dict without its race and its wall-clock seconds."""
    data = replace(classified, race=None).to_dict()
    del data["analysis_seconds"]
    return data


def _classify_first_race(name):
    """Run the classify entry point on ``name``'s first race; returns the
    trace and the worker's verdict, re-attached to the trace's report as
    the driver does."""
    workload, _portend, trace = _record_trace(name)
    race = trace.races[0]
    context = TraceContext(trace, PortendConfig(), workload.program, tuple(workload.predicates))
    output = execute_task({"workload": name, "race_id": race.race_id, "context": context})
    classified = output["classified"]
    assert isinstance(classified, ClassifiedRace) and classified.race is None
    classified.race = race
    return trace, classified


class TestCacheStores:
    def test_classification_entry_is_the_worker_dict(self, tmp_path):
        # The worker returns its ClassifiedRace; the cache alone writes its
        # dict, without the race, under the race's entry key, and decodes
        # it on load onto the recording's own report.
        from repro.engine import ClassificationCache

        trace, classified = _classify_first_race("bbuf")
        race = trace.races[0]
        cache = ClassificationCache(tmp_path)
        path = cache.store("bbuf", "f" * 64, {race.race_id: classified})
        entry = json.loads(path.read_text())["entries"][str(race.race_id)]
        assert entry == {
            "key": ClassificationCache.entry_key("f" * 64, race.race_id),
            "classified": replace(classified, race=None).to_dict(),
        }
        assert "race" not in entry["classified"]
        loaded = cache.load("bbuf", "f" * 64, [race])
        assert list(loaded) == [race.race_id]
        assert loaded[race.race_id].race is race
        assert loaded[race.race_id].to_dict() == classified.to_dict()

    def test_entry_with_another_race_key_is_a_miss(self, tmp_path):
        from repro.engine import ClassificationCache

        trace, classified = _classify_first_race("RW")
        race = trace.races[0]
        other = replace(race, race_id=race.race_id + 1)
        cache = ClassificationCache(tmp_path)
        path = cache.store("RW", "f" * 64, {race.race_id: classified})
        # The file key matches, the race's own key does not: no entry served.
        data = json.loads(path.read_text())
        data["entries"][str(race.race_id)]["key"] = "x" * 64
        path.write_text(json.dumps(data))
        assert cache.load("RW", "f" * 64, [race]) is None
        # A race the file does not hold is a miss beside one it serves.
        cache.store("RW", "f" * 64, {race.race_id: classified})
        loaded = cache.load("RW", "f" * 64, [race, other])
        assert list(loaded) == [race.race_id]

    def test_classification_loads_only_read(self, tmp_path):
        # A hit, a partial hit and a miss all leave the file as stored: no
        # sidecar, no rewrite, no refreshed mtime.
        from repro.engine import ClassificationCache

        trace, classified = _classify_first_race("RW")
        race = trace.races[0]
        other = replace(race, race_id=race.race_id + 1)
        cache = ClassificationCache(tmp_path)
        path = cache.store("RW", "f" * 64, {race.race_id: classified})
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        assert list(cache.load("RW", "f" * 64, [race])) == [race.race_id]
        assert list(cache.load("RW", "f" * 64, [race, other])) == [race.race_id]
        assert cache.load("RW", "f" * 64, [other]) is None
        assert cache.load("RW", "e" * 64, [race]) is None
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before

    def test_keys_stored_this_run_are_not_hit_this_run(self, monkeypatch, tmp_path):
        # A workload twice in one batch shares its classification file; its
        # second copy must not hit entries the first stored mid-run, or
        # hit counts would follow completion timing.  The fake pool lands
        # the newest chunk first, so one copy's classifications are stored
        # before the other copy's recording lands.
        engine = _newest_first_engine(monkeypatch, tmp_path)
        runs = engine.analyze(["RW", "bbuf", "RW"])
        assert [run.classifications_cached for run in runs] == [0, 0, 0]
        assert engine.last_run_stats.classifications_computed == 8

    def test_workload_twice_over_a_partial_file_is_served_alike(self, monkeypatch, tmp_path):
        # Both copies are served what the file held when the run began: the
        # copy whose recording lands last must not skip the file because the
        # other copy rewrote it in the meantime.
        AnalysisEngine(options=EngineOptions(cache_dir=str(tmp_path))).analyze(["bbuf"])
        for path in tmp_path.glob("*.json"):
            if "-cls-" not in path.name:
                path.unlink()  # re-record, so recordings land in completion order
        (path,) = tmp_path.glob("*-cls-*.json")
        data = json.loads(path.read_text())
        del data["entries"][sorted(data["entries"])[0]]
        path.write_text(json.dumps(data))
        engine = _newest_first_engine(monkeypatch, tmp_path)
        runs = engine.analyze(["bbuf", "bbuf"])
        assert [run.classifications_cached for run in runs] == [5, 5]
        assert engine.last_run_stats.classifications_computed == 2
        # Each copy recorded its own trace, and each verdict, served or
        # computed, holds its own copy's report.
        assert runs[0].result.trace is not runs[1].result.trace
        for run in runs:
            for item in run.result.classified:
                assert item.race is run.result.trace.race_by_id(item.race.race_id)


def _newest_first_engine(monkeypatch, tmp_path):
    """A pooled, cached engine whose fake pool lands the newest chunk first."""
    from test_streaming import _DeferredPool

    from repro.engine.dispatch import PoolDispatcher

    pool = _DeferredPool()

    def newest_first(futures, return_when=None, timeout=None):
        newest = [future for future in pool.pending if future in futures][-1]
        fn, args = pool.pending.pop(newest)
        newest.set_result(fn(*args))
        return {newest}, set(futures) - {newest}

    monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
    monkeypatch.setattr(PoolDispatcher, "acquire", lambda self: pool)
    monkeypatch.setattr("repro.engine.engine.wait", newest_first)
    return AnalysisEngine(options=EngineOptions(parallel=2, cache_dir=str(tmp_path)))


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
