"""Tests for the full-stream run-wide scheduler.

Covers the whole-pipeline streaming redesign: bit-identical verdicts and a
structurally deterministic event stream under adversarially shuffled
classify completion orders (shared by serial runs, which drain the same
loop with no pool), the static chunk rule's invariants, the flat
chunk deadline, the eager pool warm-up accounting, the
``scheduler_decision`` observability hooks, and the environment-variable
defaults the CI full-stream job relies on.
"""

import random

import pytest

from repro.engine import AnalysisEngine, EngineOptions, PoolDispatcher
from repro.engine.engine import _chunk_size
from repro.engine.events import (
    fold_events,
    render_events_info,
    summarize_events,
)
from repro.engine.tasks import execute_noop_task

from test_streaming import (
    NAMES,
    _DeferredPool,
    _full_signature,
    _shuffled_wait,
    _structural,
)


class TestChunkSize:
    @pytest.mark.parametrize(
        "count,workers",
        [(2, 4), (6, 4), (7, 2), (8, 2), (15, 4), (100, 4), (3, 8)],
    )
    def test_chunks_spread_across_all_workers_under_the_cap(self, count, workers):
        # Never fewer than min(count, workers) chunks, and never more than
        # count // (workers * waves) payloads in one chunk, so no chunk can
        # serialize the queue onto one worker.
        size = _chunk_size(count, workers)
        chunk_count = -(-count // size)  # ceil
        assert chunk_count >= min(count, workers), (count, workers, size)
        waves = 2 if count >= 2 * workers else 1
        assert size <= max(1, count // (workers * waves)), (count, workers, size)

    @pytest.mark.parametrize(
        "count,size", [(160, 40), (120, 30), (8, 2), (3, 1), (0, 1), (-3, 1)]
    )
    def test_two_waves_per_worker_and_size_one_when_empty(self, count, size):
        # Deep queues get exactly the two-wave cap; an empty one gets 1.
        assert _chunk_size(count, 2) == size


class TestDeadline:
    @pytest.mark.parametrize(
        "task_deadline_ms,seconds", [(0, 30.0), (-5, 30.0), (1200, 1.2)]
    )
    def test_pooled_chunk_waits_on_the_flat_deadline(self, task_deadline_ms, seconds):
        # 0 (or less) means the 30 s default; anything above pins the chunk
        # deadline the supervisor's wait times out on.
        pool = _DeferredPool()
        shuffled = _shuffled_wait(pool, random.Random(0))
        timeouts = []

        def wait(futures, return_when=None, timeout=None):
            timeouts.append(timeout)
            return shuffled(futures, return_when, timeout)

        dispatcher = PoolDispatcher(2, task_deadline_ms=task_deadline_ms)
        assert dispatcher.deadline_s == seconds
        supervisor = dispatcher.supervise(pool, wait_fn=wait)
        supervisor.submit(execute_noop_task, [{}], tag="noop")
        assert supervisor.wait_some() == [("noop", [{}])]
        assert len(timeouts) == 1
        assert seconds - 1.0 < timeouts[0] <= seconds


class TestWarmPool:
    def test_streaming_run_counts_exactly_one_pool_creation(self):
        # The eager warm-up builds the pool; every later dispatch (including
        # the full-stream scheduler's acquire) must count a reuse, never a
        # second creation.
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        engine.analyze(["RW", "bbuf"])
        assert engine.last_run_stats.pools_created == 1
        assert engine.last_run_stats.pool_reuses >= 1

    def test_warm_is_a_noop_without_a_persistent_pool(self):
        serial = PoolDispatcher(0)
        serial.warm()
        assert serial._pool is None


class TestFullStreamDeterminism:
    def test_shuffled_full_stream_is_bit_identical_and_structurally_stable(
        self, monkeypatch
    ):
        # Classify futures land in adversarially shuffled order while the
        # driver records the next workload; verdicts must stay
        # bit-identical to the serial reference and the merged event stream
        # structurally identical across every interleaving.
        reference = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(NAMES)
        streams = []
        for seed in (0, 3, 11, 42):
            rng = random.Random(seed)
            pool = _DeferredPool()
            monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
            monkeypatch.setattr(PoolDispatcher, "acquire", lambda self: pool)
            monkeypatch.setattr(
                "repro.engine.engine.wait", _shuffled_wait(pool, rng)
            )
            engine = AnalysisEngine(options=EngineOptions(parallel=2))
            shuffled = engine.analyze(NAMES)
            assert not pool.pending, seed  # the scheduler drained everything
            assert _full_signature(reference) == _full_signature(shuffled), seed
            assert fold_events(engine.last_run_events) == engine.last_run_stats
            streams.append(_structural(engine.last_run_events))
        assert all(stream == streams[0] for stream in streams[1:])

    def test_serial_run_emits_the_pooled_event_stream(self, monkeypatch):
        # A serial run is the same drain with no pool, so it replays the
        # same canonical event stream as a pooled run whose futures land in
        # shuffled order -- only pool bookkeeping differs, and the chunk
        # decisions: chunks are cut for a width-1 drain serially and a
        # width-2 one pooled.
        serial = AnalysisEngine(options=EngineOptions(parallel=0))
        serial.analyze(NAMES)
        pool = _DeferredPool()
        monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
        monkeypatch.setattr(PoolDispatcher, "acquire", lambda self: pool)
        monkeypatch.setattr(
            "repro.engine.engine.wait", _shuffled_wait(pool, random.Random(5))
        )
        pooled = AnalysisEngine(options=EngineOptions(parallel=2))
        pooled.analyze(NAMES)
        assert not pool.pending
        skip = ("scheduler_decision",)
        assert _structural(serial.last_run_events, skip) == _structural(
            pooled.last_run_events, skip
        )
        assert serial.last_run_stats.pools_created == 0
        assert serial.last_run_stats.pool_reuses == 0

    def test_shuffled_full_stream_with_caches(self, monkeypatch, tmp_path):
        # Same shuffle with both on-disk caches in play: the cold run's
        # verdicts and the warm run's (fully cached) verdicts must both
        # match the serial reference.
        reference = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(NAMES)
        cache_dir = str(tmp_path / "cache")
        for seed in (1, 5):
            rng = random.Random(seed)
            pool = _DeferredPool()
            monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
            monkeypatch.setattr(PoolDispatcher, "acquire", lambda self: pool)
            monkeypatch.setattr(
                "repro.engine.engine.wait", _shuffled_wait(pool, rng)
            )
            runs = AnalysisEngine(
                options=EngineOptions(parallel=2, cache_dir=cache_dir)
            ).analyze(NAMES)
            assert not pool.pending, seed
            assert _full_signature(reference) == _full_signature(runs), seed

    def test_overlap_events_of_older_logs_fold_to_nothing(self):
        # Older versions recorded on the pool and timed how long records and
        # classifications were both in flight; recording runs in the driver
        # now, so those events, with a channel or without, fold to nothing.
        events = [
            {"kind": "stage_overlap", "seconds": 0.5},
            {"kind": "stage_overlap", "channel": "record_classify", "seconds": 0.25},
        ]
        stats = fold_events(events)
        assert stats == fold_events([])
        assert "overlap" not in stats.summary()


class TestSchedulerObservability:
    def test_full_stream_run_emits_scheduler_decisions(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        engine.analyze(["stress_deep"])
        decisions = [
            e for e in engine.last_run_events if e["kind"] == "scheduler_decision"
        ]
        assert decisions
        for event in decisions:
            assert event["stage"] == "classify"
            assert event["chunk_size"] >= 1
            assert event["actual_seconds"] >= 0.0
            assert "estimated_seconds" not in event
        # Advisory detail: decisions fold into no counter.
        assert fold_events(decisions) == fold_events([])

    def test_pooled_runs_cut_identical_chunks_in_canonical_order(self):
        # Chunk sizes follow the static rule, and decisions replay in
        # (workload, chunk start) order: two real pooled runs of one batch
        # emit the same sequence whatever order their chunks completed in.
        sequences = []
        for _ in range(2):
            engine = AnalysisEngine(options=EngineOptions(parallel=2))
            runs = engine.analyze(NAMES)
            sequences.append(
                [
                    (e["stage"], e["chunk_size"])
                    for e in engine.last_run_events
                    if e["kind"] == "scheduler_decision"
                ]
            )
        expected = []
        for run in runs:
            count = len(run.result.classified)
            size = _chunk_size(count, 2)
            expected += [
                ("classify", min(size, count - start))
                for start in range(0, count, size)
            ]
        assert sequences[0] == sequences[1] == expected

    def test_events_info_summarizes_decisions_and_percentiles(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        engine.analyze(["stress_deep"])
        summary = summarize_events(engine.last_run_events)
        assert summary["scheduler_decisions"]
        for data in summary["scheduler_decisions"].values():
            assert data["chunks"] >= 1
            assert data["tasks"] >= data["chunks"]
        for data in summary["stage_latency"].values():
            assert data["p50_seconds"] <= data["p95_seconds"]
        report = render_events_info(engine.last_run_events)
        assert "scheduler decisions:" in report
        assert "p50=" in report and "p95=" in report

    def test_events_info_handles_streams_without_decisions(self):
        report = render_events_info([])
        assert "(no scheduler_decision events)" in report


class TestEnvironmentDefaults:
    def test_parallel_dispatch_and_chunk_target(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        options = EngineOptions()
        assert options.parallel == 3
        assert options.dispatch == "streaming"  # pinned: not an env knob
        assert options.chunk_target_ms == 500  # pinned: not an env knob
        # Explicit constructor arguments always win over the environment.
        pinned = EngineOptions(parallel=0, dispatch="streaming", chunk_target_ms=500)
        assert pinned.parallel == 0
        assert pinned.dispatch == "streaming"
        assert pinned.chunk_target_ms == 500
        with pytest.raises(ValueError, match="chunk_target_ms"):
            EngineOptions(chunk_target_ms=250)

    def test_defaults_without_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        options = EngineOptions()
        assert options.parallel == 0
        assert options.dispatch == "streaming"
        assert options.chunk_target_ms == 500

    @pytest.mark.parametrize("value", ["", "  "])
    def test_blank_env_values_mean_the_default(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PARALLEL", value)
        assert EngineOptions().parallel == 0

    def test_garbage_env_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "two")
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            EngineOptions()
