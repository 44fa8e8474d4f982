"""Tests for the full-stream run-wide scheduler and its cost model.

Covers the whole-pipeline streaming redesign: bit-identical verdicts and a
structurally deterministic event stream under adversarially shuffled
record/classify/plan/path completion orders (shared by serial runs, which
drain the same loop with no pool), the EWMA cost model (estimates,
chunk-size invariants -- including the wide-queue fallback fix), the
cost-aware granularity choice, the eager pool warm-up accounting, the
``scheduler_decision`` observability hooks, and the environment-variable
defaults the CI full-stream job relies on.
"""

import random

import pytest

from repro.engine import AnalysisEngine, CostModel, EngineOptions, PoolDispatcher
from repro.engine.engine import choose_granularity
from repro.engine.events import (
    fold_events,
    render_events_info,
    summarize_events,
)

from test_streaming import NAMES, _DeferredPool, _full_signature, _shuffled_wait


class TestCostModel:
    def test_ewma_fold(self):
        model = CostModel(alpha=0.5)
        model.observe("classify", "fp", 1.0)
        assert model.estimate("classify", "fp") == 1.0
        model.observe("classify", "fp", 2.0)
        assert model.estimate("classify", "fp") == pytest.approx(1.5)

    def test_estimate_falls_back_to_kind_average(self):
        model = CostModel()
        model.observe("path", "seen", 0.25)
        # Unseen fingerprint of a seen kind borrows the kind aggregate;
        # an entirely cold kind estimates 0.0 (advisory-only).
        assert model.estimate("path", "unseen") == pytest.approx(0.25)
        assert model.estimate("plan", "unseen") == 0.0

    def test_negative_observations_are_ignored(self):
        model = CostModel()
        model.observe("classify", "fp", -1.0)
        assert model.estimate("classify", "fp") == 0.0

    def test_output_seconds_prefers_worker_task_finish(self):
        output = {
            "seconds": 9.0,
            "events": [
                {"kind": "task_start", "stage": "classify"},
                {"kind": "task_finish", "stage": "classify", "seconds": 0.125},
            ],
        }
        assert CostModel.output_seconds(output) == 0.125
        assert CostModel.output_seconds({"seconds": 0.5}) == 0.5
        assert CostModel.output_seconds({}) is None
        assert CostModel.output_seconds(None) is None

    @pytest.mark.parametrize(
        "count,workers",
        [(2, 4), (6, 4), (7, 2), (8, 2), (15, 4), (100, 4), (3, 8)],
    )
    def test_cold_chunks_spread_across_all_workers(self, count, workers):
        # The wide-queue fallback fix: a batch smaller than 4*workers must
        # still split across the pool instead of collapsing into one chunk.
        model = CostModel()
        size = model.chunk_size("classify", "fp", count, workers)
        chunk_count = -(-count // size)  # ceil
        assert chunk_count >= min(count, workers), (count, workers, size)

    def test_warm_chunks_target_the_configured_seconds(self):
        model = CostModel(target_seconds=1.0)
        for _ in range(3):
            model.observe("path", "fp", 0.1)
        # ~10 tasks fit the 1s target, clamped to ceil(count/workers*waves).
        assert model.chunk_size("path", "fp", 100, 4) == 10
        # A task slower than the target runs alone.
        for _ in range(20):
            model.observe("path", "slow", 5.0)
        assert model.chunk_size("path", "slow", 100, 4) == 1


class TestCostAwareGranularity:
    def test_shape_rules_unchanged_when_cold(self):
        assert choose_granularity(1, 0) == "race"
        assert choose_granularity(1, 4) == "path"
        assert choose_granularity(8, 4) == "race"
        assert choose_granularity(1, 4, race_cost=0.0, split_cost=0.0) == "path"

    def test_expensive_split_downgrades_to_race(self):
        assert choose_granularity(1, 4, race_cost=0.1, split_cost=0.2) == "race"
        assert choose_granularity(1, 4, race_cost=0.1, split_cost=0.1) == "race"

    def test_cheap_split_keeps_path(self):
        assert choose_granularity(1, 4, race_cost=0.2, split_cost=0.1) == "path"

    def test_many_races_win_over_costs(self):
        assert choose_granularity(8, 4, race_cost=0.2, split_cost=0.1) == "race"

    def test_split_costs_cold_and_warm(self):
        model = CostModel()
        assert model.split_costs("fp") == (0.0, 0.0)
        model.observe("classify", "fp", 0.4)
        race_cost, split_cost = model.split_costs("fp")
        assert race_cost == pytest.approx(0.4)
        assert split_cost == 0.0  # no plan/path history yet: no opinion
        model.observe("plan", "fp", 0.1)
        model.observe("path", "fp", 0.05)
        race_cost, split_cost = model.split_costs("fp")
        assert split_cost == pytest.approx(0.15)


class TestWarmPool:
    def test_streaming_run_counts_exactly_one_pool_creation(self):
        # The eager warm-up builds the pool; every later dispatch (including
        # the full-stream scheduler's acquire) must count a reuse, never a
        # second creation.
        engine = AnalysisEngine(options=EngineOptions(parallel=2, granularity="path"))
        engine.analyze(["RW", "bbuf"])
        assert engine.last_run_stats.pools_created == 1
        assert engine.last_run_stats.pool_reuses >= 1

    def test_warm_is_a_noop_without_a_persistent_pool(self):
        serial = PoolDispatcher(0)
        serial.warm()
        assert serial._pool is None


class TestFullStreamDeterminism:
    def _structural(self, events):
        """The completion-order-independent projection of a run's stream
        (mirrors the projection asserted in test_events.py)."""
        projected = []
        for event in events:
            if event["kind"] in (
                "pool",
                "stage_overlap",
                "run_start",
                "scheduler_decision",
            ):
                continue
            if event["kind"] in ("solver_query", "solver_stats"):
                keep = ("kind", "result")
                projected.append({k: v for k, v in event.items() if k in keep})
            elif event["kind"] == "interp_stats":
                projected.append({"kind": "interp_stats"})
            else:
                projected.append(
                    {k: v for k, v in event.items() if k not in ("ts", "seconds")}
                )
        return projected

    def test_shuffled_full_stream_is_bit_identical_and_structurally_stable(
        self, monkeypatch
    ):
        # Record, classify, plan and path futures all land in adversarially
        # shuffled order; verdicts must stay bit-identical to the serial
        # reference and the merged event stream structurally identical
        # across every interleaving.
        reference = AnalysisEngine(
            options=EngineOptions(parallel=0, granularity="race")
        ).analyze(NAMES)
        streams = []
        for seed in (0, 3, 11, 42):
            rng = random.Random(seed)
            pool = _DeferredPool()
            monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
            monkeypatch.setattr(
                PoolDispatcher, "acquire_for", lambda self, payloads: pool
            )
            monkeypatch.setattr(
                "repro.engine.engine.wait", _shuffled_wait(pool, rng)
            )
            engine = AnalysisEngine(
                options=EngineOptions(parallel=2, granularity="auto")
            )
            shuffled = engine.analyze(NAMES)
            assert not pool.pending, seed  # the scheduler drained everything
            assert _full_signature(reference) == _full_signature(shuffled), seed
            assert fold_events(engine.last_run_events) == engine.last_run_stats
            streams.append(self._structural(engine.last_run_events))
        assert all(stream == streams[0] for stream in streams[1:])

    @pytest.mark.parametrize("granularity", ["race", "path"])
    def test_serial_run_emits_the_pooled_event_stream(self, monkeypatch, granularity):
        # A serial run is the same drain with no pool, so it replays the
        # same canonical event stream as a pooled run whose futures land in
        # shuffled order -- only pool bookkeeping differs.
        serial = AnalysisEngine(
            options=EngineOptions(parallel=0, granularity=granularity)
        )
        serial.analyze(NAMES)
        pool = _DeferredPool()
        monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
        monkeypatch.setattr(PoolDispatcher, "acquire_for", lambda self, payloads: pool)
        monkeypatch.setattr(
            "repro.engine.engine.wait", _shuffled_wait(pool, random.Random(5))
        )
        pooled = AnalysisEngine(
            options=EngineOptions(parallel=2, granularity=granularity)
        )
        pooled.analyze(NAMES)
        assert not pool.pending
        assert self._structural(serial.last_run_events) == self._structural(
            pooled.last_run_events
        )
        assert serial.last_run_stats.pools_created == 0
        assert serial.last_run_stats.pool_reuses == 0

    def test_shuffled_full_stream_with_caches(self, monkeypatch, tmp_path):
        # Same shuffle with both on-disk caches in play: the cold run's
        # verdicts and the warm run's (fully cached) verdicts must both
        # match the serial reference.
        reference = AnalysisEngine(
            options=EngineOptions(parallel=0, granularity="race")
        ).analyze(NAMES)
        cache_dir = str(tmp_path / "cache")
        for seed in (1, 5):
            rng = random.Random(seed)
            pool = _DeferredPool()
            monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
            monkeypatch.setattr(
                PoolDispatcher, "acquire_for", lambda self, payloads: pool
            )
            monkeypatch.setattr(
                "repro.engine.engine.wait", _shuffled_wait(pool, rng)
            )
            runs = AnalysisEngine(
                options=EngineOptions(
                    parallel=2, granularity="path", cache_dir=cache_dir
                )
            ).analyze(NAMES)
            assert not pool.pending, seed
            assert _full_signature(reference) == _full_signature(runs), seed

    def test_record_classify_overlap_stat_folds_from_its_channel(self):
        events = [
            {"kind": "stage_overlap", "seconds": 0.5},
            {"kind": "stage_overlap", "channel": "record_classify", "seconds": 0.25},
        ]
        stats = fold_events(events)
        assert stats.stage_overlap_seconds == 0.5
        assert stats.record_classify_overlap_seconds == 0.25
        assert "record/classify overlap seconds=0.25" in stats.summary()


class TestSchedulerObservability:
    def test_full_stream_run_emits_scheduler_decisions(self):
        engine = AnalysisEngine(
            options=EngineOptions(parallel=2, granularity="path")
        )
        engine.analyze(["stress_deep"])
        decisions = [
            e for e in engine.last_run_events if e["kind"] == "scheduler_decision"
        ]
        assert decisions
        for event in decisions:
            assert event["stage"] in ("classify", "plan", "path", "record")
            assert event["chunk_size"] >= 1
            assert event["estimated_seconds"] >= 0.0
            assert event["actual_seconds"] >= 0.0
        # Advisory detail: decisions fold into no counter.
        assert fold_events(decisions) == fold_events([])

    def test_events_info_summarizes_decisions_and_percentiles(self):
        engine = AnalysisEngine(
            options=EngineOptions(parallel=2, granularity="path")
        )
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
        monkeypatch.setenv("REPRO_DEADLINE_FLOOR_MS", value)
        assert EngineOptions().parallel == 0
        assert PoolDispatcher(0).deadline_floor_s == 30.0

    def test_garbage_env_values_raise(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "two")
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            EngineOptions()
        monkeypatch.delenv("REPRO_PARALLEL")
        monkeypatch.setenv("REPRO_DEADLINE_FLOOR_MS", "30s")
        with pytest.raises(ValueError, match="REPRO_DEADLINE_FLOOR_MS"):
            PoolDispatcher(0)
