"""Tests for the structured event log.

Covers the observability refactor: event primitives (validation, logger reset,
JSONL round-trip), fold semantics (the event stream is the only producer of
engine counters), deterministic merge under adversarially shuffled future
completion, per-run stats isolation, the ``events-info`` summarizer and the
CLI plumbing.
"""

import random
import re

import pytest

from repro.engine import AnalysisEngine, EngineOptions, PoolDispatcher
from repro.engine.events import (
    EVENT_KINDS,
    EventLogger,
    fold_events,
    load_events,
    make_event,
    render_events_info,
    summarize_events,
    write_events,
)
from repro.engine.stats import EngineStats

from test_streaming import (
    NAMES,
    _DeferredPool,
    _full_signature,
    _shuffled_wait,
    _structural,
)


def _strip_volatile(events):
    """Drop the wall-clock fields -- the only nondeterministic ones."""
    return [
        {key: value for key, value in event.items() if key not in ("ts", "seconds")}
        for event in events
    ]


class TestEventPrimitives:
    def test_make_event_stamps_and_validates(self):
        event = make_event("pool", action="created")
        assert event["kind"] == "pool"
        assert event["action"] == "created"
        assert "ts" in event
        with pytest.raises(ValueError):
            make_event("not-a-kind")

    def test_logger_reset_clears_in_place(self):
        # The dispatcher holds a reference to the logger's stream; reset
        # must clear the existing list, not rebind a new one.
        logger = EventLogger()
        stream = logger._events
        logger.emit("pool", action="created")
        snapshot = logger.snapshot()
        logger.reset()
        assert len(logger) == 0
        assert logger._events is stream
        assert snapshot and snapshot[0]["kind"] == "pool"  # copies survive

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = [
            make_event("run_start", workloads=["bbuf"], parallel=0),
            make_event("cache", tier="trace", hit=False),
            make_event("run_finish", seconds=0.25),
        ]
        write_events(events, path, append=False)
        write_events([make_event("pool", action="created")], path)  # appends
        loaded = load_events(path)
        assert [e["kind"] for e in loaded] == [
            "run_start",
            "cache",
            "run_finish",
            "pool",
        ]
        assert loaded[:3] == events


class TestFoldSemantics:
    def test_every_counter_comes_from_its_event(self, tmp_path):
        # The solver_stats event is in the shape older logs wrote (with a
        # backend name and a fast-path counter): the fold ignores both.
        events = [
            # Older logs' run_start named the task grain, and their
            # per-path tasks logged plan/path lifecycle events: all load
            # and fold to nothing.
            make_event("run_start", workloads=["w"], parallel=2, granularity="path"),
            make_event("task_submit", stage="plan", workload="w", race=1),
            make_event("task_finish", stage="plan", workload="w", race=1, seconds=0.1),
            make_event("task_submit", stage="path", workload="w", race=1, path=0),
            make_event(
                "task_finish", stage="path", workload="w", race=1, path=0, seconds=0.1
            ),
            make_event("trace_recorded", workload="w"),
            make_event("cache", tier="trace", hit=True),
            make_event("cache", tier="trace", hit=False),
            make_event("cache", tier="classification", hit=True),
            make_event("classification_computed", workload="w", race="r"),
            # Older logs' path tasks emitted a ``primary`` event per task;
            # the kind is gone and folds to nothing.
            {"kind": "primary", "shipped": True, "ts": 0.0},
            {"kind": "primary", "shipped": False, "ts": 0.0},
            make_event(
                "solver_stats",
                backend="default",
                queries=7,
                cache_hits=2,
                cache_misses=5,
                enumerated_assignments=30,
                worker_cache_hits=1,
                fastpath_answers=3,
                seconds=0.5,
            ),
            make_event("pool", action="created"),
            make_event("pool", action="reused"),
            make_event("pool", action="reused"),
            # Older logs' overlap clocks, with or without a channel, and
            # their record task submits fold to nothing.
            {"kind": "stage_overlap", "seconds": 0.125, "ts": 0.0},
            {"kind": "stage_overlap", "channel": "record_classify", "seconds": 0.25, "ts": 0.0},
            make_event("task_submit", stage="record", workload="w"),
        ]
        path = str(tmp_path / "old.jsonl")
        write_events(events, path, append=False)
        loaded = load_events(path)
        stats = fold_events(loaded)
        assert "per-stage task latency:" in render_events_info(loaded)
        assert stats.traces_recorded == 1
        assert stats.trace_cache_hits == 1
        assert stats.classification_cache_hits == 1
        assert stats.classifications_computed == 1
        assert stats.solver_queries == 7
        assert stats.solver_cache_hits == 2
        assert stats.solver_cache_misses == 5
        assert stats.solver_assignments_enumerated == 30
        # The worker-lifetime solver cache is gone: an older log's count of
        # its hits folds to nothing.
        assert not hasattr(stats, "worker_cache_hits")
        assert "worker-cache" not in stats.summary()
        assert stats.solver_seconds == 0.5
        assert stats.pools_created == 1
        assert "pool reuses" not in stats.summary()
        assert "overlap" not in stats.summary()

    def test_interp_stats_fold_and_old_logs_count_zero_cutoffs(self):
        events = [
            make_event(
                "interp_stats",
                statements=40,
                forks=1,
                cow_copies=3,
                spin_cutoffs=2,
                steps_skipped=900,
                accesses=12,
                sync_events=4,
            ),
            # written before the access and sync-event counters existed
            make_event(
                "interp_stats",
                statements=7,
                forks=0,
                cow_copies=0,
                spin_cutoffs=0,
                steps_skipped=0,
            ),
            # written before the spin cutoff counters existed
            make_event("interp_stats", interp="tree", statements=10, forks=0, cow_copies=1),
            # written while a second, compiled kernel existed
            make_event(
                "interp_stats", interp="compiled", statements=5, forks=2, cow_copies=0
            ),
        ]
        stats = fold_events(events)
        assert stats.interp_statements == 62
        assert stats.interp_spin_cutoffs == 2
        assert stats.interp_steps_skipped == 900
        assert stats.interp_accesses == 12
        assert stats.interp_sync_events == 4
        assert (
            "spin cutoffs=2, steps skipped=900, interp accesses=12, interp sync events=4"
        ) in stats.summary()
        assert summarize_events(events)["interpreter"] == {
            "tasks": 4,
            "statements": 62,
            "forks": 3,
            "cow_copies": 4,
            "spin_cutoffs": 2,
            "steps_skipped": 900,
            "accesses": 12,
            "sync_events": 4,
        }
        assert (
            "interpreter counters: tasks=4 statements=62 forks=3 cow_copies=4 "
            "spin_cutoffs=2 steps_skipped=900 accesses=12 sync_events=4"
        ) in render_events_info(events).splitlines()

    def test_lifecycle_events_fold_to_nothing(self):
        events = [
            make_event("run_start", workloads=["w"]),
            make_event("task_submit", stage="classify", workload="w"),
            make_event("task_start", stage="classify", workload="w"),
            make_event("task_finish", stage="classify", workload="w", seconds=0.1),
            make_event("run_finish", seconds=1.0),
        ]
        assert fold_events(events) == EngineStats()

    @pytest.mark.parametrize(
        "legacy",
        [
            [{"kind": "stage_overlap", "seconds": 0.5, "ts": 0.0}],
            [make_event("run_start", workloads=["w"], parallel=2, granularity="path")],
            [
                make_event("task_submit", stage="plan", workload="w", race=1),
                make_event("task_start", stage="plan", workload="w", race=1),
                make_event("task_finish", stage="plan", workload="w", race=1, seconds=0.1),
                make_event("task_submit", stage="path", workload="w", race=1, path=0),
                make_event("task_start", stage="path", workload="w", race=1, path=0),
                make_event(
                    "task_finish", stage="path", workload="w", race=1, path=0, seconds=0.2
                ),
            ],
            [
                make_event(
                    "scheduler_decision",
                    stage="classify",
                    chunk_size=4,
                    estimated_seconds=0.0,
                    actual_seconds=0.01,
                )
            ],
            # per-query solver detail, with the marker of its per-task cap;
            # the per-task solver_stats snapshot already counted these
            # queries, so they fold to nothing
            [
                {
                    "kind": "solver_query",
                    "result": "sat",
                    "cached": False,
                    "worker_hit": False,
                    "seconds": 0.1,
                    "ts": 0.0,
                }
                for _ in range(5)
            ]
            + [{"kind": "events_truncated", "dropped": 3, "ts": 0.0}],
            # the per-dispatch pool reuse count
            [make_event("pool", action="reused") for _ in range(3)],
        ],
        ids=[
            "channel_less_overlap",
            "granularity_field",
            "plan_path_tasks",
            "estimated_decision",
            "solver_query_detail",
            "pool_reused",
        ],
    )
    def test_each_older_log_shape_loads_and_folds_to_nothing(self, tmp_path, legacy):
        # Each shape an older log may hold, on its own: it loads from disk,
        # folds to no counter at all, and still renders in events-info.
        path = str(tmp_path / "old.jsonl")
        write_events(legacy, path, append=False)
        loaded = load_events(path)
        assert len(loaded) == len(legacy)
        assert fold_events(loaded) == EngineStats()
        assert "events:" in render_events_info(loaded)

    def test_overlap_is_no_event_kind_and_no_counter(self):
        # Recording runs in the driver, so no record/classify overlap is
        # measured: the kind is gone, and the stats line names no overlap.
        assert "stage_overlap" not in EVENT_KINDS
        with pytest.raises(ValueError, match="unknown event kind"):
            make_event("stage_overlap", seconds=0.5)
        assert "overlap" not in EngineStats().summary()


class TestEngineEventStream:
    def test_run_start_names_no_task_grain(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze(["RW"])
        (start,) = [e for e in engine.last_run_events if e["kind"] == "run_start"]
        assert start["workloads"] == ["RW"]
        assert "granularity" not in start

    @pytest.mark.parametrize("parallel", [0, 2], ids=["serial", "pooled"])
    def test_only_classifications_are_submitted(self, parallel):
        # The driver records each workload itself: its record task starts
        # and finishes in the stream, but only classifications are
        # submitted, serially and on a pool alike.
        engine = AnalysisEngine(options=EngineOptions(parallel=parallel))
        engine.analyze(["bbuf", "RW"])
        events = engine.last_run_events
        submitted = {e["stage"] for e in events if e["kind"] == "task_submit"}
        assert submitted == {"classify"}
        finished = [e for e in events if e["kind"] == "task_finish"]
        assert [e["workload"] for e in finished if e["stage"] == "record"] == [
            "bbuf",
            "RW",
        ]
        assert {e["stage"] for e in finished} == {"record", "classify"}

    def test_each_classify_task_contributes_exactly_its_four_events(self):
        # A worker task returns its lifecycle pair around its solver and
        # interpreter snapshots, and nothing else; the driver's
        # classification_computed follows it.
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze(["bbuf"])
        events = engine.last_run_events
        starts = [
            index
            for index, event in enumerate(events)
            if event["kind"] == "task_start" and event["stage"] == "classify"
        ]
        assert len(starts) == engine.last_run_stats.classifications_computed == 6
        for index in starts:
            task = events[index : index + 4]
            assert [e["kind"] for e in task] == [
                "task_start",
                "solver_stats",
                "interp_stats",
                "task_finish",
            ]
            assert task[3]["stage"] == "classify"
            assert task[3]["race"] == task[0]["race"]
            assert events[index + 4]["kind"] == "classification_computed"
        kinds = [event["kind"] for event in events]
        assert kinds.count("solver_stats") == kinds.count("interp_stats") == len(starts)
    def test_fold_reproduces_run_stats_exactly(self):
        # The acceptance criterion: folding the emitted stream reproduces
        # every EngineStats counter on a streaming stress_deep run.
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        runs = engine.analyze(["stress_deep"])
        assert engine.last_run_events  # the stream was captured
        assert fold_events(engine.last_run_events) == engine.last_run_stats
        # the per-run view is attached to the run
        assert runs[0].stats == engine.last_run_stats
        assert engine.last_run_stats.solver_queries > 0
        assert engine.last_run_stats.classifications_computed > 0

    def test_events_path_round_trip_matches_live_fold(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        engine = AnalysisEngine(
            options=EngineOptions(parallel=0, events_path=path)
        )
        engine.analyze(["bbuf"])
        loaded = load_events(path)
        assert loaded == engine.last_run_events
        assert fold_events(loaded) == engine.last_run_stats

    def test_event_logging_does_not_change_verdicts(self, tmp_path):
        plain = AnalysisEngine().analyze(["ctrace"])
        logged = AnalysisEngine(
            options=EngineOptions(events_path=str(tmp_path / "e.jsonl"))
        ).analyze(["ctrace"])
        assert _full_signature(plain) == _full_signature(logged)

    def test_per_run_isolation(self):
        # Each run folds its own stream; a second run must not inherit or
        # clobber the first run's snapshot.
        engine = AnalysisEngine()
        engine.analyze(["RW"])
        first_events = engine.last_run_events
        first_stats = engine.last_run_stats
        first_len = len(first_events)
        engine.analyze(["bbuf"])
        assert engine.last_run_events is not first_events
        assert len(first_events) == first_len  # snapshot survived the reset
        assert first_stats == fold_events(first_events)
        starts = [e for e in engine.last_run_events if e["kind"] == "run_start"]
        assert [list(e["workloads"]) for e in starts] == [["bbuf"]]

    def test_merged_stream_is_deterministic_under_shuffled_completion(
        self, monkeypatch
    ):
        # The driver absorbs worker events in task order, never in
        # future-completion order: the merged stream must be structurally
        # bit-identical however the pool interleaves completions (see
        # ``_structural`` for what may differ).

        # Reference: a real streaming run with an actual pool, whose futures
        # complete in whatever order the OS delivers.
        reference_engine = AnalysisEngine(options=EngineOptions(parallel=2))
        reference_engine.analyze(NAMES)
        reference_stream = _structural(reference_engine.last_run_events)

        for seed in (0, 1, 7):
            rng = random.Random(seed)
            pool = _DeferredPool()
            monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
            monkeypatch.setattr(PoolDispatcher, "acquire", lambda self: pool)
            monkeypatch.setattr(
                "repro.engine.engine.wait", _shuffled_wait(pool, rng)
            )
            engine = AnalysisEngine(options=EngineOptions(parallel=2))
            engine.analyze(NAMES)
            assert not pool.pending
            assert _structural(engine.last_run_events) == reference_stream, seed
            assert fold_events(engine.last_run_events) == engine.last_run_stats


class TestEventsInfo:
    def _stream(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        engine = AnalysisEngine(options=EngineOptions(events_path=path))
        engine.analyze(["stress_deep"])
        return load_events(path)

    def test_summarize_buckets_and_rates(self, tmp_path):
        summary = summarize_events(self._stream(tmp_path))
        assert summary["by_kind"]["solver_stats"] > 0
        assert summary["by_kind"]["run_start"] == 1
        assert "classify" in summary["stage_latency"]
        for data in summary["stage_latency"].values():
            assert data["count"] == sum(data["buckets"].values())
        assert summary["solver"]["queries"] > 0
        assert "classifications computed=" in summary["stats"]

    def test_render_is_greppable(self, tmp_path):
        report = render_events_info(self._stream(tmp_path))
        assert "by kind:" in report
        assert re.search(r"^  solver_stats [1-9]\d*$", report, re.MULTILINE)
        assert re.search(r"^solver: queries=[1-9]", report, re.MULTILINE)
        assert re.search(
            r"^interpreter counters: tasks=[1-9]\d* statements=[1-9]", report, re.MULTILINE
        )
        assert "per-stage task latency:" in report

    def test_render_handles_empty_stream(self):
        report = render_events_info([])
        assert "(no task_finish events)" in report
        assert "(no solver_stats events)" in report


class TestCLI:
    def test_events_flag_writes_and_events_info_reads(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = str(tmp_path / "cli.jsonl")
        assert main(["table3", "--workloads", "bbuf", "--events", path]) == 0
        events = load_events(path)
        assert [e for e in events if e["kind"] == "solver_stats"]
        capsys.readouterr()
        assert main(["events-info", "--events", path]) == 0
        out = capsys.readouterr().out
        assert "solver_stats" in out
        assert "by kind:" in out

    def test_stats_line_accesses_equal_the_events_info_sum(self, tmp_path, capsys):
        # The stats line folds every interp_stats counter, accesses and
        # sync events included, so it reports what events-info prints for
        # the same log.
        from repro.experiments.__main__ import main

        path = str(tmp_path / "cli.jsonl")
        assert main(["table3", "--workloads", "bbuf", "--events", path, "--stats"]) == 0
        stats_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(["events-info", "--events", path]) == 0
        info = capsys.readouterr().out
        folded = re.search(r"interp accesses=(\d+), interp sync events=(\d+)", stats_line)
        summed = re.search(
            r"^interpreter counters: .* accesses=(\d+) sync_events=(\d+)$", info, re.M
        )
        assert folded and summed
        assert int(folded.group(1)) == int(summed.group(1)) > 0
        assert int(folded.group(2)) == int(summed.group(2))

    def test_events_file_truncated_per_invocation(self, tmp_path):
        from repro.experiments.__main__ import main

        path = str(tmp_path / "cli.jsonl")
        main(["table3", "--workloads", "bbuf", "--events", path])
        first = len(load_events(path))
        main(["table3", "--workloads", "bbuf", "--events", path])
        assert len(load_events(path)) == first  # truncated, not appended

    @pytest.mark.parametrize("user_log", [False, True])
    def test_stats_line_is_the_fold_of_the_run_log(
        self, tmp_path, capsys, monkeypatch, user_log
    ):
        import tempfile

        import repro.engine.events as events_module
        from repro.experiments.__main__ import main

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        folded = []
        load = events_module.load_events

        def recording_load(path):
            events = load(path)
            folded.append(fold_events(events).summary())
            return events

        monkeypatch.setattr(events_module, "load_events", recording_load)
        argv = ["table3", "--workloads", "bbuf,RW", "--stats"]
        path = str(tmp_path / "user.jsonl")
        if user_log:
            argv += ["--events", path]
        assert main(argv) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("engine stats:")
        ]
        assert lines == folded
        # Without --events the temporary log is gone; with it, the user's
        # file keeps the whole log the line was folded from.
        assert list(scratch.iterdir()) == []
        if user_log:
            kept = load(path)
            assert fold_events(kept).summary() == lines[0]
            kinds = [event["kind"] for event in kept]
            assert kinds[0] == "run_start" and kinds[-1] == "run_finish"
