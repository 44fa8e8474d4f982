"""Tests for the structured event log and the solver-backend factory.

Covers the observability refactor: event primitives (validation, buffering,
JSONL round-trip), fold semantics (the event stream is the only producer of
engine counters), deterministic merge under adversarially shuffled future
completion, per-run stats isolation, the ``events-info`` summarizer, the
CLI plumbing, and verdict bit-equivalence across solver backends.
"""

import random
from dataclasses import replace

import pytest

from repro.core.config import PortendConfig
from repro.engine import AnalysisEngine, EngineOptions, PoolDispatcher
from repro.engine.events import (
    EVENT_KINDS,
    SOLVER_QUERY_BUFFER_CAP,
    EventBuffer,
    EventLogger,
    fold_events,
    load_events,
    make_event,
    render_events_info,
    summarize_events,
    write_events,
)
from repro.engine.stats import GLOBAL_STATS, EngineStats
from repro.symex.expr import SymVar, sym_eq, sym_ge, sym_ne
from repro.symex.factory import (
    DefaultSolverFactory,
    PortfolioSolver,
    PortfolioSolverFactory,
    create_solver,
    get_solver_factory,
    solver_backends,
)
from repro.symex.solver import Solver, SolverResult
from repro.workloads import load_workload
from repro.workloads.stress import build_stress_harmful

from test_streaming import NAMES, _DeferredPool, _full_signature, _shuffled_wait


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

    def test_buffer_caps_solver_query_detail(self):
        buffer = EventBuffer()
        for _ in range(SOLVER_QUERY_BUFFER_CAP + 5):
            buffer.emit("solver_query", backend="default", result="sat")
        events = buffer.drain()
        queries = [e for e in events if e["kind"] == "solver_query"]
        truncated = [e for e in events if e["kind"] == "events_truncated"]
        assert len(queries) == SOLVER_QUERY_BUFFER_CAP
        assert len(truncated) == 1
        assert truncated[0]["dropped"] == 5
        # drain resets: the next task's buffer starts clean
        assert buffer.drain() == []

    def test_buffer_does_not_cap_other_kinds(self):
        buffer = EventBuffer()
        for _ in range(SOLVER_QUERY_BUFFER_CAP + 5):
            buffer.emit("cache", tier="trace", hit=True)
        events = buffer.drain()
        assert len(events) == SOLVER_QUERY_BUFFER_CAP + 5
        assert not [e for e in events if e["kind"] == "events_truncated"]

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
    def test_every_counter_comes_from_its_event(self):
        events = [
            make_event("trace_recorded", workload="w"),
            make_event("cache", tier="trace", hit=True),
            make_event("cache", tier="trace", hit=False),
            make_event("cache", tier="classification", hit=True),
            make_event("classification_computed", workload="w", race="r"),
            make_event("primary", shipped=True),
            make_event("primary", shipped=False),
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
            make_event("stage_overlap", seconds=0.125),
        ]
        stats = fold_events(events)
        assert stats.traces_recorded == 1
        assert stats.trace_cache_hits == 1
        assert stats.classification_cache_hits == 1
        assert stats.classifications_computed == 1
        assert stats.primaries_shipped == 1
        assert stats.primaries_reexplored == 1
        assert stats.solver_queries == 7
        assert stats.solver_cache_hits == 2
        assert stats.solver_cache_misses == 5
        assert stats.solver_assignments_enumerated == 30
        assert stats.worker_cache_hits == 1
        assert stats.solver_fastpath_answers == 3
        assert stats.solver_seconds == 0.5
        assert stats.pools_created == 1
        assert stats.pool_reuses == 2
        assert stats.stage_overlap_seconds == 0.125

    def test_solver_query_detail_is_not_double_counted(self):
        # Per-query events are histogram detail; only the per-task
        # solver_stats snapshot feeds the counters.
        events = [
            make_event("solver_query", backend="default", result="sat", seconds=0.1)
            for _ in range(5)
        ]
        assert fold_events(events) == EngineStats()

    def test_lifecycle_events_fold_to_nothing(self):
        events = [
            make_event("run_start", workloads=["w"]),
            make_event("task_submit", stage="plan", workload="w"),
            make_event("task_start", stage="plan", workload="w"),
            make_event("task_finish", stage="plan", workload="w", seconds=0.1),
            make_event("run_finish", seconds=1.0),
            make_event("events_truncated", dropped=3),
        ]
        assert fold_events(events) == EngineStats()


class TestEngineEventStream:
    def test_fold_reproduces_run_stats_exactly(self):
        # The acceptance criterion: folding the emitted stream reproduces
        # every EngineStats counter on a streaming stress_deep run.
        GLOBAL_STATS.reset()
        engine = AnalysisEngine(
            options=EngineOptions(parallel=2, granularity="path")
        )
        runs = engine.analyze(["stress_deep"])
        assert engine.last_run_events  # the stream was captured
        assert fold_events(engine.last_run_events) == engine.last_run_stats
        # the per-run view is attached to the run and merged globally
        assert runs[0].stats == engine.last_run_stats
        assert GLOBAL_STATS == engine.last_run_stats
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
        # The driver absorbs worker buffers in task order, never in
        # future-completion order: the merged stream must be structurally
        # bit-identical however the pool interleaves completions.  Volatile
        # fields aside from timestamps: cache *attribution* (which query hit
        # the shared worker cache, and hence per-task enumeration counts)
        # depends on which task executed first, so the structural projection
        # keeps every event's identity fields and drops the attribution
        # payload of solver events.  Interpreter counters are attributed the
        # same way: the task that first needs a trace's shared replay pass
        # pays its statements, so interp events keep only their kernel.
        def structural(events):
            projected = []
            for event in events:
                if event["kind"] in (
                    "pool",
                    "stage_overlap",
                    "run_start",
                    "scheduler_decision",
                ):
                    # streaming-only / configuration events, plus the
                    # cost-model decisions: chunk sizes depend on EWMA
                    # state evolved in completion order, so they are
                    # advisory detail, not part of the canonical stream.
                    continue
                if event["kind"] in ("solver_query", "solver_stats"):
                    keep = ("kind", "backend", "result")
                    projected.append(
                        {k: v for k, v in event.items() if k in keep}
                    )
                elif event["kind"] == "interp_stats":
                    projected.append({"kind": "interp_stats", "interp": event["interp"]})
                else:
                    projected.append(
                        {
                            k: v
                            for k, v in event.items()
                            if k not in ("ts", "seconds")
                        }
                    )
            return projected

        # Reference: a real streaming run with an actual pool, whose futures
        # complete in whatever order the OS delivers.
        reference_engine = AnalysisEngine(
            options=EngineOptions(parallel=2, granularity="path")
        )
        reference_engine.analyze(NAMES)
        reference_stream = structural(reference_engine.last_run_events)

        for seed in (0, 1, 7):
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
                options=EngineOptions(parallel=2, granularity="path")
            )
            engine.analyze(NAMES)
            assert not pool.pending
            assert structural(engine.last_run_events) == reference_stream, seed
            assert fold_events(engine.last_run_events) == engine.last_run_stats


class TestSolverBackends:
    def test_registry(self):
        assert "default" in solver_backends()
        assert "portfolio" in solver_backends()
        assert isinstance(get_solver_factory("default"), DefaultSolverFactory)
        assert isinstance(get_solver_factory("portfolio"), PortfolioSolverFactory)
        with pytest.raises(ValueError):
            get_solver_factory("bogus")

    def test_create_solver_honors_config_and_override(self):
        config = replace(PortendConfig(), solver_backend="portfolio")
        assert isinstance(create_solver(config), PortfolioSolver)
        assert create_solver(config, backend="default").backend == "default"
        assert create_solver(None).backend == "default"

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "portfolio")
        assert PortendConfig().solver_backend == "portfolio"
        monkeypatch.delenv("REPRO_SOLVER")
        assert PortendConfig().solver_backend == "default"

    def test_backend_excluded_from_classification_fingerprint(self):
        # Backends are verdict-bit-identical, so cached classifications are
        # valid across them: the fingerprint must not depend on the backend.
        default_fp = replace(
            PortendConfig(), solver_backend="default"
        ).classification_fingerprint()
        portfolio_fp = replace(
            PortendConfig(), solver_backend="portfolio"
        ).classification_fingerprint()
        assert default_fp == portfolio_fp

    @pytest.mark.parametrize("name", ["stress_deep", "ctrace", "SQLite"])
    def test_backends_are_bit_identical_on_workloads(self, name):
        signatures = {}
        for backend in solver_backends():
            config = replace(PortendConfig(), solver_backend=backend)
            runs = AnalysisEngine(config=config).analyze([name])
            signatures[backend] = _full_signature(runs)
        assert signatures["default"] == signatures["portfolio"]

    def test_backends_are_bit_identical_on_stress_harmful(self):
        signatures = {}
        for backend in solver_backends():
            config = replace(PortendConfig(), solver_backend=backend)
            runs = AnalysisEngine(config=config).analyze_workloads(
                [build_stress_harmful(races=5)]
            )
            signatures[backend] = _full_signature(runs)
        assert signatures["default"] == signatures["portfolio"]

    def test_portfolio_fast_path_fires_on_stress_deep(self):
        config = replace(PortendConfig(), solver_backend="portfolio")
        engine = AnalysisEngine(config=config)
        engine.analyze(["stress_deep"])
        stats = engine.last_run_stats
        assert stats.solver_fastpath_answers > 0
        assert stats.solver_assignments_enumerated == 0
        default_engine = AnalysisEngine(
            config=replace(PortendConfig(), solver_backend="default")
        )
        default_engine.analyze(["stress_deep"])
        assert default_engine.last_run_stats.solver_assignments_enumerated > 0


class TestPortfolioSolverParity:
    def _pair(self, budget=200_000):
        return (
            Solver(max_assignments=budget, enable_cache=False),
            PortfolioSolver(max_assignments=budget, enable_cache=False),
        )

    def test_wrapped_path_conditions_answer_without_enumeration(self):
        # Real path conditions arrive truthiness-wrapped: (var cmp k) != 0.
        # The propagation fast path must answer them without enumerating.
        x = SymVar("x", 0, 50)
        constraints = [sym_ne(sym_ge(x, 10), 0), sym_eq(sym_ge(x, 40), 0)]
        base, portfolio = self._pair()
        assert base.check(constraints) == portfolio.check(constraints)
        assert portfolio.stats.fastpath_answers == 1
        assert portfolio.stats.enumerated_assignments == 0
        assert base.stats.enumerated_assignments > 0

    def test_contradiction_is_unsat_without_enumeration(self):
        x = SymVar("x", 0, 50)
        constraints = [sym_ne(sym_ge(x, 40), 0), sym_eq(sym_ge(x, 10), 0)]
        base, portfolio = self._pair()
        assert base.check(constraints) == portfolio.check(constraints)
        assert portfolio.check(constraints)[0] is SolverResult.UNSAT
        assert portfolio.stats.enumerated_assignments == 0

    def test_budget_parity_when_witness_is_beyond_the_budget(self):
        # With max_assignments=1 the default backend exhausts its budget at
        # b=-3 and answers UNKNOWN; the fast path must mirror that rather
        # than answer SAT for a model enumeration would never reach.
        b = SymVar("b", -3, 3)
        constraints = [sym_eq(sym_ne(b, 0), 0)]
        for budget in (1, 2, 3, 4, 7, 200_000):
            base = Solver(max_assignments=budget, enable_cache=False)
            portfolio = PortfolioSolver(max_assignments=budget, enable_cache=False)
            verdict_base = base.check(constraints)
            verdict_portfolio = portfolio.check(constraints)
            assert verdict_base == verdict_portfolio, budget
            assert (
                base.stats.unknown_answers == portfolio.stats.unknown_answers
            ), budget

    def test_model_matches_enumeration_order(self):
        # The fast path's model must be the exact assignment the default
        # backend's enumerator would produce first.
        x = SymVar("x", -5, 5)
        y = SymVar("y", 0, 3)
        constraints = [sym_ne(sym_ge(x, 2), 0), sym_ne(sym_ge(y, 1), 0)]
        base, portfolio = self._pair()
        assert base.check(constraints) == portfolio.check(constraints)
        result, model = portfolio.check(constraints)
        assert result is SolverResult.SAT
        assert model == {"x": 2, "y": 1}


class TestEventsInfo:
    def _stream(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        engine = AnalysisEngine(options=EngineOptions(events_path=path))
        engine.analyze(["stress_deep"])
        return load_events(path)

    def test_summarize_buckets_and_rates(self, tmp_path):
        summary = summarize_events(self._stream(tmp_path))
        assert summary["by_kind"]["solver_query"] > 0
        assert summary["by_kind"]["run_start"] == 1
        assert "classify" in summary["stage_latency"] or "path" in summary["stage_latency"]
        for data in summary["stage_latency"].values():
            assert data["count"] == sum(data["buckets"].values())
        active_backend = PortendConfig().solver_backend
        assert summary["solver_backends"][active_backend]["queries"] > 0
        assert "classifications computed=" in summary["stats"]

    def test_render_is_greppable(self, tmp_path):
        report = render_events_info(self._stream(tmp_path))
        assert "by kind:" in report
        assert "solver_query" in report
        assert "solver time by backend:" in report
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
        assert [e for e in events if e["kind"] == "solver_query"]
        capsys.readouterr()
        assert main(["events-info", "--events", path]) == 0
        out = capsys.readouterr().out
        assert "solver_query" in out
        assert "by kind:" in out

    def test_events_file_truncated_per_invocation(self, tmp_path):
        from repro.experiments.__main__ import main

        path = str(tmp_path / "cli.jsonl")
        main(["table3", "--workloads", "bbuf", "--events", path])
        first = len(load_events(path))
        main(["table3", "--workloads", "bbuf", "--events", path])
        assert len(load_events(path)) == first  # truncated, not appended

    def test_solver_flag_is_validated(self, tmp_path):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["table3", "--workloads", "bbuf", "--solver", "bogus"])

    def test_solver_flag_selects_backend(self, capsys):
        from repro.experiments.__main__ import main

        assert (
            main(["table3", "--workloads", "bbuf", "--solver", "portfolio", "--stats"])
            == 0
        )
        out = capsys.readouterr().out
        assert "solver fast-path answers=" in out
