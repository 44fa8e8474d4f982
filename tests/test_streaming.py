"""Tests for the streaming futures-based engine.

Covers the one scheduler: bit-equivalence of pooled and serial runs
(including under adversarially shuffled future-completion order), the
persistent-pool lifecycle counters, worker-lifetime solver-cache
accounting, and the ``stress_harmful`` workload.
"""

import random
from concurrent.futures import Future

import pytest

from repro.core.config import PortendConfig
from repro.engine import AnalysisEngine, EngineOptions, PoolDispatcher
from repro.symex.expr import SymVar, make_binary, Op
from repro.symex.solver import (
    Solver,
    reset_worker_caches,
    worker_solver_cache,
)
from repro.workloads import all_workload_names, load_workload
from repro.workloads.stress import build_stress, build_stress_harmful


def _full_signature(runs):
    """Everything in the classification output except wall-clock timing."""
    return [
        {key: value for key, value in item.to_dict().items() if key != "analysis_seconds"}
        for run in runs
        for item in run.result.classified
    ]


def _structural(events, skip=()):
    """The completion-order-independent projection of a run's event stream.

    Pool bookkeeping and the run's configuration event go, and so do
    timestamps and measured seconds.  Solver and interpreter snapshots keep
    only their kind: whether a query hit the shared worker cache, and which
    task ran a state of a shared search or replay pass, depends on which task
    ran first.  Chunk decisions replay in (workload, chunk start) order with
    sizes from a static rule, so they stay.  ``skip`` names more kinds to
    drop.
    """
    projected = []
    for event in events:
        kind = event["kind"]
        if kind in ("pool", "run_start") + tuple(skip):
            continue
        if kind in ("solver_stats", "interp_stats"):
            projected.append({"kind": kind})
        else:
            projected.append(
                {
                    k: v
                    for k, v in event.items()
                    if k not in ("ts", "seconds", "actual_seconds")
                }
            )
    return projected


#: a small batch covering single-stage, multi-path and deep-fan-out races
NAMES = ["bbuf", "RW", "SQLite", "stress_deep"]


class _DeferredPool:
    """A fake executor whose futures complete only when the fake ``wait``
    chooses them -- in shuffled order, to simulate a wide pool finishing
    tasks in an arbitrary interleaving."""

    def __init__(self):
        self.pending = {}

    def submit(self, fn, *args):
        future = Future()
        self.pending[future] = (fn, args)
        return future


def _shuffled_wait(pool, rng):
    """A ``concurrent.futures.wait`` stand-in that completes a random
    non-empty subset of the pending futures, in random order."""

    def fake_wait(futures, return_when=None, timeout=None):
        waiting = [future for future in futures if future in pool.pending]
        chosen = rng.sample(waiting, rng.randint(1, len(waiting)))
        for future in chosen:
            fn, args = pool.pending.pop(future)
            future.set_result(fn(*args))
        return set(chosen), set(futures) - set(chosen)

    return fake_wait


class TestDispatchEquivalence:
    def test_streaming_and_serial_are_bit_identical(self):
        reference = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(NAMES)
        streaming = AnalysisEngine(options=EngineOptions(parallel=2)).analyze(NAMES)
        assert _full_signature(reference) == _full_signature(streaming)

    def test_serial_fallback_parity(self):
        # One worker is no pool: parallel=1 falls back to the drain that
        # parallel=0 runs, classifying in-process with the identical task
        # code, bit-identical and with no pool bookkeeping.
        names = ["bbuf", "RW"]
        reference = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(names)
        engine = AnalysisEngine(options=EngineOptions(parallel=1))
        runs = engine.analyze(names)
        assert _full_signature(reference) == _full_signature(runs)
        assert engine.last_run_stats.pools_created == 0
        assert engine.last_run_stats.pool_reuses == 0
        assert not any(event["kind"] == "pool" for event in engine.last_run_events)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_shuffled_completion_order_is_bit_identical(self, monkeypatch, seed):
        # Drive the streaming scheduler with a fake pool whose futures land
        # in a shuffled order: classify chunks of every workload interleave,
        # exactly as a wide pool would deliver them.  The merge must stay bit-identical to the serial
        # reference.
        reference = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(NAMES)
        rng = random.Random(seed)
        pool = _DeferredPool()
        monkeypatch.setattr(PoolDispatcher, "warm", lambda self: None)
        monkeypatch.setattr(PoolDispatcher, "acquire", lambda self: pool)
        monkeypatch.setattr("repro.engine.engine.wait", _shuffled_wait(pool, rng))
        shuffled = AnalysisEngine(options=EngineOptions(parallel=2)).analyze(NAMES)
        assert not pool.pending  # the scheduler drained everything
        assert _full_signature(reference) == _full_signature(shuffled)

    def test_dispatch_option_is_validated(self):
        with pytest.raises(ValueError):
            AnalysisEngine(options=EngineOptions(dispatch="bogus"))

    def test_removed_modes_are_rejected(self, monkeypatch):
        # The fields stay only at their pinned values.
        with pytest.raises(ValueError):
            EngineOptions(dispatch="staged")
        with pytest.raises(ValueError):
            EngineOptions(speculate=True)
        with pytest.raises(ValueError):
            EngineOptions(warm_tier=False)
        with pytest.raises(ValueError, match="re-exploration fallback"):
            EngineOptions(ship_primaries=False)
        for granularity in ("race", "path"):
            with pytest.raises(ValueError, match="granularity"):
                EngineOptions(granularity=granularity)
        with pytest.raises(ValueError):
            PortendConfig(solver_backend="portfolio")
        pinned = EngineOptions(
            dispatch="streaming",
            speculate=False,
            warm_tier=True,
            ship_primaries=True,
            granularity="auto",
        )
        assert (
            pinned.dispatch,
            pinned.speculate,
            pinned.warm_tier,
            pinned.ship_primaries,
            pinned.granularity,
        ) == ("streaming", False, True, True, "auto")
        assert PortendConfig(solver_backend="default").solver_backend == "default"
        # Left out of the cache key, so existing cache directories keep hitting.
        assert "solver_backend" not in PortendConfig().classification_fingerprint()
        # The removed environment variables that used to select a backend
        # and disable the tier are inert.
        for name, value in (("SOLVER", "portfolio"), ("WARM_TIER", "0")):
            monkeypatch.setenv(f"REPRO_{name}", value)
        assert EngineOptions().warm_tier is True
        assert PortendConfig().solver_backend == "default"


class TestPoolLifecycle:
    def test_streaming_builds_one_pool_per_run_and_reuses_it(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        engine.analyze(["RW", "bbuf"])
        # One ProcessPoolExecutor construction for the whole run; every
        # later dispatch reuses it.
        assert engine.last_run_stats.pools_created == 1
        assert engine.last_run_stats.pool_reuses >= 1

    def test_serial_run_builds_no_pool(self):
        # Pin parallel=0: the option's default honors REPRO_PARALLEL, and
        # this test asserts specifically-serial pool accounting.
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze(["RW"])
        assert engine.last_run_stats.pools_created == 0
        assert engine.last_run_stats.pool_reuses == 0


class TestWorkerCacheAccounting:
    def _constraints(self):
        x = SymVar("wcx", 0, 10)
        return [make_binary(Op.GE, x, 3), make_binary(Op.LT, x, 7)]

    def test_cross_solver_hit_counts_as_worker_cache_hit(self):
        reset_worker_caches()
        shared = worker_solver_cache("prog-a")
        first = Solver(shared_cache=shared)
        verdict_first = first.check(self._constraints())
        assert first.stats.worker_cache_hits == 0

        second = Solver(shared_cache=shared)
        verdict_second = second.check(self._constraints())
        assert verdict_second == verdict_first  # warm hit is bit-identical
        assert second.stats.cache_hits == 1
        assert second.stats.worker_cache_hits == 1

    def test_own_entry_hit_is_not_a_worker_cache_hit(self):
        reset_worker_caches()
        solver = Solver(shared_cache=worker_solver_cache("prog-b"))
        solver.check(self._constraints())
        solver.check(self._constraints())
        assert solver.stats.cache_hits == 1
        assert solver.stats.worker_cache_hits == 0

    def test_fingerprints_do_not_share_entries(self):
        reset_worker_caches()
        first = Solver(shared_cache=worker_solver_cache("prog-c"))
        first.check(self._constraints())
        other = Solver(shared_cache=worker_solver_cache("prog-d"))
        other.check(self._constraints())
        assert other.stats.cache_hits == 0

    def test_disabled_cache_ignores_shared_state(self):
        reset_worker_caches()
        shared = worker_solver_cache("prog-e")
        warm = Solver(shared_cache=shared)
        warm.check(self._constraints())
        cold = Solver(enable_cache=False, shared_cache=shared)
        cold.check(self._constraints())
        assert cold.stats.cache_hits == 0
        assert cold.stats.worker_cache_hits == 0

    def test_engine_counts_worker_cache_hits(self):
        # The races of one stress trace issue identical constraint-set
        # queries; with the worker-lifetime cache the later tasks hit
        # entries the earlier tasks wrote -- even on the serial path, which
        # runs the same task code in the driving process.
        serial = EngineOptions(parallel=0)  # pin against REPRO_PARALLEL

        def worker_cache_hits():
            engine = AnalysisEngine(options=serial)
            engine.analyze_workloads([build_stress(races=6)])
            return engine.last_run_stats.worker_cache_hits

        serial_hits = worker_cache_hits()
        assert serial_hits > 0
        # Each run starts from clean worker-lifetime state, so an identical
        # second run reports identical accounting.
        assert worker_cache_hits() == serial_hits


class TestStressHarmful:
    def test_build_is_parameterized_and_every_race_convicts(self):
        from repro.core.categories import RaceClass, SpecViolationKind

        workload = build_stress_harmful(races=5)
        run = AnalysisEngine().analyze_workloads([workload])[0]
        assert run.result.distinct_races() == 5
        for item in run.result.classified:
            assert item.classification is RaceClass.SPEC_VIOLATED
            assert item.evidence.spec_violation_kind is SpecViolationKind.CRASH

    def test_registry_build_defaults_to_hundreds(self):
        workload = load_workload("stress_harmful")
        assert workload.expected_distinct_races >= 100
        assert len(workload.ground_truth) == workload.expected_distinct_races

    def test_not_part_of_the_table1_list(self):
        assert "stress_harmful" not in all_workload_names()
        assert "stress_harmful" in all_workload_names(include_synthetic=True)

    def test_rejects_zero_races(self):
        with pytest.raises(ValueError):
            build_stress_harmful(races=0)

    def test_streaming_convicts_identically_to_serial(self):
        workload = build_stress_harmful(races=5)
        serial = AnalysisEngine().analyze_workloads([workload])
        streaming = AnalysisEngine(
            options=EngineOptions(parallel=2)
        ).analyze_workloads([build_stress_harmful(races=5)])
        assert _full_signature(serial) == _full_signature(streaming)
