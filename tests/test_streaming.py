"""Tests for the streaming futures-based engine.

Covers the one scheduler: bit-equivalence of pooled and serial runs
(including under adversarially shuffled future-completion order), the
persistent-pool lifecycle counters, the solver memo the tasks of one
trace share, and the ``stress_harmful`` workload.
"""

import random
from concurrent.futures import Future

import pytest

from repro.core.config import PortendConfig
from repro.engine import AnalysisEngine, EngineOptions, PoolDispatcher
from repro.symex.expr import SymVar, make_binary, Op
from repro.symex.solver import Solver, SolverMemo
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
    only their kind: which task filled a shared solver-memo entry, and which
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
        assert EngineOptions(cache_max_entries=None).cache_max_entries is None
        # Left out of the cache key, so existing cache directories keep hitting.
        assert "solver_backend" not in PortendConfig().classification_fingerprint()
        # The removed environment variables that used to select a backend
        # and disable the tier are inert.
        for name, value in (("SOLVER", "portfolio"), ("WARM_TIER", "0")):
            monkeypatch.setenv(f"REPRO_{name}", value)
        assert EngineOptions().warm_tier is True
        assert PortendConfig().solver_backend == "default"


    def test_cache_entry_bound_is_rejected(self):
        # The caches keep no entry bound: the field stays pinned to None.
        for bound in (0, 3):
            with pytest.raises(ValueError, match="cache_max_entries"):
                EngineOptions(cache_max_entries=bound)


class TestPoolLifecycle:
    def test_streaming_builds_one_pool_per_run_and_reuses_it(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        engine.analyze(["RW", "bbuf"])
        # One ProcessPoolExecutor construction for the whole run; every
        # later dispatch reuses it.
        assert engine.last_run_stats.pools_created == 1
        pool_events = [e for e in engine.last_run_events if e["kind"] == "pool"]
        assert [e["action"] for e in pool_events] == ["created"]

    def test_serial_run_builds_no_pool(self):
        # Pin parallel=0: the option's default honors REPRO_PARALLEL, and
        # this test asserts specifically-serial pool accounting.
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze(["RW"])
        assert engine.last_run_stats.pools_created == 0
        assert not any(e["kind"] == "pool" for e in engine.last_run_events)


class TestSharedSolverMemo:
    def _constraints(self):
        x = SymVar("wcx", 0, 10)
        return [make_binary(Op.GE, x, 3), make_binary(Op.LT, x, 7)]

    def test_second_solver_on_the_memo_hits_with_the_same_verdict(self):
        memo = SolverMemo()
        first = Solver(memo=memo)
        verdict_first = first.check(self._constraints())
        assert first.stats.cache_misses == 1

        second = Solver(memo=memo)
        verdict_second = second.check(self._constraints())
        assert verdict_second == verdict_first  # warm hit is bit-identical
        assert second.stats.cache_hits == 1
        assert second.stats.cache_misses == 0

    def test_another_memo_shares_nothing(self):
        first = Solver(memo=SolverMemo())
        first.check(self._constraints())
        other = Solver(memo=SolverMemo())
        other.check(self._constraints())
        assert other.stats.cache_hits == 0

    def test_disabled_cache_ignores_the_memo(self):
        memo = SolverMemo()
        warm = Solver(memo=memo)
        warm.check(self._constraints())
        cold = Solver(enable_cache=False, memo=memo)
        cold.check(self._constraints())
        cold.value_range(self._constraints(), SymVar("wcx", 0, 10))
        assert cold.stats.cache_hits == 0
        assert len(memo.check) == 1 and not memo.ranges

    def test_serial_stress_deep_tasks_share_the_memo(self):
        # The 12 races of stress_deep issue many identical constraint-set
        # queries; every task's fresh solver reads and writes the memo of
        # the trace, so later tasks hit what earlier ones wrote.  With a
        # private memo per task the same run misses 347 times and enumerates
        # 3,744 assignments.
        serial = EngineOptions(parallel=0)  # pin against REPRO_PARALLEL

        def solver_counts():
            engine = AnalysisEngine(options=serial)
            engine.analyze_workloads([load_workload("stress_deep")])
            stats = engine.last_run_stats
            return (
                stats.solver_queries,
                stats.solver_cache_misses,
                stats.solver_assignments_enumerated,
            )

        assert solver_counts() == (1108, 61, 532)
        # Each run starts from an empty memo, so an identical second run
        # reports identical accounting.
        assert solver_counts() == (1108, 61, 532)


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
