"""Tests for the persistent solver warm tier and cost-aware granularity.

Covers the cold-start work: sidecar round-trip/versioning/corruption units
for ``solver_warm/<fingerprint>.json``, warm-load bit-equivalence of a
second engine run, the cost-model sidecar's capped eviction and its
backward compatibility, and the cost-aware ``choose_granularity``
refinement.
"""

import glob
import json
import os

import pytest

from repro.engine import AnalysisEngine, EngineOptions
from repro.engine.cache import collect_cache_info, render_cache_info
from repro.engine.engine import _prune_warm_tier_dir, choose_granularity
from repro.engine.costmodel import SIDECAR_MAX_ENTRIES, CostModel, prune_scored
from repro.symex.expr import Op, SymVar, make_binary
from repro.symex.solver import (
    WARM_TIER_VERSION,
    Solver,
    WorkerSolverCache,
    load_warm_tier,
    reset_worker_caches,
    save_warm_tier,
    set_warm_tier_dir,
    warm_tier_path,
    worker_solver_cache,
)

from test_streaming import _full_signature


def _constraints(seed: int):
    x = SymVar(f"wt{seed}", 0, 10)
    return [make_binary(Op.GE, x, seed % 4), make_binary(Op.LT, x, 7)]


def _populated_cache(queries=3):
    """A worker-lifetime cache filled by real solver queries."""
    cache = WorkerSolverCache()
    solver = Solver(shared_cache=cache)
    answers = {}
    for seed in range(queries):
        answers[seed] = solver.check(_constraints(seed))
    return cache, answers


class TestWarmTierSidecar:
    def test_round_trip_preserves_verdicts_and_models(self, tmp_path):
        cache, answers = _populated_cache()
        assert save_warm_tier(str(tmp_path), "prog-rt", cache)
        path = warm_tier_path(str(tmp_path), "prog-rt")
        assert os.path.isfile(path)

        fresh = WorkerSolverCache()
        loaded = load_warm_tier(str(tmp_path), "prog-rt", fresh)
        assert loaded == len(cache.check)
        assert fresh.warm_loaded == loaded
        # Rebuilt keys are structurally equal to the live ones, entries carry
        # owner 0 (no attached solver's id), and verdict/model are intact.
        for key, (owner, verdict, model) in cache.check.items():
            assert key in fresh.check
            warm_owner, warm_verdict, warm_model = fresh.check[key]
            assert warm_owner == 0
            assert warm_verdict == verdict
            assert warm_model == model

    def test_warm_hit_is_bit_identical_and_counts_worker_hit(self, tmp_path):
        cache, answers = _populated_cache()
        save_warm_tier(str(tmp_path), "prog-hit", cache)
        fresh = WorkerSolverCache()
        load_warm_tier(str(tmp_path), "prog-hit", fresh)
        solver = Solver(shared_cache=fresh)
        for seed, cold_answer in answers.items():
            assert solver.check(_constraints(seed)) == cold_answer
        assert solver.stats.worker_cache_hits == len(answers)
        assert solver.stats.cache_misses == 0

    def test_missing_sidecar_loads_nothing(self, tmp_path):
        fresh = WorkerSolverCache()
        assert load_warm_tier(str(tmp_path), "absent", fresh) == 0
        assert fresh.check == {} and fresh.warm_loaded == 0

    def test_wrong_version_is_ignored(self, tmp_path):
        cache, _ = _populated_cache()
        save_warm_tier(str(tmp_path), "prog-v", cache)
        path = warm_tier_path(str(tmp_path), "prog-v")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = WARM_TIER_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        fresh = WorkerSolverCache()
        assert load_warm_tier(str(tmp_path), "prog-v", fresh) == 0

    def test_corrupt_sidecar_is_ignored(self, tmp_path):
        path = warm_tier_path(str(tmp_path), "prog-c")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        fresh = WorkerSolverCache()
        assert load_warm_tier(str(tmp_path), "prog-c", fresh) == 0

    def test_entry_cap_keeps_hottest(self, tmp_path):
        cache, _ = _populated_cache(queries=4)
        # Re-query one constraint set so it has strictly more hits.
        solver = Solver(shared_cache=cache)
        hot = solver.check(_constraints(2))
        save_warm_tier(str(tmp_path), "prog-cap", cache, max_entries=1)
        fresh = WorkerSolverCache()
        assert load_warm_tier(str(tmp_path), "prog-cap", fresh) == 1
        survivor = Solver(shared_cache=fresh)
        assert survivor.check(_constraints(2)) == hot
        assert survivor.stats.worker_cache_hits == 1

    def test_save_is_deterministic_bytes(self, tmp_path):
        cache, _ = _populated_cache()
        save_warm_tier(str(tmp_path), "prog-d", cache)
        with open(warm_tier_path(str(tmp_path), "prog-d"), "rb") as handle:
            first = handle.read()
        save_warm_tier(str(tmp_path), "prog-d", cache)
        with open(warm_tier_path(str(tmp_path), "prog-d"), "rb") as handle:
            assert handle.read() == first

    def test_worker_cache_loads_tier_when_armed(self, tmp_path):
        cache, answers = _populated_cache()
        save_warm_tier(str(tmp_path), "prog-arm", cache)
        reset_worker_caches()
        previous = set_warm_tier_dir(str(tmp_path))
        try:
            state = worker_solver_cache("prog-arm")
            assert state.warm_loaded == len(answers)
        finally:
            set_warm_tier_dir(previous)
            reset_worker_caches()

    def test_prune_warm_tier_dir_keeps_most_recent(self, tmp_path):
        directory = tmp_path / "solver_warm"
        directory.mkdir()
        for index in range(6):
            path = directory / f"fp{index}.json"
            path.write_text("{}")
            stamp = 1_000_000 + index
            os.utime(path, (stamp, stamp))
        _prune_warm_tier_dir(str(tmp_path), limit=2)
        assert sorted(p.name for p in directory.iterdir()) == ["fp4.json", "fp5.json"]


class TestWarmTierEngine:
    def _analyze(self, cache_dir, warm_tier=True):
        engine = AnalysisEngine(
            options=EngineOptions(
                parallel=0,
                cache_dir=cache_dir,
                granularity="path",
                warm_tier=warm_tier,
            )
        )
        runs = engine.analyze(names=["stress_deep"])
        return _full_signature(runs), engine.last_run_stats

    def test_warm_second_run_is_bit_identical_and_cheaper(self, tmp_path):
        cache_dir = str(tmp_path)
        cold_signature, cold = self._analyze(cache_dir)
        assert os.path.isdir(os.path.join(cache_dir, "solver_warm"))
        # Drop the classification cache so the second run re-classifies and
        # actually queries the solver -- against warm-loaded entries.
        for path in glob.glob(os.path.join(cache_dir, "*-cls-*.json")):
            os.unlink(path)
        warm_signature, warm = self._analyze(cache_dir)
        assert warm_signature == cold_signature
        assert warm.worker_cache_hits > 0
        assert warm.solver_assignments_enumerated < cold.solver_assignments_enumerated

    def test_disabled_tier_stays_cold(self, tmp_path):
        cache_dir = str(tmp_path)
        _signature, cold = self._analyze(cache_dir, warm_tier=False)
        assert not os.path.isdir(os.path.join(cache_dir, "solver_warm"))
        for path in glob.glob(os.path.join(cache_dir, "*-cls-*.json")):
            os.unlink(path)
        _signature, second = self._analyze(cache_dir, warm_tier=False)
        assert (
            second.solver_assignments_enumerated == cold.solver_assignments_enumerated
        )

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WARM_TIER", raising=False)
        assert EngineOptions().warm_tier is True
        monkeypatch.setenv("REPRO_WARM_TIER", "0")
        assert EngineOptions().warm_tier is False

    def test_cache_info_reports_sidecar_tiers(self, tmp_path):
        cache_dir = str(tmp_path)
        self._analyze(cache_dir)
        rows = collect_cache_info(cache_dir)
        kinds = {row["kind"] for row in rows}
        assert "costmodel" in kinds
        assert "solver_warm" in kinds
        costmodel_rows = [row for row in rows if row["kind"] == "costmodel"]
        assert costmodel_rows[0]["file"] == "costmodel.json"
        assert costmodel_rows[0]["hits"] > 0  # total recorded observations
        rendered = render_cache_info(rows)
        assert "costmodel" in rendered and "solver_warm" in rendered


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


class TestPrimariesHistory:
    """What the removed primary-count history leaves behind: sidecars that
    still carry its block load their entries, and the capped eviction it
    shared with the entries table."""

    def test_old_sidecar_with_primaries_block_loads_entries(self, tmp_path):
        # Sidecars written before the primary-count history was removed
        # carry a "primaries" block; it is ignored and "entries" still load.
        path = tmp_path / "costmodel.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "alpha": 0.3,
                    "entries": {"classify|fp": {"ewma": 0.2, "count": 3}},
                    "primaries": {
                        "fp#3": {"ewma": 6.0, "count": 1},
                        "fp": {"ewma": 6.0, "count": 1},
                    },
                }
            )
        )
        model = CostModel(sidecar_path=str(path))
        assert model.warm_entries == 1
        assert model.estimate("classify", "fp") == pytest.approx(0.2)
        assert model.save()
        assert "primaries" not in json.loads(path.read_text())

    def test_save_applies_capped_eviction(self, tmp_path):
        path = str(tmp_path / "costmodel.json")
        model = CostModel(sidecar_path=path)
        for index in range(SIDECAR_MAX_ENTRIES + 40):
            model.observe("classify", f"fp{index}", 0.1)
        assert model.save()
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["entries"]) <= SIDECAR_MAX_ENTRIES

    def test_prune_scored_keeps_top_by_score(self):
        items = {"a": 1, "b": 5, "c": 3}
        kept = prune_scored(items, 2, lambda _key, value: float(value))
        assert kept == {"b": 5, "c": 3}
        assert prune_scored(items, 0, lambda _key, value: 0.0) == {}
        assert prune_scored(items, 9, lambda _key, value: 0.0) == items
