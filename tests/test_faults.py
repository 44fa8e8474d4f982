"""Tests for the fault-tolerant dispatch layer.

Covers the deterministic fault-injection harness (plan resolution, claim-once
semantics across retries), worker-result validation at the dispatch boundary,
and the supervision ladder end to end on real process pools: crash-once
recovery via pool respawn, malformed-result singleton retries, the deadline
watchdog against injected hangs, poison-task quarantine via lone-probe
probation, and warm-up crash discovery -- each asserting that verdicts stay
bit-identical to the fault-free serial reference and that the run never
downgrades to serial while the respawn budget holds.  Also fuzzes the cache
directory's ``.hits`` sidecars with truncated/garbage/oversized bytes: a
warm run must still be served, with unchanged verdicts.
"""

import glob
import json
import os

import pytest

from repro.engine import AnalysisEngine, EngineOptions
from repro.core import PortendConfig
from repro.engine.dispatch import (
    PoolDispatcher,
    describe_task,
    validate_worker_output,
    worker_kind,
)
from repro.engine.errors import EngineError, FaultPlanError
from repro.engine.events import fold_events, make_event, render_events_info, summarize_events
from repro.engine.faults import (
    CRASH_EXIT_CODE,
    FAULT_STAGES,
    FaultPlan,
    install_fault_plan,
    maybe_inject_fault,
    resolve_fault_plan,
)
from repro.engine.tasks import (
    ClassificationTask,
    RecordTask,
    execute_record_task,
    execute_task,
)
from repro.workloads import load_workload
from test_streaming import _full_signature

#: small two-workload batch: one single-stage-heavy, one multi-path
NAMES = ["bbuf", "RW"]


def _serial_reference(names=NAMES):
    return AnalysisEngine(options=EngineOptions(parallel=0)).analyze(names)


def _corrupt(path, mode):
    if mode == "truncate":
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(0, size // 2))
    elif mode == "oversize":
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 1_000_000)
    else:  # garbage
        with open(path, "wb") as handle:
            handle.write(b"\x7fNOT-JSON\x00garbage")


# --------------------------------------------------------------- plan parsing


class TestResolveFaultPlan:
    def test_none_and_empty_resolve_to_none(self):
        assert resolve_fault_plan(None) is None
        assert resolve_fault_plan("") is None

    def test_inline_json_normalizes_and_gets_a_claims_dir(self):
        spec = resolve_fault_plan(
            '{"seed": 3, "faults": [{"op": "crash", "stage": "classify"}]}'
        )
        assert spec["seed"] == 3
        assert os.path.isdir(spec["claims_dir"])
        assert spec["faults"] == [
            {"index": 0, "op": "crash", "times": 1, "stage": "classify"}
        ]

    def test_file_plan_shares_a_ledger_next_to_the_file(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"faults": [{"op": "malformed"}]}))
        spec = resolve_fault_plan(str(plan_path))
        assert spec["claims_dir"] == str(plan_path) + ".claims"
        assert os.path.isdir(spec["claims_dir"])

    def test_invalid_plans_raise_fault_plan_error(self, tmp_path):
        with pytest.raises(FaultPlanError):
            resolve_fault_plan("{not json")
        with pytest.raises(FaultPlanError):
            resolve_fault_plan('{"faults": [{"op": "nope"}]}')
        with pytest.raises(FaultPlanError):
            resolve_fault_plan('{"faults": [{"op": "crash", "times": 0}]}')
        with pytest.raises(FaultPlanError):
            resolve_fault_plan('{"faults": [{"op": "corrupt_sidecar"}]}')
        # A stage no task entry point fires at would silently never match:
        # a typo, or a stage of the removed per-path task grain.
        for stage in ("clasify", "path", "plan"):
            plan = json.dumps(
                {"faults": [{"op": "crash", "stage": "classify"},
                            {"op": "crash", "stage": stage}]}
            )
            with pytest.raises(FaultPlanError, match=f"fault #1 has unknown stage '{stage}'"):
                resolve_fault_plan(plan)
        with pytest.raises(FaultPlanError):
            resolve_fault_plan(
                '{"faults": [{"op": "corrupt_sidecar", "target": "x", "mode": "?"}]}'
            )
        with pytest.raises(FaultPlanError):
            resolve_fault_plan(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize("stage", FAULT_STAGES)
    def test_every_firing_stage_is_accepted_and_matches(self, tmp_path, stage):
        spec = resolve_fault_plan(
            json.dumps(
                {
                    "claims_dir": str(tmp_path / "claims"),
                    "faults": [{"op": "malformed", "stage": stage}],
                }
            )
        )
        assert spec["faults"][0]["stage"] == stage
        plan = FaultPlan(spec)
        for other in FAULT_STAGES:
            if other != stage:
                assert plan.fire(other, "w") is None
        assert plan.fire(stage, "w") == "malformed"

    def test_stale_stage_in_a_plan_file_names_the_file(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps({"faults": [{"op": "hang", "stage": "path", "ms": 1}]})
        )
        with pytest.raises(FaultPlanError) as excinfo:
            resolve_fault_plan(str(plan_path))
        message = str(excinfo.value)
        assert str(plan_path) in message
        assert "fault #0 has unknown stage 'path'" in message
        assert "record, classify, noop" in message

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 87


class TestClaimLedger:
    def test_times_bounds_firings_across_plan_instances(self, tmp_path):
        spec = resolve_fault_plan(
            json.dumps(
                {
                    "claims_dir": str(tmp_path / "claims"),
                    "faults": [{"op": "malformed", "stage": "classify", "times": 2}],
                }
            )
        )
        # Two FaultPlan instances (as two worker processes would build) share
        # the on-disk ledger: the entry fires exactly ``times`` total.
        first, second = FaultPlan(spec), FaultPlan(spec)
        assert first.fire("classify", "w") == "malformed"
        assert second.fire("classify", "w") == "malformed"
        assert first.fire("classify", "w") is None
        assert second.fire("classify", "w") is None
        assert len(first.claim_names()) == 2

    def test_match_fields_filter_firing(self, tmp_path):
        spec = resolve_fault_plan(
            json.dumps(
                {
                    "claims_dir": str(tmp_path / "claims"),
                    "faults": [
                        {"op": "malformed", "stage": "classify",
                         "workload": "bbuf", "race": 4},
                    ],
                }
            )
        )
        plan = FaultPlan(spec)
        assert plan.fire("record", "bbuf", race=4) is None
        assert plan.fire("classify", "RW", race=4) is None
        assert plan.fire("classify", "bbuf", race=5) is None
        assert plan.fire("classify", "bbuf", race=4) == "malformed"

    def test_claimed_records_are_ordered_and_exclude_a_baseline(self, tmp_path):
        spec = resolve_fault_plan(
            json.dumps(
                {
                    "claims_dir": str(tmp_path / "claims"),
                    "faults": [
                        {"op": "malformed", "stage": "classify", "times": 2},
                        {"op": "hang", "stage": "classify", "ms": 1},
                    ],
                }
            )
        )
        plan = FaultPlan(spec)
        plan.fire("classify", "a")
        baseline = plan.claim_names()
        plan.fire("classify", "b")  # the malformed entry's second slot
        plan.fire("classify", "c")  # malformed spent: the hang fires
        fresh = plan.claimed_records(exclude=baseline)
        assert [(r["index"], r["slot"]) for r in fresh] == [(0, 1), (1, 0)]
        assert {r["op"] for r in fresh} == {"malformed", "hang"}

    def test_installed_plan_drives_the_task_hook(self, tmp_path):
        spec = resolve_fault_plan(
            json.dumps(
                {
                    "claims_dir": str(tmp_path / "claims"),
                    "faults": [{"op": "malformed", "stage": "classify"}],
                }
            )
        )
        install_fault_plan(spec)
        try:
            assert maybe_inject_fault("classify", "bbuf") == "malformed"
            assert maybe_inject_fault("classify", "bbuf") is None
        finally:
            install_fault_plan(None)
        assert maybe_inject_fault("classify", "bbuf") is None


# ----------------------------------------------------- boundary validation


class TestValidateWorkerOutput:
    def test_describe_task_names_the_payload(self):
        name = describe_task("classify", {"workload": "RW", "race_id": 3})
        assert name == "classify task for workload 'RW', race 3"

    def test_describe_task_without_a_race_names_only_the_workload(self):
        assert describe_task("record", {"workload": "bbuf"}) == (
            "record task for workload 'bbuf'"
        )

    def test_worker_kinds_are_record_and_classify(self):
        # Each task entry point names its stage (the ``stage`` of recovery
        # events and the validation rules); warm-up no-ops are the catch-all.
        assert worker_kind(execute_record_task) == "record"
        assert worker_kind(execute_task) == "classify"
        assert worker_kind(_good_worker) == "task"

    def test_non_mapping_output_is_rejected(self):
        with pytest.raises(EngineError, match="record task for workload 'bbuf'"):
            validate_worker_output("record", {"workload": "bbuf"}, [1, 2])

    @pytest.mark.parametrize(
        "kind,output,missing_field",
        [
            ("record", {"detection_seconds": 0.1}, "trace"),
            ("record", {"trace": {}}, "detection_seconds"),
            ("classify", {"solver": {}}, "classified"),
            ("record", {"trace": {}, "detection_seconds": True}, "detection_seconds"),
            ("classify", {"classified": []}, "classified"),
        ],
    )
    def test_malformed_results_name_task_and_field(self, kind, output, missing_field):
        payload = {"workload": "w", "race_id": 1}
        with pytest.raises(EngineError, match=repr(missing_field)):
            validate_worker_output(kind, payload, output)

    def test_well_formed_results_pass(self):
        validate_worker_output(
            "record", {"workload": "w"}, {"trace": {}, "detection_seconds": 0.5}
        )
        validate_worker_output("classify", {"workload": "w"}, {"classified": {}})

    def test_real_worker_outputs_pass_validation(self):
        # Both entry points, driven with JSON-clean payloads (the program is
        # rebuilt from the registry by name), return what the boundary
        # accepts.
        config = PortendConfig().to_dict()
        record_payload = RecordTask(
            workload="RW", inputs=dict(load_workload("RW").inputs), config=config
        ).to_payload()
        recorded = execute_record_task(record_payload)
        validate_worker_output("record", record_payload, recorded)
        trace = json.loads(json.dumps(recorded["trace"]))
        assert trace["races"]
        for race in trace["races"]:
            classify_payload = ClassificationTask(
                workload="RW", race_id=race["race_id"], trace=trace, config=config
            ).to_payload()
            output = execute_task(classify_payload)
            validate_worker_output("classify", classify_payload, output)
            assert output["classified"]["race"]["race_id"] == race["race_id"]

    def test_serial_dispatch_validates_at_the_boundary(self):
        # Without a pool the supervisor runs each chunk in the driver at
        # submit time, validating every output there.
        supervisor = PoolDispatcher(0).supervise(None)
        supervisor.submit(_good_worker, [{"workload": "w", "race_id": 0}], tag="ok")
        assert supervisor.wait_some() == [("ok", [{}])]
        assert supervisor.done
        with pytest.raises(EngineError, match="expected a result dict"):
            supervisor.submit(_bad_worker, [{"workload": "w", "race_id": 1}], tag="bad")


def _good_worker(payload):
    return {}


def _bad_worker(payload):
    return ["not", "a", "dict"]


# -------------------------------------------------------- engine integration


class TestFaultRecovery:
    def test_crash_once_recovers_on_the_pool(self):
        reference = _serial_reference()
        plan = json.dumps(
            {"faults": [{"op": "crash", "stage": "classify", "workload": "RW"}]}
        )
        runs = AnalysisEngine(
            options=EngineOptions(
                parallel=2,
                fault_plan=plan,
            )
        ).analyze(NAMES)
        assert _full_signature(reference) == _full_signature(runs)
        stats = runs[0].stats
        assert stats.pool_respawns >= 1
        assert stats.task_retries >= 1
        assert stats.faults_injected == 1
        assert stats.pool_downgrades == 0
        assert stats.pools_created == 1  # respawns are not fresh pools

    def test_malformed_result_retries_the_singleton(self):
        reference = _serial_reference()
        plan = json.dumps(
            {"faults": [{"op": "malformed", "stage": "classify", "workload": "RW"}]}
        )
        runs = AnalysisEngine(
            options=EngineOptions(parallel=2, fault_plan=plan)
        ).analyze(NAMES)
        assert _full_signature(reference) == _full_signature(runs)
        stats = runs[0].stats
        assert stats.task_retries >= 1
        assert stats.faults_injected == 1
        assert stats.tasks_quarantined == 0
        assert stats.pool_respawns == 0  # a bad payload never breaks the pool
        assert stats.pool_downgrades == 0

    def test_hang_trips_the_deadline_watchdog(self):
        reference = _serial_reference()
        plan = json.dumps(
            {
                "faults": [
                    {"op": "hang", "stage": "classify", "workload": "bbuf",
                     "ms": 8000}
                ]
            }
        )
        runs = AnalysisEngine(
            options=EngineOptions(
                parallel=2,
                fault_plan=plan, task_deadline_ms=1200,
            )
        ).analyze(NAMES)
        assert _full_signature(reference) == _full_signature(runs)
        stats = runs[0].stats
        assert stats.deadlines_exceeded >= 1
        assert stats.pool_respawns >= 1
        assert stats.pool_downgrades == 0

    def test_poison_task_is_quarantined_alone(self):
        reference = _serial_reference()
        race_id = reference[1].result.classified[0].race.race_id
        # The pinned race crashes its worker EVERY time it reaches the pool:
        # retries cannot fix it, the lone-probe probation must name it, and
        # only that task may leave the pool.
        plan = json.dumps(
            {
                "faults": [
                    {"op": "crash", "stage": "classify", "workload": "RW",
                     "race": race_id, "times": 50}
                ]
            }
        )
        runs = AnalysisEngine(
            options=EngineOptions(
                parallel=2,
                fault_plan=plan,
            )
        ).analyze(NAMES)
        assert _full_signature(reference) == _full_signature(runs)
        stats = runs[0].stats
        assert stats.tasks_quarantined == 1
        assert stats.pool_downgrades == 0  # the task was exiled, not the run
        assert stats.pool_respawns >= 1

    def test_warm_up_crash_respawns_before_real_work(self):
        reference = _serial_reference()
        plan = json.dumps({"faults": [{"op": "crash", "stage": "noop"}]})
        runs = AnalysisEngine(
            options=EngineOptions(
                parallel=2,
                fault_plan=plan,
            )
        ).analyze(NAMES)
        assert _full_signature(reference) == _full_signature(runs)
        stats = runs[0].stats
        assert stats.pool_respawns >= 1
        assert stats.pool_downgrades == 0

    def test_exhausted_respawn_budget_downgrades_to_serial(self):
        reference = _serial_reference(["bbuf"])
        # Crash every classify execution with a zero respawn budget: the
        # first crash downgrades the rest of the run to the serial path,
        # which still completes with bit-identical verdicts.
        plan = json.dumps(
            {"faults": [{"op": "crash", "stage": "classify", "times": 50}]}
        )
        runs = AnalysisEngine(
            options=EngineOptions(
                parallel=2,
                fault_plan=plan, max_pool_respawns=0,
            )
        ).analyze(["bbuf"])
        assert _full_signature(reference) == _full_signature(runs)
        stats = runs[0].stats
        assert stats.pool_downgrades >= 1

    def test_env_defaults_feed_the_options(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_POOL_RESPAWNS", "5")
        monkeypatch.setenv("REPRO_MAX_TASK_RETRIES", "7")
        monkeypatch.setenv("REPRO_TASK_DEADLINE_MS", "12345")
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"faults": []}')
        options = EngineOptions()
        assert options.max_pool_respawns == 5
        assert options.max_task_retries == 7
        assert options.task_deadline_ms == 12345
        assert options.fault_plan == '{"faults": []}'


# ------------------------------------------------------------- event stream


class TestRecoveryEvents:
    def test_recovery_events_fold_into_stats(self):
        events = [
            make_event("task_retry", stage="classify", workload="w", attempt=1,
                       reason="crash"),
            make_event("pool_respawn", reason="worker crash", respawns=1),
            make_event("task_quarantined", stage="classify", workload="w",
                       reason="worker crash"),
            make_event("deadline_exceeded", stage="classify", workload="w",
                       chunk_size=2, deadline_seconds=1.0),
            make_event("fault_injected", op="crash", stage="classify",
                       workload="w", fault_index=0, slot=0),
            make_event("pool", action="downgraded", reason="budget exhausted"),
        ]
        stats = fold_events(events)
        assert stats.task_retries == 1
        assert stats.pool_respawns == 1
        assert stats.tasks_quarantined == 1
        assert stats.deadlines_exceeded == 1
        assert stats.faults_injected == 1
        assert stats.pool_downgrades == 1

    def test_events_info_renders_a_recovery_section(self):
        events = [
            make_event("task_retry", stage="classify", workload="w", attempt=1,
                       reason="crash"),
            make_event("pool_respawn", reason="worker crash", respawns=1),
        ]
        summary = summarize_events(events)
        assert summary["recovery"]["retries"] == 1
        assert summary["recovery"]["respawns"] == 1
        assert summary["recovery"]["by_stage"]["classify"]["retries"] == 1
        text = render_events_info(events)
        assert "recovery:" in text
        assert "respawns=1" in text

    def test_fault_events_replay_from_the_claim_ledger(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        plan = json.dumps(
            {
                "claims_dir": str(tmp_path / "claims"),
                "faults": [{"op": "malformed", "stage": "classify", "workload": "RW"}],
            }
        )
        AnalysisEngine(
            options=EngineOptions(
                parallel=2, fault_plan=plan, events_path=str(events_path)
            )
        ).analyze(NAMES)
        kinds = [
            json.loads(line)["kind"]
            for line in events_path.read_text().splitlines()
        ]
        assert kinds.count("fault_injected") == 1
        assert "task_retry" in kinds
        # Recovery events replay before run_finish, never mid-drain.
        assert kinds.index("fault_injected") < kinds.index("run_finish")


# ------------------------------------------------------------ sidecar fuzzing


class TestSidecarFuzzing:
    @pytest.mark.parametrize("mode", ["garbage", "truncate", "oversize"])
    def test_corrupted_cache_dir_still_serves_a_warm_run(self, tmp_path, mode):
        cache_dir = str(tmp_path / "cache")
        options = dict(parallel=0, cache_dir=cache_dir)
        first = AnalysisEngine(options=EngineOptions(**options)).analyze(["bbuf"])
        # A warm run writes the per-entry hit counters fuzzed below.
        AnalysisEngine(options=EngineOptions(**options)).analyze(["bbuf"])
        hits = glob.glob(os.path.join(cache_dir, "**/*.hits"), recursive=True)
        assert hits
        for path in hits:
            _corrupt(path, mode)
        second = AnalysisEngine(options=EngineOptions(**options)).analyze(["bbuf"])
        assert _full_signature(first) == _full_signature(second)
        assert second[0].trace_cached

    def test_corrupt_sidecar_fault_op_applies_at_run_start(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        options = EngineOptions(parallel=0, cache_dir=cache_dir)
        first = AnalysisEngine(options=options).analyze(["bbuf"])
        AnalysisEngine(options=options).analyze(["bbuf"])  # writes .hits files
        plan = json.dumps(
            {
                "claims_dir": str(tmp_path / "claims"),
                "faults": [
                    {"op": "corrupt_sidecar", "target": "**/*.hits",
                     "mode": "garbage"}
                ],
            }
        )
        second = AnalysisEngine(
            options=EngineOptions(
                parallel=0, cache_dir=cache_dir,
                fault_plan=plan,
            )
        ).analyze(["bbuf"])
        assert _full_signature(first) == _full_signature(second)
        assert second[0].stats.faults_injected == 1
