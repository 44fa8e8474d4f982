"""Tests for the fault-tolerant dispatch layer.

Covers the deterministic fault-injection harness (plan resolution, claim-once
semantics across retries), worker-result validation at the dispatch boundary,
the supervisor's one retry rule on a scripted fake pool (a failed chunk is
retried whole, split only on a repeat, never after a sleep), and the
supervision ladder end to end on real process pools: crash-once recovery via
pool respawn, malformed-result retries, the deadline watchdog against
injected hangs, poison-task quarantine via lone-probe probation, and a
warm-up crash taking the ordinary crash path -- each asserting that verdicts stay
bit-identical to the fault-free serial reference and that the run never
downgrades to serial while the respawn budget holds.  A plan naming an op
outside ``crash``/``hang``/``malformed`` is rejected at resolution.  Also
fuzzes the cache directory's entry files with truncated/garbage/oversized
bytes: each is a miss, so the run re-records and re-classifies with
unchanged verdicts, and rewrites the files a later warm run is served from.
"""

import json
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import AnalysisEngine, EngineOptions
from repro.core import PortendConfig
from repro.core.categories import ClassifiedRace, RaceClass
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
from repro.engine.tasks import ClassificationTask, execute_task
from repro.record_replay.recorder import record_program_trace
from repro.workloads import load_workload
from test_streaming import _DeferredPool, _full_signature

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
        # The removed cache-file corruption op is an unknown op now.
        with pytest.raises(
            FaultPlanError,
            match=r"unknown op 'corrupt_sidecar'; choose from crash, hang, malformed$",
        ):
            resolve_fault_plan(
                '{"faults": [{"op": "corrupt_sidecar", "target": "**/*.hits"}]}'
            )
        # A stage no task entry point fires at would silently never match:
        # a typo, a stage of the removed per-path task grain, or recording,
        # which runs in the driving process, where no fault fires.
        for stage in ("clasify", "path", "plan", "record"):
            plan = json.dumps(
                {"faults": [{"op": "crash", "stage": "classify"},
                            {"op": "crash", "stage": stage}]}
            )
            with pytest.raises(FaultPlanError, match=f"fault #1 has unknown stage '{stage}'"):
                resolve_fault_plan(plan)
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
        assert "classify, noop" in message

    def test_record_stage_fails_at_engine_construction(self):
        # Recording runs in the driver, so a plan naming its stage is
        # rejected like any other unknown stage, before any run starts.
        plan = json.dumps({"faults": [{"op": "crash", "stage": "record"}]})
        with pytest.raises(FaultPlanError) as excinfo:
            AnalysisEngine(options=EngineOptions(parallel=2, fault_plan=plan))
        message = str(excinfo.value)
        assert "fault #0 has unknown stage 'record'" in message
        assert f"choose from {', '.join(FAULT_STAGES)}" in message
        assert FAULT_STAGES == ("classify", "noop")

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
        assert plan.fire("noop", "bbuf", race=4) is None
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
        assert describe_task("classify", {"workload": "bbuf"}) == (
            "classify task for workload 'bbuf'"
        )

    def test_worker_kinds_are_classify_and_the_catch_all(self):
        # The pool's one task entry point names its stage (the ``stage`` of
        # recovery events and the validation rule); warm-up no-ops are the
        # catch-all.
        assert worker_kind(execute_task) == "classify"
        assert worker_kind(_good_worker) == "task"

    def test_non_mapping_output_is_rejected(self):
        with pytest.raises(EngineError, match="classify task for workload 'bbuf'"):
            validate_worker_output("classify", {"workload": "bbuf"}, [1, 2])
        with pytest.raises(EngineError, match="expected a result dict"):
            validate_worker_output("task", {"workload": "bbuf"}, None)

    @pytest.mark.parametrize(
        "kind,output,missing_field",
        [
            ("classify", {"events": []}, "classified"),
            ("classify", {"classified": []}, "classified"),
        ],
    )
    def test_malformed_results_name_task_and_field(self, kind, output, missing_field):
        payload = {"workload": "w", "race_id": 1}
        with pytest.raises(EngineError, match=repr(missing_field)):
            validate_worker_output(kind, payload, output)

    def test_well_formed_results_pass(self):
        validate_worker_output("task", {"workload": "w"}, {})
        classified = _classified_rw_race()
        validate_worker_output("classify", {"workload": "w"}, {"classified": classified})

    def test_a_classified_race_dict_is_malformed(self):
        # The worker returns the ClassifiedRace itself; its dict is the
        # cache's format and never crosses the dispatch boundary.
        classified = _classified_rw_race()
        with pytest.raises(EngineError, match="must be a ClassifiedRace"):
            validate_worker_output(
                "classify", {"workload": "w"}, {"classified": classified.to_dict()}
            )

    def test_real_worker_outputs_pass_validation(self):
        # The classify entry point, driven with the payloads the engine
        # builds (the program attached, the trace recorded as the driver
        # records it), returns what the boundary accepts.
        config = PortendConfig()
        workload = load_workload("RW")
        trace, _seconds = record_program_trace(
            workload.program, concrete_inputs=dict(workload.inputs)
        )
        assert trace.races
        for race in trace.races:
            classify_payload = ClassificationTask(
                workload="RW",
                race_id=race.race_id,
                trace=trace,
                config=config,
                program=workload.program,
                predicates=tuple(workload.predicates),
            ).to_payload()
            output = execute_task(classify_payload)
            validate_worker_output("classify", classify_payload, output)
            assert output["classified"].race.race_id == race.race_id

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


def _classified_rw_race():
    """A ClassifiedRace of the worker's shape: RW's first race."""
    workload = load_workload("RW")
    trace, _seconds = record_program_trace(
        workload.program, concrete_inputs=dict(workload.inputs)
    )
    return ClassifiedRace(race=trace.races[0], classification=RaceClass.K_WITNESS_HARMLESS)


def _bad_worker(payload):
    return ["not", "a", "dict"]


# ------------------------------------------------------------ the retry rule


class _BreakingPool(_DeferredPool):
    """A deferred fake pool that records each submission's payload count and
    can be told to refuse submits as a broken pool does."""

    def __init__(self):
        super().__init__()
        self.chunks = []
        self.refuse_submits = False

    def submit(self, fn, *args):
        if self.refuse_submits:
            raise BrokenProcessPool("a worker died")
        self.chunks.append(len(args[1]))
        return super().submit(fn, *args)

    def shutdown(self, wait=True, cancel_futures=False):
        self.pending.clear()


#: the real ``time.sleep``: the retry-rule tests replace the module's with
#: a recorder, but a scripted hang must still let the deadline pass
_real_sleep = time.sleep


def _scripted_wait(pool, supervisor, script, seen):
    """A ``wait`` stand-in that plays one step of ``script`` per call on
    every pending future: ``crash`` fails them as a broken pool does,
    ``hang`` lets the chunk deadline pass, ``break`` crashes them and makes
    the pool refuse later submits, ``lose`` crashes all but one, which it
    leaves pending for good (a submit that raced the pool's break), and
    anything else (or an exhausted script) runs them.  Each call appends
    (futures waited on, probation length) to ``seen``."""

    def wait(futures, return_when=None, timeout=None):
        seen.append((len(futures), len(supervisor.probation)))
        step = script.pop(0) if script else "ok"
        if step == "hang":
            _real_sleep(timeout)
            return set(), set(futures)
        waiting = [future for future in futures if future in pool.pending]
        if step == "lose":
            pool.pending.pop(waiting.pop())
        for future in waiting:
            fn, args = pool.pending.pop(future)
            if step in ("crash", "break", "lose"):
                future.set_exception(BrokenProcessPool("a worker died"))
            else:
                future.set_result(fn(*args))
        pool.refuse_submits = step == "break"
        return set(waiting), set(futures) - set(waiting)

    return wait


def _echo_worker(payload):
    return {"race": payload["race_id"]}


#: races :func:`_malformed_once_worker` has already answered wrongly
_ANSWERED_MALFORMED = set()


def _malformed_once_worker(payload):
    """Answers race 2 wrongly the first time it runs, as a fault plan's
    ``malformed`` op does."""
    if payload["race_id"] == 2 and 2 not in _ANSWERED_MALFORMED:
        _ANSWERED_MALFORMED.add(2)
        return ["not", "a", "dict"]
    return _echo_worker(payload)


class _Drain:
    """One supervised drain over a :class:`_BreakingPool` and what it did."""

    def __init__(self, monkeypatch, script, chunks=((0, 1, 2, 3),),
                 worker=_echo_worker, **knobs):
        self.pool = _BreakingPool()
        monkeypatch.setattr(
            "repro.engine.dispatch.ProcessPoolExecutor", lambda **kwargs: self.pool
        )
        self.slept = []
        monkeypatch.setattr(time, "sleep", self.slept.append)
        self.dispatcher = PoolDispatcher(2, **knobs)
        supervisor = self.dispatcher.supervise(self.dispatcher.acquire())
        self.seen = []
        supervisor.wait_fn = _scripted_wait(
            self.pool, supervisor, list(script), self.seen
        )
        for index, races in enumerate(chunks):
            payloads = [{"workload": "w", "race_id": race} for race in races]
            supervisor.submit(worker, payloads, tag=index)
        results = []
        while not supervisor.done:
            results.extend(supervisor.wait_some())
        assert sorted(results) == [
            (index, [{"race": race} for race in races])
            for index, races in enumerate(chunks)
        ]

    def records(self, kind, *fields):
        return [
            tuple(record[field] for field in fields)
            for record in self.dispatcher.recovery
            if record["kind"] == kind
        ]


class TestRetryRule:
    """One rule for every failed chunk: retried whole on its first failure,
    split into singletons only on a repeat, never after a sleep."""

    def test_first_crash_resubmits_the_chunk_whole(self, monkeypatch):
        run = _Drain(monkeypatch, ["crash"])
        assert run.pool.chunks == [4, 4]
        assert run.records("task_retry", "race", "attempt", "reason") == [
            (race, 1, "crash") for race in range(4)
        ]
        assert run.records("pool_respawn", "respawns") == [(1,)]
        assert run.slept == []

    def test_second_crash_splits_the_chunk_into_probed_singletons(self, monkeypatch):
        run = _Drain(monkeypatch, ["crash", "crash"])
        assert run.pool.chunks == [4, 4, 1, 1, 1, 1]
        # Each singleton is waited on alone while the rest sit on probation.
        assert run.seen == [(1, 0), (1, 0), (1, 3), (1, 2), (1, 1), (1, 0)]
        assert run.records("task_retry", "attempt", "reason") == (
            [(1, "crash")] * 4 + [(2, "crash")] * 4
        )
        assert run.records("task_quarantined", "race") == []
        assert run.slept == []

    def test_expired_chunk_is_retried_whole_once(self, monkeypatch):
        run = _Drain(monkeypatch, ["hang"], task_deadline_ms=1)
        assert run.pool.chunks == [4, 4]
        assert run.records("deadline_exceeded", "chunk_size") == [(4,)]
        assert run.records("task_retry", "attempt", "reason") == [
            (1, "deadline")
        ] * 4
        assert run.records("task_quarantined", "race") == []

    def test_repeat_deadline_past_the_budget_quarantines_the_pieces(self, monkeypatch):
        run = _Drain(
            monkeypatch, ["hang", "hang"], task_deadline_ms=1, max_task_retries=1
        )
        assert run.pool.chunks == [4, 4]
        assert run.records("task_quarantined", "race", "reason") == [
            (race, "task deadline exceeded") for race in range(4)
        ]

    def test_malformed_payloads_are_retried_without_the_good_ones(self, monkeypatch):
        _ANSWERED_MALFORMED.clear()
        run = _Drain(monkeypatch, [], worker=_malformed_once_worker)
        assert run.pool.chunks == [4, 1]
        assert run.records("task_retry", "race", "attempt", "reason") == [
            (2, 1, "malformed")
        ]
        assert run.records("pool_respawn", "respawns") == []
        assert run.slept == []

    def test_future_lost_by_a_breaking_pool_is_swept_as_crashed(self, monkeypatch):
        # The crash sweep must give up on a future the broken pool never
        # fails, and retry its chunk whole beside the chunk that crashed.
        # The drain runs on a thread so a sweep that waits for good fails
        # this test instead of stalling the suite.
        drained = []
        thread = threading.Thread(
            target=lambda: drained.append(
                _Drain(monkeypatch, ["lose"], chunks=((0, 1), (2, 3)))
            ),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=20)
        assert not thread.is_alive(), "the crash sweep waited on a lost future"
        (run,) = drained
        assert run.pool.chunks == [2, 2, 2, 2]
        assert sorted(run.records("task_retry", "race", "attempt", "reason")) == [
            (race, 1, "crash") for race in range(4)
        ]
        assert run.records("pool_respawn", "respawns") == [(1,)]

    def test_pool_lost_mid_pump_runs_the_rest_in_the_driver(self, monkeypatch):
        # Both chunks crash and queue whole; the respawned pool then breaks
        # at the first resubmit, past the respawn budget, so the second
        # chunk must wait for the driver instead of meeting a missing pool.
        run = _Drain(
            monkeypatch, ["break"], chunks=((0, 1), (2, 3)), max_pool_respawns=1
        )
        assert run.pool.chunks == [2, 2]
        assert run.records("pool", "action") == [("downgraded",)]


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
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"faults": []}')
        options = EngineOptions()
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


# ---------------------------------------------------------- cache-file fuzzing


class TestCacheFileFuzzing:
    @pytest.mark.parametrize("mode", ["garbage", "truncate", "oversize"])
    def test_corrupted_entry_files_are_misses_with_unchanged_verdicts(
        self, tmp_path, mode
    ):
        options = EngineOptions(parallel=0, cache_dir=str(tmp_path))
        first = AnalysisEngine(options=options).analyze(["bbuf"])
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == 2  # one trace file, one classification file
        for path in entries:
            _corrupt(path, mode)
        engine = AnalysisEngine(options=options)
        second = engine.analyze(["bbuf"])
        assert _full_signature(first) == _full_signature(second)
        assert not second[0].trace_cached
        assert second[0].classifications_cached == 0
        assert engine.last_run_stats.traces_recorded == 1
        assert engine.last_run_stats.classifications_computed == 6
        # Both files were rewritten whole: the next run is served from them.
        assert sorted(tmp_path.glob("*.json")) == entries
        warm = AnalysisEngine(options=options).analyze(["bbuf"])
        assert _full_signature(first) == _full_signature(warm)
        assert warm[0].trace_cached
        assert warm[0].classifications_cached == 6

    def test_plan_naming_the_removed_op_fails_engine_construction(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"faults": [{"op": "corrupt_sidecar", "target": "**/*.hits"}]})
        )
        with pytest.raises(FaultPlanError, match="unknown op 'corrupt_sidecar'"):
            AnalysisEngine(options=EngineOptions(parallel=0, fault_plan=str(plan)))
        # Rejected before the run: no claim ledger was made for the plan.
        assert not (tmp_path / "plan.json.claims").exists()
