"""Work items for the parallel analysis engine.

Each pipeline stage has its own task granularity:

* **Stage 1 (record + detect)** -- a :class:`RecordTask` records one
  workload's execution (detection runs inline with the recording) and
  returns the trace wire format;
* **Stage 3, race granularity** -- a :class:`ClassificationTask` classifies
  one ``(workload, race)`` unit end to end;
* **Stage 3, path granularity** -- a :class:`PlanTask` runs the
  single-pre/single-post stage for one race and counts its primary paths,
  then one :class:`PathTask` per ``(race, primary-path)`` analyzes a single
  primary and returns a partial :class:`~repro.core.multi_path.PathVerdict`;
  the engine's deterministic merge recombines them.

Task payloads are plain dicts whose leaves are JSON-serializable (the trace
crosses the process boundary through ``ExecutionTrace.to_dict``), so they
pickle cheaply into ``concurrent.futures`` worker processes and could
equally be shipped over a network queue.  ``program``/``predicates`` travel
by pickle when attached (see :class:`ClassificationTask`).

Every worker entry point is deterministic: recording uses the deterministic
round-robin schedule, and every random decision during classification
derives from :meth:`repro.core.config.PortendConfig.race_seed`, so the same
task always produces the same result no matter which process runs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.config import PortendConfig
from repro.engine.events import EventBuffer
from repro.record_replay.trace import ExecutionTrace


@dataclass(frozen=True)
class ClassificationTask:
    """One (workload, race) classification work item.

    ``program``/``predicates`` travel by pickle, not JSON.  The engine's
    batch path always attaches them (correctness first: the batch may
    contain what-if variants like ``build_memcached(remove_slab_lock=True)``
    whose program differs from the registry rebuild under the same name).
    When absent, the worker rebuilds the workload from the registry by
    name, which keeps the payload fully JSON-clean -- the variant a
    network-queue transport would use.
    """

    workload: str
    race_id: int
    trace: Dict
    config: Dict
    use_semantic_predicates: bool = False
    program: Optional[object] = None
    predicates: Optional[tuple] = None
    #: parent-assigned token identifying this trace payload; tasks sharing a
    #: token carry byte-identical trace dicts, letting the executing process
    #: memoize the deserialized ExecutionTrace (see :func:`_resolve_trace`)
    trace_token: Optional[str] = None
    #: program content hash; when present the executing process attaches its
    #: solver to the worker-lifetime cache of this program (see
    #: :func:`repro.symex.solver.worker_solver_cache`)
    program_fingerprint: str = ""

    def to_payload(self) -> Dict:
        payload = {
            "workload": self.workload,
            "race_id": self.race_id,
            "trace": self.trace,
            "config": self.config,
            "use_semantic_predicates": self.use_semantic_predicates,
        }
        if self.trace_token is not None:
            payload["trace_token"] = self.trace_token
        if self.program_fingerprint:
            payload["program_fingerprint"] = self.program_fingerprint
        if self.program is not None:
            payload["program"] = self.program
            payload["predicates"] = list(self.predicates or ())
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ClassificationTask":
        predicates = payload.get("predicates")
        return cls(
            workload=payload["workload"],
            race_id=payload["race_id"],
            trace=payload["trace"],
            config=payload["config"],
            use_semantic_predicates=payload.get("use_semantic_predicates", False),
            program=payload.get("program"),
            predicates=tuple(predicates) if predicates is not None else None,
            trace_token=payload.get("trace_token"),
            program_fingerprint=payload.get("program_fingerprint", ""),
        )


#: executing-process memo of deserialized traces, keyed by trace token.
#: Classification reads traces but never mutates them (the serial facade
#: already shares one ExecutionTrace across every race it classifies), so
#: the (race, path) tasks of one workload can share a single parse.  Bounded
#: because serial runs execute tasks in the long-lived driving process.
_TRACE_MEMO: Dict[str, ExecutionTrace] = {}
_TRACE_MEMO_LIMIT = 4


def _resolve_trace(task) -> ExecutionTrace:
    """Deserialize the task's trace, memoized per trace token.

    At path granularity one workload's trace fans out into ``races × (Mp+1)``
    task payloads; without the memo every task would re-run
    ``ExecutionTrace.from_dict`` on the identical dict.
    """
    token = task.trace_token
    if token is not None:
        cached = _TRACE_MEMO.get(token)
        if cached is not None:
            return cached
    trace = ExecutionTrace.from_dict(task.trace)
    if token is not None:
        if len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.clear()
        _TRACE_MEMO[token] = trace
    return trace


def _resolve_program(task) -> Tuple[object, list]:
    """The (program, predicates) pair a worker should analyze.

    Uses the program attached to the payload when present, and otherwise
    rebuilds the workload from the registry (model programs assign pcs
    deterministically, so the rebuilt program matches the trace recorded in
    the parent process).
    """
    from repro.workloads import load_workload

    if task.program is not None:
        return task.program, list(task.predicates or ())
    workload = load_workload(task.workload)
    predicates = list(workload.predicates)
    if task.use_semantic_predicates:
        predicates += list(workload.semantic_predicates)
    return workload.program, predicates


def _solver_snapshot(portend) -> Dict:
    """The task's solver-counter delta (each task builds one fresh solver)."""
    return portend.executor.solver.stats.to_dict()


def _build_portend(task, program, config, predicates, events: Optional[EventBuffer] = None):
    """A per-task Portend whose solver joins the worker-lifetime cache.

    Every task still gets a fresh solver (so its stats snapshot is the
    task's delta).  When the payload names a program fingerprint the
    solver's memo dicts are the process-shared ones for that program:
    identical constraint-set queries across the races and primary paths of
    one workload hit warm entries instead of re-enumerating.  When an event
    buffer is supplied, the solver's per-query events flow into it.
    """
    from repro.core.portend import Portend
    from repro.symex.solver import Solver, worker_solver_cache

    shared = None
    if task.program_fingerprint:
        shared = worker_solver_cache(task.program_fingerprint)
    solver = Solver(
        shared_cache=shared,
        event_sink=events.sink if events is not None else None,
    )
    return Portend(program, config=config, predicates=predicates, solver=solver)


def _begin_task(stage: str, workload: str, **detail) -> Tuple[EventBuffer, float]:
    """Open a task's event buffer and emit its ``task_start``."""
    events = EventBuffer()
    events.emit("task_start", stage=stage, workload=workload, **detail)
    return events, time.perf_counter()


def _finish_task(
    events: EventBuffer,
    stage: str,
    workload: str,
    started: float,
    portend=None,
    **detail,
) -> Tuple[Dict, list]:
    """Emit the task's ``solver_stats`` + ``task_finish`` events and return
    ``(solver snapshot, drained events)`` for the result payload."""
    snapshot: Dict = {}
    if portend is not None:
        snapshot = _solver_snapshot(portend)
        events.emit("solver_stats", **snapshot)
        events.emit("interp_stats", **portend.executor.counters.to_dict())
    events.emit(
        "task_finish",
        stage=stage,
        workload=workload,
        seconds=time.perf_counter() - started,
        **detail,
    )
    return snapshot, events.drain()


def pool_worker_initializer(fault_spec: Optional[Mapping] = None) -> None:
    """Runs once in each fresh pool worker process.

    Installs clean worker-lifetime state: the solver memos of
    :mod:`repro.symex.solver`, this module's trace memo, the replay-pass
    memo of :mod:`repro.core.alternate` and the shared-search memo of
    :mod:`repro.explore.paths` all start empty,
    so nothing leaks between engine runs that happen to recycle a worker
    (``fork`` start methods inherit the parent's module state).

    When a fault plan is active (``--fault-plan`` / ``REPRO_FAULT_PLAN``),
    ``fault_spec`` is its resolved spec; it is installed *only here*, so
    faults fire in pool workers and never in the driving process -- the
    quarantine / serial paths stay fault-free by construction.
    """
    from repro.core.alternate import reset_replay_memo
    from repro.engine.faults import install_fault_plan
    from repro.explore.paths import reset_explore_memo
    from repro.symex.solver import reset_worker_caches

    reset_worker_caches()
    install_fault_plan(dict(fault_spec) if fault_spec else None)
    _TRACE_MEMO.clear()
    reset_replay_memo()
    reset_explore_memo()


def execute_noop_task(payload: Mapping) -> Dict:
    """Do nothing (worker entry point).

    The dispatcher's eager warm-up submits one of these per worker slot when
    a run starts, so the pool's process spin-up (and each worker's
    :func:`pool_worker_initializer`) happens concurrently with the driver's
    cache probes instead of inside the first real task's measured latency.
    Returns an empty dict: no events, no solver snapshot, folds to nothing.
    A fault plan targeting stage ``noop`` fires here, which is how the
    warm-up-death recovery path is tested.
    """
    from repro.engine.faults import maybe_inject_fault

    maybe_inject_fault("noop", str(payload.get("workload", "-")))
    return {}


def execute_payload_chunk(worker, payloads: Sequence[Mapping]) -> list:
    """Run one worker entry point over a chunk of payloads (worker side).

    The streaming dispatcher batches wide queues into chunks to amortize the
    per-future submission overhead, mirroring ``pool.map``'s ``chunksize``.
    """
    return [worker(payload) for payload in payloads]


def execute_task(payload: Mapping) -> Dict:
    """Classify one race of a workload (worker entry point).

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it.  Returns the classified race plus the task's solver counters
    (the driving process aggregates them into ``repro.engine.stats``).
    """
    from repro.engine.faults import maybe_inject_fault

    task = ClassificationTask.from_payload(payload)
    if maybe_inject_fault("classify", task.workload, race=task.race_id) == "malformed":
        return {"malformed": True}
    program, predicates = _resolve_program(task)
    config = PortendConfig.from_dict(task.config)
    trace = _resolve_trace(task)
    events, started = _begin_task("classify", task.workload, race=task.race_id)
    portend = _build_portend(task, program, config, predicates, events)
    race = trace.race_by_id(task.race_id)
    classified = portend.classify_race(trace, race).to_dict()
    snapshot, event_list = _finish_task(
        events, "classify", task.workload, started, portend, race=task.race_id
    )
    return {"classified": classified, "solver": snapshot, "events": event_list}


# --------------------------------------------------------------- Stage 1 task


@dataclass(frozen=True)
class RecordTask:
    """One workload-recording work item (pipeline Stage 1).

    Recording needs no predicates -- detection watches memory accesses, not
    semantic properties -- so the payload is just the workload identity, its
    inputs, and the recording-relevant config.  As with classification
    tasks, the actual program is attached for correctness (the batch may
    contain what-if variants differing from the registry build).
    """

    workload: str
    inputs: Dict
    config: Dict
    program: Optional[object] = None
    #: program content hash; recording itself never consults it, but the
    #: cost model keys record-task latency by it so the full-stream
    #: scheduler can order recordings longest-expected-first
    program_fingerprint: str = ""

    def to_payload(self) -> Dict:
        payload = {
            "workload": self.workload,
            "inputs": dict(self.inputs),
            "config": self.config,
        }
        if self.program_fingerprint:
            payload["program_fingerprint"] = self.program_fingerprint
        if self.program is not None:
            payload["program"] = self.program
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "RecordTask":
        return cls(
            workload=payload["workload"],
            inputs=dict(payload["inputs"]),
            config=payload["config"],
            program=payload.get("program"),
            program_fingerprint=payload.get("program_fingerprint", ""),
        )


def execute_record_task(payload: Mapping) -> Dict:
    """Record (and race-detect) one workload execution (worker entry point)."""
    from repro.record_replay.recorder import record_program_trace
    from repro.workloads import load_workload

    from repro.engine.faults import maybe_inject_fault

    task = RecordTask.from_payload(payload)
    if maybe_inject_fault("record", task.workload) == "malformed":
        return {"malformed": True}
    program = task.program
    if program is None:
        program = load_workload(task.workload).program
    config = PortendConfig.from_dict(task.config)
    events, started = _begin_task("record", task.workload)
    trace, detection_seconds = record_program_trace(
        program,
        concrete_inputs=dict(task.inputs),
        max_steps=config.max_steps_per_execution,
    )
    _, event_list = _finish_task(events, "record", task.workload, started)
    return {
        "trace": trace.to_dict(),
        "detection_seconds": detection_seconds,
        "events": event_list,
    }


# --------------------------------------------------- Stage 3 per-path tasks


@dataclass(frozen=True)
class PlanTask(ClassificationTask):
    """Per-race planning item: run Algorithm 1, count the primary paths.

    Same payload shape as a :class:`ClassificationTask` (it addresses the
    same ``(workload, race)`` unit); only the worker entry point differs.
    The plan decides how the rest of the race's classification is
    distributed: a conclusive single stage needs no further tasks, an
    inconclusive one fans out into ``path_count`` :class:`PathTask` items.
    Besides the count, the plan result carries the explored primaries
    themselves as JSON (``PrimaryPath.to_dict``), so the engine can embed
    each primary in its path task and no worker ever repeats the BFS
    prefix exploration.  The plan also owns the exploration diagnostics
    (pruned-state counts and reasons), which the per-path workers do not
    repeat.
    """


def execute_plan_task(payload: Mapping) -> Dict:
    """Run the single stage for one race and plan its path fan-out."""
    from repro.core.classifier import needs_multipath, run_single_stage
    from repro.explore.paths import MultiPathExplorer

    from repro.engine.faults import maybe_inject_fault

    task = PlanTask.from_payload(payload)
    if maybe_inject_fault("plan", task.workload, race=task.race_id) == "malformed":
        return {"malformed": True}
    program, predicates = _resolve_program(task)
    config = PortendConfig.from_dict(task.config)
    trace = _resolve_trace(task)
    events, _ = _begin_task("plan", task.workload, race=task.race_id)
    portend = _build_portend(task, program, config, predicates, events)
    race = trace.race_by_id(task.race_id)

    started = time.perf_counter()
    outcome = run_single_stage(
        portend.executor, portend.program, trace, race, config, predicates=predicates
    )
    plan = {
        "race_id": task.race_id,
        "single": outcome.to_dict(),
        "needs_paths": False,
        "path_count": 0,
        "primaries": [],
        "states_pruned": 0,
        "prune_reasons": [],
    }
    if needs_multipath(outcome, config):
        explorer = MultiPathExplorer.for_config(
            portend.executor, portend.program, trace, race, config
        )
        primaries = explorer.explore()
        plan.update(
            needs_paths=True,
            path_count=len(primaries),
            primaries=[path.to_dict() for path in primaries],
            states_pruned=explorer.states_pruned,
            prune_reasons=list(explorer.prune_reasons),
        )
    plan["seconds"] = time.perf_counter() - started
    snapshot, event_list = _finish_task(
        events, "plan", task.workload, started, portend, race=task.race_id
    )
    plan["solver"] = snapshot
    plan["events"] = event_list
    return plan


@dataclass(frozen=True)
class PathTask(ClassificationTask):
    """One ``(race, primary-path)`` work item: the engine's finest grain.

    A :class:`ClassificationTask` narrowed to a single primary path.  The
    payload embeds the serialized primary the plan explored (``primary``: a
    :meth:`repro.explore.paths.PrimaryPath.to_dict` payload), so the worker
    classifies directly from shipped data and never repeats the BFS prefix
    exploration.  It returns the partial verdict; the engine's merge step
    recombines partial verdicts into a ``ClassifiedRace`` bit-identical to
    the serial result.
    """

    path_index: int = 0
    primary: Dict = field(kw_only=True)

    def to_payload(self) -> Dict:
        payload = super().to_payload()
        payload["path_index"] = self.path_index
        payload["primary"] = self.primary
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "PathTask":
        base = ClassificationTask.from_payload(payload)
        return cls(
            **vars(base),
            path_index=payload["path_index"],
            primary=payload["primary"],
        )


def execute_path_task(payload: Mapping) -> Dict:
    """Analyze one shipped primary path of one race (worker entry point)."""
    from repro.core.multi_path import analyze_primary_path
    from repro.explore.paths import PrimaryPath

    from repro.engine.faults import maybe_inject_fault

    task = PathTask.from_payload(payload)
    if (
        maybe_inject_fault(
            "path", task.workload, race=task.race_id, path=task.path_index
        )
        == "malformed"
    ):
        return {"malformed": True}
    program, predicates = _resolve_program(task)
    config = PortendConfig.from_dict(task.config)
    trace = _resolve_trace(task)
    events, _ = _begin_task(
        "path", task.workload, race=task.race_id, path=task.path_index
    )
    portend = _build_portend(task, program, config, predicates, events)
    race = trace.race_by_id(task.race_id)

    started = time.perf_counter()
    path = PrimaryPath.from_dict(task.primary)
    if path.index != task.path_index:
        raise RuntimeError(
            f"shipped primary of race {task.race_id} in {task.workload!r} "
            f"carries index {path.index}, task expected {task.path_index}"
        )
    verdict = analyze_primary_path(
        portend.executor,
        portend.program,
        trace,
        race,
        config,
        path,
        predicates=predicates,
    )
    seconds = time.perf_counter() - started
    snapshot, event_list = _finish_task(
        events,
        "path",
        task.workload,
        started,
        portend,
        race=task.race_id,
        path=task.path_index,
    )
    return {
        "race_id": task.race_id,
        "path_index": task.path_index,
        "verdict": verdict.to_dict(),
        "seconds": seconds,
        "solver": snapshot,
        "events": event_list,
    }
