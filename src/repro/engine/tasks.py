"""Work items for the parallel analysis engine.

The pool runs one task kind: a :class:`ClassificationTask` classifies one
``(workload, race)`` unit end to end with ``Portend.classify_race``
(pipeline stage 3).  Recording and detection run in the driving process
(see :mod:`repro.engine.engine`).

Task payloads are dicts of the objects a classification reads: the
recorded :class:`~repro.record_replay.trace.ExecutionTrace`, the
:class:`~repro.core.config.PortendConfig`, the program and its predicates.
A task returns its :class:`~repro.core.categories.ClassifiedRace`.  Pickle
is the only codec, paid only when a chunk crosses into a pool worker; the
dict format of traces and verdicts belongs to :mod:`repro.engine.cache`.

Every worker entry point is deterministic: every random decision during
classification derives from
:meth:`repro.core.config.PortendConfig.race_seed`, so the same task always
produces the same result no matter which process runs it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.core.config import PortendConfig
from repro.engine.events import make_event
from repro.record_replay.trace import ExecutionTrace


@dataclass(frozen=True)
class ClassificationTask:
    """One (workload, race) classification work item.

    The task always carries the program it classifies: the batch may
    contain what-if variants like ``build_memcached(remove_slab_lock=True)``
    whose program differs from the registry build under the same name.
    """

    workload: str
    race_id: int
    trace: ExecutionTrace
    config: PortendConfig
    program: object
    predicates: tuple
    #: parent-assigned token identifying this trace; tasks sharing a token
    #: carry the same recording, letting the executing process use one copy
    #: of it (see :func:`_resolve_trace`)
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
            "program": self.program,
            "predicates": list(self.predicates),
        }
        if self.trace_token is not None:
            payload["trace_token"] = self.trace_token
        if self.program_fingerprint:
            payload["program_fingerprint"] = self.program_fingerprint
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ClassificationTask":
        return cls(
            workload=payload["workload"],
            race_id=payload["race_id"],
            trace=payload["trace"],
            config=payload["config"],
            program=payload["program"],
            predicates=tuple(payload["predicates"]),
            trace_token=payload.get("trace_token"),
            program_fingerprint=payload.get("program_fingerprint", ""),
        )


#: executing-process memo of traces, keyed by trace token.  Classification
#: reads traces but never mutates them (the serial facade already shares
#: one ExecutionTrace across every race it classifies), so the race tasks
#: of one workload can share one copy.  Bounded because serial runs execute
#: tasks in the long-lived driving process.
_TRACE_MEMO: Dict[str, ExecutionTrace] = {}
_TRACE_MEMO_LIMIT = 4


def _resolve_trace(task) -> ExecutionTrace:
    """The first copy of the task's trace this process saw, per trace token.

    Each pooled chunk unpickles its own copy of the trace.  The replay-pass
    memo of :mod:`repro.core.alternate` (keyed by trace identity) and the
    shared-search memo of :mod:`repro.explore.paths` only hit across the
    chunks of one workload if every chunk classifies against one copy.
    """
    token = task.trace_token
    if token is None:
        return task.trace
    cached = _TRACE_MEMO.get(token)
    if cached is not None:
        return cached
    if len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
        _TRACE_MEMO.clear()
    _TRACE_MEMO[token] = task.trace
    return task.trace


def _build_portend(task):
    """A per-task Portend whose solver joins the worker-lifetime cache.

    Every task still gets a fresh solver (so its ``solver_stats`` event is
    the task's delta).  When the payload names a program fingerprint the
    solver's memo dicts are the process-shared ones for that program:
    identical constraint-set queries across the races and primary paths of
    one workload hit warm entries instead of re-enumerating.
    """
    from repro.core.portend import Portend
    from repro.symex.solver import Solver, worker_solver_cache

    shared = None
    if task.program_fingerprint:
        shared = worker_solver_cache(task.program_fingerprint)
    solver = Solver(shared_cache=shared)
    return Portend(
        task.program, config=task.config, predicates=list(task.predicates), solver=solver
    )


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
    cache probes and recordings instead of inside the first real task's
    measured latency.
    Returns an empty dict: no events, folds to nothing.
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
    pickle it.  Returns the :class:`~repro.core.categories.ClassifiedRace`
    plus the task's events, whose ``solver_stats``/``interp_stats``
    snapshots the driving process folds into ``repro.engine.stats``.
    """
    from repro.engine.faults import maybe_inject_fault

    task = ClassificationTask.from_payload(payload)
    if maybe_inject_fault("classify", task.workload, race=task.race_id) == "malformed":
        return {"malformed": True}
    trace = _resolve_trace(task)
    identity = {"stage": "classify", "workload": task.workload, "race": task.race_id}
    start = make_event("task_start", **identity)
    started = time.perf_counter()
    portend = _build_portend(task)
    race = trace.race_by_id(task.race_id)
    classified = portend.classify_race(trace, race)
    # Each task builds one fresh solver and executor: each snapshot is the
    # task's delta.
    events = [
        start,
        make_event("solver_stats", **portend.executor.solver.stats.to_dict()),
        make_event("interp_stats", **portend.executor.counters.to_dict()),
        make_event("task_finish", seconds=time.perf_counter() - started, **identity),
    ]
    return {"classified": classified, "events": events}

