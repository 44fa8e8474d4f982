"""Work items for the parallel analysis engine.

The pool runs one task kind: :func:`execute_task` classifies one
``(workload, race)`` unit end to end with ``Portend.classify_race``
(pipeline stage 3).  Recording and detection run in the driving process
(see :mod:`repro.engine.engine`).

Every race of one recorded trace is classified against the same
:class:`TraceContext`: the :class:`~repro.record_replay.trace.ExecutionTrace`,
the :class:`~repro.core.config.PortendConfig`, the program and its
predicates, plus the :class:`~repro.record_replay.memo.TraceMemo` the
trace's races share (replay passes, searches, the tasks' solver memo).  A
task payload names its race (``workload``, ``race_id``) and reaches its
context one of two ways:

* **inline** -- ``{"workload", "race_id", "context"}``: the payload holds the
  driver's own context.  Serial runs, and workloads whose context does not
  pickle (a lambda predicate), run their chunks in the driving process this
  way: nothing is pickled and no file is written.
* **spooled** -- ``{"workload", "race_id", "spool"}``: the payload holds only
  the path of the one file the driver pickled the context into
  (:class:`ContextSpool`, once per trace per run).  The executing process
  keeps the last context it loaded, keyed by that path, so consecutive
  chunks of a trace on one worker classify against one context and share
  its memo.

A context never pickles its memo: an unpickled context starts with an
empty one.  A task returns its :class:`~repro.core.categories.ClassifiedRace`
without the race (``race`` is None), serial, inline or pooled alike: the
driver already holds the trace's report and re-attaches it as the chunk
lands.  Pickle is the only codec, paid once per pooled trace; the dict
format of traces and verdicts belongs to :mod:`repro.engine.cache`.

Every worker entry point is deterministic: every random decision during
classification derives from
:meth:`repro.core.config.PortendConfig.race_seed`, so the same task always
produces the same result no matter which process runs it.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.config import PortendConfig
from repro.engine.events import make_event
from repro.lang.program import Program
from repro.record_replay.memo import TraceMemo
from repro.record_replay.trace import ExecutionTrace
from repro.symex.solver import Solver


@dataclass
class TraceContext:
    """What every race of one recorded trace is classified against.

    The program is always carried: the batch may contain what-if variants
    like ``build_memcached(remove_slab_lock=True)`` whose program differs
    from the registry build under the same name.  ``memo`` is the shared
    work of this trace on this program; it is never pickled.
    """

    trace: ExecutionTrace
    config: PortendConfig
    program: Program
    predicates: tuple
    memo: TraceMemo = field(default_factory=TraceMemo, repr=False, compare=False)

    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        del state["memo"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self.memo = TraceMemo()


class ContextSpool:
    """One run's spooled contexts: each pooled trace's context pickled once,
    into one file of a ``repro-spool-*`` temp dir made on the first write.

    The engine removes the dir (:meth:`remove`) once the run's pool has shut
    down, whether or not the drain raised.
    """

    def __init__(self) -> None:
        #: the run's spool dir; None until the first context is written
        self.path: Optional[str] = None
        self._files = 0

    def write(self, context: TraceContext) -> Optional[str]:
        """Pickle ``context`` into a new spool file and return its path;
        None when it does not pickle (e.g. a lambda predicate), so its
        tasks run inline in the driving process."""
        try:
            blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError):
            return None
        if self.path is None:
            self.path = tempfile.mkdtemp(prefix="repro-spool-")
        self._files += 1
        path = os.path.join(self.path, f"{self._files}.pkl")
        with open(path, "wb") as handle:
            handle.write(blob)
        return path

    def remove(self) -> None:
        if self.path is not None:
            shutil.rmtree(self.path, ignore_errors=True)
            self.path = None


#: the executing process's last spooled context, as ``(spool path,
#: context)``.  Classification reads a context's trace, config and program
#: but never mutates them, so the chunks of one trace that land on a process
#: one after another share the one copy loaded here, and its memo.
_CONTEXT: Optional[Tuple[str, TraceContext]] = None


def reset_context_memo() -> None:
    """Forget the loaded context (a new run, a fresh worker)."""
    global _CONTEXT
    _CONTEXT = None


def _spooled_context(path: str) -> TraceContext:
    """The context spooled at ``path``, read unless it is the one loaded
    last (a path is unique within a run)."""
    global _CONTEXT
    if _CONTEXT is None or _CONTEXT[0] != path:
        with open(path, "rb") as handle:
            _CONTEXT = (path, pickle.load(handle))
    return _CONTEXT[1]


def pool_worker_initializer(fault_spec: Optional[Mapping] = None) -> None:
    """Runs once in each fresh pool worker process.

    Installs clean worker-lifetime state: this module's context slot (and
    with it the loaded context's memo) starts empty, so nothing leaks
    between engine runs that happen to recycle a worker (``fork`` start
    methods inherit the parent's module state).

    When a fault plan is active (``--fault-plan`` / ``REPRO_FAULT_PLAN``),
    ``fault_spec`` is its resolved spec; it is installed *only here*, so
    faults fire in pool workers and never in the driving process -- the
    quarantine / serial paths stay fault-free by construction.
    """
    from repro.engine.faults import install_fault_plan

    install_fault_plan(dict(fault_spec) if fault_spec else None)
    reset_context_memo()


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
    pickle it.  Returns the :class:`~repro.core.categories.ClassifiedRace`,
    its race detached (the driver holds the trace's own report), plus the
    task's events, whose ``solver_stats``/``interp_stats``
    snapshots the driving process folds into ``repro.engine.stats``.
    """
    from repro.core.portend import Portend
    from repro.engine.faults import maybe_inject_fault

    workload, race_id = payload["workload"], payload["race_id"]
    if maybe_inject_fault("classify", workload, race=race_id) == "malformed":
        return {"malformed": True}
    identity = {"stage": "classify", "workload": workload, "race": race_id}
    start = make_event("task_start", **identity)
    started = time.perf_counter()
    # Loading a spooled context is part of the task's measured time.
    if "context" in payload:
        context = payload["context"]
    else:
        context = _spooled_context(payload["spool"])
    # A fresh solver on the context's solver memo: its stats are the task's
    # delta, while the trace's earlier races and paths leave warm entries.
    portend = Portend(
        context.program,
        config=context.config,
        predicates=context.predicates,
        solver=Solver(memo=context.memo.solver),
    )
    trace = context.trace
    classified = portend.classify_race(trace, trace.race_by_id(race_id), memo=context.memo)
    classified.race = None
    # Each task builds one fresh solver and executor: each snapshot is the
    # task's delta.
    events = [
        start,
        make_event("solver_stats", **portend.executor.solver.stats.to_dict()),
        make_event("interp_stats", **portend.executor.counters.to_dict()),
        make_event("task_finish", seconds=time.perf_counter() - started, **identity),
    ]
    return {"classified": classified, "events": events}

