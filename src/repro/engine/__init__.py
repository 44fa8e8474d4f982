"""Parallel analysis engine (record→detect→classify + two caches).

* :mod:`repro.engine.engine` -- :class:`AnalysisEngine`, the
  record→detect→classify pipeline: the driving process records, and one
  full-stream drain classifies over a ``concurrent.futures`` process pool
  (or, serially, the driving process) with a deterministic per-race merge,
* :mod:`repro.engine.dispatch` -- :class:`PoolDispatcher`, the run-lifetime
  persistent pool, and :class:`PoolSupervisor`, the retry / respawn /
  quarantine layer every drain runs under,
* :mod:`repro.engine.tasks` -- what every race of a trace is classified
  against (``TraceContext``, which owns the trace's memo), the run's spool
  of pickled contexts (``ContextSpool``), the picklable worker entry point
  that classifies one race, and the pool initializer that starts each
  worker with no loaded context,
* :mod:`repro.engine.cache` -- the on-disk trace cache keyed by
  ``(program, inputs, config)`` and the classification cache keyed by
  ``(program, inputs, config, race_id)`` plus the predicate mode,
* :mod:`repro.engine.events` -- the typed JSON-lines event stream every
  pipeline counter is folded from,
* :mod:`repro.engine.stats` -- the :class:`EngineStats` view of a folded
  event stream.
"""

from repro.engine.cache import ClassificationCache, TraceCache, collect_cache_info
from repro.engine.dispatch import PoolDispatcher, validate_worker_output
from repro.engine.errors import EngineError, FaultPlanError
from repro.engine.engine import AnalysisEngine, EngineOptions, EngineRun
from repro.engine.events import (
    EVENT_KINDS,
    EventLogger,
    fold_events,
    load_events,
    render_events_info,
    summarize_events,
    write_events,
)
from repro.engine.faults import FaultPlan, resolve_fault_plan
from repro.engine.stats import EngineStats
from repro.engine.tasks import TraceContext, execute_task, pool_worker_initializer

__all__ = [
    "AnalysisEngine",
    "EngineOptions",
    "EngineRun",
    "collect_cache_info",
    "EngineError",
    "FaultPlanError",
    "FaultPlan",
    "resolve_fault_plan",
    "validate_worker_output",
    "PoolDispatcher",
    "TraceCache",
    "ClassificationCache",
    "TraceContext",
    "execute_task",
    "pool_worker_initializer",
    "EngineStats",
    "EVENT_KINDS",
    "EventLogger",
    "fold_events",
    "load_events",
    "write_events",
    "summarize_events",
    "render_events_info",
]
