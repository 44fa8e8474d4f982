"""Typed, JSON-lines structured event log for the analysis engine.

The engine used to maintain its pipeline counters by incrementing
:class:`~repro.engine.stats.EngineStats` fields at a dozen call sites across
``engine.py``, ``dispatch.py`` and ``tasks.py``.  This module inverts that:
the pipeline *emits typed events* and every counter is a **fold** over the
event stream (:func:`fold_events`).  The stream is the source of truth; the
stats object is a view.  The same stream can be written as JSON lines via
``--events <path>``, and the ``events-info`` CLI summarizes it after the
fact.

Event schema -- every event is a flat JSON object with a ``kind`` from
:data:`EVENT_KINDS` plus kind-specific fields:

===========================  ====================================================
kind                         fields
===========================  ====================================================
``run_start``                ``workloads`` (names), ``parallel``
``run_finish``               ``seconds``
``task_submit``              ``stage`` (classify), ``workload``, ``race``
``task_start``               ``stage`` (record/classify), ``workload``,
                             ``race`` (classify: worker; record: driver)
``task_finish``              ``stage``, ``workload``, ``race``,
                             ``seconds`` (classify: worker; record: driver)
``trace_recorded``           ``workload``
``cache``                    ``tier`` (trace/classification), ``hit`` (bool)
``classification_computed``  ``workload``, ``race``
``solver_stats``             a ``SolverStats.to_dict()`` snapshot (one per
                             task, the aggregate of its queries)
``interp_stats``             the executor's ``InterpCounters.to_dict()``
                             snapshot
                             (``statements``, ``forks``, ``cow_copies``,
                             ``spin_cutoffs``, ``steps_skipped``,
                             ``accesses`` -- the ``MemoryAccess`` events
                             built for listeners; one per task; a counter
                             an older log lacks folds as 0)
``pool``                     ``action`` (created/downgraded; an older
                             log's ``reused`` folds to nothing)
``scheduler_decision``       ``stage``, ``chunk_size``, ``actual_seconds``
                             -- one per chunk the scheduler cut, replayed
                             in (workload, chunk start) order; older logs'
                             ``estimated_seconds`` is ignored
``task_retry``               ``stage``, ``workload``, ``race``,
                             ``attempt``, ``reason`` (crash/deadline/
                             malformed) -- supervision re-submitted the task
``pool_respawn``             ``reason``, ``respawns`` (cumulative charged
                             count) -- persistent pool rebuilt after a crash
                             or hang; ``action: downgraded`` pool events mark
                             budget exhaustion instead
``task_quarantined``         ``stage``, ``workload``, ``race``,
                             ``reason`` -- the task was exiled to the
                             in-driver serial path (it alone, not the run)
``deadline_exceeded``        ``stage``, ``workload``, ``deadline_seconds`` --
                             the watchdog cancelled an in-flight chunk
``fault_injected``           ``op``, ``stage``, ``workload``, ``race`` --
                             replayed post-run from the fault plan's claim
                             ledger (crashed workers cannot report their
                             own injection)
===========================  ====================================================

Folding semantics (:func:`fold_events`): ``trace_recorded`` increments
``traces_recorded``; ``cache`` events increment the hit/miss counter of
their tier; ``classification_computed`` counts itself;
``solver_stats`` snapshots are absorbed into the ``solver_*`` counters;
``pool`` events feed the pool-lifecycle counters.
Lifecycle events (``run_*``, ``task_*``) carry latency data for
``events-info`` histograms but fold to nothing.  Fields a fold does not
know are ignored, and so are kinds it does not know, so logs written by
older versions still load and fold: solver events that carry a
``backend`` name, ``primary`` events, a ``run_start`` with a
``granularity``, ``plan``/``path`` task events, ``record`` task submits,
``stage_overlap`` events with or without a channel, and the per-query
``solver_query`` events and their ``events_truncated`` cap marker, all of
which fold to nothing.

Determinism: each worker task returns its events in its result payload;
the driver absorbs them in task order -- batch order of workloads, trace
order of races -- never in future-completion order, so the merged stream
is structurally bit-identical across completion interleavings: same
events, same order, same identity fields.  The
nondeterministic residue is the ``ts``/``seconds`` timestamps and work
*attribution*: whether a query hit the shared worker-lifetime cache, and
which task ran a state of a shared search or replay pass, depends on which
task a pool executed first, so per-task solver and interpreter counters do
too.  Verdicts do not.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.engine.stats import EngineStats

#: every event kind the pipeline may emit
EVENT_KINDS = (
    "run_start",
    "run_finish",
    "task_submit",
    "task_start",
    "task_finish",
    "trace_recorded",
    "cache",
    "classification_computed",
    "solver_stats",
    "interp_stats",
    "pool",
    "scheduler_decision",
    "task_retry",
    "pool_respawn",
    "task_quarantined",
    "deadline_exceeded",
    "fault_injected",
)

#: the ``InterpCounters`` fields an ``interp_stats`` event carries
_INTERP_COUNTERS = (
    "statements", "forks", "cow_copies", "spin_cutoffs", "steps_skipped", "accesses"
)

Event = Dict[str, object]


def make_event(kind: str, **data) -> Event:
    """Build a timestamped event, validating the kind."""
    if kind not in EVENT_KINDS:
        raise ValueError(
            f"unknown event kind {kind!r}; expected one of {', '.join(EVENT_KINDS)}"
        )
    event: Event = {"kind": kind, "ts": time.time()}
    event.update(data)
    return event


class EventLogger:
    """The driver-side event stream for one engine run.

    Collects events emitted by the driving process and absorbed from worker
    task results, in deterministic order.  ``reset`` clears in place (the
    dispatcher holds a reference), ``snapshot`` copies the stream out so a
    finished run's events survive the next run's reset.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, kind: str, **data) -> None:
        self._events.append(make_event(kind, **data))

    def absorb(self, events: Optional[Iterable[Event]]) -> None:
        """Append a worker task's events to the stream."""
        if not events:
            return
        self._events.extend(events)

    def reset(self) -> None:
        del self._events[:]

    def snapshot(self) -> List[Event]:
        return list(self._events)

    def fold(self) -> EngineStats:
        return fold_events(self._events)


def fold_events(events: Iterable[Event]) -> EngineStats:
    """Derive an :class:`EngineStats` view from an event stream.

    This is the *only* producer of engine counters: every field of the
    returned stats object is computed here, from events alone.
    """
    stats = EngineStats()
    for event in events:
        kind = event.get("kind")
        if kind == "trace_recorded":
            stats.traces_recorded += 1
        elif kind == "cache":
            tier = event.get("tier")
            hit = bool(event.get("hit"))
            if tier == "trace":
                if hit:
                    stats.trace_cache_hits += 1
            elif tier == "classification":
                if hit:
                    stats.classification_cache_hits += 1
        elif kind == "classification_computed":
            stats.classifications_computed += 1
        elif kind == "solver_stats":
            stats.absorb_solver(event)
        elif kind == "interp_stats":
            stats.absorb_interp(event)
        elif kind == "pool":
            if event.get("action") == "created":
                stats.pools_created += 1
            elif event.get("action") == "downgraded":
                stats.pool_downgrades += 1
        elif kind == "task_retry":
            stats.task_retries += 1
        elif kind == "pool_respawn":
            stats.pool_respawns += 1
        elif kind == "task_quarantined":
            stats.tasks_quarantined += 1
        elif kind == "deadline_exceeded":
            stats.deadlines_exceeded += 1
        elif kind == "fault_injected":
            stats.faults_injected += 1
        # ``scheduler_decision`` events are advisory detail: the chunks they
        # describe already produced the task events folded above, so they
        # fold to nothing.
    return stats


# ------------------------------------------------------------------ JSONL io


def write_events(events: Sequence[Event], path: str, append: bool = True) -> None:
    """Serialize events as JSON lines (one object per line)."""
    mode = "a" if append else "w"
    with open(path, mode, encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")


def load_events(path: str) -> List[Event]:
    """Read a JSON-lines event file back into a list of events."""
    events: List[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ------------------------------------------------------------- events-info


#: latency histogram bucket upper bounds (seconds), last bucket is open
_LATENCY_BUCKETS = (0.001, 0.01, 0.1, 1.0)


def _bucket_label(index: int) -> str:
    labels = ["<1ms", "<10ms", "<100ms", "<1s", ">=1s"]
    return labels[index]


def _histogram(seconds: Sequence[float]) -> List[int]:
    counts = [0] * (len(_LATENCY_BUCKETS) + 1)
    for value in seconds:
        for index, bound in enumerate(_LATENCY_BUCKETS):
            if value < bound:
                counts[index] += 1
                break
        else:
            counts[len(_LATENCY_BUCKETS)] += 1
    return counts


def _percentile(seconds: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile of a latency sample (0.0 when empty)."""
    if not seconds:
        return 0.0
    ordered = sorted(seconds)
    rank = int(round(quantile * (len(ordered) - 1)))
    return ordered[max(0, min(len(ordered) - 1, rank))]


#: the recovery events ``events-info`` breaks down per stage, by the field
#: they count (the run-wide totals come from :func:`fold_events`)
_STAGE_RECOVERY_FIELDS = {
    "task_retry": "retries",
    "task_quarantined": "quarantined",
    "deadline_exceeded": "deadline_exceeded",
}


def summarize_events(events: Sequence[Event]) -> Dict[str, object]:
    """Mine an event stream for the ``events-info`` report.

    Returns a dict with: by-kind counts, the folded stats, per-stage task
    latency histograms (with p50/p95 percentiles), cache hit rates by tier,
    solver time/query totals, and the scheduler's chunk decisions (chunks,
    tasks and actual seconds per stage).  The solver, interpreter and
    recovery totals are the fold's; their task counts are the number of
    ``solver_stats``/``interp_stats`` events.
    """
    by_kind: Dict[str, int] = {}
    stage_latencies: Dict[str, List[float]] = {}
    cache_totals: Dict[str, Dict[str, int]] = {}
    decisions: Dict[str, Dict[str, float]] = {}
    stats = fold_events(events)
    recovery: Dict[str, object] = {
        "retries": stats.task_retries,
        "respawns": stats.pool_respawns,
        "quarantined": stats.tasks_quarantined,
        "deadline_exceeded": stats.deadlines_exceeded,
        "faults_injected": stats.faults_injected,
        "downgrades": stats.pool_downgrades,
        "by_stage": {},
    }
    for event in events:
        kind = str(event.get("kind"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if kind == "task_finish":
            stage = str(event.get("stage", "?"))
            stage_latencies.setdefault(stage, []).append(
                float(event.get("seconds", 0.0))
            )
        elif kind == "scheduler_decision":
            stage = str(event.get("stage", "?"))
            entry = decisions.setdefault(
                stage, {"chunks": 0, "tasks": 0, "actual_seconds": 0.0}
            )
            entry["chunks"] += 1
            entry["tasks"] += int(event.get("chunk_size", 0))
            entry["actual_seconds"] += float(event.get("actual_seconds", 0.0))
        elif kind == "cache":
            tier = str(event.get("tier", "?"))
            entry = cache_totals.setdefault(tier, {"hits": 0, "misses": 0})
            entry["hits" if event.get("hit") else "misses"] += 1
        elif kind in _STAGE_RECOVERY_FIELDS:
            entry = recovery["by_stage"].setdefault(
                str(event.get("stage", "?")),
                {"retries": 0, "quarantined": 0, "deadline_exceeded": 0},
            )
            entry[_STAGE_RECOVERY_FIELDS[kind]] += 1
    solver = {
        "tasks": by_kind.get("solver_stats", 0),
        "queries": stats.solver_queries,
        "seconds": stats.solver_seconds,
        "enumerated": stats.solver_assignments_enumerated,
    }
    # logs written while a second kernel existed carry an ``interp`` key;
    # every kernel's counters fold into the one line
    interpreter = {"tasks": by_kind.get("interp_stats", 0)}
    for counter in _INTERP_COUNTERS:
        interpreter[counter] = getattr(stats, f"interp_{counter}")
    histograms = {
        stage: {
            "count": len(latencies),
            "total_seconds": sum(latencies),
            "p50_seconds": _percentile(latencies, 0.50),
            "p95_seconds": _percentile(latencies, 0.95),
            "buckets": {
                _bucket_label(index): count
                for index, count in enumerate(_histogram(latencies))
            },
        }
        for stage, latencies in sorted(stage_latencies.items())
    }
    cache_rates = {
        tier: {
            "hits": entry["hits"],
            "misses": entry["misses"],
            "hit_rate": (
                entry["hits"] / (entry["hits"] + entry["misses"])
                if entry["hits"] + entry["misses"]
                else 0.0
            ),
        }
        for tier, entry in sorted(cache_totals.items())
    }
    return {
        "events": len(events),
        "by_kind": dict(sorted(by_kind.items())),
        "stats": stats.summary(),
        "stage_latency": histograms,
        "cache_rates": cache_rates,
        "solver": solver,
        "interpreter": interpreter,
        "scheduler_decisions": dict(sorted(decisions.items())),
        "recovery": recovery,
    }


def render_events_info(events: Sequence[Event]) -> str:
    """Human-readable ``events-info`` report for an event stream."""
    summary = summarize_events(events)
    lines: List[str] = []
    lines.append(f"events: {summary['events']}")
    lines.append("")
    lines.append("by kind:")
    for kind, count in summary["by_kind"].items():
        lines.append(f"  {kind} {count}")
    lines.append("")
    lines.append("per-stage task latency:")
    for stage, data in summary["stage_latency"].items():
        buckets = "  ".join(
            f"{label}:{count}" for label, count in data["buckets"].items()
        )
        lines.append(
            f"  {stage}: n={data['count']} "
            f"total={data['total_seconds']:.3f}s "
            f"p50={data['p50_seconds'] * 1000:.1f}ms "
            f"p95={data['p95_seconds'] * 1000:.1f}ms  {buckets}"
        )
    if not summary["stage_latency"]:
        lines.append("  (no task_finish events)")
    lines.append("")
    lines.append("scheduler decisions:")
    for stage, data in summary["scheduler_decisions"].items():
        lines.append(
            f"  {stage}: chunks={int(data['chunks'])} tasks={int(data['tasks'])} "
            f"actual={data['actual_seconds']:.3f}s"
        )
    if not summary["scheduler_decisions"]:
        lines.append("  (no scheduler_decision events)")
    lines.append("")
    lines.append("recovery:")
    recovery = summary["recovery"]
    recovered = (
        recovery["retries"]
        or recovery["respawns"]
        or recovery["quarantined"]
        or recovery["deadline_exceeded"]
        or recovery["faults_injected"]
        or recovery["downgrades"]
    )
    if recovered:
        lines.append(
            f"  retries={recovery['retries']} respawns={recovery['respawns']} "
            f"quarantined={recovery['quarantined']} "
            f"deadline_exceeded={recovery['deadline_exceeded']} "
            f"faults_injected={recovery['faults_injected']} "
            f"downgrades={recovery['downgrades']}"
        )
        for stage, data in sorted(recovery["by_stage"].items()):
            lines.append(
                f"  {stage}: retries={data['retries']} "
                f"quarantined={data['quarantined']} "
                f"deadline_exceeded={data['deadline_exceeded']}"
            )
    else:
        lines.append("  (no recovery events)")
    lines.append("")
    lines.append("cache hit rates:")
    for tier, data in summary["cache_rates"].items():
        lines.append(
            f"  {tier}: hits={data['hits']} misses={data['misses']} "
            f"hit_rate={data['hit_rate']:.1%}"
        )
    if not summary["cache_rates"]:
        lines.append("  (no cache events)")
    lines.append("")
    solver = summary["solver"]
    if solver["tasks"]:
        lines.append(
            f"solver: queries={int(solver['queries'])} "
            f"seconds={solver['seconds']:.3f} "
            f"enumerated={int(solver['enumerated'])}"
        )
    else:
        lines.append("solver: (no solver_stats events)")
    lines.append("")
    interpreter = summary["interpreter"]
    lines.append(
        f"interpreter counters: tasks={interpreter['tasks']} "
        f"statements={interpreter['statements']} "
        f"forks={interpreter['forks']} "
        f"cow_copies={interpreter['cow_copies']} "
        f"spin_cutoffs={interpreter['spin_cutoffs']} "
        f"steps_skipped={interpreter['steps_skipped']} "
        f"accesses={interpreter['accesses']}"
    )
    lines.append("")
    lines.append(summary["stats"])
    return "\n".join(lines)
