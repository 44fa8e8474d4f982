"""Counters for the analysis engine's pipeline stages -- now an event fold.

The counters answer the operational questions the caches raise: how many
traces were actually re-recorded, and how many races were actually
re-classified?  A fully warm run reports ``classifications computed=0`` --
the CI warm-cache job asserts exactly that string on the second of two
identically-configured ``python -m repro.experiments all --cache-dir D``
invocations.

Since the structured-event refactor, :class:`EngineStats` is a *view*: the
engine emits typed events (see :mod:`repro.engine.events`) and every counter
here is produced by folding that stream with
:func:`repro.engine.events.fold_events`.  Nothing in the pipeline increments
these fields directly.  Each engine run folds its own stream
(``engine.last_run_stats``); totals across runs come from folding their
concatenated streams, which is additive -- one experiment invocation builds
many short-lived :class:`AnalysisEngine` instances (one per ablation
config), and ``python -m repro.experiments`` prints the fold of the event
log every one of them appended to.  All event emission in the driving
process happens as tasks are dispatched and collected; pool workers only
attach their events to their result payloads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineStats:
    """Counters for one process's engine activity."""

    #: executions recorded (trace-cache misses)
    traces_recorded: int = 0
    #: recordings served from the trace cache
    trace_cache_hits: int = 0
    #: races classified by running the analysis (classification-cache misses)
    classifications_computed: int = 0
    #: classifications served from the classification cache
    classification_cache_hits: int = 0
    #: solver queries issued by dispatched tasks (aggregated from workers)
    solver_queries: int = 0
    #: solver queries answered from the constraint-set memo
    solver_cache_hits: int = 0
    #: solver queries that ran the narrowing/enumeration machinery
    solver_cache_misses: int = 0
    #: concrete assignments enumerated by the bounded solver
    solver_assignments_enumerated: int = 0
    #: the subset of solver cache hits served from a worker-lifetime entry
    #: written by an earlier task of the same process
    worker_cache_hits: int = 0
    #: wall-clock seconds spent inside solver queries (aggregated)
    solver_seconds: float = 0.0
    #: ProcessPoolExecutor constructions (streaming: one per engine run)
    pools_created: int = 0
    #: interpreter statements executed by dispatched tasks (aggregated)
    interp_statements: int = 0
    #: symbolic-branch state forks taken by the interpreter
    interp_forks: int = 0
    #: copy-on-write materializations (containers/threads/frames copied on
    #: first write after a fork)
    interp_cow_copies: int = 0
    #: alternate enforcements cut short at a repeated spin state
    interp_spin_cutoffs: int = 0
    #: steps those cutoffs skipped instead of interpreting
    interp_steps_skipped: int = 0
    #: ``MemoryAccess`` events built for the listeners that asked for them
    interp_accesses: int = 0
    #: task executions re-submitted after a worker crash, deadline expiry,
    #: or malformed result (supervision layer)
    task_retries: int = 0
    #: persistent-pool teardown+rebuild cycles after a worker crash or hang
    #: (bounded by ``EngineOptions.max_pool_respawns``; distinct from
    #: ``pools_created``)
    pool_respawns: int = 0
    #: tasks exiled to the in-driver serial path after exhausting retries
    #: (the task alone is quarantined, never the run)
    tasks_quarantined: int = 0
    #: in-flight chunks cancelled by the deadline watchdog
    deadlines_exceeded: int = 0
    #: faults fired by an installed fault plan (replayed from its claim
    #: ledger at run finish)
    faults_injected: int = 0
    #: run-wide serial downgrades after the respawn budget was exhausted
    #: (the chaos CI job asserts this stays 0 under the standard fault plan)
    pool_downgrades: int = 0

    def absorb_solver(self, payload) -> None:
        """Fold one task's solver-counter snapshot into the aggregate.

        Each task's ``solver_stats`` event carries a ``SolverStats.to_dict()``
        snapshot back to the driving process (each task builds one fresh
        solver, so the snapshot *is* the delta); :func:`fold_events` calls
        this per event, which keeps the "workers never touch the counters"
        invariant while still counting pooled work.
        """
        if not payload:
            return
        self.solver_queries += payload.get("queries", 0)
        self.solver_cache_hits += payload.get("cache_hits", 0)
        self.solver_cache_misses += payload.get("cache_misses", 0)
        self.solver_assignments_enumerated += payload.get("enumerated_assignments", 0)
        self.worker_cache_hits += payload.get("worker_cache_hits", 0)
        self.solver_seconds += payload.get("seconds", 0.0)

    def absorb_interp(self, payload) -> None:
        """Fold one task's interpreter-counter snapshot into the aggregate.

        Task results carry ``InterpCounters.to_dict()`` snapshots (each task
        builds one fresh executor, so the snapshot is the task's delta),
        emitted as ``interp_stats`` events next to the solver snapshots.
        Logs written before a counter existed fold it as 0.
        """
        if not payload:
            return
        self.interp_statements += payload.get("statements", 0)
        self.interp_forks += payload.get("forks", 0)
        self.interp_cow_copies += payload.get("cow_copies", 0)
        self.interp_spin_cutoffs += payload.get("spin_cutoffs", 0)
        self.interp_steps_skipped += payload.get("steps_skipped", 0)
        self.interp_accesses += payload.get("accesses", 0)

    def summary(self) -> str:
        return (
            f"engine stats: traces recorded={self.traces_recorded}, "
            f"trace-cache hits={self.trace_cache_hits}, "
            f"classifications computed={self.classifications_computed}, "
            f"classification-cache hits={self.classification_cache_hits}, "
            f"solver queries={self.solver_queries} "
            f"(cache hits={self.solver_cache_hits}, "
            f"misses={self.solver_cache_misses}), "
            f"solver assignments enumerated={self.solver_assignments_enumerated}, "
            f"worker-cache hits={self.worker_cache_hits}, "
            f"pools created={self.pools_created}, "
            f"interp statements={self.interp_statements}, "
            f"interp forks={self.interp_forks}, "
            f"interp cow copies={self.interp_cow_copies}, "
            f"spin cutoffs={self.interp_spin_cutoffs}, "
            f"steps skipped={self.interp_steps_skipped}, "
            f"interp accesses={self.interp_accesses}, "
            f"task retries={self.task_retries}, "
            f"pool respawns={self.pool_respawns}, "
            f"tasks quarantined={self.tasks_quarantined}, "
            f"deadlines exceeded={self.deadlines_exceeded}, "
            f"faults injected={self.faults_injected}, "
            f"pool downgrades={self.pool_downgrades}"
        )
