"""Shared experiment driver: run Portend over workloads and keep the results.

The driver is a thin wrapper over :class:`repro.engine.AnalysisEngine`: it
builds the engine for the requested batch (optionally parallel, optionally
trace-cached) and repackages the engine's per-workload results into
:class:`WorkloadRun` records that the table/figure modules consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.config import PortendConfig
from repro.core.portend import Portend, PortendResult
from repro.engine import AnalysisEngine, EngineOptions
from repro.runtime.compile import create_executor
from repro.workloads import Workload, all_workloads, load_workload


@dataclass
class WorkloadRun:
    """Portend's results for one workload under one configuration."""

    workload: Workload
    result: PortendResult
    config: PortendConfig
    plain_interpretation_seconds: float = 0.0
    used_semantic_predicates: bool = False

    @property
    def name(self) -> str:
        return self.workload.name


def plain_interpretation_time(workload: Workload, interp: str = "tree") -> float:
    """Time to interpret the program concretely, without detection/classification.

    This reproduces Table 4's "Cloud9 running time" column: the baseline cost
    of running the program in the interpreter with both race detection and
    classification disabled.  ``interp`` picks the same kernel the analysis
    ran on, so the overhead ratio compares like with like.
    """
    executor = create_executor(workload.program, interp=interp)
    state = executor.initial_state(concrete_inputs=workload.inputs)
    started = time.perf_counter()
    executor.run(state)
    return time.perf_counter() - started


def _engine(
    config: Optional[PortendConfig],
    use_semantic_predicates: bool,
    parallel: int,
    cache_dir: Optional[str],
    granularity: str,
    cache_max_entries: Optional[int] = None,
    solver: Optional[str] = None,
    events: Optional[str] = None,
    chunk_target_ms: int = 500,
    warm_tier: Optional[bool] = None,
    interp: Optional[str] = None,
    fault_plan: Optional[str] = None,
    max_pool_respawns: Optional[int] = None,
    max_task_retries: Optional[int] = None,
    task_deadline_ms: Optional[int] = None,
) -> AnalysisEngine:
    if solver is not None:
        config = replace(config or PortendConfig(), solver_backend=solver)
    if interp is not None:
        config = replace(config or PortendConfig(), interp=interp)
    # warm_tier -- and the fault-tolerance knobs below -- stay tri-state:
    # None defers to the EngineOptions environment defaults
    # (REPRO_WARM_TIER / REPRO_FAULT_PLAN /
    # REPRO_MAX_POOL_RESPAWNS / REPRO_MAX_TASK_RETRIES /
    # REPRO_TASK_DEADLINE_MS), an explicit value (e.g. from the CLI flags)
    # wins over them.
    extra = {}
    if warm_tier is not None:
        extra["warm_tier"] = warm_tier
    if fault_plan is not None:
        extra["fault_plan"] = fault_plan
    if max_pool_respawns is not None:
        extra["max_pool_respawns"] = max_pool_respawns
    if max_task_retries is not None:
        extra["max_task_retries"] = max_task_retries
    if task_deadline_ms is not None:
        extra["task_deadline_ms"] = task_deadline_ms
    return AnalysisEngine(
        config=config,
        options=EngineOptions(
            parallel=parallel,
            cache_dir=cache_dir,
            use_semantic_predicates=use_semantic_predicates,
            granularity=granularity,
            cache_max_entries=cache_max_entries,
            events_path=events,
            chunk_target_ms=chunk_target_ms,
            **extra,
        ),
    )


def _wrap_runs(
    engine: AnalysisEngine,
    engine_runs,
    use_semantic_predicates: bool,
    measure_plain_time: bool,
) -> List[WorkloadRun]:
    runs: List[WorkloadRun] = []
    for engine_run in engine_runs:
        plain = (
            plain_interpretation_time(engine_run.workload, interp=engine.config.interp)
            if measure_plain_time
            else 0.0
        )
        runs.append(
            WorkloadRun(
                workload=engine_run.workload,
                result=engine_run.result,
                config=engine.config,
                plain_interpretation_seconds=plain,
                used_semantic_predicates=use_semantic_predicates,
            )
        )
    return runs


def analyze_workload(
    workload: Workload,
    config: Optional[PortendConfig] = None,
    use_semantic_predicates: bool = False,
    measure_plain_time: bool = False,
    parallel: int = 0,
    cache_dir: Optional[str] = None,
    granularity: str = "auto",
    cache_max_entries: Optional[int] = None,
    solver: Optional[str] = None,
    events: Optional[str] = None,
    chunk_target_ms: int = 500,
    warm_tier: Optional[bool] = None,
    interp: Optional[str] = None,
    fault_plan: Optional[str] = None,
    max_pool_respawns: Optional[int] = None,
    max_task_retries: Optional[int] = None,
    task_deadline_ms: Optional[int] = None,
) -> WorkloadRun:
    """Run detection + classification for one workload."""
    engine = _engine(
        config, use_semantic_predicates, parallel, cache_dir, granularity,
        cache_max_entries, solver, events, chunk_target_ms, warm_tier, interp,
        fault_plan, max_pool_respawns, max_task_retries, task_deadline_ms,
    )
    engine_runs = engine.analyze_workloads([workload])
    return _wrap_runs(engine, engine_runs, use_semantic_predicates, measure_plain_time)[0]


def analyze_all(
    names: Optional[Sequence[str]] = None,
    config: Optional[PortendConfig] = None,
    include_micro: bool = True,
    use_semantic_predicates: bool = False,
    measure_plain_time: bool = False,
    parallel: int = 0,
    cache_dir: Optional[str] = None,
    granularity: str = "auto",
    cache_max_entries: Optional[int] = None,
    solver: Optional[str] = None,
    events: Optional[str] = None,
    chunk_target_ms: int = 500,
    warm_tier: Optional[bool] = None,
    interp: Optional[str] = None,
    fault_plan: Optional[str] = None,
    max_pool_respawns: Optional[int] = None,
    max_task_retries: Optional[int] = None,
    task_deadline_ms: Optional[int] = None,
) -> List[WorkloadRun]:
    """Run Portend over a set of workloads (default: the full Table 1 list).

    ``parallel`` dispatches the pipeline queues over a process pool;
    ``cache_dir`` reuses recorded traces *and* classifications across
    invocations; ``granularity`` picks the stage-3 task grain ("race",
    "path", or "auto"); ``solver`` overrides the
    config's solver backend (see :mod:`repro.symex.factory`); ``events``
    appends the run's structured event stream to a JSON-lines file;
    ``chunk_target_ms`` sets the cost-aware scheduler's per-chunk
    wall-clock target; ``warm_tier`` toggles the persistent solver warm
    tier (None defers to the ``REPRO_WARM_TIER`` environment default);
    ``interp`` overrides the config's interpreter kernel (see
    :mod:`repro.runtime.compile`; kernels are bit-identical by contract);
    ``fault_plan`` installs a deterministic fault-injection plan in the pool
    workers and ``max_pool_respawns`` / ``max_task_retries`` /
    ``task_deadline_ms`` tune the supervision ladder that recovers from
    worker crashes, hangs and malformed results (see
    :mod:`repro.engine.faults` and :mod:`repro.engine.dispatch`; None
    defers to the ``REPRO_*`` environment defaults).
    """
    if names is None:
        workloads = all_workloads(include_micro=include_micro)
    else:
        workloads = [load_workload(name) for name in names]
    engine = _engine(
        config, use_semantic_predicates, parallel, cache_dir, granularity,
        cache_max_entries, solver, events, chunk_target_ms, warm_tier, interp,
        fault_plan, max_pool_respawns, max_task_retries, task_deadline_ms,
    )
    engine_runs = engine.analyze_workloads(workloads)
    return _wrap_runs(engine, engine_runs, use_semantic_predicates, measure_plain_time)
