"""Shared experiment driver: run Portend over workloads and keep the results.

The driver is a thin wrapper over :class:`repro.engine.AnalysisEngine`: it
builds the engine from one :class:`PortendConfig` and one
:class:`EngineOptions` (the CLI builds both once) and repackages the
engine's per-workload results into :class:`WorkloadRun` records that the
table/figure modules consume.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import PortendConfig
from repro.core.portend import PortendResult
from repro.engine import AnalysisEngine, EngineOptions
from repro.runtime.executor import Executor
from repro.workloads import Workload, all_workloads, load_workload


@dataclass
class WorkloadRun:
    """Portend's results for one workload under one configuration."""

    workload: Workload
    result: PortendResult
    config: PortendConfig
    plain_interpretation_seconds: float = 0.0
    #: statements one plain run of the program interprets (Table 4)
    plain_interpretation_statements: int = 0
    used_semantic_predicates: bool = False

    @property
    def name(self) -> str:
        return self.workload.name


#: the least total time the timed plain runs of one workload add up to
PLAIN_TIME_BUDGET_S = 0.010
#: the fewest timed plain runs, however long each one takes
PLAIN_TIME_MIN_RUNS = 3


def plain_interpretation_time(workload: Workload) -> float:
    """Time to interpret the program concretely, without detection/classification.

    This reproduces Table 4's "Cloud9 running time" column: the baseline cost
    of running the program in the interpreter with both race detection and
    classification disabled.  One run takes 0.1-1 ms on the registry, so a
    single timing is mostly timer noise: after one untimed warm-up run, the
    result is the median of runs that together take at least
    :data:`PLAIN_TIME_BUDGET_S` (and number at least
    :data:`PLAIN_TIME_MIN_RUNS`).
    """
    executor = Executor(workload.program)

    def timed_run() -> float:
        state = executor.initial_state(concrete_inputs=workload.inputs)
        started = time.perf_counter()
        executor.run(state)
        return time.perf_counter() - started

    timed_run()
    samples: List[float] = []
    while sum(samples) < PLAIN_TIME_BUDGET_S or len(samples) < PLAIN_TIME_MIN_RUNS:
        samples.append(timed_run())
    return statistics.median(samples)


def plain_interpretation_statements(workload: Workload) -> int:
    """Statements one plain run of the program interprets.

    Table 4 prints this beside the plain run's seconds, so a per-race cost
    can be read in steps too: seconds per race are amortised by the trace's
    shared replay and search memo (the first race of a trace pays for it),
    steps are not.
    """
    executor = Executor(workload.program)
    executor.run(executor.initial_state(concrete_inputs=workload.inputs))
    return executor.counters.statements


def analyze_workload(
    workload: Workload,
    config: Optional[PortendConfig] = None,
    options: Optional[EngineOptions] = None,
    measure_plain_time: bool = False,
) -> WorkloadRun:
    """Run detection + classification for one workload."""
    return _analyze([workload], config, options, measure_plain_time)[0]


def analyze_all(
    names: Optional[Sequence[str]] = None,
    config: Optional[PortendConfig] = None,
    options: Optional[EngineOptions] = None,
    include_micro: bool = True,
    measure_plain_time: bool = False,
) -> List[WorkloadRun]:
    """Run Portend over a set of workloads (default: the full Table 1 list).

    ``config`` holds the per-race analysis knobs and ``options`` the
    batch-level engine knobs (pool width, caches, task grain, event log,
    supervision); either defaults to its class's defaults, which read the
    ``REPRO_*`` environment variables.
    """
    if names is None:
        workloads = all_workloads(include_micro=include_micro)
    else:
        workloads = [load_workload(name) for name in names]
    return _analyze(workloads, config, options, measure_plain_time)


def _analyze(
    workloads: Sequence[Workload],
    config: Optional[PortendConfig],
    options: Optional[EngineOptions],
    measure_plain_time: bool,
) -> List[WorkloadRun]:
    """One engine run over ``workloads``, repackaged as :class:`WorkloadRun`."""
    engine = AnalysisEngine(config=config, options=options)
    runs: List[WorkloadRun] = []
    for engine_run in engine.analyze_workloads(workloads):
        run = WorkloadRun(
            workload=engine_run.workload,
            result=engine_run.result,
            config=engine.config,
            used_semantic_predicates=engine.options.use_semantic_predicates,
        )
        if measure_plain_time:
            run.plain_interpretation_seconds = plain_interpretation_time(run.workload)
            run.plain_interpretation_statements = plain_interpretation_statements(
                run.workload
            )
        runs.append(run)
    return runs
