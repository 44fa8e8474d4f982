"""Shared experiment driver: run Portend over workloads and keep the results.

The driver is a thin wrapper over :class:`repro.engine.AnalysisEngine`: it
builds the engine from one :class:`PortendConfig` and one
:class:`EngineOptions` (the CLI builds both once) and repackages the
engine's per-workload results into :class:`WorkloadRun` records that the
table/figure modules consume.
"""

from __future__ import annotations

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
    used_semantic_predicates: bool = False

    @property
    def name(self) -> str:
        return self.workload.name


def plain_interpretation_time(workload: Workload) -> float:
    """Time to interpret the program concretely, without detection/classification.

    This reproduces Table 4's "Cloud9 running time" column: the baseline cost
    of running the program in the interpreter with both race detection and
    classification disabled.
    """
    executor = Executor(workload.program)
    state = executor.initial_state(concrete_inputs=workload.inputs)
    started = time.perf_counter()
    executor.run(state)
    return time.perf_counter() - started


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
        plain = (
            plain_interpretation_time(engine_run.workload)
            if measure_plain_time
            else 0.0
        )
        runs.append(
            WorkloadRun(
                workload=engine_run.workload,
                result=engine_run.result,
                config=engine.config,
                plain_interpretation_seconds=plain,
                used_semantic_predicates=engine.options.use_semantic_predicates,
            )
        )
    return runs
