"""The Portend facade: detect races in a program and classify each of them.

Typical use::

    from repro.core import Portend, PortendConfig
    from repro.workloads import load_workload

    workload = load_workload("pbzip2")
    portend = Portend(workload.program, predicates=workload.predicates)
    result = portend.analyze(workload.inputs)
    for classified in result.classified:
        print(classified.summary())
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.categories import ClassifiedRace, RaceClass
from repro.core.classifier import classify_race
from repro.core.config import PortendConfig
from repro.core.report import PortendReport
from repro.core.spec import SemanticPredicate
from repro.detection.happens_before import HappensBeforeDetector
from repro.detection.race_report import RaceReport, cluster_races
from repro.lang.program import Program
from repro.record_replay.recorder import record_execution
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.executor import Executor, ExecutorConfig
from repro.symex.solver import Solver


@dataclass
class PortendResult:
    """The outcome of analysing one program with one test input."""

    program: str
    trace: ExecutionTrace
    classified: List[ClassifiedRace] = field(default_factory=list)
    detection_seconds: float = 0.0
    classification_seconds: float = 0.0

    # ------------------------------------------------------------- summaries

    def by_class(self) -> Dict[RaceClass, List[ClassifiedRace]]:
        buckets: Dict[RaceClass, List[ClassifiedRace]] = {cls: [] for cls in RaceClass}
        for item in self.classified:
            buckets[item.classification].append(item)
        return buckets

    def counts(self) -> Dict[RaceClass, int]:
        return {cls: len(items) for cls, items in self.by_class().items()}

    def harmful(self) -> List[ClassifiedRace]:
        return [item for item in self.classified if item.is_harmful]

    def distinct_races(self) -> int:
        return len(self.trace.races)

    def race_instances(self) -> int:
        return sum(race.instance_count for race in self.trace.races)

    def reports(self) -> List[PortendReport]:
        return [PortendReport(item) for item in self.classified]

    def total_paths_pruned(self) -> int:
        """Primary-path candidates discarded across all classified races.

        The per-race reasons live in ``ClassifiedRace.prune_reasons`` and are
        rendered by :class:`repro.core.report.PortendReport`; this aggregate
        flags in one number when exploration is being throttled (§3.3).
        """
        return sum(item.paths_pruned for item in self.classified)

    def summary(self) -> str:
        counts = self.counts()
        parts = [
            f"{self.program}: {self.distinct_races()} distinct races "
            f"({self.race_instances()} instances)"
        ]
        for cls in (
            RaceClass.SPEC_VIOLATED,
            RaceClass.OUTPUT_DIFFERS,
            RaceClass.K_WITNESS_HARMLESS,
            RaceClass.SINGLE_ORDERING,
        ):
            parts.append(f"{cls.value}: {counts.get(cls, 0)}")
        pruned = self.total_paths_pruned()
        if pruned:
            parts.append(f"pruned paths: {pruned}")
        return " | ".join(parts)


class Portend:
    """Detect data races in a program and triage them by consequence."""

    def __init__(
        self,
        program: Program,
        config: Optional[PortendConfig] = None,
        predicates: Sequence[SemanticPredicate] = (),
        executor: Optional[Executor] = None,
        detector_ignore_mutexes: bool = False,
        solver: Optional[Solver] = None,
    ) -> None:
        self.program = program if program.finalized else program.finalize()
        self.config = config or PortendConfig()
        self.predicates = list(predicates)
        if executor is None:
            executor = Executor(
                self.program,
                config=ExecutorConfig(max_steps=self.config.max_steps_per_execution),
                solver=solver,
            )
        self.executor = executor
        self.detector_ignore_mutexes = detector_ignore_mutexes

    # -------------------------------------------------------------- detection

    def record(self, inputs: Optional[Dict[str, int]] = None) -> ExecutionTrace:
        """Run the program once, detect races, and record the trace (§3.1)."""
        detector = HappensBeforeDetector(ignore_mutexes=self.detector_ignore_mutexes)
        trace, _state, _result = record_execution(
            self.program,
            concrete_inputs=inputs,
            executor=self.executor,
            detector=detector,
            max_steps=self.config.max_steps_per_execution,
        )
        return trace

    # ---------------------------------------------------------- classification

    def classify_trace(
        self,
        trace: ExecutionTrace,
        races: Optional[Sequence[RaceReport]] = None,
    ) -> PortendResult:
        """Classify every (or a subset of) distinct race in a recorded trace.

        This facade runs serially.  To classify on a process pool, wrap the
        program in a :class:`repro.workloads.Workload` and run it through
        :meth:`repro.engine.AnalysisEngine.analyze_workloads` with
        ``EngineOptions(parallel=N)``; per-race RNG seeding
        (``PortendConfig.race_seed``) makes that result bit-identical to
        this one.
        """
        selected = list(races) if races is not None else list(trace.races)
        result = PortendResult(program=self.program.name, trace=trace)
        started = time.perf_counter()
        for race in selected:
            result.classified.append(self.classify_race(trace, race))
        result.classification_seconds = time.perf_counter() - started
        return result

    def classify_race(self, trace: ExecutionTrace, race: RaceReport) -> ClassifiedRace:
        """Classify a single distinct race."""
        return classify_race(
            self.executor,
            self.program,
            trace,
            race,
            config=self.config,
            predicates=self.predicates,
        )

    # -------------------------------------------------------------- pipeline

    def analyze(self, inputs: Optional[Dict[str, int]] = None) -> PortendResult:
        """Record one execution and classify every detected race."""
        started = time.perf_counter()
        trace = self.record(inputs)
        detection_seconds = time.perf_counter() - started
        result = self.classify_trace(trace)
        result.detection_seconds = detection_seconds
        return result
