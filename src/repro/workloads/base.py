"""Workload container and ground-truth bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.categories import RaceClass, SpecViolationKind
from repro.core.spec import SemanticPredicate
from repro.detection.race_report import RaceReport
from repro.lang.program import Program


@dataclass(frozen=True)
class GroundTruth:
    """Manually-derived ground truth for one distinct race.

    Races are keyed by the shared variable they occur on (every model
    workload is constructed so that distinct races live on distinct
    variables), which keeps the ground truth stable across runs regardless of
    detection order.
    """

    variable: str
    classification: RaceClass
    spec_kind: Optional[SpecViolationKind] = None
    requires_multi_path: bool = False
    requires_multi_schedule: bool = False
    note: str = ""


@dataclass
class Workload:
    """One evaluation target: program + inputs + predicates + ground truth."""

    name: str
    program: Program
    inputs: Dict[str, int] = field(default_factory=dict)
    predicates: List[SemanticPredicate] = field(default_factory=list)
    #: extra "what-if" predicates that are NOT part of the default analysis;
    #: Table 2's semantic-violation row enables them explicitly (the paper's
    #: fmm timestamp check, §5.1)
    semantic_predicates: List[SemanticPredicate] = field(default_factory=list)
    ground_truth: Dict[str, GroundTruth] = field(default_factory=dict)
    description: str = ""
    #: the figures reported in Table 1 of the paper, for side-by-side output
    paper_loc: int = 0
    paper_language: str = "C"
    paper_forked_threads: int = 0
    #: expected number of distinct races (Table 3), used as a sanity check
    expected_distinct_races: int = 0
    is_micro_benchmark: bool = False

    # ---------------------------------------------------------------- lookups

    def truth_for(self, race: RaceReport) -> Optional[GroundTruth]:
        """Ground truth for a detected race (by its shared variable)."""
        return self.ground_truth.get(race.location.name)

    def forked_threads(self) -> int:
        """Threads created by the model program (paper Table 1 column)."""
        from repro.lang.ast import Spawn, iter_statements

        count = 0
        for function in self.program.functions.values():
            for stmt in iter_statements(function.body):
                if isinstance(stmt, Spawn):
                    count += 1
        return count

    def lines_of_code(self) -> int:
        return self.program.lines_of_code()
