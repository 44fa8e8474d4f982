"""The four-category race taxonomy of the paper (Fig. 1)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.detection.race_report import RaceReport


class RaceClass(enum.Enum):
    """Portend's classification categories.

    * ``SPEC_VIOLATED`` -- at least one ordering of the racing accesses leads
      to a violation of the program's specification (crash, deadlock,
      infinite loop, memory error, or a developer-provided semantic
      predicate); by definition harmful.
    * ``OUTPUT_DIFFERS`` -- the two orderings can lead to different program
      output; potentially harmful, needs developer judgement.
    * ``K_WITNESS_HARMLESS`` -- k explored path/schedule combinations witness
      equivalent behaviour; harmless with quantitative confidence k.
    * ``SINGLE_ORDERING`` -- only a single ordering of the accesses is
      possible (ad-hoc synchronisation); harmless.
    * ``OUTPUT_SAME`` is an internal, intermediate verdict of the
      single-pre/single-post stage (Algorithm 1 returns ``outSame``); it is
      never a final classification.
    """

    SPEC_VIOLATED = "spec violated"
    OUTPUT_DIFFERS = "output differs"
    K_WITNESS_HARMLESS = "k-witness harmless"
    SINGLE_ORDERING = "single ordering"
    OUTPUT_SAME = "output same"

    @property
    def is_harmful(self) -> bool:
        return self is RaceClass.SPEC_VIOLATED


class SpecViolationKind(enum.Enum):
    """What kind of specification violation was observed (Table 2 columns)."""

    CRASH = "crash"
    DEADLOCK = "deadlock"
    INFINITE_LOOP = "infinite loop"
    SEMANTIC = "semantic"


@dataclass
class ClassificationEvidence:
    """Supporting evidence attached to a classification."""

    spec_violation_kind: Optional[SpecViolationKind] = None
    crash_description: str = ""
    failing_inputs: Dict[str, int] = field(default_factory=dict)
    failing_schedule: List[str] = field(default_factory=list)
    output_difference: List[Tuple[str, str]] = field(default_factory=list)
    alternate_enforced: bool = True
    post_race_states_differ: Optional[bool] = None
    notes: List[str] = field(default_factory=list)

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "spec_violation_kind": (
                self.spec_violation_kind.value if self.spec_violation_kind else None
            ),
            "crash_description": self.crash_description,
            "failing_inputs": dict(self.failing_inputs),
            "failing_schedule": list(self.failing_schedule),
            "output_difference": [list(pair) for pair in self.output_difference],
            "alternate_enforced": self.alternate_enforced,
            "post_race_states_differ": self.post_race_states_differ,
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ClassificationEvidence":
        kind = data["spec_violation_kind"]
        return cls(
            spec_violation_kind=SpecViolationKind(kind) if kind else None,
            crash_description=data["crash_description"],
            failing_inputs=dict(data["failing_inputs"]),
            failing_schedule=list(data["failing_schedule"]),
            output_difference=[(first, second) for first, second in data["output_difference"]],
            alternate_enforced=data["alternate_enforced"],
            post_race_states_differ=data["post_race_states_differ"],
            notes=list(data["notes"]),
        )


@dataclass
class ClassifiedRace:
    """The result of classifying one distinct race.

    ``race`` is the report of the trace the race was detected in.  A verdict
    that crosses a process or a cache file travels without it (``race`` is
    None there) and gets the trace's own report back on arrival: a race has
    one encoding, the one in its trace.
    """

    race: Optional[RaceReport]
    classification: RaceClass
    k: int = 0
    paths_explored: int = 0
    schedules_explored: int = 0
    analysis_seconds: float = 0.0
    analysis_steps: int = 0
    evidence: ClassificationEvidence = field(default_factory=ClassificationEvidence)
    stage: str = "single-pre/single-post"
    #: primary-path candidates discarded during multi-path exploration (§3.3)
    paths_pruned: int = 0
    #: one human-readable entry per pruned candidate, in exploration order
    prune_reasons: List[str] = field(default_factory=list)

    @property
    def is_harmful(self) -> bool:
        return self.classification.is_harmful

    def summary(self) -> str:
        return (
            f"race #{self.race.race_id} on {self.race.location.describe()}: "
            f"{self.classification.value} (k={self.k}, stage={self.stage})"
        )

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        """The verdict's dict, with a ``race`` key unless ``race`` is None."""
        data = {
            "classification": self.classification.value,
            "k": self.k,
            "paths_explored": self.paths_explored,
            "schedules_explored": self.schedules_explored,
            "analysis_seconds": self.analysis_seconds,
            "analysis_steps": self.analysis_steps,
            "evidence": self.evidence.to_dict(),
            "stage": self.stage,
            "paths_pruned": self.paths_pruned,
            "prune_reasons": list(self.prune_reasons),
        }
        if self.race is None:
            return data
        return {"race": self.race.to_dict(), **data}

    @classmethod
    def from_dict(cls, data: Dict, race: Optional[RaceReport] = None) -> "ClassifiedRace":
        """The verdict of ``data``; a dict without a ``race`` key takes
        ``race``, the report of the trace it was classified against."""
        return cls(
            race=race if "race" not in data else RaceReport.from_dict(data["race"]),
            classification=RaceClass(data["classification"]),
            k=data["k"],
            paths_explored=data["paths_explored"],
            schedules_explored=data["schedules_explored"],
            analysis_seconds=data["analysis_seconds"],
            analysis_steps=data["analysis_steps"],
            evidence=ClassificationEvidence.from_dict(data["evidence"]),
            stage=data["stage"],
            paths_pruned=data.get("paths_pruned", 0),
            prune_reasons=list(data.get("prune_reasons", ())),
        )
