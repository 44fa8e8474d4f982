"""Execution traces: schedule decisions plus the system-call input log."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detection.race_report import RaceReport
from repro.runtime.scheduler import ScheduleDecision
from repro.runtime.state import InputRecord
from repro.symex.expr import value_from_dict, value_to_dict


@dataclass
class ExecutionTrace:
    """Everything needed to deterministically re-execute a recorded run.

    * ``decisions`` -- the scheduling decisions taken at each preemption
      point (thread id, program counter, absolute step count; §3.1 notes the
      absolute instruction count is needed for precise replays),
    * ``concrete_inputs`` -- the program inputs used for the run,
    * ``input_log`` -- the values returned by each ``Input`` statement, in
      order (the log of system-call inputs), and
    * ``races`` -- the distinct races detected during the recorded run.
    """

    program: str
    decisions: List[ScheduleDecision] = field(default_factory=list)
    concrete_inputs: Dict[str, int] = field(default_factory=dict)
    input_log: List[InputRecord] = field(default_factory=list)
    races: List[RaceReport] = field(default_factory=list)
    step_count: int = 0
    preemption_points: int = 0
    outcome: str = ""

    def race_by_id(self, race_id: int) -> RaceReport:
        for race in self.races:
            if race.race_id == race_id:
                return race
        raise KeyError(f"trace has no race with id {race_id}")

    def summary(self) -> str:
        return (
            f"trace of {self.program}: {len(self.decisions)} scheduling decisions, "
            f"{len(self.races)} distinct races, {self.step_count} steps, "
            f"outcome={self.outcome or 'unknown'}"
        )

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        """JSON-serializable form of the trace.

        Traces cross process boundaries in the :mod:`repro.engine` work queue
        and are cached on disk, so every field (including symbolic input
        values) must survive a ``json.dumps``/``json.loads`` round trip.
        """
        return {
            "program": self.program,
            "decisions": [
                {
                    "index": decision.index,
                    "tid": decision.tid,
                    "pc": decision.pc,
                    "step": decision.step,
                    "reason": decision.reason,
                }
                for decision in self.decisions
            ],
            "concrete_inputs": dict(self.concrete_inputs),
            "input_log": [
                {
                    "name": record.name,
                    "value": value_to_dict(record.value),
                    "tid": record.tid,
                    "pc": record.pc,
                    "step": record.step,
                    "symbolic": record.symbolic,
                }
                for record in self.input_log
            ],
            "races": [race.to_dict() for race in self.races],
            "step_count": self.step_count,
            "preemption_points": self.preemption_points,
            "outcome": self.outcome,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExecutionTrace":
        return cls(
            program=data["program"],
            decisions=[ScheduleDecision(**decision) for decision in data["decisions"]],
            concrete_inputs=dict(data["concrete_inputs"]),
            input_log=[
                InputRecord(
                    name=record["name"],
                    value=value_from_dict(record["value"]),
                    tid=record["tid"],
                    pc=record["pc"],
                    step=record["step"],
                    symbolic=record["symbolic"],
                )
                for record in data["input_log"]
            ],
            races=[RaceReport.from_dict(race) for race in data["races"]],
            step_count=data["step_count"],
            preemption_points=data["preemption_points"],
            outcome=data["outcome"],
        )
