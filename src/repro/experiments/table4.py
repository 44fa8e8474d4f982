"""Table 4: classification time per program (avg/min/max) vs plain interpretation.

Steps are printed beside seconds: a race's ``analysis_seconds`` is amortised
by the trace's shared replay and search memo (the first race of a trace
pays for it); its ``analysis_steps`` and the plain run's statement count are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.config import PortendConfig
from repro.experiments.runner import WorkloadRun, analyze_all


@dataclass
class Table4Row:
    program: str
    plain_interpretation_seconds: float
    avg_classification_seconds: float
    min_classification_seconds: float
    max_classification_seconds: float
    #: statements one plain run of the program interprets
    plain_interpretation_statements: int
    avg_classification_steps: float
    max_classification_steps: int

    @property
    def overhead(self) -> float:
        if self.plain_interpretation_seconds <= 0:
            return 0.0
        return self.avg_classification_seconds / self.plain_interpretation_seconds


def run(
    config: Optional[PortendConfig] = None,
    runs: Optional[Sequence[WorkloadRun]] = None,
) -> List[Table4Row]:
    runs = (
        list(runs)
        if runs is not None
        else analyze_all(config=config, measure_plain_time=True)
    )
    rows: List[Table4Row] = []
    for run_ in runs:
        times = [item.analysis_seconds for item in run_.result.classified] or [0.0]
        steps = [item.analysis_steps for item in run_.result.classified] or [0]
        rows.append(
            Table4Row(
                program=run_.name,
                plain_interpretation_seconds=run_.plain_interpretation_seconds,
                avg_classification_seconds=sum(times) / len(times),
                min_classification_seconds=min(times),
                max_classification_seconds=max(times),
                plain_interpretation_statements=run_.plain_interpretation_statements,
                avg_classification_steps=sum(steps) / len(steps),
                max_classification_steps=max(steps),
            )
        )
    return rows


def render(rows: Sequence[Table4Row]) -> str:
    header = (
        f"{'Program':<12} {'Interp (s)':>11} {'Avg (s)':>9} {'Min (s)':>9} {'Max (s)':>9}"
        f" {'Interp steps':>12} {'Avg steps':>10} {'Max steps':>10}"
    )
    lines = ["Table 4: classification time per race", header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.program:<12} {row.plain_interpretation_seconds:>11.4f} "
            f"{row.avg_classification_seconds:>9.4f} {row.min_classification_seconds:>9.4f} "
            f"{row.max_classification_seconds:>9.4f} "
            f"{row.plain_interpretation_statements:>12} "
            f"{row.avg_classification_steps:>10.1f} {row.max_classification_steps:>10}"
        )
    return "\n".join(lines)
