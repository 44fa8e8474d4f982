"""Table 3: classification of every detected race, per program.

Also reproduces the auxiliary "states same / states differ" split of the
k-witness column by recording whether the post-race memory snapshots of the
primary and alternate executions differed (the Record/Replay-Analyzer
criterion, §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.categories import RaceClass
from repro.core.config import PortendConfig
from repro.experiments.runner import WorkloadRun, analyze_all


@dataclass
class Table3Row:
    program: str
    distinct_races: int
    race_instances: int
    spec_violated: int
    output_differs: int
    k_witness_states_same: int
    k_witness_states_differ: int
    single_ordering: int


def run(
    config: Optional[PortendConfig] = None,
    runs: Optional[Sequence[WorkloadRun]] = None,
) -> List[Table3Row]:
    runs = list(runs) if runs is not None else analyze_all(config=config)
    rows: List[Table3Row] = []
    for run_ in runs:
        counts = run_.result.counts()
        k_same = k_differ = 0
        for item in run_.result.classified:
            if item.classification is not RaceClass.K_WITNESS_HARMLESS:
                continue
            if item.evidence.post_race_states_differ:
                k_differ += 1
            else:
                k_same += 1
        rows.append(
            Table3Row(
                program=run_.name,
                distinct_races=run_.result.distinct_races(),
                race_instances=run_.result.race_instances(),
                spec_violated=counts.get(RaceClass.SPEC_VIOLATED, 0),
                output_differs=counts.get(RaceClass.OUTPUT_DIFFERS, 0),
                k_witness_states_same=k_same,
                k_witness_states_differ=k_differ,
                single_ordering=counts.get(RaceClass.SINGLE_ORDERING, 0),
            )
        )
    return rows


def render(rows: Sequence[Table3Row]) -> str:
    header = (
        f"{'Program':<12} {'Distinct':>8} {'Instances':>9} {'SpecViol':>9} "
        f"{'OutDiff':>8} {'K-wit(same)':>11} {'K-wit(diff)':>11} {'SingleOrd':>10}"
    )
    lines = ["Table 3: summary of Portend's classification results", header, "-" * len(header)]
    totals = [0] * 7
    for row in rows:
        lines.append(
            f"{row.program:<12} {row.distinct_races:>8} {row.race_instances:>9} "
            f"{row.spec_violated:>9} {row.output_differs:>8} {row.k_witness_states_same:>11} "
            f"{row.k_witness_states_differ:>11} {row.single_ordering:>10}"
        )
        for index, value in enumerate(
            (row.distinct_races, row.race_instances, row.spec_violated, row.output_differs,
             row.k_witness_states_same, row.k_witness_states_differ, row.single_ordering)
        ):
            totals[index] += value
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':<12} {totals[0]:>8} {totals[1]:>9} {totals[2]:>9} {totals[3]:>8} "
        f"{totals[4]:>11} {totals[5]:>11} {totals[6]:>10}"
    )
    return "\n".join(lines)
