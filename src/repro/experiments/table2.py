"""Table 2: "spec violated" races and their consequences.

Covers the five harmful races found with basic properties (one deadlock in
SQLite, crashes in pbzip2/ctrace), the fmm semantic-predicate race (§5.1) and
the memcached what-if race obtained by turning a synchronisation operation
into a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.categories import RaceClass, SpecViolationKind
from repro.core.config import PortendConfig
from repro.engine import EngineOptions
from repro.experiments.runner import analyze_workload
from repro.workloads import load_workload
from repro.workloads.memcached import build_memcached

#: programs whose default analysis contributes rows to Table 2
_DEFAULT_PROGRAMS = ("SQLite", "pbzip2", "ctrace", "memcached")


@dataclass
class Table2Row:
    program: str
    total_races: int
    deadlocks: int = 0
    crashes: int = 0
    semantic: int = 0


def _count(classified, kind: SpecViolationKind) -> int:
    return sum(
        1
        for item in classified
        if item.classification is RaceClass.SPEC_VIOLATED
        and item.evidence.spec_violation_kind is kind
    )


def run(
    config: Optional[PortendConfig] = None,
    options: Optional[EngineOptions] = None,
) -> List[Table2Row]:
    options = options or EngineOptions()
    rows: List[Table2Row] = []

    for name in _DEFAULT_PROGRAMS:
        workload = load_workload(name)
        if name == "memcached":
            # The paper's memcached crash comes from the what-if experiment:
            # an intentionally removed synchronisation operation (§5.1).
            workload = build_memcached(remove_slab_lock=True)
        run_result = analyze_workload(workload, config, options)
        classified = run_result.result.classified
        rows.append(
            Table2Row(
                program=name,
                total_races=run_result.result.distinct_races(),
                deadlocks=_count(classified, SpecViolationKind.DEADLOCK)
                + _count(classified, SpecViolationKind.INFINITE_LOOP),
                crashes=_count(classified, SpecViolationKind.CRASH),
                semantic=_count(classified, SpecViolationKind.SEMANTIC),
            )
        )

    # fmm contributes a semantic violation only when the timestamp predicate
    # is enabled (§5.1).
    fmm = load_workload("fmm")
    fmm_run = analyze_workload(
        fmm, config, replace(options, use_semantic_predicates=True)
    )
    rows.insert(
        3,
        Table2Row(
            program="fmm",
            total_races=fmm_run.result.distinct_races(),
            semantic=_count(fmm_run.result.classified, SpecViolationKind.SEMANTIC),
        ),
    )
    return rows


def render(rows: Sequence[Table2Row]) -> str:
    header = f"{'Program':<12} {'Races':>6} {'Deadlock':>9} {'Crash':>6} {'Semantic':>9}"
    lines = ['Table 2: "spec violated" races and their consequences', header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.program:<12} {row.total_races:>6} {row.deadlocks:>9} "
            f"{row.crashes:>6} {row.semantic:>9}"
        )
    return "\n".join(lines)
