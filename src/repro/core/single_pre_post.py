"""Single-pre/single-post analysis: Algorithm 1 of the paper.

The goal of this first analysis step is (1) to identify races whose
alternate ordering cannot be enforced at all (ad-hoc synchronisation /
deadlocks / infinite loops), and (2) to make a first classification attempt
based on one primary and one alternate execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.alternate import (
    AlternateResult,
    AlternateStatus,
    EnforcementMemo,
    PrimaryReplay,
    enforcement_budget,
    replay_primary,
    run_alternate,
)
from repro.core.categories import (
    ClassificationEvidence,
    RaceClass,
    SpecViolationKind,
)
from repro.core.config import PortendConfig
from repro.core.output_comparison import compare_concrete
from repro.core.spec import SemanticPredicate, outcome_is_spec_violation
from repro.detection.race_report import RaceReport
from repro.lang.program import Program
from repro.record_replay.memo import TraceMemo
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.errors import ExecutionOutcome, OutcomeKind
from repro.runtime.executor import Executor


@dataclass
class SinglePrePostResult:
    """Outcome of Algorithm 1 for one race."""

    verdict: RaceClass
    primary: PrimaryReplay
    alternate: Optional[AlternateResult]
    evidence: ClassificationEvidence


def _spec_violation_kind(outcome: Optional[ExecutionOutcome]) -> Optional[SpecViolationKind]:
    if outcome is None:
        return None
    if outcome.kind is OutcomeKind.DEADLOCK:
        return SpecViolationKind.DEADLOCK
    if outcome.kind is OutcomeKind.CRASH:
        if outcome.crash is not None and outcome.crash.kind.name == "SEMANTIC_VIOLATION":
            return SpecViolationKind.SEMANTIC
        return SpecViolationKind.CRASH
    return None


def _schedule_evidence(trace: ExecutionTrace, race: RaceReport, alternate_first: bool) -> List[str]:
    """A compact human-readable schedule, in the paper's arrow notation."""
    first, second = race.first, race.second
    if alternate_first:
        ordering = [
            f"(T{second.tid} -> RaceyAccess T{second.tid} : {second.label or second.pc})",
            f"(T{first.tid} -> RaceyAccess T{first.tid} : {first.label or first.pc})",
        ]
    else:
        ordering = [
            f"(T{first.tid} -> RaceyAccess T{first.tid} : {first.label or first.pc})",
            f"(T{second.tid} -> RaceyAccess T{second.tid} : {second.label or second.pc})",
        ]
    prefix = [f"(T{d.tid} : pc{d.pc})" for d in trace.decisions[:3]]
    return prefix + ["..."] + ordering


def single_classify(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config: PortendConfig,
    predicates: Sequence[SemanticPredicate] = (),
    *,
    enforced: EnforcementMemo,
    memo: TraceMemo,
) -> SinglePrePostResult:
    """Run Algorithm 1 (singleClassify) for one race.

    Returns a verdict among ``SPEC_VIOLATED``, ``OUTPUT_DIFFERS``,
    ``SINGLE_ORDERING`` and the intermediate ``OUTPUT_SAME``.  The
    alternate runs the single-post schedule (see :func:`run_alternate`): the
    preempted thread is released to make its racing access, and the memory
    after that release is compared with the primary's post-race memory for
    the evidence's ``post_race_states_differ``.  The release takes effect
    only at the enforced thread's next preemption point, so that memory is
    not the state immediately after the race.  ``enforced`` is the race's
    enforcement memo, which keeps this alternate for Algorithm 2, and
    ``memo`` the trace's memo, which keeps the primary's replay pass.
    """
    evidence = ClassificationEvidence()
    primary = replay_primary(
        executor,
        program,
        trace,
        race,
        predicates=predicates,
        max_steps=config.max_steps_per_execution,
        primaries=config.effective_mp(),
        memo=memo,
    )

    if not primary.reached_race:
        # The race did not manifest with these inputs / this schedule; treat
        # the pair as equivalent (it contributes nothing to the analysis).
        evidence.notes.append("race point not reached during primary replay")
        evidence.alternate_enforced = False
        return SinglePrePostResult(RaceClass.OUTPUT_SAME, primary, None, evidence)

    alternate = run_alternate(
        executor,
        program,
        trace,
        race,
        primary,
        enforcement_budget(
            config.timeout_factor, primary.steps, config.max_steps_per_execution
        ),
        predicates=predicates,
        enforced=enforced,
    )

    if primary.post_race_snapshot is not None and alternate.post_race_snapshot is not None:
        evidence.post_race_states_differ = not primary.post_race_snapshot.same_snapshot(
            alternate.post_race_snapshot
        )

    # Case (a)/(b) of Algorithm 1: the alternate ordering cannot be enforced.
    if alternate.status is AlternateStatus.TIMEOUT:
        if alternate.timeout_diagnosis == "infinite-loop":
            evidence.spec_violation_kind = SpecViolationKind.INFINITE_LOOP
            evidence.crash_description = "alternate ordering leads to an infinite loop"
            evidence.failing_schedule = _schedule_evidence(trace, race, alternate_first=True)
            return SinglePrePostResult(RaceClass.SPEC_VIOLATED, primary, alternate, evidence)
        evidence.alternate_enforced = False
        evidence.notes.append("alternate ordering prevented by ad-hoc synchronisation")
        verdict = (
            RaceClass.SINGLE_ORDERING
            if config.enable_adhoc_detection
            else RaceClass.SPEC_VIOLATED
        )
        return SinglePrePostResult(verdict, primary, alternate, evidence)

    if alternate.status is AlternateStatus.STUCK:
        if alternate.lock_cycle:
            evidence.spec_violation_kind = SpecViolationKind.DEADLOCK
            evidence.crash_description = (
                "alternate ordering leads to a lock cycle: threads "
                + " -> ".join(f"T{tid}" for tid in alternate.lock_cycle)
            )
            evidence.failing_schedule = _schedule_evidence(trace, race, alternate_first=True)
            return SinglePrePostResult(RaceClass.SPEC_VIOLATED, primary, alternate, evidence)
        evidence.alternate_enforced = False
        evidence.notes.append("racing thread cannot be scheduled in the alternate order")
        verdict = (
            RaceClass.SINGLE_ORDERING
            if config.enable_adhoc_detection
            else RaceClass.SPEC_VIOLATED
        )
        return SinglePrePostResult(verdict, primary, alternate, evidence)

    if alternate.status is AlternateStatus.RACE_NOT_REACHED:
        evidence.alternate_enforced = False
        return SinglePrePostResult(RaceClass.OUTPUT_SAME, primary, alternate, evidence)

    # The alternate ran to completion: check for specification violations in
    # either execution (line 17 of Algorithm 1).
    for name, outcome in (("primary", primary.outcome), ("alternate", alternate.outcome)):
        if outcome_is_spec_violation(outcome):
            evidence.spec_violation_kind = _spec_violation_kind(outcome)
            evidence.crash_description = f"{name} execution: {outcome.describe()}"
            evidence.failing_inputs = dict(trace.concrete_inputs)
            evidence.failing_schedule = _schedule_evidence(
                trace, race, alternate_first=(name == "alternate")
            )
            return SinglePrePostResult(RaceClass.SPEC_VIOLATED, primary, alternate, evidence)

    comparison = compare_concrete(primary.final_state.output_log, alternate.state.output_log)
    if not comparison.matches:
        evidence.output_difference = comparison.differences
        return SinglePrePostResult(RaceClass.OUTPUT_DIFFERS, primary, alternate, evidence)
    return SinglePrePostResult(RaceClass.OUTPUT_SAME, primary, alternate, evidence)
