"""Multi-path multi-schedule analysis: Algorithm 2 of the paper.

For every primary path found by the :class:`repro.explore.paths.MultiPathExplorer`
(up to Mp paths that follow the recorded schedule and exercise the race), the
analysis generates the corresponding alternate executions under Ma different
post-race schedules, watches for specification violations, and compares the
alternates' concrete outputs against the primary's symbolic outputs.  The
first schedule of every path is Algorithm 1's single-post schedule (see
:func:`repro.explore.schedules.alternate_schedule_policies`); on the path
that replays the recorded inputs it is Algorithm 1's own alternate, which
the race's enforcement memo returns without executing a statement.

:func:`classify_multipath` explores the primaries once and hands them, in
path order, to :func:`analyze_primary_path`, which folds each path straight
into one :class:`MultiPathResult`: the first specification violation ends
the analysis, and the first output difference supplies the evidence.  RNG
seeding is per ``(race_id, path_index)`` (see
:meth:`PortendConfig.race_seed`), so a path's alternates do not depend on
the paths before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.alternate import (
    AlternateStatus,
    EnforcementMemo,
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
from repro.core.output_comparison import compare_concrete, compare_symbolic
from repro.core.single_pre_post import _schedule_evidence, _spec_violation_kind
from repro.core.spec import SemanticPredicate, outcome_is_spec_violation
from repro.detection.race_report import RaceReport
from repro.explore.paths import MultiPathExplorer, PrimaryPath
from repro.explore.schedules import alternate_schedule_policies
from repro.lang.program import Program
from repro.record_replay.memo import TraceMemo
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.executor import Executor


@dataclass
class MultiPathResult:
    """Verdict of the multi-path multi-schedule stage, folded path by path."""

    paths_explored: int
    states_pruned: int = 0
    #: why each pruned primary path was discarded (§3.3 diagnostics)
    prune_reasons: List[str] = field(default_factory=list)
    verdict: RaceClass = RaceClass.K_WITNESS_HARMLESS
    evidence: ClassificationEvidence = field(default_factory=ClassificationEvidence)
    #: alternate schedules actually run
    schedules_explored: int = 0
    #: alternates whose output matched their primary's
    witnesses: int = 0


def analyze_primary_path(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config: PortendConfig,
    path: PrimaryPath,
    result: MultiPathResult,
    predicates: Sequence[SemanticPredicate] = (),
    *,
    enforced: EnforcementMemo,
    memo: TraceMemo,
) -> None:
    """Analyze one primary path: replay it, run its Ma alternates, and fold
    what they show into ``result``.

    Stops at the path's first specification violation, leaving
    ``result.verdict`` at ``SPEC_VIOLATED``; the first output difference
    folded into ``result`` supplies its evidence.  The Ma alternates share
    one enforcement through ``enforced``, the race's memo (see
    :func:`run_alternate`), and the first, single-post one is Algorithm 1's
    alternate when the path's checkpoint and budget are Algorithm 1's.  The
    path's primary replays through ``memo``, the trace's memo.
    """
    evidence = result.evidence

    def violated(kind: Optional[SpecViolationKind], description: str, alternate_first: bool):
        result.verdict = RaceClass.SPEC_VIOLATED
        evidence.spec_violation_kind = kind
        evidence.crash_description = description
        evidence.failing_inputs = dict(path.concrete_inputs)
        evidence.failing_schedule = _schedule_evidence(trace, race, alternate_first)

    # A specification violation reachable on the primary path itself is a
    # "spec violated" verdict (line 17 of Algorithm 1 applies to every
    # explored primary).
    if outcome_is_spec_violation(path.outcome):
        violated(
            _spec_violation_kind(path.outcome),
            f"primary path {path.index}: {path.outcome.describe()}",
            alternate_first=False,
        )
        return

    same_inputs = path.concrete_inputs == dict(trace.concrete_inputs)
    primary_replay = replay_primary(
        executor,
        program,
        trace,
        race,
        concrete_inputs=path.concrete_inputs,
        predicates=predicates,
        max_steps=config.max_steps_per_execution,
        use_steps=same_inputs,
        primaries=config.effective_mp(),
        memo=memo,
    )
    if outcome_is_spec_violation(primary_replay.outcome):
        violated(
            _spec_violation_kind(primary_replay.outcome),
            f"primary replay with inputs {path.concrete_inputs}: "
            f"{primary_replay.outcome.describe()}",
            alternate_first=False,
        )
        return
    if not primary_replay.reached_race:
        return

    timeout_steps = enforcement_budget(
        config.timeout_factor, primary_replay.steps, config.max_steps_per_execution
    )
    policies = alternate_schedule_policies(
        config.effective_ma(), config.race_seed(race.race_id, path.index)
    )
    for policy in policies:
        result.schedules_explored += 1
        alternate = run_alternate(
            executor,
            program,
            trace,
            race,
            primary_replay,
            timeout_steps,
            post_race_policy=policy,
            predicates=predicates,
            enforced=enforced,
        )
        if alternate.status in (AlternateStatus.TIMEOUT, AlternateStatus.STUCK):
            if alternate.timeout_diagnosis == "infinite-loop" or alternate.lock_cycle:
                kind = (
                    SpecViolationKind.INFINITE_LOOP
                    if alternate.timeout_diagnosis == "infinite-loop"
                    else SpecViolationKind.DEADLOCK
                )
                violated(
                    kind,
                    f"alternate of primary path {path.index} cannot make progress ({kind.value})",
                    alternate_first=True,
                )
                return
            # Ad-hoc synchronisation on this path; it contributes no
            # witness but is not evidence of harm either.
            evidence.notes.append(
                f"alternate of primary path {path.index} prevented by ad-hoc synchronisation"
            )
            continue
        if outcome_is_spec_violation(alternate.outcome):
            violated(
                _spec_violation_kind(alternate.outcome),
                f"alternate of primary path {path.index} with inputs "
                f"{path.concrete_inputs}: {alternate.outcome.describe()}",
                alternate_first=True,
            )
            return

        if config.symbolic_output_comparison:
            comparison = compare_symbolic(
                path.symbolic_outputs,
                path.path_condition,
                alternate.state.output_log,
                executor.solver,
            )
        else:
            comparison = compare_concrete(
                primary_replay.final_state.output_log, alternate.state.output_log
            )
        if comparison.matches:
            result.witnesses += 1
            continue
        result.verdict = RaceClass.OUTPUT_DIFFERS
        if not evidence.output_difference:
            evidence.output_difference = comparison.differences
            evidence.failing_inputs = dict(path.concrete_inputs)


def classify_multipath(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config: PortendConfig,
    predicates: Sequence[SemanticPredicate] = (),
    *,
    enforced: EnforcementMemo,
    memo: TraceMemo,
) -> MultiPathResult:
    """Run the multi-path (and optionally multi-schedule) analysis for a race.

    Explore the primaries once, then fold them into one result in path
    order, stopping at the first specification violation.  ``enforced`` is
    the race's enforcement memo and ``memo`` the trace's, both handed to
    every path.
    """
    explorer = MultiPathExplorer.for_config(
        executor, program, trace, race, config, memo=memo
    )
    primaries = explorer.explore()
    result = MultiPathResult(
        paths_explored=len(primaries),
        states_pruned=explorer.states_pruned,
        prune_reasons=list(explorer.prune_reasons),
    )
    for path in primaries:
        analyze_primary_path(
            executor,
            program,
            trace,
            race,
            config,
            path,
            result,
            predicates=predicates,
            enforced=enforced,
            memo=memo,
        )
        if result.verdict is RaceClass.SPEC_VIOLATED:
            break
    return result
