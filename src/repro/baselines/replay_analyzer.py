"""Record/Replay-Analyzer baseline (Narayanasamy et al. [45]).

The baseline replays the recorded execution, enforces the alternate ordering
of the racing accesses, and compares the *concrete* memory state immediately
after the race in the primary and the alternate interleavings:

* replay failure (the alternate ordering cannot be enforced, e.g. because of
  ad-hoc synchronisation) ⇒ classified as **likely harmful**, which is the
  dominant source of this technique's misclassifications (§5.4),
* post-race states differ ⇒ **likely harmful**,
* post-race states identical ⇒ **likely harmless**.

The implementation reuses Portend's record/replay machinery
(:mod:`repro.core.alternate`) but none of its multi-path/multi-schedule or
symbolic-output analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.alternate import (
    AlternateStatus,
    enforcement_budget,
    replay_primary,
    run_alternate,
)
from repro.core.spec import outcome_is_spec_violation
from repro.detection.race_report import RaceReport
from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.executor import Executor
from repro.runtime.scheduler import RoundRobinPolicy


class ReplayAnalyzerVerdict(enum.Enum):
    """The two-way verdict of replay-based classification."""

    LIKELY_HARMFUL = "likely harmful"
    LIKELY_HARMLESS = "likely harmless"


@dataclass
class ReplayAnalysis:
    """Verdict plus the intermediate facts used to reach it."""

    verdict: ReplayAnalyzerVerdict
    replay_failed: bool
    states_differ: Optional[bool]
    primary_steps: int = 0
    alternate_steps: int = 0

    @property
    def harmful(self) -> bool:
        return self.verdict is ReplayAnalyzerVerdict.LIKELY_HARMFUL


class RecordReplayAnalyzer:
    """Post-race concrete state comparison, as in [45]."""

    def __init__(
        self,
        program: Program,
        executor: Optional[Executor] = None,
        timeout_factor: int = 5,
        max_steps: int = 200_000,
    ) -> None:
        self.program = program if program.finalized else program.finalize()
        self.executor = executor or Executor(self.program)
        self.timeout_factor = timeout_factor
        self.max_steps = max_steps

    def classify(self, trace: ExecutionTrace, race: RaceReport) -> ReplayAnalysis:
        """Classify one race by replaying and diffing post-race states."""
        primary = replay_primary(
            self.executor,
            self.program,
            trace,
            race,
            max_steps=self.max_steps,
        )
        if not primary.reached_race or primary.post_race_snapshot is None:
            # The analyzer cannot even reproduce the race: it conservatively
            # flags the report as harmful.
            return ReplayAnalysis(
                ReplayAnalyzerVerdict.LIKELY_HARMFUL,
                replay_failed=True,
                states_differ=None,
                primary_steps=primary.steps,
            )

        alternate = run_alternate(
            self.executor,
            self.program,
            trace,
            race,
            primary,
            enforcement_budget(self.timeout_factor, primary.steps, self.max_steps),
            post_race_policy=RoundRobinPolicy(),
            capture_post_race_snapshot=True,
        )

        if alternate.status is not AlternateStatus.COMPLETED or alternate.post_race_snapshot is None:
            # Replay failure: ad-hoc synchronisation or a blocked racing
            # thread prevents the alternate interleaving.  [45] classifies
            # these conservatively as harmful.
            return ReplayAnalysis(
                ReplayAnalyzerVerdict.LIKELY_HARMFUL,
                replay_failed=True,
                states_differ=None,
                primary_steps=primary.steps,
                alternate_steps=alternate.steps,
            )

        states_differ = primary.post_race_snapshot != alternate.post_race_snapshot
        if outcome_is_spec_violation(alternate.outcome):
            states_differ = True
        verdict = (
            ReplayAnalyzerVerdict.LIKELY_HARMFUL
            if states_differ
            else ReplayAnalyzerVerdict.LIKELY_HARMLESS
        )
        return ReplayAnalysis(
            verdict,
            replay_failed=False,
            states_differ=states_differ,
            primary_steps=primary.steps,
            alternate_steps=alternate.steps,
        )

    def classify_all(self, trace: ExecutionTrace, races: Sequence[RaceReport]):
        return [self.classify(trace, race) for race in races]
