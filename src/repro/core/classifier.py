"""Per-race classification pipeline.

``classify_race`` runs the stages of §3 in one straight pass:

1. single-pre/single-post analysis (Algorithm 1, :func:`single_classify`)
   identifies races whose alternate ordering cannot be enforced ("single
   ordering"), and catches specification violations and output differences
   visible with the original inputs and a single alternate schedule;
2. only if that stage is inconclusive (``outSame``) and multi-path or
   multi-schedule analysis is on, Algorithm 2 (:func:`classify_multipath`)
   explores Mp primary paths and Ma alternate schedules per path and
   compares outputs symbolically;
3. the race is classified "k-witness harmless" with k = Mp × Ma only if every
   explored combination produced equivalent behaviour.

Every alternate of a race starts from a pre-race checkpoint and enforces
the same alternate ordering before its post-race schedule takes over: the
single-post schedule (release the preempted thread, then round-robin) for
Algorithm 1 and for the first of Algorithm 2's Ma schedules per primary
path, seeded random schedules for the others.  ``classify_race`` makes one
enforcement memo per race and hands it to both stages, which require it:
each (checkpoint, budget) pair is enforced once, every alternate of it
continues from a clone of the enforced state, and its single-post
alternate runs once.  Algorithm 1's alternate and the Ma alternates of a
primary path that replays the recorded inputs share a checkpoint, so that
path's first alternate is Algorithm 1's, handed back with a clone of its
final state; other primaries have their own checkpoints.  The post-race
memories Algorithm 1 compares are copy-on-write clones, frozen only when
they differ as containers.  The memo lives for one ``classify_race`` call,
because the replay pass hands one checkpoint to every race that stops at
the same pre-race point.  The trace's memo (replay passes, shared searches)
outlives the race: the caller passes it in, and both stages require it.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.core.alternate import EnforcementMemo
from repro.core.categories import ClassifiedRace, RaceClass
from repro.core.config import PortendConfig
from repro.core.multi_path import classify_multipath
from repro.core.single_pre_post import single_classify
from repro.core.spec import SemanticPredicate
from repro.detection.race_report import RaceReport
from repro.lang.program import Program
from repro.record_replay.memo import TraceMemo
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.executor import Executor


def classify_race(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config: Optional[PortendConfig] = None,
    predicates: Sequence[SemanticPredicate] = (),
    *,
    memo: TraceMemo,
) -> ClassifiedRace:
    """Classify one distinct race into the four-category taxonomy.

    ``memo`` is the memo of ``trace`` classified against ``program``,
    shared with the trace's other races.
    """
    config = config or PortendConfig()
    started = time.perf_counter()

    # The race's enforcement memo: every alternate of one pre-race checkpoint
    # enforces the ordering once.  It dies with this call.
    enforced: EnforcementMemo = {}
    single = single_classify(
        executor, program, trace, race, config,
        predicates=predicates, enforced=enforced, memo=memo,
    )
    analysis_steps = single.primary.steps
    if single.alternate is not None:
        analysis_steps += single.alternate.steps
    if single.verdict is not RaceClass.OUTPUT_SAME or not (
        config.enable_multi_path or config.enable_multi_schedule
    ):
        # Either Algorithm 1 was conclusive, or the lone primary/alternate
        # pair is the only witness of harmlessness (k = 1).
        verdict = single.verdict
        if verdict is RaceClass.OUTPUT_SAME:
            verdict = RaceClass.K_WITNESS_HARMLESS
        return ClassifiedRace(
            race=race,
            classification=verdict,
            k=1,
            paths_explored=1,
            schedules_explored=1,
            analysis_seconds=time.perf_counter() - started,
            analysis_steps=analysis_steps,
            evidence=single.evidence,
            stage="single-pre/single-post",
        )

    multi = classify_multipath(
        executor, program, trace, race, config,
        predicates=predicates, enforced=enforced, memo=memo,
    )
    evidence = multi.evidence
    if evidence.spec_violation_kind or evidence.output_difference or evidence.notes:
        evidence.post_race_states_differ = single.evidence.post_race_states_differ
    else:
        evidence = single.evidence
    paths_explored = max(1, multi.paths_explored)
    k = multi.witnesses or paths_explored * config.effective_ma()
    if multi.verdict is RaceClass.K_WITNESS_HARMLESS and multi.witnesses == 0:
        # No path/schedule combination could be completed; the only
        # witness is the single-pre/single-post pair itself.
        k = 1
    return ClassifiedRace(
        race=race,
        classification=multi.verdict,
        k=k,
        paths_explored=paths_explored,
        schedules_explored=max(1, multi.schedules_explored),
        analysis_seconds=time.perf_counter() - started,
        analysis_steps=analysis_steps,
        evidence=evidence,
        stage="multi-path/multi-schedule",
        paths_pruned=multi.states_pruned,
        prune_reasons=list(multi.prune_reasons),
    )
