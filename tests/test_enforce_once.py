"""Tests of the per-race enforcement memo (:data:`repro.core.alternate.EnforcementMemo`).

Every alternate of a race starts at a pre-race checkpoint and enforces the
same alternate ordering before its post-race schedule takes over, so
``classify_race`` enforces each (checkpoint, budget) pair once and runs every
alternate's release and continuation on a clone of the enforced state.  The
entry also keeps the single-post alternate (release, then round-robin),
which Algorithm 1 runs and which is the first of Algorithm 2's Ma schedules
on every path: on the path that replays the recorded inputs it is handed
back, with a clone of its final state, without executing a statement.  The
oracle hands every ``run_alternate`` call a fresh memo, which enforces and
continues every alternate from its checkpoint, as every alternate did
before the memo.  The memo belongs to one race: a replay pass
hands one checkpoint to every race that stops at the same pre-race point,
and a race whose primaries replay other inputs has one checkpoint per input.
"""

import inspect
from collections import defaultdict

from repro.core import Portend, alternate, classifier
from repro.core.alternate import enforcement_budget, replay_primary, run_alternate
from repro.core.multi_path import analyze_primary_path, classify_multipath
from repro.core.single_pre_post import single_classify
from repro.explore.paths import MultiPathExplorer
from repro.lang import ProgramBuilder
from repro.lang.ast import add, glob, local
from repro.record_replay.memo import TraceMemo
from repro.runtime.scheduler import RandomPolicy
from repro.workloads.registry import load_workload

from test_spin_cutoff import _frozen, _state_view
from test_step_loop import _serial_registry


class _Calls:
    """Wraps ``run_alternate`` at the classifier's call sites, ``_enforce``
    and ``_run_post_race``: logs each alternate (its race, checkpoint,
    budget, memo and result), each enforcement run and each post-race
    continuation's policy.  Each single-post alternate is also logged with
    whether it ran an enforcement or a continuation and the statements it
    executed, and, when it continued, with a view of the final state its
    entry keeps.  The log holds every checkpoint and memo, so no ``id`` in
    it is reused.  ``fresh_memo`` is the oracle: every alternate gets a
    memo of its own instead of its race's."""

    def __init__(self, patch, fresh_memo=False):
        self.alternates = []
        self.enforcements = []
        self.continuations = []
        self.single_posts = []
        self.kept_views = []
        run, enforce, post_race = (
            alternate.run_alternate,
            alternate._enforce,
            alternate._run_post_race,
        )

        def logged_run(executor, program, trace, race, primary, timeout_steps, **kwargs):
            if fresh_memo:
                kwargs["enforced"] = {}
            runs = len(self.enforcements), len(self.continuations)
            statements = executor.counters.statements
            result = run(executor, program, trace, race, primary, timeout_steps, **kwargs)
            checkpoint, memo = primary.pre_race_checkpoint, kwargs["enforced"]
            self.alternates.append((race, checkpoint, timeout_steps, memo, result))
            if kwargs.get("post_race_policy") is None:
                continued = len(self.continuations) > runs[1]
                self.single_posts.append(
                    (
                        race,
                        checkpoint,
                        timeout_steps,
                        memo,
                        (len(self.enforcements), len(self.continuations)) == runs,
                        continued,
                        executor.counters.statements - statements,
                    )
                )
                entry = memo.get((id(checkpoint), timeout_steps))
                if continued and entry is not None:
                    kept = entry.single_post
                    self.kept_views.append((kept, _state_view(kept.state)))
            return result

        def logged_enforce(executor, race, checkpoint, timeout_steps, listeners):
            self.enforcements.append((race, checkpoint, timeout_steps))
            return enforce(executor, race, checkpoint, timeout_steps, listeners)

        def logged_post_race(executor, race, state, post_race_policy, *args):
            self.continuations.append(post_race_policy)
            return post_race(executor, race, state, post_race_policy, *args)

        for site in ("single_pre_post", "multi_path"):
            patch.setattr(f"repro.core.{site}.run_alternate", logged_run)
        patch.setattr(alternate, "_enforce", logged_enforce)
        patch.setattr(alternate, "_run_post_race", logged_post_race)

    def views(self):
        """Every :class:`AlternateResult` field, the final state expanded."""
        return [
            (
                race.race_id,
                result.status,
                result.steps,
                result.outcome,
                tuple(result.state.output_log),
                _frozen(result.post_race_snapshot),
                result.timeout_diagnosis,
                result.lock_cycle,
                _state_view(result.state),
            )
            for race, _checkpoint, _budget, _memo, result in self.alternates
        ]


def _classify(name, patch):
    workload = load_workload(name)
    portend = Portend(workload.program, predicates=list(workload.predicates))
    trace = portend.record(inputs=dict(workload.inputs))
    calls = _Calls(patch)
    result = portend.classify_trace(trace)
    return result, calls


def test_serial_registry_matches_the_memo_less_path(monkeypatch):
    with monkeypatch.context() as patch:
        calls = _Calls(patch)
        rows, counters = _serial_registry()
    with monkeypatch.context() as patch:
        oracle = _Calls(patch, fresh_memo=True)
        oracle_rows, oracle_counters = _serial_registry()
    assert len(rows) == 385
    assert rows == oracle_rows
    assert len(calls.alternates) == len(oracle.alternates)
    assert calls.views() == oracle.views()
    memos = [memo for *_rest, memo, _result in oracle.alternates]
    assert len({id(memo) for memo in memos}) == len(memos)
    assert all(len(memo) <= 1 for memo in memos)
    # Path 0's first alternate is among the alternates diffed above: with
    # the memo it is Algorithm 1's, handed back without running.
    served = [entry for entry in calls.single_posts if entry[4]]
    assert served and all(statements == 0 for *_rest, statements in served)
    assert not any(entry[4] for entry in oracle.single_posts)
    # What the memo saves is enforcement runs, and their statements.
    assert len(calls.enforcements) < len(oracle.enforcements) == len(oracle.alternates)
    assert counters["statements"] < oracle_counters["statements"]
    assert counters["spin_cutoffs"] == oracle_counters["spin_cutoffs"]


def test_stress_enforces_each_race_once(monkeypatch):
    # Each stress race runs Algorithm 1's alternate and Algorithm 2's Ma = 2
    # alternates of its one primary path, all from the recorded inputs'
    # checkpoint: one enforcement serves all three.
    _result, calls = _classify("stress", monkeypatch)
    assert len(calls.alternates) == 480
    assert len(calls.enforcements) == 160
    assert len({race.race_id for race, *_rest in calls.enforcements}) == 160


def test_stress_runs_each_single_post_alternate_once(monkeypatch):
    # The path's first alternate is Algorithm 1's single-post alternate, so
    # only the random second one runs a continuation: 320, not 480.
    workload = load_workload("stress")
    portend = Portend(workload.program, predicates=list(workload.predicates))
    trace = portend.record(inputs=dict(workload.inputs))
    calls = _Calls(monkeypatch)
    portend.classify_trace(trace)
    assert len(calls.alternates) == 480
    assert len(calls.continuations) == 320
    assert sum(policy is None for policy in calls.continuations) == 160
    assert all(isinstance(policy, RandomPolicy) for policy in calls.continuations if policy)
    assert [entry[4] for entry in calls.single_posts] == [False, True] * 160
    # recording included; 93943 when every path's first alternate ran
    assert portend.executor.counters.statements == 67223


def _shared_checkpoint_program():
    """One write of ``x`` races with two reads of it: both races stop at the
    same pre-race point, so the replay pass gives them one checkpoint, and
    enforcing each read first gives a different output."""
    b = ProgramBuilder("shared_first")
    b.global_var("x", 0)
    b.global_var("a", 0)
    b.global_var("c", 0)
    writer = b.function("writer")
    writer.assign(glob("x"), 1, label="w:1")
    writer.ret()
    first = b.function("r1")
    first.assign(glob("a"), glob("x"), label="r1:1")
    first.ret()
    second = b.function("r2")
    second.assign(glob("c"), add(glob("x"), 1), label="r2:1")
    second.ret()
    main = b.function("main")
    main.spawn("w", "writer")
    main.spawn("p", "r1")
    main.spawn("q", "r2")
    main.join(local("w"))
    main.join(local("p"))
    main.join(local("q"))
    main.output("stdout", [glob("a"), glob("c")])
    main.ret()
    return b.build()


def _evidence(classified):
    return [(item.classification, item.evidence.output_difference) for item in classified]


def test_no_entry_is_reused_across_races(monkeypatch):
    portend = Portend(_shared_checkpoint_program())
    trace = portend.record(inputs={})
    assert len(trace.races) == 2
    with monkeypatch.context() as patch:
        calls = _Calls(patch)
        classified = portend.classify_trace(trace).classified
    with monkeypatch.context() as patch:
        _Calls(patch, fresh_memo=True)
        oracle = portend.classify_trace(trace).classified
    (race1, checkpoint1, *_rest1), (race2, checkpoint2, *_rest2) = calls.alternates
    assert checkpoint1 is checkpoint2 and race1 is not race2
    assert [race.race_id for race, *_rest in calls.enforcements] == [
        race1.race_id,
        race2.race_id,
    ]
    assert _evidence(classified) == _evidence(oracle)
    # An entry shared between the two races would hand race 2 race 1's order.
    first, second = _evidence(classified)
    assert first[1] != second[1]


def test_one_memo_per_race_and_one_entry_per_checkpoint(monkeypatch):
    # stress_deep's primaries replay other inputs than the recorded ones,
    # so each of its races has several checkpoints, each enforced once.
    _result, calls = _classify("stress_deep", monkeypatch)
    races_of_memo = defaultdict(set)
    alternates = defaultdict(int)
    for race, checkpoint, budget, memo, _alternate in calls.alternates:
        races_of_memo[id(memo)].add(race.race_id)
        alternates[(race.race_id, id(checkpoint), budget)] += 1
    assert len(races_of_memo) == 12
    assert all(len(races) == 1 for races in races_of_memo.values())
    enforced = [
        (race.race_id, id(checkpoint), budget) for race, checkpoint, budget in calls.enforcements
    ]
    assert sorted(enforced) == sorted(alternates)
    checkpoints = defaultdict(set)
    for race_id, checkpoint, _budget in enforced:
        checkpoints[race_id].add(checkpoint)
    assert min(len(ids) for ids in checkpoints.values()) >= 2
    assert max(alternates.values()) >= 2


def test_kept_state_is_never_mutated(monkeypatch):
    kept = []
    enforce = alternate._enforce

    def recording(*args):
        state, watcher, result = enforce(*args)
        kept.append((state, _state_view(state)))
        return state, watcher, result

    monkeypatch.setattr(alternate, "_enforce", recording)
    _result, calls = _classify("bbuf", monkeypatch)
    memos = {id(memo): memo for *_rest, memo, _alternate in calls.alternates}
    entries = [entry for memo in memos.values() for entry in memo.values()]
    assert entries and len(entries) == len(kept)
    views = {id(state): view for state, view in kept}
    for entry in entries:
        assert _state_view(entry.state) == views[id(entry.state)]


def _served_once_per_key(calls):
    """Assert that a single-post alternate is served, executing nothing,
    exactly when its (race, memo, checkpoint, budget) already continued one;
    return the number served."""
    seen = set()
    served = 0
    for race, checkpoint, budget, memo, hit, continued, statements in calls.single_posts:
        key = (race.race_id, id(memo), id(checkpoint), budget)
        assert hit == (key in seen), key
        assert statements == 0 if hit else statements > 0
        if continued:
            seen.add(key)
        served += hit
    return served


def test_single_post_entries_serve_no_other_checkpoint(monkeypatch):
    # stress_deep's primaries replay other inputs than the recorded ones,
    # so each has its own checkpoint: Algorithm 1's and every path's
    # single-post alternates all run.
    _result, calls = _classify("stress_deep", monkeypatch)
    assert _served_once_per_key(calls) == 0
    checkpoints = defaultdict(set)
    for race, checkpoint, *_rest in calls.single_posts:
        checkpoints[race.race_id].add(id(checkpoint))
    assert len(checkpoints) == 12
    assert all(len(ids) >= 2 for ids in checkpoints.values())


def test_single_post_entries_serve_their_repeat_and_stay_unmutated(monkeypatch):
    # bbuf's primary paths include the recorded inputs' one, whose first
    # alternate is served; paths with other inputs run their own.
    _result, calls = _classify("bbuf", monkeypatch)
    served = _served_once_per_key(calls)
    assert 0 < served < len(calls.single_posts) - served
    # The single-post result each entry keeps is never mutated, after both
    # stages ran: they got clones of it.
    assert len(calls.kept_views) == len(calls.single_posts) - served
    for kept, view in calls.kept_views:
        assert _state_view(kept.state) == view


def test_single_post_entry_does_not_serve_another_race(monkeypatch):
    # The two races share their checkpoint, but each has its own memo.
    portend = Portend(_shared_checkpoint_program())
    trace = portend.record(inputs={})
    calls = _Calls(monkeypatch)
    portend.classify_trace(trace)
    (first, checkpoint1, *_rest1), (second, checkpoint2, *_rest2) = calls.single_posts
    assert checkpoint1 is checkpoint2 and first is not second
    assert _served_once_per_key(calls) == 0


def test_single_post_entry_does_not_serve_another_budget():
    workload = load_workload("bbuf")
    portend = Portend(workload.program, predicates=list(workload.predicates))
    trace = portend.record(inputs=dict(workload.inputs))
    race = trace.races[0]
    executor = portend.executor
    primary = replay_primary(executor, portend.program, trace, race, memo=TraceMemo())
    budget = enforcement_budget(5, primary.steps, 200_000)
    memo = {}

    def single_post(steps):
        before = executor.counters.statements
        result = run_alternate(
            executor, portend.program, trace, race, primary, steps, enforced=memo
        )
        return result, executor.counters.statements - before

    first, ran = single_post(budget)
    other, other_ran = single_post(budget + 1)
    again, again_ran = single_post(budget)
    assert ran > 0 and other_ran > 0 and again_ran == 0
    assert len(memo) == 2
    kept = [entry.single_post.state for entry in memo.values()]
    assert not any(state is result.state for state in kept for result in (first, other, again))
    assert _state_view(again.state) == _state_view(first.state)
    assert _frozen(again.post_race_snapshot) == _frozen(first.post_race_snapshot)
    fresh = run_alternate(executor, portend.program, trace, race, primary, budget, enforced={})
    assert _state_view(fresh.state) == _state_view(first.state)


def _required_keyword(stage, name):
    parameter = inspect.signature(stage).parameters[name]
    return (
        parameter.kind is inspect.Parameter.KEYWORD_ONLY
        and parameter.default is inspect.Parameter.empty
    )


def test_every_stage_requires_the_race_memo():
    # One library path per stage: the race's memo and the trace's memo are
    # required keyword arguments, so no caller can reach a memo-less branch
    # (or a memo found in process state) by leaving one out.
    for stage in (run_alternate, single_classify, classify_multipath, analyze_primary_path):
        assert _required_keyword(stage, "enforced"), stage.__name__
    for stage in (
        replay_primary,
        MultiPathExplorer.__init__,
        MultiPathExplorer.for_config,
        single_classify,
        classify_multipath,
        analyze_primary_path,
        classifier.classify_race,
    ):
        assert _required_keyword(stage, "memo"), stage.__qualname__
    workload = load_workload("bbuf")
    portend = Portend(workload.program, predicates=list(workload.predicates))
    trace = portend.record(inputs=dict(workload.inputs))
    race = trace.races[0]
    before = portend.executor.counters.statements
    try:
        replay_primary(portend.executor, portend.program, trace, race)
    except TypeError as error:
        assert "memo" in str(error)
    else:
        raise AssertionError("replay_primary ran without the trace's memo")
    assert portend.executor.counters.statements == before
    primary = replay_primary(
        portend.executor, portend.program, trace, race, memo=TraceMemo()
    )
    budget = enforcement_budget(5, primary.steps, 200_000)
    before = portend.executor.counters.statements
    try:
        run_alternate(portend.executor, portend.program, trace, race, primary, budget)
    except TypeError as error:
        assert "enforced" in str(error)
    else:
        raise AssertionError("run_alternate ran without the race's memo")
    assert portend.executor.counters.statements == before
