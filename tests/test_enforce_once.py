"""Tests of the per-race enforcement memo (:data:`repro.core.alternate.EnforcementMemo`).

Every alternate of a race starts at a pre-race checkpoint and enforces the
same alternate ordering before its post-race schedule takes over, so
``classify_race`` enforces each (checkpoint, budget) pair once and runs every
alternate's release and continuation on a clone of the enforced state.  The
oracle is the path without a memo, which the baselines still take:
``classify_race`` handing no memo down enforces every alternate from its
checkpoint.  The memo belongs to one race: a replay pass hands one
checkpoint to every race that stops at the same pre-race point, and a race
whose primaries replay other inputs has one checkpoint per input.
"""

from collections import defaultdict

from repro.core import Portend, alternate, classifier
from repro.lang import ProgramBuilder
from repro.lang.ast import add, glob, local
from repro.workloads.registry import load_workload

from test_spin_cutoff import _state_view
from test_step_loop import _serial_registry


def _without_memo(patch):
    """Make ``classify_race`` hand no enforcement memo to either stage."""
    for name in ("single_classify", "classify_multipath"):
        real = getattr(classifier, name)

        def dropping(*args, _real=real, **kwargs):
            kwargs["enforced"] = None
            return _real(*args, **kwargs)

        patch.setattr(classifier, name, dropping)


class _Calls:
    """Wraps ``run_alternate`` at the classifier's call sites and
    ``_enforce``: logs each alternate (its race, checkpoint, budget, memo and
    result) and each enforcement run.  The log holds every checkpoint and
    memo, so no ``id`` in it is reused."""

    def __init__(self, patch):
        self.alternates = []
        self.enforcements = []
        run_alternate, enforce = alternate.run_alternate, alternate._enforce

        def logged_run(executor, program, trace, race, primary, timeout_steps, **kwargs):
            result = run_alternate(
                executor, program, trace, race, primary, timeout_steps, **kwargs
            )
            self.alternates.append(
                (race, primary.pre_race_checkpoint, timeout_steps, kwargs.get("enforced"), result)
            )
            return result

        def logged_enforce(executor, race, checkpoint, timeout_steps, listeners):
            self.enforcements.append((race, checkpoint, timeout_steps))
            return enforce(executor, race, checkpoint, timeout_steps, listeners)

        for site in ("single_pre_post", "multi_path"):
            patch.setattr(f"repro.core.{site}.run_alternate", logged_run)
        patch.setattr(alternate, "_enforce", logged_enforce)

    def views(self):
        """Every :class:`AlternateResult` field, the final state expanded."""
        return [
            (
                race.race_id,
                result.status,
                result.steps,
                result.outcome,
                tuple(result.state.output_log),
                result.post_race_snapshot,
                result.enforced_pc,
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
        _without_memo(patch)
        oracle = _Calls(patch)
        oracle_rows, oracle_counters = _serial_registry()
    assert len(rows) == 385
    assert rows == oracle_rows
    assert len(calls.alternates) == len(oracle.alternates)
    assert calls.views() == oracle.views()
    assert all(memo is None for *_rest, memo, _result in oracle.alternates)
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
        _without_memo(patch)
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
        assert entry.seen_pc is not None
