"""Tests for the baseline classifiers Portend is compared against."""

import hashlib

from repro.baselines.adhoc_detector import AdHocSyncDetector, AdHocVerdict
from repro.baselines import replay_analyzer
from repro.baselines.replay_analyzer import RecordReplayAnalyzer
from repro.core.alternate import run_alternate
from repro.core import Portend
from repro.lang import ProgramBuilder
from repro.lang.ast import add, eq, glob, local
from repro.record_replay import record_execution
from repro.workloads import all_workload_names, load_workload


def _adhoc_program():
    b = ProgramBuilder("adhoc-baseline")
    b.global_var("flag", 0)
    b.global_var("data", 0)
    producer = b.function("producer")
    producer.assign(glob("data"), 42)
    producer.assign(glob("flag"), 1)
    producer.ret()
    main = b.function("main")
    main.spawn("t", "producer")
    with main.while_(eq(glob("flag"), 0)):
        main.sleep(1)
    main.assign(local("v"), glob("data"))
    main.join(local("t"))
    main.output("stdout", [local("v")])
    main.ret()
    return b.build()


def _counter_program():
    b = ProgramBuilder("counter-baseline")
    b.global_var("hit_count", 0)
    worker = b.function("worker")
    worker.assign(glob("hit_count"), add(glob("hit_count"), 1))
    worker.ret()
    main = b.function("main")
    main.spawn("t", "worker")
    main.assign(glob("hit_count"), add(glob("hit_count"), 1))
    main.join(local("t"))
    main.ret()
    return b.build()


class TestAdHocSyncDetector:
    def test_guarded_variable_classified_single_ordering(self):
        program = _adhoc_program()
        trace, _, _ = record_execution(program)
        detector = AdHocSyncDetector(program)
        verdicts = {
            race.location.name: detector.classify(race).verdict for race in trace.races
        }
        assert verdicts["flag"] is AdHocVerdict.SINGLE_ORDERING
        assert verdicts["data"] is AdHocVerdict.NOT_CLASSIFIED

    def test_counter_race_not_classified(self):
        program = _counter_program()
        trace, _, _ = record_execution(program)
        detector = AdHocSyncDetector(program)
        assert all(
            detector.classify(race).verdict is AdHocVerdict.NOT_CLASSIFIED
            for race in trace.races
        )


def _different_writes_program():
    b = ProgramBuilder("writes-baseline")
    b.global_var("mode", 0)
    worker = b.function("worker")
    worker.assign(glob("mode"), 1)
    worker.ret()
    main = b.function("main")
    main.spawn("t", "worker")
    main.assign(glob("mode"), 2)
    main.join(local("t"))
    main.ret()
    return b.build()


class TestRecordReplayAnalyzer:
    def test_state_differing_writes_are_flagged_harmful(self):
        program = _different_writes_program()
        trace, _, _ = record_execution(program)
        analyzer = RecordReplayAnalyzer(program)
        analysis = analyzer.classify(trace, trace.races[0])
        # The write-write race leaves different post-race states depending on
        # the ordering, so the replay analyzer calls this harmless race
        # harmful (the paper's main criticism of state-comparison
        # classification).
        assert analysis.states_differ
        assert analysis.harmful

    def test_replay_failure_is_flagged_harmful(self):
        program = _adhoc_program()
        trace, _, _ = record_execution(program)
        analyzer = RecordReplayAnalyzer(program)
        by_var = {
            race.location.name: analyzer.classify(trace, race) for race in trace.races
        }
        assert by_var["data"].harmful
        assert by_var["data"].replay_failed

    def test_each_race_enforces_with_a_fresh_memo_of_its_own(self, monkeypatch):
        # The baseline hands every race a new enforcement memo, as
        # ``classify_race`` does: a memo shared across a trace's races would
        # leave the pinned analyses unchanged, so the memos are checked here.
        memos = []

        def logged(*args, enforced, **kwargs):
            memos.append((enforced, len(enforced)))
            return run_alternate(*args, enforced=enforced, **kwargs)

        monkeypatch.setattr(replay_analyzer, "run_alternate", logged)
        workload = load_workload("bbuf")
        portend = Portend(workload.program, predicates=list(workload.predicates))
        trace = portend.record(inputs=dict(workload.inputs))
        analyzer = RecordReplayAnalyzer(workload.program)
        first = analyzer.classify_all(trace, trace.races)
        again = analyzer.classify_all(trace, trace.races)
        assert again == first
        assert len(memos) == 2 * len(trace.races) > 0
        assert len({id(memo) for memo, _ in memos}) == len(memos)
        assert all(size == 0 for _, size in memos)
        assert all(len(memo) == 1 for memo, _ in memos)


#: per registry workload, over its races' analyses: (races, harmful,
#: replay failures, states differ, sum of primary steps, sum of alternate
#: steps)
_REGISTRY_TOTALS = {
    "SQLite": (1, 0, 0, 0, 9, 10),
    "ocean": (5, 4, 4, 0, 135, 4052),
    "fmm": (13, 13, 12, 1, 754, 12139),
    "memcached": (18, 17, 16, 1, 3132, 16487),
    "pbzip2": (31, 30, 28, 2, 2697, 26157),
    "ctrace": (15, 14, 0, 14, 975, 920),
    "bbuf": (6, 5, 0, 5, 564, 669),
    "AVV": (1, 0, 0, 0, 11, 11),
    "DCL": (1, 0, 0, 0, 23, 27),
    "DBM": (1, 0, 0, 0, 10, 10),
    "RW": (1, 0, 0, 0, 10, 10),
    "stress": (160, 0, 0, 0, 52480, 52480),
    "stress_deep": (12, 0, 0, 0, 552, 552),
    "stress_harmful": (120, 120, 120, 0, 72360, 36060),
}
#: sha256 of the repr of every race's row, in registry and race order
_REGISTRY_DIGEST = "5a03765b335d627eb79f64f9c8f6e97f66add057ea3e0ed35dda6914c4d1983c"


def test_registry_replay_analyses_are_pinned():
    # Every field of every registry race's analysis, as the baseline gave
    # them before it took the per-race enforcement memo.
    rows = []
    totals = {}
    for name in all_workload_names(include_synthetic=True):
        workload = load_workload(name)
        portend = Portend(workload.program, predicates=list(workload.predicates))
        trace = portend.record(inputs=dict(workload.inputs))
        analyzer = RecordReplayAnalyzer(workload.program)
        analyses = [analyzer.classify(trace, race) for race in trace.races]
        rows += [
            (
                name,
                analysis.verdict.value,
                analysis.replay_failed,
                analysis.states_differ,
                analysis.primary_steps,
                analysis.alternate_steps,
            )
            for analysis in analyses
        ]
        totals[name] = (
            len(analyses),
            sum(analysis.harmful for analysis in analyses),
            sum(analysis.replay_failed for analysis in analyses),
            sum(analysis.states_differ is True for analysis in analyses),
            sum(analysis.primary_steps for analysis in analyses),
            sum(analysis.alternate_steps for analysis in analyses),
        )
    assert totals == _REGISTRY_TOTALS
    assert len(rows) == 385
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _REGISTRY_DIGEST
