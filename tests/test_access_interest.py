"""Tests for on-demand access events (:mod:`repro.runtime.listeners`).

Listeners declare which locations they want (``access_names``; ``None``
means every access, and a listener that does not override ``on_access``
wants none).  The executor builds a ``MemoryAccess`` only for a location
some listener of the run asked for:

* a run whose listeners want nothing builds no access object at all;
* a listener that wants everything still sees every access, in the order
  the executor performed them, next to listeners with narrower interest;
* the classification's narrow listeners (the alternate's race watcher and
  the explorer's race tracker) give the same verdicts as with every access;
* the race detector reads the accessing thread's stack itself and records
  the same stacks the executor used to attach to every access.
"""

import pytest

from repro.core import alternate
from repro.core.spec import SemanticPredicate, SpecChecker
from repro.detection.happens_before import HappensBeforeDetector
from repro.engine import AnalysisEngine, EngineOptions
from repro.explore import paths
from repro.lang import ProgramBuilder
from repro.lang.ast import add, arr, glob, heap, local
from repro.record_replay.recorder import TraceRecorder
from repro.record_replay.trace import ExecutionTrace
from repro.runtime import executor as executor_module
from repro.runtime.executor import Executor
from repro.runtime.listeners import ExecutionListener, ListenerGroup
from repro.workloads import all_workloads


def _nested_program():
    """Two workers reach shared globals, an array and a heap cell through
    ``worker -> helper -> inner`` while main touches the same heap object."""
    b = ProgramBuilder("nested")
    b.global_var("x", 0)
    b.array("a", 2)
    inner = b.function("inner", params=("p",))
    inner.assign(glob("x"), add(glob("x"), 1), label="inner.c:3")
    inner.assign(heap(local("p"), 0), arr("a", 1), label="inner.c:4")
    inner.ret()
    helper = b.function("helper", params=("p",))
    helper.assign(arr("a", 1), glob("x"), label="helper.c:7")
    helper.call("inner", [local("p")], label="helper.c:8")
    helper.ret()
    worker = b.function("worker", params=("p",))
    worker.call("helper", [local("p")], label="worker.c:12")
    worker.ret()
    main = b.function("main")
    main.malloc("p", 2)
    main.spawn("t1", "worker", [local("p")])
    main.spawn("t2", "worker", [local("p")])
    main.assign(heap(local("p"), 1), glob("x"), label="main.c:20")
    main.join(local("t1"))
    main.join(local("t2"))
    main.output("stdout", [heap(local("p"), 1)])
    main.ret()
    return b.build()


#: every access of one round-robin run of ``_nested_program``, in order, as
#: ``(tid, space, name, index, is_write, pc, step)``
_NESTED_ACCESSES = [
    (1, "global", "x", 0, False, 4, 4),
    (1, "array", "a", 1, True, 4, 4),
    (1, "global", "x", 0, False, 1, 6),
    (1, "global", "x", 0, True, 1, 6),
    (1, "array", "a", 1, False, 2, 7),
    (1, "heap", "1", 0, True, 2, 7),
    (0, "global", "x", 0, False, 12, 12),
    (0, "heap", "1", 1, True, 12, 12),
    (2, "global", "x", 0, False, 4, 14),
    (2, "array", "a", 1, True, 4, 14),
    (2, "global", "x", 0, False, 1, 16),
    (2, "global", "x", 0, True, 1, 16),
    (2, "array", "a", 1, False, 2, 17),
    (2, "heap", "1", 0, True, 2, 17),
    (0, "heap", "1", 1, False, 15, 23),
]


class _AccessLog(ExecutionListener):
    """Overrides ``on_access`` and declares nothing: wants every access."""

    def __init__(self):
        self.seen = []

    def on_access(self, state, access):
        location = access.location
        self.seen.append(
            (
                access.tid,
                location.space,
                location.name,
                location.index,
                access.is_write,
                access.pc,
                access.step,
            )
        )


class _NamedLog(_AccessLog):
    def __init__(self, names):
        super().__init__()
        self.access_names = frozenset(names)


class _StepCounter(ExecutionListener):
    """Overrides ``on_step`` only: logs ``(tid, pc, step)`` of every step."""

    def __init__(self):
        self.seen = []

    def on_step(self, state, tid, pc):
        self.seen.append((tid, pc, state.step_count))


def _run(listeners, monkeypatch):
    """Run the nested program; return its executor and the accesses built."""
    built = []
    real = executor_module.MemoryAccess

    def counting(**fields):
        built.append(fields)
        return real(**fields)

    monkeypatch.setattr(executor_module, "MemoryAccess", counting)
    executor = Executor(_nested_program())
    state = executor.initial_state()
    executor.run(state, listeners=listeners)
    assert state.outcome is not None
    return executor, built


class TestInterestFold:
    def test_listener_without_on_access_wants_nothing(self):
        assert ListenerGroup([_StepCounter()]).access_names == frozenset()
        assert ListenerGroup([TraceRecorder(ExecutionTrace(program="p"))]).access_names == (
            frozenset()
        )

    def test_any_listener_wanting_everything_wins(self):
        group = ListenerGroup([_NamedLog({"x"}), HappensBeforeDetector()])
        assert group.access_names is None

    def test_declared_names_are_unioned(self):
        group = ListenerGroup([_NamedLog({"x"}), _NamedLog({"a"}), _StepCounter()])
        assert group.access_names == frozenset({"x", "a"})

    def test_spec_checker_wants_every_access(self):
        predicate = SemanticPredicate("always", lambda state: True)
        assert ListenerGroup([_NamedLog({"x"}), SpecChecker([predicate])]).access_names is None


class TestAccessesBuilt:
    def test_run_wanting_no_accesses_builds_none(self, monkeypatch):
        executed = []
        real_step = Executor._execute_step

        def logged_step(self, state, tid, stmt, listeners):
            executed.append((tid, stmt.pc, state.step_count + 1))
            return real_step(self, state, tid, stmt, listeners)

        monkeypatch.setattr(Executor, "_execute_step", logged_step)
        steps = _StepCounter()
        listeners = [steps, TraceRecorder(ExecutionTrace(program="nested"))]
        executor, built = _run(listeners, monkeypatch)
        assert built == []
        assert executor.counters.accesses == 0
        assert executor.counters.statements > 0
        # on_step arrives once per executed statement, in execution order
        assert len(steps.seen) == executor.counters.statements
        assert steps.seen == executed

    def test_run_without_step_listeners_never_calls_on_step(self, monkeypatch):
        calls = []
        real_on_step = ListenerGroup.on_step

        def counted(self, state, tid, pc):
            calls.append(pc)
            real_on_step(self, state, tid, pc)

        monkeypatch.setattr(ListenerGroup, "on_step", counted)
        listeners = [_NamedLog({"x"}), TraceRecorder(ExecutionTrace(program="nested"))]
        executor, _built = _run(listeners, monkeypatch)
        assert ListenerGroup(listeners).step_listeners == []
        assert executor.counters.statements > 0 and calls == []
        # one listener that overrides on_step brings the call back, every step
        executor, _built = _run(listeners + [_StepCounter()], monkeypatch)
        assert len(calls) == executor.counters.statements

    def test_undeclared_on_access_receives_every_access_in_order(self, monkeypatch):
        log = _AccessLog()
        narrow = _NamedLog({"a"})
        executor, built = _run([narrow, log, _StepCounter()], monkeypatch)
        assert log.seen == _NESTED_ACCESSES
        assert len(built) == executor.counters.accesses == len(_NESTED_ACCESSES)
        # every built access reaches every access listener; one that
        # declared names must filter the others itself
        assert narrow.seen == _NESTED_ACCESSES

    @pytest.mark.parametrize("names", [{"a"}, {"x"}, {"1"}, {"x", "1"}])
    def test_declared_names_build_exactly_their_locations(self, names, monkeypatch):
        log = _NamedLog(names)
        executor, built = _run([log], monkeypatch)
        expected = [access for access in _NESTED_ACCESSES if access[2] in names]
        assert log.seen == expected
        assert executor.counters.accesses == len(expected)


class TestDetectorStacks:
    def test_happens_before_records_the_executor_stacks(self):
        executor = Executor(_nested_program())
        detector = HappensBeforeDetector()
        state = executor.initial_state()
        executor.run(state, listeners=[detector])
        stacks = [
            (
                tuple((entry.function, entry.label) for entry in instance.first.stack),
                tuple((entry.function, entry.label) for entry in instance.second.stack),
            )
            for instance in detector.races()
        ]
        # innermost frame last; each frame names the statement it resumes at
        main = (("main", "nested.c:13"),)
        in_helper = (("worker", "nested.c:8"), ("helper", "helper.c:8"))
        in_inner_x = (("worker", "nested.c:8"), ("helper", "nested.c:6"), ("inner", "nested.c:3"))
        in_inner_p = (("worker", "nested.c:8"), ("helper", "nested.c:6"), ("inner", "inner.c:4"))
        assert stacks == [
            (in_inner_p, main),
            (in_inner_p, in_helper),
            (in_helper, in_helper),
            (in_inner_x, in_helper),
            (in_inner_p, in_inner_p),
            (in_inner_p, in_inner_p),
            (in_helper, in_inner_p),
            (in_inner_p, in_inner_p),
            (main, in_inner_p),
            (in_helper, in_inner_x),
            (in_inner_x, in_inner_x),
        ]


def _classify_table1():
    runs = AnalysisEngine(options=EngineOptions(parallel=0)).analyze_workloads(all_workloads())
    rows = []
    for run in runs:
        for classified in run.result.classified:
            row = classified.to_dict()
            row.pop("analysis_seconds")
            rows.append(row)
    return rows


def _force_every_access(monkeypatch, cls, built):
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.access_names = None
        built.append(cls.__name__)

    monkeypatch.setattr(cls, "__init__", init)


def test_narrow_interest_keeps_every_table1_verdict(monkeypatch):
    declared = _classify_table1()
    assert len(declared) == 93
    forced = []
    _force_every_access(monkeypatch, alternate._RaceAccessWatcher, forced)
    _force_every_access(monkeypatch, paths._RaceReachedTracker, forced)
    assert _classify_table1() == declared
    assert {"_RaceAccessWatcher", "_RaceReachedTracker"} <= set(forced)
