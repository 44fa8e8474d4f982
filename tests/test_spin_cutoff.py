"""Tests for the spin cutoff of alternate enforcement (:mod:`repro.core.alternate`).

An enforcement run that reaches the same state twice (monotone counters and
induction locals aside) is periodic; :func:`run_alternate` then stops it and
fast-forwards to the state the full step budget would reach.  The oracle
here is the same call with the cutoff's sampling switched off, so that the
enforcement is one :meth:`Executor.run` to the full budget:

* **equivalence** -- for every alternate of every registry workload, the
  cut result equals the full-budget one in every
  :class:`AlternateResult` field and every state field (logs, locals, loop
  iterations, step counts, sync, memory), with semantic predicates too;
* **targeted cases** -- an induction-local spin (ocean), a spin whose body
  yields (preemption points advance), a spin the loop-iteration limit ends
  inside the budget (still ``LOOP_LIMIT``), a loop whose counter feeds its
  own condition (never cut), and multi-path alternates under inputs other
  than the trace's.
"""

import copy

import pytest

from repro.core import alternate
from repro.core.alternate import (
    AlternateStatus,
    replay_primary,
    reset_replay_memo,
    run_alternate,
)
from repro.core.config import PortendConfig
from repro.core.portend import Portend
from repro.lang.ast import add, eq, glob, local, logical_and, ne
from repro.lang.builder import ProgramBuilder
from repro.runtime.errors import OutcomeKind
from repro.runtime.executor import Executor, ExecutorConfig
from repro.runtime.threadstate import LoopEntry
from repro.workloads import all_workload_names, load_workload


@pytest.fixture(autouse=True)
def _empty_memo():
    reset_replay_memo()
    yield
    reset_replay_memo()


def _frame_view(frame):
    control = tuple(
        ("loop", entry.stmt.pc, entry.iterations)
        if isinstance(entry, LoopEntry)
        else ("block", tuple(stmt.pc for stmt in entry.stmts), entry.index)
        for entry in frame.control
    )
    return (
        frame.function,
        frame.return_target,
        frame.call_label,
        tuple(frame.locals.items()),
        control,
    )


def _state_view(state):
    """Every field of an execution state."""
    threads = tuple(
        (
            tid,
            thread.entry_function,
            thread.status,
            thread.blocked_on,
            thread.pending_reacquire,
            tuple(thread.held_mutexes),
            thread.steps,
            thread.result,
            tuple(_frame_view(frame) for frame in thread.frames),
        )
        for tid, thread in state.threads.items()
    )
    sync = state.sync
    return (
        threads,
        state.memory.key(),
        tuple((name, m.owner, tuple(m.waiters)) for name, m in sync.mutexes.items()),
        tuple((name, tuple(c.waiters)) for name, c in sync.condvars.items()),
        tuple(
            (name, tuple(b.arrived), b.generation) for name, b in sync.barriers.items()
        ),
        state.next_tid,
        state.current_tid,
        state.outcome,
        state.path_condition.constraints,
        state.step_count,
        state.preemption_points,
        state.context_switches,
        state.symbolic_branches,
        tuple(state.output_log),
        tuple(state.input_log),
        dict(state.notes),
    )


def _result_view(result):
    """Every :class:`AlternateResult` field, the final state expanded."""
    return (
        result.status,
        _state_view(result.state),
        id(result.pre_race_checkpoint),
        result.post_race_snapshot,
        result.timeout_diagnosis,
        result.lock_cycle,
        result.enforced_pc,
        result.steps,
    )


def _full_budget(monkeypatch, *args, **kwargs):
    """``run_alternate`` with enforcement run to the full budget (no cutoff)."""
    with monkeypatch.context() as patch:
        patch.setattr(alternate._SpinCutoff, "sample", lambda self, state, tid, stmt: False)
        return run_alternate(*args, **kwargs)


class _Checked:
    """Wraps ``run_alternate`` at the classifier's call sites: every call is
    also run to the full budget first, and both results are kept."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.pairs = []

    def __call__(self, executor, *args, **kwargs):
        reference_kwargs = dict(kwargs)
        # A random post-race policy carries RNG state: give the reference
        # its own copy so that both runs draw the same schedule.
        reference_kwargs["post_race_policy"] = copy.deepcopy(kwargs.get("post_race_policy"))
        reference = _full_budget(self.monkeypatch, executor, *args, **reference_kwargs)
        before = executor.counters.spin_cutoffs
        result = run_alternate(executor, *args, **kwargs)
        cut = executor.counters.spin_cutoffs - before
        self.pairs.append((args, reference, result, cut))
        return result


def _classify_checked(monkeypatch, name, interp="tree", semantic=False, sites=None):
    workload = load_workload(name)
    predicates = list(workload.predicates)
    if semantic:
        predicates += list(workload.semantic_predicates)
    portend = Portend(
        workload.program, config=PortendConfig(interp=interp), predicates=predicates
    )
    trace = portend.record(inputs=dict(workload.inputs))
    checked = _Checked(monkeypatch)
    for site in sites or ("single_pre_post", "multi_path"):
        monkeypatch.setattr(f"repro.core.{site}.run_alternate", checked)
    portend.classify_trace(trace)
    return trace, checked.pairs


def _assert_pairs_equal(pairs):
    assert pairs
    for args, reference, result, _cut in pairs:
        assert _result_view(result) == _result_view(reference), args[2].race_id


class TestOracle:
    # one interpreter; the parameter keeps the "tree" suffix of these ids
    @pytest.mark.parametrize("interp", ["tree"])
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_every_alternate_matches_the_full_budget_run(self, monkeypatch, name, interp):
        _trace, pairs = _classify_checked(monkeypatch, name, interp)
        _assert_pairs_equal(pairs)
        if name in ("ocean", "fmm", "memcached", "pbzip2"):
            # their single-ordering races time out spinning on a flag
            assert any(cut for *_rest, cut in pairs), name

    @pytest.mark.parametrize("interp", ["tree"])
    def test_semantic_predicates_on_fmm(self, monkeypatch, interp):
        _trace, pairs = _classify_checked(monkeypatch, "fmm", interp, semantic=True)
        _assert_pairs_equal(pairs)

    def test_every_timeout_of_paper_table1_is_cut(self, monkeypatch):
        # The single-pre/single-post stage of the Table 1 programs: each
        # timeout spins on a flag and is cut, none runs its budget out.
        timeouts = 0
        for name in all_workload_names():
            _trace, pairs = _classify_checked(
                monkeypatch, name, sites=("single_pre_post",)
            )
            _assert_pairs_equal(pairs)
            for _args, _reference, result, cut in pairs:
                if result.status is AlternateStatus.TIMEOUT:
                    timeouts += 1
                    assert cut == 1, name
        assert timeouts == 57


class TestTargetedSpins:
    def test_induction_local_spin_is_cut_and_extrapolated(self, monkeypatch):
        _trace, pairs = _classify_checked(monkeypatch, "ocean", sites=("single_pre_post",))
        _assert_pairs_equal(pairs)
        cut = [result for _args, _reference, result, cut in pairs if cut]
        assert cut
        for result in cut:
            (main,) = [t for t in result.state.threads.values() if t.entry_function == "main"]
            # spin_iters kept counting through the skipped periods
            assert main.frames[-1].locals["spin_iters"] > 100

    @pytest.mark.parametrize("name", ["ctrace", "bbuf"])
    def test_multi_path_alternates_with_other_inputs(self, monkeypatch, name):
        trace, pairs = _classify_checked(monkeypatch, name, sites=("multi_path",))
        _assert_pairs_equal(pairs)
        assert any(
            args[3].final_state.concrete_inputs != dict(trace.concrete_inputs)
            for args, *_rest in pairs
        )


def _flag_program(body, cond=None, prelude=()):
    """A writer publishes ``data`` then raises ``flag``; a reader spins on
    the flag and then reads ``data``.  Enforcing the read first (the writer
    preempted) spins forever."""
    b = ProgramBuilder("flag_spin")
    b.global_var("data", 0)
    b.global_var("flag", 0)
    b.global_var("seen", 0)
    writer = b.function("writer")
    writer.assign(glob("data"), 1, label="w:1")
    writer.assign(glob("flag"), 1, label="w:2")
    writer.ret()
    reader = b.function("reader")
    for stmt in prelude:
        stmt(reader)
    with reader.while_(cond if cond is not None else eq(glob("flag"), 0), label="r:1"):
        body(reader)
    reader.assign(glob("seen"), glob("data"), label="r:3")
    reader.ret()
    main = b.function("main")
    main.spawn("w", "writer", label="m:1")
    main.spawn("r", "reader", label="m:2")
    main.join(local("w"), label="m:3")
    main.join(local("r"), label="m:4")
    main.output("stdout", [glob("seen")], label="m:5")
    main.ret()
    return b.build()


def _mode_program():
    """Like :func:`_flag_program`, but the reader spins only under input
    ``mode == 1``, which the recorded run (``mode = 0``) does not take: the
    spin shows up only in multi-path analysis, under other inputs."""
    b = ProgramBuilder("mode_spin")
    b.global_var("data", 0)
    b.global_var("flag", 0)
    b.global_var("seen", 0)
    writer = b.function("writer")
    writer.assign(glob("data"), 1, label="w:1")
    writer.assign(glob("flag"), 1, label="w:2")
    writer.ret()
    reader = b.function("reader", params=["mode"])
    with reader.if_(eq(local("mode"), 1), label="r:1"):
        with reader.while_(eq(glob("flag"), 0), label="r:2"):
            reader.sleep(1, label="r:3")
    reader.assign(glob("seen"), glob("data"), label="r:4")
    reader.ret()
    main = b.function("main")
    main.input("mode", "mode", lo=0, hi=1, default=0, label="m:0")
    main.spawn("w", "writer", label="m:1")
    main.spawn("r", "reader", [local("mode")], label="m:2")
    main.join(local("w"), label="m:3")
    main.join(local("r"), label="m:4")
    main.ret()
    return b.build()


def _alternate_pair(
    monkeypatch, program, interp="tree", budget=2_000, max_loop_iterations=100_000
):
    config = ExecutorConfig(max_loop_iterations=max_loop_iterations)
    executor = Executor(program, config=config)
    portend = Portend(program, config=PortendConfig(interp=interp), executor=executor)
    trace = portend.record()
    (race,) = [
        race
        for race in trace.races
        if race.location.name == "data" and race.second.tid != race.first.tid
    ]
    primary = replay_primary(executor, program, trace, race)
    reference = _full_budget(monkeypatch, executor, program, trace, race, primary, budget)
    before = executor.counters.spin_cutoffs
    result = run_alternate(executor, program, trace, race, primary, budget)
    assert _result_view(result) == _result_view(reference)
    return primary, result, executor.counters.spin_cutoffs - before


class TestSyntheticSpins:
    # one interpreter; the parameter keeps the "tree" suffix of these ids
    @pytest.mark.parametrize("interp", ["tree"])
    def test_spin_that_yields_advances_preemption_points(self, monkeypatch, interp):
        program = _flag_program(lambda f: f.yield_(label="r:2"))
        primary, result, cut = _alternate_pair(monkeypatch, program, interp)
        assert cut == 1
        assert result.status is AlternateStatus.TIMEOUT
        assert result.timeout_diagnosis == "adhoc-sync"
        checkpoint = primary.pre_race_checkpoint
        # one yield per iteration, through the skipped periods as well
        assert result.state.preemption_points - checkpoint.preemption_points > 500

    @pytest.mark.parametrize("interp", ["tree"])
    def test_loop_limit_inside_the_budget_still_ends_the_run(self, monkeypatch, interp):
        program = _flag_program(
            lambda f: f.assign(local("n"), add(local("n"), 1), label="r:2"),
            prelude=(lambda f: f.assign(local("n"), 0, label="r:0"),),
        )
        _primary, result, cut = _alternate_pair(
            monkeypatch, program, interp, budget=5_000, max_loop_iterations=300
        )
        assert cut == 1
        assert result.outcome.kind is OutcomeKind.LOOP_LIMIT

    @pytest.mark.parametrize("interp", ["tree"])
    def test_counter_in_its_own_condition_is_never_cut(self, monkeypatch, interp):
        # The reader gives up after 300 iterations and reads ``data``, well
        # inside the budget: a run that left ``n`` out of its key would see
        # a repeat, skip past n == 300 and time out instead.
        cond = logical_and(eq(glob("flag"), 0), ne(local("n"), 300))
        program = _flag_program(
            lambda f: f.assign(local("n"), add(local("n"), 1), label="r:2"),
            cond=cond,
            prelude=(lambda f: f.assign(local("n"), 0, label="r:0"),),
        )
        _primary, result, cut = _alternate_pair(monkeypatch, program, interp)
        assert cut == 0
        assert result.status is AlternateStatus.COMPLETED
        loop = next(
            stmt
            for stmt in program.function("reader").body
            if type(stmt).__name__ == "While"
        )
        assert alternate._induction_locals(loop) == frozenset()

    @pytest.mark.parametrize("interp", ["tree"])
    def test_multi_path_spin_under_other_inputs_is_cut(self, monkeypatch, interp):
        program = _mode_program()
        portend = Portend(program, config=PortendConfig(interp=interp))
        trace = portend.record(inputs={"mode": 0})
        checked = _Checked(monkeypatch)
        monkeypatch.setattr("repro.core.multi_path.run_alternate", checked)
        portend.classify_trace(trace)
        _assert_pairs_equal(checked.pairs)
        cut = [
            args[3].final_state.concrete_inputs
            for args, _reference, result, cut in checked.pairs
            if cut and result.status is AlternateStatus.TIMEOUT
        ]
        assert cut and all(inputs == {"mode": 1} for inputs in cut)
