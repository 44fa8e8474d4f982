"""Tests for Portend's classification pipeline on small targeted programs."""

import pytest

from repro.core import Portend, PortendConfig, multi_path
from repro.core.categories import RaceClass, SpecViolationKind
from repro.core.output_comparison import compare_concrete, compare_symbolic
from repro.core.report import PortendReport
from repro.lang import ProgramBuilder
from repro.lang.ast import add, arr, eq, ge, glob, local
from repro.runtime.state import OutputRecord
from repro.symex.expr import SymVar, sym_ge
from repro.symex.path_condition import PathCondition
from repro.symex.solver import Solver


def _record(channel, values, pc=1):
    return OutputRecord(channel=channel, values=tuple(values), tid=0, pc=pc, label="", step=0)


class TestOutputComparison:
    def test_concrete_equal_and_different(self):
        a = [_record("out", [1, 2])]
        b = [_record("out", [1, 2])]
        c = [_record("out", [1, 3])]
        assert compare_concrete(a, b).matches
        assert not compare_concrete(a, c).matches
        assert not compare_concrete(a, []).matches

    def test_concrete_comparison_is_numeric_not_repr(self):
        # Regression: repr-based comparison flagged numerically equal values
        # of different types (1 vs True) as output differences.
        assert compare_concrete([_record("out", [1])], [_record("out", [True])]).matches
        assert compare_concrete([_record("out", [0])], [_record("out", [False])]).matches
        assert not compare_concrete([_record("out", [1])], [_record("out", [False])]).matches

    def test_concrete_comparison_folds_constant_expressions(self):
        from repro.symex.expr import BinExpr, Op

        # An unsimplified constant expression (1 + 0) is numerically equal
        # to the plain constant 1.
        unsimplified = BinExpr(Op.ADD, 1, 0)
        assert compare_concrete(
            [_record("out", [unsimplified])], [_record("out", [1])]
        ).matches
        assert not compare_concrete(
            [_record("out", [unsimplified])], [_record("out", [2])]
        ).matches

    def test_symbolic_membership(self):
        solver = Solver()
        x = SymVar("x", 0, 100)
        pc = PathCondition([sym_ge(x, 10)])
        primary = [_record("out", [x])]
        assert compare_symbolic(primary, pc, [_record("out", [50])], solver).matches
        assert not compare_symbolic(primary, pc, [_record("out", [5])], solver).matches

    def test_channel_mismatch(self):
        solver = Solver()
        assert not compare_symbolic(
            [_record("a", [1])], PathCondition(), [_record("b", [1])], solver
        ).matches


def _classify(builder, inputs=None, config=None, predicates=()):
    portend = Portend(builder.build(), config=config or PortendConfig(), predicates=predicates)
    return portend.analyze(inputs or {})


class TestClassification:
    def test_output_differs_when_racy_value_is_printed(self):
        b = ProgramBuilder("print-race")
        b.global_var("stat", 0)
        worker = b.function("worker")
        worker.assign(glob("stat"), 5)
        worker.ret()
        main = b.function("main")
        main.spawn("t", "worker")
        main.output("stdout", [glob("stat")])
        main.join(local("t"))
        main.ret()
        result = _classify(b)
        assert [c.classification for c in result.classified] == [RaceClass.OUTPUT_DIFFERS]

    def test_k_witness_when_output_is_unaffected(self):
        b = ProgramBuilder("silent-race")
        b.global_var("counter", 0)
        worker = b.function("worker")
        worker.assign(glob("counter"), add(glob("counter"), 1))
        worker.ret()
        main = b.function("main")
        main.spawn("t", "worker")
        main.assign(glob("counter"), add(glob("counter"), 1))
        main.join(local("t"))
        main.output("stdout", [7])
        main.ret()
        result = _classify(b)
        assert [c.classification for c in result.classified] == [RaceClass.K_WITNESS_HARMLESS]
        assert result.classified[0].k >= 1

    def test_single_ordering_for_adhoc_synchronisation(self):
        b = ProgramBuilder("adhoc-race")
        b.global_var("flag", 0)
        b.global_var("payload", 0)
        producer = b.function("producer")
        producer.assign(glob("payload"), 42)
        producer.assign(glob("flag"), 1)
        producer.ret()
        main = b.function("main")
        main.spawn("t", "producer")
        with main.while_(eq(glob("flag"), 0)):
            main.sleep(1)
        main.assign(local("v"), glob("payload"))
        main.join(local("t"))
        main.output("stdout", [local("v")])
        main.ret()
        result = _classify(b)
        by_var = {c.race.location.name: c.classification for c in result.classified}
        assert by_var["payload"] is RaceClass.SINGLE_ORDERING

    def test_spec_violation_crash_in_alternate_ordering(self):
        b = ProgramBuilder("crash-race")
        b.global_var("nitems", 9)
        b.array("table", 4)
        worker = b.function("worker")
        worker.assign(glob("nitems"), 2)
        worker.ret()
        main = b.function("main")
        main.spawn("t", "worker")
        main.yield_()
        # Eager read: correct only because the worker usually runs first; the
        # alternate ordering indexes the table with the uninitialised value.
        main.assign(local("v"), arr("table", glob("nitems")))
        main.join(local("t"))
        main.output("stdout", [local("v")])
        main.ret()
        result = _classify(b)
        classified = result.classified[0]
        assert classified.classification is RaceClass.SPEC_VIOLATED
        assert classified.evidence.spec_violation_kind is SpecViolationKind.CRASH
        report = PortendReport(classified).render()
        assert "spec violated" in report
        assert "reproducing schedule" in report

    def test_multi_path_reveals_input_gated_output_difference(self):
        b = ProgramBuilder("gated-race")
        b.global_var("metric", 0)
        worker = b.function("worker")
        worker.assign(glob("metric"), 9)
        worker.ret()
        main = b.function("main")
        main.input("verbose", "verbose", 0, 3, default=1)
        main.spawn("t", "worker")
        main.assign(local("snap"), glob("metric"))
        with main.if_(ge(local("verbose"), 1)):
            main.nop()
        with main.else_():
            main.output("debug", [local("snap")])
        main.join(local("t"))
        main.output("stdout", [0])
        main.ret()

        full = _classify(b, inputs={"verbose": 1})
        assert full.classified[0].classification is RaceClass.OUTPUT_DIFFERS

        # Without multi-path analysis the difference is invisible.
        single = _classify(
            b, inputs={"verbose": 1}, config=PortendConfig().single_path_only()
        )
        assert single.classified[0].classification is RaceClass.K_WITNESS_HARMLESS

    def test_multi_path_stops_at_the_first_spec_violation(self, monkeypatch):
        # Recorded with mode=0 the race looks harmless; the explorer finds
        # the primaries mode=2, mode=1, mode=0 in that order, and only the
        # mode=1 alternate indexes the table with the unwritten value.  The
        # fold must stop at that path's first alternate: the witnesses and
        # schedules of path 0 and of that one alternate count, nothing after.
        b = ProgramBuilder("gated-crash")
        b.global_var("nitems", 9)
        b.array("table", 4)
        worker = b.function("worker")
        worker.assign(glob("nitems"), 2)
        worker.ret()
        main = b.function("main")
        main.input("mode", "mode", 0, 3, default=0)
        main.spawn("t", "worker")
        main.yield_()
        main.assign(local("v"), glob("nitems"))
        with main.if_(ge(local("mode"), 2)):
            main.nop()
        with main.if_(eq(local("mode"), 1)):
            main.assign(local("w"), arr("table", local("v")))
        main.join(local("t"))
        main.output("stdout", [0])
        main.ret()

        analyzed = []
        analyze = multi_path.analyze_primary_path

        def counting(*args, **kwargs):
            analyzed.append(args[5].concrete_inputs)
            return analyze(*args, **kwargs)

        monkeypatch.setattr(multi_path, "analyze_primary_path", counting)
        classified = _classify(b, inputs={"mode": 0}).classified[0]
        assert analyzed == [{"mode": 2}, {"mode": 1}]
        assert classified.classification is RaceClass.SPEC_VIOLATED
        assert classified.stage == "multi-path/multi-schedule"
        assert (classified.paths_explored, classified.schedules_explored) == (3, 3)
        assert classified.k == 2
        evidence = classified.evidence
        assert evidence.spec_violation_kind is SpecViolationKind.CRASH
        assert evidence.crash_description.startswith("alternate of primary path 1 ")
        assert evidence.failing_inputs == {"mode": 1}

    def test_adhoc_ablation_reports_spec_violation_instead(self):
        b = ProgramBuilder("adhoc-ablation")
        b.global_var("flag", 0)
        b.global_var("data", 0)
        producer = b.function("producer")
        producer.assign(glob("data"), 1)
        producer.assign(glob("flag"), 1)
        producer.ret()
        main = b.function("main")
        main.spawn("t", "producer")
        with main.while_(eq(glob("flag"), 0)):
            main.sleep(1)
        main.assign(local("v"), glob("data"))
        main.join(local("t"))
        main.ret()
        config = PortendConfig().single_path_only()
        result = _classify(b, config=config)
        by_var = {c.race.location.name: c.classification for c in result.classified}
        # Without ad-hoc synchronisation handling the enforcement failure is
        # conservatively reported as harmful (the replay-analyzer behaviour).
        assert by_var["data"] is RaceClass.SPEC_VIOLATED

    def test_config_k_helpers(self):
        config = PortendConfig()
        assert config.k == config.mp * config.ma
        assert config.with_k(1).k == 1
        assert config.with_k(10).k == 10
        assert config.single_path_only().k == 1
        with pytest.raises(ValueError):
            config.with_k(0)
