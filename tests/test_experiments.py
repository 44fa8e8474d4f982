"""Tests for the experiment harness (tables/figures machinery)."""

import pytest

from repro.core.categories import RaceClass
from repro.core.config import PortendConfig
from repro.engine import AnalysisEngine
from repro.experiments import metrics, runner
from repro.experiments import table1, table3, table4
from repro.workloads import load_workload


def test_table1_rows_cover_all_workloads():
    rows = table1.run()
    assert len(rows) == 11
    by_name = {row.program: row for row in rows}
    assert by_name["SQLite"].paper_loc == 113_326
    assert by_name["memcached"].forked_threads == 8
    text = table1.render(rows)
    assert "pbzip2" in text and "Paper LoC" in text


def test_table3_and_table4_from_shared_runs():
    runs = [
        runner.analyze_workload(load_workload(name), measure_plain_time=True)
        for name in ("RW", "DCL", "SQLite")
    ]
    rows3 = table3.run(runs=runs)
    assert [row.program for row in rows3] == ["RW", "DCL", "SQLite"]
    assert rows3[2].spec_violated == 1
    assert "Total" in table3.render(rows3)

    rows4 = table4.run(runs=runs)
    assert all(row.avg_classification_seconds >= 0 for row in rows4)
    assert all(row.plain_interpretation_seconds > 0 for row in rows4)
    assert all(row.plain_interpretation_statements > 0 for row in rows4)
    for row, run in zip(rows4, runs):
        steps = [item.analysis_steps for item in run.result.classified]
        assert row.avg_classification_steps == sum(steps) / len(steps)
        assert row.max_classification_steps == max(steps)
    text = table4.render(rows4)
    assert "Avg (s)" in text and "Interp steps" in text and "Max steps" in text


def test_table4_plain_statements_are_one_counted_run():
    # Table 4's plain step column is one run's statement count: memcached
    # interprets 174 statements, whatever the timing loop repeats.
    from repro.runtime.executor import Executor

    workload = load_workload("memcached")
    executor = Executor(workload.program)
    result = executor.run(executor.initial_state(concrete_inputs=workload.inputs))
    run = runner.analyze_workload(workload, measure_plain_time=True)
    (row,) = table4.run(runs=[run])
    assert row.plain_interpretation_statements == result.steps_executed == 174


def test_plain_interpretation_time_uses_the_configured_kernel(monkeypatch):
    # Table 4's baseline runs the program once on the analysis interpreter,
    # with detection and classification off.
    timed = []
    original = runner.Executor

    def spy(program, **kwargs):
        executor = original(program, **kwargs)
        timed.append(type(executor))
        return executor

    monkeypatch.setattr(runner, "Executor", spy)
    run = runner.analyze_workload(
        load_workload("RW"), PortendConfig(), measure_plain_time=True
    )
    # One executor times the plain runs, one counts a run's statements.
    assert timed == [original, original]
    assert run.plain_interpretation_seconds > 0
    assert run.plain_interpretation_statements > 0


def test_plain_interpretation_time_is_the_median_of_warm_runs(monkeypatch):
    # One run of a registry program takes 0.1-1 ms, so a single timed
    # run is timer noise.  On a clock that advances 2**-10 s
    # (~0.98 ms) per run, 11 timed runs are the fewest that reach 10 ms;
    # one untimed warm-up run comes first.
    tick = 2.0 ** -10
    clock = {"now": 0.0}
    runs = []
    original_run = runner.Executor.run

    def counting_run(self, *args, **kwargs):
        runs.append(clock["now"])
        result = original_run(self, *args, **kwargs)
        clock["now"] += tick
        return result

    monkeypatch.setattr(runner.Executor, "run", counting_run)
    monkeypatch.setattr(runner.time, "perf_counter", lambda: clock["now"])
    assert runner.plain_interpretation_time(load_workload("RW")) == tick
    assert len(runs) == 1 + 11


def test_score_workload_counts_mismatches():
    workload = load_workload("RW")
    run = runner.analyze_workload(workload)
    score = metrics.score_workload(workload, run.result.classified)
    assert score.total == 1
    assert score.accuracy == 1.0

    # Binary scoring treats only spec-violated ground truth as harmful.
    binary = metrics.score_binary_verdicts(workload, [("shared_flag", True)])
    assert binary.total == 1
    assert binary.correct == 0
    assert binary.mismatches


def test_per_class_accuracy_buckets():
    workload = load_workload("SQLite")
    run = runner.analyze_workload(workload)
    buckets = metrics.per_class_accuracy([(workload, run.result.classified)])
    correct, total = buckets[RaceClass.SPEC_VIOLATED]
    assert (correct, total) == (1, 1)


class _EngineReached(Exception):
    """Raised by the spy below to stop a run once the engine has its options."""


@pytest.mark.parametrize("experiment", ["table2", "fig7", "fig10"])
def test_ablation_experiments_honor_every_engine_flag(monkeypatch, experiment):
    # The ablation experiments take the CLI's (config, options) pair, so
    # every engine flag reaches their analyses -- not only the few they
    # once forwarded by keyword.
    from repro.experiments.__main__ import main

    seen = []

    def spy(self, workloads):
        seen.append(self.options)
        raise _EngineReached

    monkeypatch.setattr(AnalysisEngine, "analyze_workloads", spy)
    with pytest.raises(_EngineReached):
        main([experiment, "--cache-max-entries", "7", "--parallel", "3"])
    assert seen[0].cache_max_entries == 7
    assert seen[0].parallel == 3
