"""Tests for the benchmark's own code: the span fold, percentiles, failure counts."""

import json
import os

import hostspeed
import probes
import run
from ledger import Span, Tracer, count_failures, fold_self_times, load_span_file, percentile

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("child", 2.0, 5.0, 0),
        Span("grandchild", 3.0, 4.0, 1),
    ]
    assert fold_self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_sums_disjoint_siblings():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 5.0, 6.0, 0),
    ]
    assert fold_self_times(spans) == [7.0, 2.0, 1.0]


def test_self_time_counts_overlapping_siblings_once_and_clips_to_parent():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),
        Span("late", 9.0, 12.0, 0),
    ]
    assert fold_self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_tracer_nests_spans_and_round_trips_through_a_worker_file(tmp_path):
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.annotate(inner, {"steps": 3})
    tracer.end(outer)
    assert tracer.idle
    spans = tracer.finished()
    assert [span.parent for span in spans] == [None, 0]
    path = str(tmp_path / "spans-1.jsonl")
    tracer.flush_to(path)
    assert tracer.spans == []
    assert load_span_file(path) == [spans]


def test_percentile_interpolates_between_ranks():
    assert percentile([5, 1, 3, 2, 4], 50) == 3
    assert percentile([1, 2, 3, 4, 5], 0) == 1
    assert percentile([1, 2, 3, 4, 5], 100) == 5
    assert percentile([1, 2], 50) == 1.5
    assert percentile([10.0] * 7, 99) == 10.0
    assert percentile([], 99) == 0.0


def test_missing_and_wrong_verdicts_each_fail_once():
    expected = {"a": "single ordering", "b": "output differs", "c": "spec violated"}
    actual = {"a": "single ordering", "b": "k-witness harmless"}
    assert count_failures(expected, actual) == (3, 2)
    assert count_failures(expected, dict(expected)) == (3, 0)


def test_unexpected_verdict_is_attempted_and_failed():
    assert count_failures({"a": 1}, {"a": 1, "z": 2}) == (2, 1)


def test_unattributed_share_is_root_self_time_over_root_time():
    driver = [
        Span("pass", 0.0, 10.0, None),
        Span("classifier.classify_race", 1.0, 9.0, 0, {"program": "p"}),
    ]
    worker = [Span("engine.worker_chunk", 0.0, 4.0, None), Span("runtime.run", 0.0, 3.0, 0)]
    metrics = probes.layer_metrics([driver, worker], passes=2, races_per_pass=1, workers=2, retries=0)
    assert metrics["trace.unattributed_share"] == (2.0 + 1.0) / (10.0 + 4.0)
    assert metrics["engine.driver_other_s"] == 1.0
    assert metrics["engine.worker_utilisation"] == 4.0 / (2 * 10.0)
    assert metrics["classifier.race_ms_p50"] == 8000.0
    assert set(metrics) | {"trace.overhead", "failed_share"} == {row[0] for row in probes.LAYER_METRICS}


class _Presampled(hostspeed.Sampler):
    def sample(self) -> None:
        pass


def test_normalise_scales_wall_time_by_the_speed_sampled_during_it():
    sampler = _Presampled()
    sampler.times = [0.0, 10.9, 11.5, 12.2, 20.0]
    reference = hostspeed.REFERENCE_S
    sampler.costs = [9.0, 2 * reference, 4 * reference, 3 * reference, 9.0]
    assert abs(sampler.normalise(11.0, 12.0) - 1.0 / 3) < 1e-12


def test_calibration_keys_are_equal_but_distinct_tuples():
    table, keys = hostspeed.calibration_table()
    assert len({id(key) for key in keys}) == len(keys) == hostspeed.LOOKUPS
    assert hostspeed.calibration_loop(table, keys) == hostspeed.LOOKUPS * table[keys[0]]


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [item["name"] for item in spec["workloads"]] == list(run.WORKLOADS)
    assert {item["name"]: item["unit"] for item in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(item["name"], item["unit"], item["better"]) for item in spec["per_layer"]] == [
        row[:3] for row in probes.LAYER_METRICS
    ]


def test_installation_wraps_class_methods_and_restores_them(tmp_path):
    from repro.record_replay.trace import ExecutionTrace

    originals = dict(ExecutionTrace.__dict__)
    installation = probes.Installation(str(tmp_path))
    try:
        trace = ExecutionTrace.from_dict(ExecutionTrace(program="p", concrete_inputs={"n": 1}).to_dict())
        assert trace.concrete_inputs == {"n": 1}
        assert [span.name for span in probes.TRACER.finished()] == ["engine.codec", "engine.codec"]
    finally:
        installation.remove()
    assert ExecutionTrace.__dict__["from_dict"] is originals["from_dict"]
    assert ExecutionTrace.__dict__["to_dict"] is originals["to_dict"]
    assert probes.TRACER.finished() == []
