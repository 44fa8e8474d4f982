"""Tests of the one encoding per race.

A race is encoded once, in its trace.  After recording only the verdict
crosses a boundary: ``execute_task`` returns its ``ClassifiedRace`` with
``race`` None (serial, inline and pooled chunks alike), the drain re-attaches
the recording's own ``RaceReport`` as each chunk lands, and a classification
cache entry holds the verdict without its race, which a load re-attaches from
the recording.  So every ``ClassifiedRace`` a run returns holds the very
report in ``run.result.trace.races``, however the run was served.
"""

import io
import json
import pickle

import pytest

from repro.core import PortendConfig
from repro.engine import AnalysisEngine, ClassificationCache, EngineOptions
from repro.engine.cache import CLASSIFICATION_FORMAT_VERSION
from repro.engine.tasks import (
    ContextSpool,
    TraceContext,
    execute_payload_chunk,
    execute_task,
    reset_context_memo,
)
from repro.record_replay.recorder import record_program_trace
from repro.workloads import all_workload_names, load_workload


class _ClassNames(pickle.Unpickler):
    """An unpickler that notes the name of every class a pickle names."""

    def __init__(self, blob: bytes) -> None:
        super().__init__(io.BytesIO(blob))
        self.names = set()

    def find_class(self, module, name):
        self.names.add(name)
        return super().find_class(module, name)


def _pickled_classes(obj):
    """The classes named by ``obj``'s pickle, as a pool pipe carries it."""
    unpickler = _ClassNames(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    unpickler.load()
    return unpickler.names


def _context(name):
    workload = load_workload(name)
    trace, _seconds = record_program_trace(
        workload.program, concrete_inputs=dict(workload.inputs)
    )
    return TraceContext(trace, PortendConfig(), workload.program, tuple(workload.predicates))


#: the classes of a race's report; none of them may cross back from a task
_REPORT_CLASSES = {"RaceReport", "RaceInstance", "AccessInfo", "StackEntry"}


class TestWorkerOutputs:
    def test_a_task_output_carries_no_race(self):
        context = _context("bbuf")
        for race in context.trace.races:
            payload = {"workload": "bbuf", "race_id": race.race_id, "context": context}
            output = execute_task(payload)
            assert output["classified"].race is None
            names = _pickled_classes(output)
            assert "ClassifiedRace" in names
            assert not names & _REPORT_CLASSES

    def test_a_pooled_chunk_result_carries_no_race(self, tmp_path, monkeypatch):
        # What a worker pickles back for a chunk of spooled payloads: the
        # chunk's verdicts and events, and no report of any race.
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        context = _context("bbuf")
        spool = ContextSpool()
        path = spool.write(context)
        payloads = [
            {"workload": "bbuf", "race_id": race.race_id, "spool": path}
            for race in context.trace.races
        ]
        reset_context_memo()
        try:
            result = execute_payload_chunk(execute_task, payloads)
        finally:
            reset_context_memo()
            spool.remove()
        assert len(result) == len(payloads) > 1
        names = _pickled_classes(result)
        assert "ClassifiedRace" in names
        assert not names & _REPORT_CLASSES


@pytest.fixture(scope="module")
def registry_runs(tmp_path_factory):
    """The registry served serially, cold on a 2-worker pool with a cache
    dir, and warm from that dir; plus the dir."""
    cache_dir = str(tmp_path_factory.mktemp("cache"))
    names = all_workload_names(include_synthetic=True)

    def run(**options):
        engine = AnalysisEngine(options=EngineOptions(**options))
        return engine, engine.analyze_workloads([load_workload(name) for name in names])

    _serial_engine, serial = run(parallel=0)
    _pooled_engine, pooled = run(parallel=2, cache_dir=cache_dir)
    warm_engine, warm = run(parallel=0, cache_dir=cache_dir)
    assert warm_engine.last_run_stats.classifications_computed == 0
    return {"serial": serial, "pooled": pooled, "warm": warm}, cache_dir


def _rows(runs):
    return [
        {key: value for key, value in item.to_dict().items() if key != "analysis_seconds"}
        for run in runs
        for item in run.result.classified
    ]


class TestOneReportPerRace:
    @pytest.mark.parametrize("mode", ["serial", "pooled", "warm"])
    def test_every_verdict_holds_its_traces_report(self, registry_runs, mode):
        runs = registry_runs[0][mode]
        for run in runs:
            for item in run.result.classified:
                assert item.race is run.result.trace.race_by_id(item.race.race_id)

    def test_rows_are_equal_however_they_were_served(self, registry_runs):
        runs = registry_runs[0]
        serial = _rows(runs["serial"])
        assert len(serial) == 385
        assert _rows(runs["pooled"]) == serial
        assert _rows(runs["warm"]) == serial

    def test_no_classification_entry_encodes_its_race(self, registry_runs):
        from pathlib import Path

        files = sorted(Path(registry_runs[1]).glob("*-cls-*.json"))
        assert len(files) == len(all_workload_names(include_synthetic=True))
        entries = 0
        for path in files:
            data = json.loads(path.read_text())
            assert data["version"] == CLASSIFICATION_FORMAT_VERSION == 3
            for entry in data["entries"].values():
                assert "race" not in entry["classified"]
                entries += 1
        assert entries == 385


class TestOldLayouts:
    def test_a_store_keeps_only_current_layout_files(self, tmp_path):
        # Version-1 files (one race, no "entries") and version-2 files (the
        # race inside every entry, no version) are reached by no key again:
        # a store of their program deletes both.  A version-3 file of
        # another config stays, and so do other programs' files.
        cache = ClassificationCache(tmp_path)
        v3 = cache.store("bbuf", "3" * 64, {})
        entry = {"key": "e" * 64, "classified": {"classification": "single ordering"}}
        v1 = tmp_path / "bbuf-cls-1111111111111111.json"
        v1.write_text(json.dumps({"key": "1" * 64, "stored_at": 0.0, "classified": {}}))
        v2 = tmp_path / "bbuf-cls-2222222222222222.json"
        v2.write_text(
            json.dumps({"key": "2" * 64, "stored_at": 0.0, "entries": {"1": entry}})
        )
        other = tmp_path / "RW-cls-2222222222222222.json"
        other.write_text(v2.read_text())

        written = cache.store("bbuf", "4" * 64, {})
        assert sorted(tmp_path.iterdir()) == sorted([other, v3, written])
        assert json.loads(v3.read_text())["version"] == 3
