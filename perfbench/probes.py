"""Per-layer probes: wrap each layer's entry points from outside, then fold.

Each probe replaces one attribute *at the name its caller resolves*:
``single_pre_post`` and ``multi_path`` both did ``from repro.core.alternate
import replay_primary``, so both of those bindings are wrapped, while class
methods (``Executor.run``, ``Solver.check``, ...) are wrapped once on the
class.  Pool workers fork from the driving process and so inherit the
wrappers; because workers leave through ``os._exit`` (no ``atexit``), the
wrapped ``execute_payload_chunk`` appends the worker's spans to a per-worker
file after every task.

``LAYER_METRICS`` is the per-layer ledger: every metric, its unit, and which
end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from ledger import Span, Tracer, fold_self_times, load_span_file, percentile

TRACER = Tracer()

#: (name, unit, better, what it should move) -- BENCHMARK.json lists the same
#: names, units and directions (checked by test_perfbench.py)
LAYER_METRICS = (
    ("runtime.run_calls", "count", "lower", "batch_s on both workloads"),
    ("runtime.self_s", "s", "lower", "batch_s on both workloads"),
    ("runtime.steps", "count", "lower", "batch_s on both workloads"),
    ("runtime.steps_per_s", "steps/s", "higher", "batch_s on both workloads"),
    ("runtime.clone_calls", "count", "lower", "peak_rss_mb and batch_s on both workloads"),
    ("runtime.clone_s", "s", "lower", "peak_rss_mb and batch_s on both workloads"),
    ("record_replay.record_s", "s", "lower", "batch_s on every workload (one recording per program)"),
    ("record_replay.record_calls", "count", "lower", "batch_s on every workload"),
    ("detection.races", "count", "higher", "nothing: the races found must not change"),
    ("detection.instances", "count", "higher", "nothing: the race instances found must not change"),
    ("detection.cluster_s", "s", "lower", "batch_s on every workload, a little"),
    ("alternate.replay_primary_s", "s", "lower", "batch_s and races_per_s on pooled_registry (its stress programs)"),
    ("alternate.replay_primary_calls", "count", "lower", "batch_s and races_per_s on pooled_registry (its stress programs)"),
    ("alternate.replays_per_race", "ratio", "lower", "batch_s and races_per_s on pooled_registry (its stress programs)"),
    ("alternate.run_alternate_s", "s", "lower", "batch_s and races_per_s on paper_table1"),
    ("alternate.run_alternate_calls", "count", "lower", "batch_s on paper_table1"),
    ("alternate.timeout_calls", "count", "lower", "batch_s on paper_table1 (ad-hoc sync timeouts)"),
    ("alternate.enforced_ratio", "ratio", "higher", "batch_s on paper_table1"),
    ("single_pre_post.self_s", "s", "lower", "races_per_s on paper_table1"),
    ("single_pre_post.conclusive_ratio", "ratio", "higher", "races_per_s on paper_table1"),
    ("classifier.race_ms_p50", "ms", "lower", "races_per_s on paper_table1 (Table 4)"),
    ("classifier.race_ms_p99", "ms", "lower", "races_per_s on paper_table1 (Table 4)"),
    ("explore.s", "s", "lower", "batch_s on paper_table1 and pooled_registry"),
    ("explore.calls", "count", "lower", "batch_s on paper_table1 and pooled_registry"),
    ("explore.primaries", "count", "higher", "nothing: the primaries found must not change"),
    ("explore.states_pruned", "count", "lower", "batch_s on paper_table1 and pooled_registry"),
    ("explore.useful_ratio", "ratio", "higher", "batch_s on paper_table1 and pooled_registry"),
    ("multi_path.analyze_primary_path_calls", "count", "lower", "batch_s on paper_table1 and pooled_registry"),
    ("multi_path.self_s", "s", "lower", "batch_s on paper_table1 and pooled_registry"),
    ("output_comparison.s", "s", "lower", "batch_s on paper_table1 and pooled_registry"),
    ("output_comparison.calls", "count", "lower", "batch_s on paper_table1 and pooled_registry"),
    ("symex.solver_s", "s", "lower", "nothing measurable: the solver is under 1% of wall time"),
    ("symex.solver_calls", "count", "lower", "nothing measurable on any workload"),
    ("symex.cache_hit_ratio", "ratio", "higher", "nothing measurable on any workload"),
    ("engine.fingerprint_s", "s", "lower", "batch_s on every workload (program hashing per pass)"),
    ("engine.codec_s", "s", "lower", "batch_s on both workloads (trace and verdict encode/decode)"),
    ("engine.warm_s", "s", "lower", "batch_s and setup_s on pooled_registry"),
    ("engine.submit_s", "s", "lower", "batch_s on pooled_registry"),
    ("engine.submits", "count", "lower", "batch_s on pooled_registry"),
    ("engine.payload_bytes", "B", "lower", "batch_s on pooled_registry"),
    ("engine.wait_s", "s", "lower", "batch_s on pooled_registry"),
    ("engine.driver_other_s", "s", "lower", "batch_s on pooled_registry"),
    ("engine.worker_busy_s", "s", "lower", "batch_s on pooled_registry"),
    ("engine.worker_utilisation", "ratio", "higher", "batch_s on pooled_registry"),
    ("engine.retries", "count", "lower", "batch_s on pooled_registry"),
    ("cache.load_s", "s", "lower", "batch_s on pooled_registry (cache probes)"),
    ("cache.loads", "count", "lower", "batch_s on pooled_registry (cache probes)"),
    ("cache.store_s", "s", "lower", "batch_s on pooled_registry"),
    ("cache.stores", "count", "lower", "batch_s on pooled_registry"),
    ("cache.hit_ratio", "ratio", "higher", "nothing: every probe misses the fresh cache directory"),
    ("trace.unattributed_share", "ratio", "lower", "nothing: how much wall time no span explains"),
    ("trace.overhead", "ratio", "lower", "nothing: the traced run's slowdown"),
    ("failed_share", "ratio", "lower", "nothing: verdicts that are missing or wrong, must be 0"),
)


class Probe(NamedTuple):
    module: str
    #: ``name`` or ``Class.method``
    attribute: str
    span: str
    #: called with the call's positional args before it runs
    before: Optional[Callable] = None
    #: called with (args, result, before's value); returns the span's attrs
    after: Optional[Callable] = None


def _steps_before(args):
    return args[1].step_count


def _steps_after(args, result, before):
    return {"steps": args[1].step_count - before}


def _recorded(args, result, before):
    trace = result[0]
    return {
        "races": len(trace.races),
        "instances": sum(race.instance_count for race in trace.races),
    }


def _alternate_status(args, result, before):
    return {"status": result.status.value}


def _conclusive(args, result, before):
    return {"conclusive": result.verdict.value != "output same"}


def _program(args, result, before):
    return {"program": args[1].name}


def _explored(args, result, before):
    explorer = args[0]
    return {
        "primaries": len(result),
        "explored": explorer.states_explored,
        "pruned": explorer.states_pruned,
    }


def _hits_before(args):
    return args[0].stats.cache_hits


def _hit_after(args, result, before):
    return {"hit": args[0].stats.cache_hits > before}


def _loaded(args, result, before):
    return {"hit": result is not None}


PROBES = (
    Probe("repro.runtime.executor", "Executor.run", "runtime.run", _steps_before, _steps_after),
    Probe("repro.runtime.state", "ExecutionState.clone", "runtime.clone"),
    Probe("repro.record_replay.recorder", "record_execution", "record_replay.record", after=_recorded),
    Probe("repro.record_replay.recorder", "cluster_races", "detection.cluster"),
    Probe("repro.core.single_pre_post", "replay_primary", "alternate.replay_primary"),
    Probe("repro.core.multi_path", "replay_primary", "alternate.replay_primary"),
    Probe("repro.core.single_pre_post", "run_alternate", "alternate.run_alternate", after=_alternate_status),
    Probe("repro.core.multi_path", "run_alternate", "alternate.run_alternate", after=_alternate_status),
    Probe("repro.core.classifier", "single_classify", "single_pre_post.single_classify", after=_conclusive),
    Probe("repro.core.portend", "classify_race", "classifier.classify_race", after=_program),
    Probe("repro.core.classifier", "classify_multipath", "multi_path.classify_multipath"),
    Probe("repro.core.multi_path", "analyze_primary_path", "multi_path.analyze_primary_path"),
    Probe("repro.explore.paths", "MultiPathExplorer.explore", "explore.explore", after=_explored),
    Probe("repro.core.single_pre_post", "compare_concrete", "output_comparison.compare"),
    Probe("repro.core.multi_path", "compare_concrete", "output_comparison.compare"),
    Probe("repro.core.multi_path", "compare_symbolic", "output_comparison.compare"),
    Probe("repro.symex.solver", "Solver.check", "symex.solver", _hits_before, _hit_after),
    Probe("repro.symex.solver", "Solver.value_range", "symex.solver", _hits_before, _hit_after),
    Probe("repro.engine.cache", "TraceCache.program_fingerprint", "engine.fingerprint"),
    Probe("repro.record_replay.trace", "ExecutionTrace.to_dict", "engine.codec"),
    Probe("repro.record_replay.trace", "ExecutionTrace.from_dict", "engine.codec"),
    Probe("repro.core.categories", "ClassifiedRace.to_dict", "engine.codec"),
    Probe("repro.core.categories", "ClassifiedRace.from_dict", "engine.codec"),
    Probe("repro.engine.dispatch", "PoolDispatcher.warm", "engine.warm"),
    Probe("repro.engine.dispatch", "PoolSupervisor.wait_some", "engine.wait"),
    Probe("repro.engine.cache", "TraceCache.load", "cache.load", after=_loaded),
    Probe("repro.engine.cache", "ClassificationCache.load", "cache.load", after=_loaded),
    Probe("repro.engine.cache", "TraceCache.store", "cache.store"),
    Probe("repro.engine.cache", "ClassificationCache.store", "cache.store"),
)


def _wrap(original: Callable, probe: Probe) -> Callable:
    tracer, name, before, after = TRACER, probe.span, probe.before, probe.after

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            tracer.annotate(index, after(args, result, token))
        return result

    return wrapper


def _wrap_submit(original: Callable) -> Callable:
    """``PoolSupervisor.submit``, plus the pickled size of the chunk's payloads.

    The size is measured in a ``trace.measure`` span of its own, so the
    re-pickling is charged to tracing rather than to the driver.
    """

    @functools.wraps(original)
    def submit(self, worker, payloads, *args, **kwargs):
        index = TRACER.begin("engine.submit")
        try:
            result = original(self, worker, payloads, *args, **kwargs)
        finally:
            TRACER.end(index)
        measure = TRACER.begin("trace.measure")
        size = len(pickle.dumps(list(payloads), protocol=pickle.HIGHEST_PROTOCOL))
        TRACER.end(measure)
        TRACER.annotate(index, {"bytes": size})
        return result

    return submit


def _wrap_chunk(original: Callable, span_dir: str, driver_pid: int) -> Callable:
    """``execute_payload_chunk``: time the task, then flush the worker's spans."""

    @functools.wraps(original)
    def execute_payload_chunk(worker, payloads):
        index = TRACER.begin("engine.worker_chunk")
        try:
            return original(worker, payloads)
        finally:
            TRACER.end(index)
            if os.getpid() != driver_pid and TRACER.idle:
                TRACER.flush_to(os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"))

    return execute_payload_chunk


class Installation:
    """The wrappers in place; :meth:`remove` restores every original."""

    def __init__(self, span_dir: str) -> None:
        self._restore: List = []
        for probe in PROBES:
            self._replace(probe.module, probe.attribute, lambda original, p=probe: _wrap(original, p))
        self._replace("repro.engine.dispatch", "PoolSupervisor.submit", _wrap_submit)
        # One wrapper object under both bindings: the pool pickles the chunk
        # function by reference to ``repro.engine.tasks``, and ``dispatch``
        # calls it through its own imported name.
        tasks = importlib.import_module("repro.engine.tasks")
        chunk = _wrap_chunk(tasks.execute_payload_chunk, span_dir, os.getpid())
        self._replace("repro.engine.tasks", "execute_payload_chunk", lambda _original: chunk)
        self._replace("repro.engine.dispatch", "execute_payload_chunk", lambda _original: chunk)
        TRACER.clear()
        os.register_at_fork(after_in_child=TRACER.clear)

    def _replace(self, module_name: str, attribute: str, make: Callable) -> None:
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, (classmethod, staticmethod)):
            setattr(owner, name, type(original)(make(original.__func__)))
        else:
            setattr(owner, name, make(original))
        self._restore.append((owner, name, original))

    def remove(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []
        TRACER.clear()


def collect_worker_spans(span_dir: str) -> List[List[Span]]:
    """Read and delete every worker's flushed span batches."""
    batches: List[List[Span]] = []
    for name in sorted(os.listdir(span_dir)):
        path = os.path.join(span_dir, name)
        batches.extend(load_span_file(path))
        os.unlink(path)
    return batches


class _Tally:
    __slots__ = ("calls", "seconds", "self_seconds", "attrs", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.attrs: List[Dict] = []
        self.durations: List[float] = []


def tally(processes: Sequence[Sequence[Span]]) -> Dict[str, _Tally]:
    """Per span name: calls, inclusive and self seconds, attrs and durations."""
    tallies: Dict[str, _Tally] = {}
    for spans in processes:
        for span, self_time in zip(spans, fold_self_times(spans)):
            entry = tallies.get(span.name)
            if entry is None:
                entry = tallies[span.name] = _Tally()
            entry.calls += 1
            entry.seconds += span.end - span.start
            entry.self_seconds += self_time
            entry.durations.append(span.end - span.start)
            if span.attrs:
                entry.attrs.append(span.attrs)
    return tallies


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    processes: Sequence[Sequence[Span]],
    passes: int,
    races_per_pass: int,
    workers: int,
    retries: int,
) -> Dict[str, float]:
    """Fold the spans of ``passes`` traced passes into the per-layer metrics.

    Additive metrics are per pass; ratios and percentiles are over all
    passes.  ``processes`` holds the driver's spans (whose roots are the
    ``pass`` spans) and each worker's flushed batches.
    """
    t = tally(processes)
    empty = _Tally()

    def get(name: str) -> _Tally:
        return t.get(name, empty)

    def attr_sum(name: str, key: str) -> float:
        return sum(attrs.get(key, 0) for attrs in get(name).attrs)

    def per_pass(value: float) -> float:
        return value / passes

    run, clone, record = get("runtime.run"), get("runtime.clone"), get("record_replay.record")
    replay, alternate = get("alternate.replay_primary"), get("alternate.run_alternate")
    single, explore = get("single_pre_post.single_classify"), get("explore.explore")
    path, multi = get("multi_path.analyze_primary_path"), get("multi_path.classify_multipath")
    compare, solver = get("output_comparison.compare"), get("symex.solver")
    loads, stores = get("cache.load"), get("cache.store")
    whole, chunk = get("pass"), get("engine.worker_chunk")
    statuses = [attrs["status"] for attrs in alternate.attrs]
    race_ms = [seconds * 1000.0 for seconds in get("classifier.classify_race").durations]
    steps = attr_sum("runtime.run", "steps")
    return {
        "runtime.run_calls": per_pass(run.calls),
        "runtime.self_s": per_pass(run.self_seconds),
        "runtime.steps": per_pass(steps),
        "runtime.steps_per_s": _ratio(steps, run.seconds),
        "runtime.clone_calls": per_pass(clone.calls),
        "runtime.clone_s": per_pass(clone.seconds),
        "record_replay.record_s": per_pass(record.seconds),
        "record_replay.record_calls": per_pass(record.calls),
        "detection.races": per_pass(attr_sum("record_replay.record", "races")),
        "detection.instances": per_pass(attr_sum("record_replay.record", "instances")),
        "detection.cluster_s": per_pass(get("detection.cluster").seconds),
        "alternate.replay_primary_s": per_pass(replay.seconds),
        "alternate.replay_primary_calls": per_pass(replay.calls),
        "alternate.replays_per_race": _ratio(replay.calls, races_per_pass * passes),
        "alternate.run_alternate_s": per_pass(alternate.seconds),
        "alternate.run_alternate_calls": per_pass(alternate.calls),
        "alternate.timeout_calls": per_pass(statuses.count("timeout")),
        "alternate.enforced_ratio": _ratio(statuses.count("completed"), len(statuses)),
        "single_pre_post.self_s": per_pass(single.self_seconds),
        "single_pre_post.conclusive_ratio": _ratio(
            sum(1 for attrs in single.attrs if attrs["conclusive"]), single.calls
        ),
        "classifier.race_ms_p50": percentile(race_ms, 50),
        "classifier.race_ms_p99": percentile(race_ms, 99),
        "explore.s": per_pass(explore.seconds),
        "explore.calls": per_pass(explore.calls),
        "explore.primaries": per_pass(attr_sum("explore.explore", "primaries")),
        "explore.states_pruned": per_pass(attr_sum("explore.explore", "pruned")),
        "explore.useful_ratio": _ratio(
            attr_sum("explore.explore", "primaries"), attr_sum("explore.explore", "explored")
        ),
        "multi_path.analyze_primary_path_calls": per_pass(path.calls),
        "multi_path.self_s": per_pass(path.self_seconds + multi.self_seconds),
        "output_comparison.s": per_pass(compare.seconds),
        "output_comparison.calls": per_pass(compare.calls),
        "symex.solver_s": per_pass(solver.seconds),
        "symex.solver_calls": per_pass(solver.calls),
        "symex.cache_hit_ratio": _ratio(attr_sum("symex.solver", "hit"), solver.calls),
        "engine.fingerprint_s": per_pass(get("engine.fingerprint").seconds),
        "engine.codec_s": per_pass(get("engine.codec").seconds),
        "engine.warm_s": per_pass(get("engine.warm").seconds),
        "engine.submit_s": per_pass(get("engine.submit").seconds),
        "engine.submits": per_pass(get("engine.submit").calls),
        "engine.payload_bytes": per_pass(attr_sum("engine.submit", "bytes")),
        "engine.wait_s": per_pass(get("engine.wait").seconds),
        "engine.driver_other_s": per_pass(whole.self_seconds),
        "engine.worker_busy_s": per_pass(chunk.seconds),
        "engine.worker_utilisation": _ratio(chunk.seconds, workers * whole.seconds),
        "engine.retries": per_pass(retries),
        "cache.load_s": per_pass(loads.seconds),
        "cache.loads": per_pass(loads.calls),
        "cache.store_s": per_pass(stores.seconds),
        "cache.stores": per_pass(stores.calls),
        "cache.hit_ratio": _ratio(attr_sum("cache.load", "hit"), loads.calls),
        "trace.unattributed_share": _ratio(
            whole.self_seconds + chunk.self_seconds, whole.seconds + chunk.seconds
        ),
    }


def table4_rows(processes: Sequence[Sequence[Span]]) -> Dict[str, List[float]]:
    """Per program, the ``classify_race`` durations in milliseconds."""
    rows: Dict[str, List[float]] = {}
    for spans in processes:
        for span in spans:
            if span.name == "classifier.classify_race":
                rows.setdefault(span.attrs["program"], []).append((span.end - span.start) * 1000.0)
    return rows
