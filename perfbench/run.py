"""Portend's benchmark: wall time to correct verdicts for a batch of programs.

Run from the repository root::

    python3 perfbench/run.py --workload paper_table1 --seed 1 --seconds 10 --trace 0

A *pass* is one ``AnalysisEngine(...).analyze_workloads(batch)`` call over
the workload's whole batch; every pass's verdicts are checked.  The seed only
permutes the batch order.  ``--trace 0`` prints the end-to-end metrics
(``batch_s``, ``races_per_s``, ``setup_s``, ``peak_rss_mb``);
``--trace 1`` instead runs untraced passes, then the same passes with the
per-layer probes of ``probes.py`` installed, and prints the per-layer
ledger, the trace overhead and one Table 4 row per program.  The last line
of standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every time reported (passes, set-up) is wall time scaled to a reference host
speed by ``hostspeed.Sampler``, which times a fixed loop throughout the run:
the CPU speed of a shared host drifts by up to 2x over tens of seconds, far
more than the regressions the bounds must catch.  The raw wall times are
printed too.  A serial workload runs pinned to one CPU, so the samples
describe the CPU the passes ran on.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import probes
from hostspeed import REFERENCE_S, Sampler
from ledger import count_failures

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: set-up is repeated this many times per run and its median reported
SETUP_REPS = 3
#: the fewest timed passes of a run, however long one pass takes
MIN_PASSES = 3

#: every PortendConfig field, pinned so no REPRO_* default changes the program
PORTEND_CONFIG = dict(
    mp=5,
    ma=2,
    symbolic_inputs=2,
    timeout_factor=5,
    max_steps_per_execution=200_000,
    max_explored_states=256,
    seed=2012,
    solver_backend="default",
    interp="tree",
    enable_adhoc_detection=True,
    enable_multi_path=True,
    enable_multi_schedule=True,
    symbolic_output_comparison=True,
)

#: every EngineOptions field except ``parallel`` and ``cache_dir``, which
#: the workload sets
ENGINE_OPTIONS = dict(
    use_semantic_predicates=False,
    granularity="auto",
    ship_primaries=True,
    cache_max_entries=None,
    dispatch="streaming",
    chunk_target_ms=500,
    events_path=None,
    warm_tier=True,
    speculate=False,
    fault_plan=None,
    max_pool_respawns=2,
    max_task_retries=2,
    task_deadline_ms=0,
)

#: Table 3 of the paper: distinct races and the split by class
TABLE3_ANCHORS = {
    "distinct": 93,
    "spec violated": 5,
    "output differs": 21,
    "k-witness states same": 6,
    "k-witness states differ": 4,
    "single ordering": 57,
}

#: the one race the paper reports Portend misclassifying (section 5.4): its
#: ground truth is "output differs", visible only through an undocumented
#: debug constant, and the expected verdict is the paper's
PAPER_VERDICTS = {("ocean", "phase_done"): "k-witness harmless"}


#: workload name -> whether it runs on the pool (BENCHMARK.json records why
#: each was chosen).  The serial one is the paper's Table 1 batch; the pooled
#: one is the whole registry with a fresh, empty cache directory per pass.
WORKLOADS = {"paper_table1": False, "pooled_registry": True}

#: a (start, end) pair of ``time.perf_counter`` readings
Interval = Tuple[float, float]

#: the metrics of an untraced run, with their units
END_TO_END_UNITS = {"batch_s": "s", "races_per_s": "races/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def pool_workers() -> int:
    """``nproc`` workers, at least two so a pool exists, at most four."""
    return min(max(2, len(os.sched_getaffinity(0))), 4)


def git_revision() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as handle:
        value = handle.read().strip()
    if not value.startswith("ref: "):
        return value
    ref = value[len("ref: "):]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.exists(loose):
        with open(loose, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def host_metadata() -> Dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)),
        "speed_reference_s": REFERENCE_S,
        "pool_workers": pool_workers(),
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "repro_env": {key: value for key, value in os.environ.items() if key.startswith("REPRO_")},
    }


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Bench:
    """One workload's batch, engine settings and verdict checks."""

    def __init__(self, pooled: bool, seed: int, scratch: str) -> None:
        from repro.workloads import all_workload_names

        self.pooled = pooled
        self.scratch = scratch
        self.names = all_workload_names(include_synthetic=pooled)
        random.Random(seed).shuffle(self.names)
        self.parallel = pool_workers() if pooled else 0
        self.batch: List = []
        self._dirs = 0
        self.expected: Dict = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    # ------------------------------------------------------------- passes

    def build(self) -> None:
        from repro.workloads import load_workload

        self.batch = [load_workload(name) for name in self.names]

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"cache-{self._dirs}")
        os.makedirs(path)
        return path

    def analyze(self, parallel: int, cache_dir: Optional[str]) -> Tuple[Interval, List, object]:
        """One pass: ``((start, end) perf_counter readings, engine runs, engine)``."""
        from repro.core.config import PortendConfig
        from repro.engine import AnalysisEngine, EngineOptions

        gc.collect()
        started = time.perf_counter()
        engine = AnalysisEngine(
            config=PortendConfig(**PORTEND_CONFIG),
            options=EngineOptions(parallel=parallel, cache_dir=cache_dir, **ENGINE_OPTIONS),
        )
        runs = engine.analyze_workloads(self.batch)
        return (started, time.perf_counter()), runs, engine

    def measured_pass(self) -> Tuple[Interval, List, object]:
        """A checked pass; a pooled one gets a fresh, empty cache directory."""
        cache_dir = self.fresh_dir() if self.pooled else None
        try:
            interval, runs, engine = self.analyze(self.parallel, cache_dir)
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        self.check(runs)
        return interval, runs, engine

    def set_up(self, speed: Sampler) -> float:
        """Build the batch and warm up once; returns the normalised seconds."""
        started = time.perf_counter()
        self.build()
        self.measured_pass()
        return speed.normalise(started, time.perf_counter())

    # ------------------------------------------------------------- checks

    def prepare_reference(self) -> None:
        """The verdicts every pass must reproduce.

        Serial workloads are scored against the programs' ground truth.  The
        pooled ones must match, race by race, the full signature of a serial
        pass over the same batch, itself scored against the ground truth.
        """
        self.build()
        truth = {
            (workload.name, variable): item.classification.value
            for workload in self.batch
            for variable, item in workload.ground_truth.items()
        }
        truth.update((key, value) for key, value in PAPER_VERDICTS.items() if key in truth)
        if not self.pooled:
            self.expected = truth
            return
        _interval, runs, _engine = self.analyze(0, None)
        if count_failures(truth, verdicts(runs))[1]:
            self.correct = False
        self.expected = signatures(runs)

    def check(self, runs: List) -> None:
        actual = signatures(runs) if self.pooled else verdicts(runs)
        attempted, failed = count_failures(self.expected, actual)
        self.attempted += attempted
        self.failed += failed
        if not self.pooled and table3_totals(runs) != TABLE3_ANCHORS:
            self.correct = False


def verdicts(runs: List) -> Dict:
    return {
        (run.workload.name, item.race.location.name): item.classification.value
        for run in runs
        for item in run.result.classified
    }


def signatures(runs: List) -> Dict:
    """Per race: class, k, paths, schedules, stage and pruned paths."""
    return {
        (run.workload.name, item.race.race_id): (
            item.classification.value,
            item.k,
            item.paths_explored,
            item.schedules_explored,
            item.stage,
            item.paths_pruned,
        )
        for run in runs
        for item in run.result.classified
    }


def table3_totals(runs: List) -> Dict[str, int]:
    totals = dict.fromkeys(TABLE3_ANCHORS, 0)
    for run in runs:
        totals["distinct"] += run.result.distinct_races()
        for item in run.result.classified:
            label = item.classification.value
            if label == "k-witness harmless":
                differ = item.evidence.post_race_states_differ
                label = "k-witness states differ" if differ else "k-witness states same"
            totals[label] += 1
    return totals


def races(runs: List) -> int:
    return sum(len(run.result.classified) for run in runs)


def timed_passes(
    bench: Bench, speed: Sampler, seconds: float, minimum: int, traced: bool = False
) -> Tuple[List[float], int, int]:
    """Passes until ``seconds`` have elapsed: ``(normalised times, races, retries)``."""
    times: List[float] = []
    raw: List[float] = []
    classified = retries = 0
    started = time.perf_counter()
    while len(times) < minimum or time.perf_counter() - started < seconds:
        span = probes.TRACER.begin("pass") if traced else None
        (pass_started, pass_ended), runs, engine = bench.measured_pass()
        if traced:
            probes.TRACER.end(span)
        raw.append(pass_ended - pass_started)
        times.append(speed.normalise(pass_started, pass_ended))
        classified += races(runs)
        retries += engine.last_run_stats.task_retries
    print(f"pass_s raw ({len(raw)} passes): {', '.join(f'{t:.4f}' for t in raw)}")
    print(f"pass_s normalised: {', '.join(f'{t:.4f}' for t in times)}")
    return times, classified, retries


def plain_interpretation_ms(workload) -> float:
    """Table 4's baseline: one run of the program, no detection, no classification."""
    from repro.runtime.compile import create_executor

    program = workload.program if workload.program.finalized else workload.program.finalize()
    executor = create_executor(program, interp=PORTEND_CONFIG["interp"])
    samples = []
    for _ in range(3):
        state = executor.initial_state(concrete_inputs=workload.inputs)
        started = time.perf_counter()
        executor.run(state)
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


def traced_run(bench: Bench, speed: Sampler, seconds: float) -> Dict[str, float]:
    """Untraced passes, then traced ones: the per-layer ledger and Table 4."""
    untraced, _races, _retries = timed_passes(bench, speed, seconds / 2, 2)
    span_dir = os.path.join(bench.scratch, "spans")
    os.makedirs(span_dir)
    installation = probes.Installation(span_dir)
    try:
        traced, classified, retries = timed_passes(bench, speed, seconds / 2, 2, traced=True)
        processes = [probes.TRACER.finished()] + probes.collect_worker_spans(span_dir)
    finally:
        installation.remove()
    passes = len(traced)
    metrics = probes.layer_metrics(
        processes, passes, classified // passes, max(bench.parallel, 1), retries
    )
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    for program, samples in sorted(probes.table4_rows(processes).items()):
        workload = next(item for item in bench.batch if item.name == program)
        plain = plain_interpretation_ms(workload)
        print(
            f"table4 {program}: plain_ms={plain:.3f} races={len(samples) // passes} "
            f"race_ms_p50={statistics.median(samples):.3f} race_ms_max={max(samples):.3f} "
            f"p50_over_plain={statistics.median(samples) / plain:.1f}x"
        )
    return metrics


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if os.environ.get("REPRO_FAULT_PLAN", "").strip():
        print("refusing to run: REPRO_FAULT_PLAN injects faults into the program", file=sys.stderr)
        return 2
    pooled = WORKLOADS[args.workload]
    if not pooled:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = Sampler().start()
    try:
        return measure(args, pooled, speed)
    finally:
        speed.stop()


def measure(args: argparse.Namespace, pooled: bool, speed: Sampler) -> int:
    """Set up, run the passes and print the result, while ``speed`` samples."""
    import_started = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro.engine  # noqa: F401
        import repro.workloads  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program under src/: {error}", file=sys.stderr)
        return 2
    import_s = speed.normalise(import_started, time.perf_counter())
    print("host: " + json.dumps(host_metadata(), sort_keys=True))

    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch)
    try:
        bench = Bench(pooled, args.seed, scratch)
        print(f"workload: {args.workload}; batch order: {', '.join(bench.names)}")
        reference_started = time.perf_counter()
        bench.prepare_reference()
        print(f"reference_s: {time.perf_counter() - reference_started:.3f} (not part of setup_s)")
        setup_s = import_s + statistics.median([bench.set_up(speed) for _ in range(SETUP_REPS)])
        if args.trace:
            metrics = traced_run(bench, speed, args.seconds)
            units = {name: unit for name, unit, _better, _moves in probes.LAYER_METRICS}
        else:
            times, classified, _retries = timed_passes(bench, speed, args.seconds, MIN_PASSES)
            metrics = {
                "batch_s": statistics.median(times),
                "races_per_s": classified / sum(times),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it
    failed_share = bench.failed / bench.attempted if bench.attempted else 1.0
    if args.trace:
        metrics["failed_share"] = failed_share
    else:
        print(f"failed_share: {failed_share} ratio ({bench.failed} of {bench.attempted} verdicts)")
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    result = {
        "correct": bench.correct and bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
