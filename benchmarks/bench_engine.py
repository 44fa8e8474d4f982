"""Benchmark: the analysis engine (serial vs parallel, cold vs warm).

Runs the Table 1 workload list *plus* the synthetic ``stress`` (hundreds of
distinct harmless races in one trace), ``stress_deep`` (many primary paths
per race) and ``stress_harmful`` (hundreds of crash races, the
evidence-heavy classification path) workloads through the engine three
ways:

1. serially (the reference),
2. over a process pool,
3. twice against a shared cache directory (cold, then warm -- the warm run
   must classify nothing).

A/B comparisons quantify the hot-path optimizations:

* **solver cache** -- the memoizing solver on vs off on ``stress_deep``
  (wall time plus enumerated-assignment counts; the memo must cut
  enumeration by at least 30%), and
* **fault recovery** -- the pooled engine under a deterministic fault
  plan (one worker crash, one hang, one malformed result) vs the same
  fault-free run on the mixed ``stress_harmful`` + ``stress_deep`` batch:
  the supervised pool must absorb every fault (respawn >= 1, at most one
  task quarantined, zero run-wide serial downgrades), keep verdicts
  bit-identical to the serial reference, and finish within 1.5x the
  fault-free wall clock.

Classifications are verified bit-identical across all modes.  Running the
file directly emits a JSON artifact (``bench_engine.json``) with every
number, which CI uploads next to the human-readable log.  The speedup
assertions are gated on the host actually having more than one CPU: on a
single core the pool only adds process-management overhead, which is
exactly what the serial fallback exists for.
"""

import json
import os
import tempfile
import time

import repro.symex.solver as solver_mod
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine.events import fold_events, load_events
from repro.workloads import all_workload_names

WORKERS = min(4, os.cpu_count() or 1)


def _signature(runs):
    return [
        (
            run.workload.name,
            item.race.race_id,
            item.classification.value,
            item.k,
            item.paths_explored,
            item.schedules_explored,
            item.stage,
            item.paths_pruned,
        )
        for run in runs
        for item in run.result.classified
    ]


def run_comparison(names=None):
    names = list(names) if names is not None else all_workload_names(include_synthetic=True)

    started = time.perf_counter()
    serial_runs = AnalysisEngine().analyze(names)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel_runs = AnalysisEngine(options=EngineOptions(parallel=WORKERS)).analyze(
        names
    )
    parallel_seconds = time.perf_counter() - started

    with tempfile.TemporaryDirectory() as cache_dir:
        options = EngineOptions(cache_dir=cache_dir)
        started = time.perf_counter()
        AnalysisEngine(options=options).analyze(names)
        cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        warm_runs = AnalysisEngine(options=options).analyze(names)
        warm_seconds = time.perf_counter() - started
        warm_classifications = warm_runs[0].stats.classifications_computed

    outcome = {
        "serial_runs": serial_runs,
        "serial_seconds": serial_seconds,
        "parallel_runs": parallel_runs,
        "parallel_seconds": parallel_seconds,
        "cold_seconds": cold_seconds,
        "warm_runs": warm_runs,
        "warm_seconds": warm_seconds,
        "warm_classifications": warm_classifications,
    }
    outcome["solver_cache"] = run_solver_cache_comparison()
    outcome["events"] = run_events_check()
    outcome["fault_recovery"] = run_fault_recovery_comparison()
    return outcome


def run_fault_recovery_comparison(names=("stress_harmful", "stress_deep")):
    """The supervised streaming engine under injected faults vs fault-free.

    A serial run pins the reference signature; a fault-free streaming run
    pins the baseline wall clock; the faulted streaming run replays the
    identical batch under a deterministic plan injecting one worker crash,
    one 400ms hang and one malformed result into the pool workers.  The
    supervision ladder must absorb all three on the pool -- retries plus at
    least one respawn, at most one quarantined task, zero run-wide serial
    downgrades -- with bit-identical verdicts and bounded overhead.

    The hang is deliberately shorter than the 30 s chunk deadline: it is
    absorbed as latency, not escalated to a watchdog respawn, so the
    wall-clock gate measures recovery cost rather than a deadline wait (the
    watchdog path has its own tests in ``tests/test_faults.py``).
    """
    serial_runs = AnalysisEngine(options=EngineOptions(parallel=0)).analyze(
        list(names)
    )
    reference = _signature(serial_runs)

    pool_options = dict(parallel=WORKERS)
    started = time.perf_counter()
    clean_runs = AnalysisEngine(options=EngineOptions(**pool_options)).analyze(
        list(names)
    )
    clean_seconds = time.perf_counter() - started

    # The crash targets the few-race workload: a broken pool fails *every*
    # in-flight chunk, and each is re-run whole, so crashing
    # mid-stress_harmful (wide chunks) would measure that re-execution
    # instead of recovery cost.
    plan = json.dumps(
        {
            "faults": [
                {"op": "crash", "stage": "classify", "workload": "stress_deep"},
                {"op": "hang", "stage": "classify", "workload": "stress_harmful",
                 "ms": 400},
                {"op": "malformed", "stage": "classify", "workload": "stress_deep"},
            ]
        }
    )
    started = time.perf_counter()
    engine = AnalysisEngine(
        options=EngineOptions(fault_plan=plan, **pool_options)
    )
    faulted_runs = engine.analyze(list(names))
    faulted_seconds = time.perf_counter() - started
    stats = engine.last_run_stats

    return {
        "workloads": list(names),
        "workers": WORKERS,
        "clean": {"seconds": clean_seconds},
        "faulted": {
            "seconds": faulted_seconds,
            "faults_injected": stats.faults_injected,
            "task_retries": stats.task_retries,
            "pool_respawns": stats.pool_respawns,
            "tasks_quarantined": stats.tasks_quarantined,
            "deadlines_exceeded": stats.deadlines_exceeded,
            "pool_downgrades": stats.pool_downgrades,
            "pools_created": stats.pools_created,
        },
        "identical": (
            _signature(clean_runs) == reference
            and _signature(faulted_runs) == reference
        ),
        "overhead": (faulted_seconds / clean_seconds) if clean_seconds else 0.0,
    }


def run_events_check(names=("stress_deep",)):
    """Event logging on vs off: identical verdicts, fold == live counters.

    The structured event log is pure observability -- turning it on must not
    change a single verdict, and folding the JSONL stream written to disk
    must reproduce exactly the ``EngineStats`` the run reported, counter for
    counter.
    """
    pool_options = dict(parallel=WORKERS)
    plain_runs = AnalysisEngine(options=EngineOptions(**pool_options)).analyze(
        list(names)
    )
    with tempfile.TemporaryDirectory() as tmp:
        events_path = os.path.join(tmp, "events.jsonl")
        engine = AnalysisEngine(
            options=EngineOptions(events_path=events_path, **pool_options)
        )
        logged_runs = engine.analyze(list(names))
        events = load_events(events_path)
    by_kind = {}
    for event in events:
        by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
    fold = fold_events(events)
    return {
        "workloads": list(names),
        "events_total": len(events),
        "by_kind": by_kind,
        "solver_stats_events": by_kind.get("solver_stats", 0),
        "solver_queries": fold.solver_queries,
        "identical": _signature(plain_runs) == _signature(logged_runs),
        "fold_matches": fold == engine.last_run_stats,
    }


def run_solver_cache_comparison(names=("stress_deep",)):
    """The memoizing solver on vs off, serially on the deep-path workload."""
    modes = {}
    signatures = {}
    for label, enabled in (("off", False), ("on", True)):
        previous = solver_mod.set_cache_enabled_default(enabled)
        try:
            started = time.perf_counter()
            runs = AnalysisEngine().analyze(list(names))
            stats = runs[0].stats
            modes[label] = {
                "seconds": time.perf_counter() - started,
                "solver_queries": stats.solver_queries,
                "solver_cache_hits": stats.solver_cache_hits,
                "solver_enumerated": stats.solver_assignments_enumerated,
            }
            signatures[label] = _signature(runs)
        finally:
            solver_mod.set_cache_enabled_default(previous)
    enumerated_off = modes["off"]["solver_enumerated"]
    enumerated_on = modes["on"]["solver_enumerated"]
    return {
        "workloads": list(names),
        "off": modes["off"],
        "on": modes["on"],
        "identical": signatures["off"] == signatures["on"],
        "enumeration_drop": (
            (enumerated_off - enumerated_on) / enumerated_off if enumerated_off else 0.0
        ),
    }


def render(outcome):
    serial_runs = outcome["serial_runs"]
    races = sum(len(run.result.classified) for run in serial_runs)
    speedup = (
        outcome["serial_seconds"] / outcome["parallel_seconds"]
        if outcome["parallel_seconds"]
        else float("inf")
    )
    warm_speedup = (
        outcome["cold_seconds"] / outcome["warm_seconds"]
        if outcome["warm_seconds"]
        else float("inf")
    )
    solver_cache = outcome["solver_cache"]
    events = outcome["events"]
    fault_recovery = outcome["fault_recovery"]
    lines = [
        "Engine benchmark: serial vs parallel vs warm cache",
        f"{'workloads':<26} {len(serial_runs)}",
        f"{'distinct races':<26} {races}",
        f"{'worker processes':<26} {WORKERS} (host cpus: {os.cpu_count()})",
        f"{'serial wall-clock':<26} {outcome['serial_seconds']:.2f}s",
        f"{'parallel wall-clock':<26} {outcome['parallel_seconds']:.2f}s",
        f"{'parallel speedup':<26} {speedup:.2f}x",
        f"{'cold cached run':<26} {outcome['cold_seconds']:.2f}s",
        f"{'warm cached run':<26} {outcome['warm_seconds']:.2f}s  "
        f"({outcome['warm_classifications']} classifications computed)",
        f"{'warm speedup':<26} {warm_speedup:.2f}x",
        "",
        f"Solver cache ({', '.join(solver_cache['workloads'])}):",
        f"{'cache off':<26} {solver_cache['off']['seconds']:.2f}s  "
        f"({solver_cache['off']['solver_enumerated']} assignments enumerated)",
        f"{'cache on':<26} {solver_cache['on']['seconds']:.2f}s  "
        f"({solver_cache['on']['solver_enumerated']} assignments enumerated, "
        f"{solver_cache['on']['solver_cache_hits']} hits)",
        f"{'enumeration drop':<26} {solver_cache['enumeration_drop']:.1%}",
        "",
        f"Event log ({', '.join(events['workloads'])}):",
        f"{'events written':<26} {events['events_total']} "
        f"({events['solver_stats_events']} solver snapshots, "
        f"{events['solver_queries']} solver queries)",
        f"{'verdicts identical':<26} {events['identical']}",
        f"{'fold == live counters':<26} {events['fold_matches']}",
        "",
        f"Fault recovery ({', '.join(fault_recovery['workloads'])}, "
        f"{fault_recovery['workers']} workers):",
        f"{'fault-free streaming':<26} {fault_recovery['clean']['seconds']:.2f}s",
        f"{'faulted streaming':<26} {fault_recovery['faulted']['seconds']:.2f}s  "
        f"({fault_recovery['faulted']['faults_injected']} faults injected, "
        f"{fault_recovery['faulted']['task_retries']} retries, "
        f"{fault_recovery['faulted']['pool_respawns']} respawns, "
        f"{fault_recovery['faulted']['tasks_quarantined']} quarantined, "
        f"{fault_recovery['faulted']['pool_downgrades']} downgrades)",
        f"{'recovery overhead':<26} {fault_recovery['overhead']:.2f}x",
        f"{'verdicts identical':<26} {fault_recovery['identical']}",
    ]
    return "\n".join(lines)


def to_artifact(outcome):
    """The JSON artifact CI uploads: every number, no live objects."""
    return {
        "workers": WORKERS,
        "host_cpus": os.cpu_count(),
        "workloads": [run.workload.name for run in outcome["serial_runs"]],
        "distinct_races": sum(
            len(run.result.classified) for run in outcome["serial_runs"]
        ),
        "serial_seconds": outcome["serial_seconds"],
        "parallel_seconds": outcome["parallel_seconds"],
        "cold_seconds": outcome["cold_seconds"],
        "warm_seconds": outcome["warm_seconds"],
        "warm_classifications": outcome["warm_classifications"],
        "solver_cache": outcome["solver_cache"],
        "events": outcome["events"],
        "fault_recovery": outcome["fault_recovery"],
    }


def verify(outcome):
    """Correctness gates, shared by the pytest entry point and __main__.

    Running the file directly (as the CI bench job does) must fail loudly if
    parallel classification ever diverges from serial, the warm
    cache re-classifies, or the solver memo stops earning its keep.
    """
    assert _signature(outcome["serial_runs"]) == _signature(outcome["parallel_runs"])
    assert _signature(outcome["serial_runs"]) == _signature(outcome["warm_runs"])
    # Per-workload ground truth: the default list totals 93 (the paper's
    # Table 3) plus the stress slots; a names subset checks its own subset.
    for run in outcome["serial_runs"]:
        assert run.result.distinct_races() == run.workload.expected_distinct_races, (
            run.workload.name,
            run.result.distinct_races(),
        )
    # A fully warm cache must skip classification entirely.
    assert outcome["warm_classifications"] == 0
    # The solver memo cuts enumeration by >= 30% on the deep-path workload
    # without changing a single verdict.
    solver_cache = outcome["solver_cache"]
    assert solver_cache["identical"]
    assert solver_cache["enumeration_drop"] >= 0.30, solver_cache
    # Event logging is pure observability: verdicts unchanged, and folding
    # the on-disk stream reproduces the run's counters exactly.
    events = outcome["events"]
    assert events["identical"], events
    assert events["fold_matches"], events
    assert events["solver_stats_events"] > 0, events
    assert events["solver_queries"] > 0, events
    # Fault recovery: verdicts are bit-identical to serial no matter what the
    # plan injected -- recovery re-runs deterministic tasks, it never changes
    # answers.  The pooled-recovery gates (respawns fired, nothing run-wide
    # downgraded) live in the multi-core block below: on a single core the
    # engine runs serially and the driver never injects.
    fault_recovery = outcome["fault_recovery"]
    assert fault_recovery["identical"], fault_recovery
    if (os.cpu_count() or 1) > 1 and WORKERS > 1:
        # Real parallel hardware must beat the serial pipeline on a
        # multi-race batch (hundreds of independent tasks).
        assert outcome["parallel_seconds"] < outcome["serial_seconds"]
        # The supervised pool under injected faults: every fault fired and
        # was absorbed on the pool -- the crash respawned the (single) pool,
        # at most one task was quarantined, and the run never downgraded to
        # run-wide serial execution.  Recovery cost is bounded: the faulted
        # run finishes within 1.5x the fault-free wall clock.
        faulted = fault_recovery["faulted"]
        assert faulted["faults_injected"] == 3, fault_recovery
        assert faulted["task_retries"] >= 1, fault_recovery
        assert faulted["pool_respawns"] >= 1, fault_recovery
        assert faulted["tasks_quarantined"] <= 1, fault_recovery
        assert faulted["pool_downgrades"] == 0, fault_recovery
        assert faulted["pools_created"] == 1, fault_recovery
        assert (
            faulted["seconds"] <= 1.5 * fault_recovery["clean"]["seconds"]
        ), fault_recovery


def test_engine_serial_vs_parallel(benchmark, once):
    outcome = once(benchmark, run_comparison)
    print()
    print(render(outcome))
    verify(outcome)


if __name__ == "__main__":
    _outcome = run_comparison()
    print(render(_outcome))
    with open("bench_engine.json", "w", encoding="utf-8") as _handle:
        json.dump(to_artifact(_outcome), _handle, indent=2)
    verify(_outcome)
