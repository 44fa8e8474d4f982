"""The batch analysis engine: record → detect → classify in one scheduler.

Portend's cost is dominated by per-race alternate-schedule exploration
(§3.3-§3.4), and every unit of that cost is independent of every other: the
races of one trace are independent classifications.  The engine runs the
pipeline in three stages:

* **Stage 1 -- record.** The driving process records each workload with
  :func:`~repro.record_replay.recorder.record_program_trace`, with the
  on-disk :class:`~repro.engine.cache.TraceCache` as the stage's backing
  store.  One recording per program is cheap next to its classification,
  so it needs no pool: it runs while the pool starts.
* **Stage 2 -- detect.** Race detection runs inline with the recording (the
  happens-before detector is an execution listener).
* **Stage 3 -- classify.** One
  :class:`~repro.engine.tasks.ClassificationTask` classifies a whole race
  with ``Portend.classify_race`` -- the same call a serial facade run
  makes.  The :class:`~repro.engine.cache.ClassificationCache` is this
  stage's backing store: warm re-runs skip classification entirely.

Every batch runs through one scheduler, the full-stream drain
(:meth:`AnalysisEngine._stream_drain`): classify chunks share one
``wait(FIRST_COMPLETED)`` loop over a
:class:`~repro.engine.dispatch.PoolSupervisor`.  The driver opens a
workload's stage-3 work as soon as it has the trace, before it records the
next workload, so the pool classifies one workload while the driver records
the next.  Each workload's races are cut into chunks by one static rule
(:func:`_chunk_size`).  A serial run is the same drain with no pool: the
supervisor executes each submitted chunk in the driving process.

Determinism: every random decision during classification derives from
``PortendConfig.race_seed(race_id, path_index)``, and results are keyed by
``(recording index, race_id)`` and consumed in trace order, so the engine
produces classifications bit-identical to the serial run regardless of
worker count or completion order.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.alternate import reset_replay_memo
from repro.core.categories import ClassifiedRace
from repro.core.config import PortendConfig
from repro.engine.cache import ClassificationCache, TraceCache
from repro.engine.dispatch import PoolDispatcher, env_int, picklable
from repro.engine.events import EventLogger, make_event, write_events
from repro.engine.faults import FaultPlan, resolve_fault_plan
from repro.engine.stats import EngineStats
from repro.engine.tasks import ClassificationTask, execute_task
from repro.explore.paths import reset_explore_memo
from repro.record_replay.recorder import record_program_trace
from repro.record_replay.trace import ExecutionTrace
from repro.symex.solver import reset_worker_caches
from repro.workloads import Workload, all_workloads, load_workload

#: monotonic source of trace tokens -- process-unique, never reused, so
#: in-driver task execution can never be served a stale memoized trace
_TRACE_TOKENS = itertools.count()


def _chunk_size(count: int, workers: int) -> int:
    """Payloads per chunk for a queue of ``count`` tasks on ``workers``.

    Two waves per worker once the queue is at least two-per-worker deep
    (a straggler chunk then idles the pool for at most one chunk), one
    wave otherwise.  Floor division keeps at least ``min(count, workers)``
    chunks: ``ceil(6 / 4)`` would pack chunks of 2 and leave a 4-worker
    pool with only 3.
    """
    if count <= 0:
        return 1
    workers = max(1, workers)
    waves = 2 if count >= 2 * workers else 1
    return max(1, count // (workers * waves))


def _task_seconds(output: Dict) -> float:
    """The worker-measured seconds of one task output (its ``task_finish``)."""
    for event in reversed(output.get("events") or ()):
        if event.get("kind") == "task_finish":
            return float(event.get("seconds", 0.0))
    return 0.0


def _default_parallel() -> int:
    return env_int("REPRO_PARALLEL", 0)


def _default_fault_plan() -> Optional[str]:
    return os.environ.get("REPRO_FAULT_PLAN", "").strip() or None


@dataclass(frozen=True)
class EngineOptions:
    """Batch-level knobs, orthogonal to the per-race :class:`PortendConfig`.

    ``parallel`` reads its default from the ``REPRO_PARALLEL`` environment
    variable, so whole test suites can run on a pool without touching each
    call site -- the CI full-stream job sets ``REPRO_PARALLEL=2``.  Explicit
    constructor arguments always win over the environment.  A set but
    malformed ``REPRO_*`` integer raises ``ValueError`` naming the variable.
    """

    #: worker processes for the pool; 0 or 1 means serial (the same drain,
    #: every chunk executed in the driving process)
    parallel: int = field(default_factory=_default_parallel)
    #: directory for the on-disk trace + classification caches; None disables
    cache_dir: Optional[str] = None
    #: also enable each workload's "what-if" semantic predicates
    use_semantic_predicates: bool = False
    #: pinned to "auto" (every stage-3 task classifies one whole race);
    #: any other value raises.  Kept only because the benchmark harness
    #: passes every field by keyword -- a benchmark change will remove it.
    granularity: str = "auto"
    #: pinned to True; False raises.  Kept only because the benchmark harness
    #: passes every field by keyword -- a benchmark change will remove it.
    ship_primaries: bool = True
    #: pinned to None (the caches keep no entry bound; the cache dir is
    #: user-managed); any other value raises.  Kept only because the
    #: benchmark harness passes every field by keyword -- a benchmark
    #: change will remove it.
    cache_max_entries: Optional[int] = None
    #: pinned to "streaming", the only scheduler; any other value raises.
    #: Kept only because the benchmark harness passes every field by
    #: keyword -- a benchmark change will remove it.
    dispatch: str = "streaming"
    #: pinned to 500 and inert: chunks follow one static rule
    #: (:func:`_chunk_size`); any other value raises.  Kept only because the
    #: benchmark harness passes every field by keyword -- a benchmark change
    #: will remove it.
    chunk_target_ms: int = 500
    #: append the run's structured event stream to this JSON-lines file when
    #: set (see :mod:`repro.engine.events`); None disables the write -- the
    #: events are still collected and folded into the run's stats either way
    events_path: Optional[str] = None
    #: pinned to True (solver caches live only as long as their process;
    #: nothing is persisted); False raises.  Kept only because the
    #: benchmark harness passes every field by keyword -- a benchmark
    #: change will remove it.
    warm_tier: bool = True
    #: pinned to False (speculative path submission was removed); True
    #: raises.  Kept only because the benchmark harness passes every field
    #: by keyword -- a benchmark change will remove it.
    speculate: bool = False
    #: deterministic fault-injection plan: inline JSON or a path to a JSON
    #: file (see :mod:`repro.engine.faults`); installed only in pool workers,
    #: so recovery -- retries, respawns, quarantine -- runs fault-free.
    #: Default from ``REPRO_FAULT_PLAN`` (none).
    fault_plan: Optional[str] = field(default_factory=_default_fault_plan)
    #: how many times a broken persistent pool may be torn down and rebuilt
    #: before the run downgrades to serial execution
    max_pool_respawns: int = 2
    #: failed executions a task may accumulate (crash / malformed result /
    #: deadline expiry) before it is quarantined to the in-driver serial path
    max_task_retries: int = 2
    #: per-chunk deadline in milliseconds for the supervised drain; 0 means
    #: the 30 s default
    task_deadline_ms: int = 0

    def __post_init__(self) -> None:
        if self.dispatch != "streaming":
            raise ValueError(
                f"unknown dispatch mode {self.dispatch!r}; the only scheduler "
                "is 'streaming'"
            )
        if self.speculate is not False:
            raise ValueError("speculative path submission was removed")
        if self.warm_tier is not True:
            raise ValueError("the persistent solver warm tier was removed")
        if self.ship_primaries is not True:
            raise ValueError(
                "the re-exploration fallback was removed"
            )
        if self.granularity != "auto":
            raise ValueError(
                f"granularity is pinned to 'auto', got {self.granularity!r}; "
                "the per-path task grain was removed"
            )
        if self.cache_max_entries is not None:
            raise ValueError(
                f"cache_max_entries is pinned to None, got {self.cache_max_entries!r}; "
                "the cache entry bound was removed"
            )
        if self.chunk_target_ms != 500:
            raise ValueError(
                f"chunk_target_ms is pinned to 500, got {self.chunk_target_ms!r}"
            )


@dataclass
class EngineRun:
    """The engine's output for one workload of the batch."""

    workload: Workload
    result: "PortendResult"
    trace_cached: bool = False
    #: races of this workload served from the classification cache
    classifications_cached: int = 0
    #: the run-level stats view folded from the run's event stream (one
    #: object shared by every EngineRun of the batch)
    stats: Optional[EngineStats] = None


@dataclass
class _Recording:
    """Stage-1 output for one workload."""

    workload: Workload
    trace: ExecutionTrace
    detection_seconds: float
    cached: bool


class AnalysisEngine:
    """Batches and parallelizes the whole record→detect→classify pipeline."""

    def __init__(
        self,
        config: Optional[PortendConfig] = None,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.config = config or PortendConfig()
        self.options = options or EngineOptions()
        #: the run's structured event stream: the single source every
        #: counter is folded from (see :mod:`repro.engine.events`)
        self.events = EventLogger()
        #: the previous run's folded stats view / event snapshot
        self.last_run_stats: Optional[EngineStats] = None
        self.last_run_events: List[Dict] = []
        #: the resolved fault-injection spec (None without a plan); resolved
        #: once here so a malformed plan fails loudly at construction, and
        #: shipped to pool workers through the dispatcher's initializer args
        self._fault_spec = resolve_fault_plan(self.options.fault_plan)
        #: owns the run's persistent pool and the supervision layer (respawn
        #: / retry / quarantine / deadlines); pool-lifecycle events land on
        #: the engine's logger
        self._dispatcher = PoolDispatcher(
            self.options.parallel,
            self.events,
            max_pool_respawns=self.options.max_pool_respawns,
            max_task_retries=self.options.max_task_retries,
            task_deadline_ms=self.options.task_deadline_ms,
            fault_spec=self._fault_spec,
        )
        self.cache = (
            TraceCache(self.options.cache_dir) if self.options.cache_dir else None
        )
        self.classification_cache = (
            ClassificationCache(self.options.cache_dir)
            if self.options.cache_dir
            else None
        )

    # ------------------------------------------------------------ run context

    def _begin_run(self, workloads: Sequence[Workload]) -> None:
        """Open a per-run context: fresh worker-lifetime caches, fresh event
        stream.  Enforced here so back-to-back runs in one process can never
        bleed counters or warm solver state into each other."""
        reset_worker_caches()
        reset_replay_memo()
        reset_explore_memo()
        # Snapshot the claim ledger so only faults fired *during this run*
        # replay as events at run finish.
        self._fault_claims_baseline: Sequence[str] = ()
        if self._fault_spec is not None:
            self._fault_claims_baseline = FaultPlan(self._fault_spec).claim_names()
        self.events.reset()
        self.events.emit(
            "run_start",
            workloads=[workload.name for workload in workloads],
            parallel=self.options.parallel,
        )
        self._run_started = time.perf_counter()

    def _finish_run(self) -> EngineStats:
        """Close the run: snapshot the event stream, fold it into the run's
        stats view, and append the JSONL file when configured."""
        # Flush recovery records the drain loop did not replay itself (a
        # drain that raised before its own replay).
        self._dispatcher.drain_recovery()
        # Replay faults fired this run from the plan's claim ledger: a crashed
        # worker cannot report its own injection, but its claim file -- written
        # *before* acting -- survives, so the driver reconstructs the event
        # stream deterministically, ordered by (fault index, slot).
        if self._fault_spec is not None:
            plan = FaultPlan(self._fault_spec)
            for record in plan.claimed_records(exclude=self._fault_claims_baseline):
                self.events.emit(
                    "fault_injected",
                    op=record.get("op", "?"),
                    stage=record.get("stage"),
                    workload=record.get("workload"),
                    fault_index=record["index"],
                    slot=record["slot"],
                )
        self.events.emit(
            "run_finish", seconds=time.perf_counter() - self._run_started
        )
        self.last_run_events = self.events.snapshot()
        self.last_run_stats = self.events.fold()
        if self.options.events_path:
            write_events(self.last_run_events, self.options.events_path)
        return self.last_run_stats

    # ---------------------------------------------------------------- pipeline

    def analyze(
        self,
        names: Optional[Sequence[str]] = None,
        include_micro: bool = True,
    ) -> List[EngineRun]:
        """Run the pipeline over named workloads (default: Table 1)."""
        if names is None:
            workloads = all_workloads(include_micro=include_micro)
        else:
            workloads = [load_workload(name) for name in names]
        return self.analyze_workloads(workloads)

    def analyze_workloads(self, workloads: Sequence[Workload]) -> List[EngineRun]:
        """Analyze every workload: record, detect, classify -- one scheduler.

        One batch run: the dispatcher's persistent pool is warmed eagerly
        when the run starts, reused by every submission, and torn down when
        the run finishes.  The whole pipeline runs in a single run-wide
        drain (:meth:`_stream_pipeline`): a workload's classification work
        is submitted the moment the driver has recorded it, so the pool
        classifies one workload while the driver records the next.  Serial
        runs go through the same drain with no pool.

        The driving process's worker-lifetime solver caches start fresh per
        run (pool workers get the same via the pool initializer), so runs
        cannot observe each other's warm state; likewise the event stream is
        per-run, folded into a stats view when the run finishes
        (``run.stats`` / ``engine.last_run_stats``).
        """
        self._begin_run(workloads)
        try:
            # Eager warm-up: pool construction + worker spin-up overlap the
            # cache probes and the first recording instead of delaying the
            # first real task.
            self._dispatcher.warm()
            runs = self._stream_pipeline(workloads)
        finally:
            self._dispatcher.shutdown()
            stats = self._finish_run()
        for run in runs:
            run.stats = stats
        return runs

    # ------------------------------------------------------------ full stream

    def _stream_pipeline(self, workloads: Sequence[Workload]) -> List[EngineRun]:
        """The run-wide scheduler: the driver records, the pool classifies.

        The trace cache is probed for every workload first.  The drain
        (:meth:`_stream_drain`) then opens the stage-3 work of every
        trace-cache hit, and records each miss in the driving process, in
        batch order, opening its stage-3 work before it records the next
        workload: classification of workload A runs on the pool while the
        driver records workload B.  Chunks follow :func:`_chunk_size`.

        Without a pool -- a serial run or a pool that cannot be built --
        the drain runs over a supervisor with no pool, which executes every
        chunk in the driving process; a workload whose stage-3 payloads do
        not pickle runs that way on a pooled run too.  Nothing is emitted
        into the event stream until the drain finishes, and the replay
        walks workloads in batch order and races in trace order, so the
        merged stream is structurally bit-identical across completion
        interleavings -- and verdicts are bit-identical to a serial run
        because every task is deterministic and results are consumed keyed
        by ``(index, race_id)``, never in completion order.  Cache files,
        though, are written during the drain: a trace when it is recorded,
        a workload's one classification file when its last missed race
        lands.  Payloads carry the recorded trace and the config as objects;
        only the cache files encode them.  Program fingerprints are memoised
        per object.
        """
        fingerprints = [
            TraceCache.program_fingerprint(workload.program) for workload in workloads
        ]
        pool = self._dispatcher.acquire() if workloads else None
        recordings: List[Optional[_Recording]] = [None] * len(workloads)
        #: per-workload trace-cache probe result; None = cache disabled
        trace_hits: List[Optional[bool]] = [None] * len(workloads)
        if self.cache is not None:
            for index, workload in enumerate(workloads):
                cached = self.cache.load(
                    workload.name, workload.inputs, self.config, fingerprints[index]
                )
                trace_hits[index] = cached is not None
                if cached is not None:
                    recordings[index] = _Recording(workload, cached, 0.0, True)
        return self._stream_drain(pool, workloads, fingerprints, recordings, trace_hits)

    def _stream_drain(
        self, pool, workloads, fingerprints, recordings, trace_hits
    ) -> List[EngineRun]:
        """Record the trace-cache misses, drive the classification drain,
        then replay the canonical event stream and merge (see
        :meth:`_stream_pipeline`)."""
        # Pool width at drain start: chunk sizes must not depend on whether
        # the pool dies (and downgrades) mid-drain.
        workers = max(1, self.options.parallel or 1) if pool is not None else 1
        count = len(workloads)

        slots: List[Dict[int, ClassifiedRace]] = [{} for _ in range(count)]
        contexts: List[Optional[Dict]] = [None] * count
        #: per-workload classification-cache probe results, trace order
        cls_hits: List[Set[int]] = [set() for _ in range(count)]
        #: file key -> what its one load served: a workload listed twice
        #: reads its file once, before any copy writes it, so hits never
        #: follow completion timing
        opened: Dict[str, Dict[int, ClassifiedRace]] = {}
        #: per workload: its classification file's key and its missed races
        #: not yet landed (the file holds the served and the computed races)
        file_keys: List[str] = [""] * count
        unlanded: List[int] = [0] * count
        race_misses: List[List[int]] = [[] for _ in range(count)]

        #: per recorded workload: its record task events
        recorded: Dict[int, List[Dict]] = {}
        #: per computed race: its task events, absorbed in the replay
        race_events: Dict[Tuple[int, int], List[Dict]] = {}
        #: chunk decisions keyed (workload index, chunk start): replayed in
        #: that canonical order, never in completion order
        decisions: Dict[Tuple[int, int], Dict] = {}
        # Every submission rides the run's supervisor: a crash, hang or
        # malformed result retries / respawns / quarantines per the
        # degradation ladder in :mod:`repro.engine.dispatch` instead of
        # aborting the stream.  The engine's module-global ``wait`` is
        # injected so it stays the test suite's monkeypatch seam.
        supervisor = self._dispatcher.supervise(pool, wait_fn=wait)

        def record(index):
            """Record (and race-detect) one trace-cache miss in the driver
            and store its trace."""
            workload = workloads[index]
            started = make_event("task_start", stage="record", workload=workload.name)
            trace, detection_seconds = record_program_trace(
                workload.program,
                concrete_inputs=dict(workload.inputs),
                max_steps=self.config.max_steps_per_execution,
            )
            if self.cache is not None:
                self.cache.store(
                    workload.name, workload.inputs, self.config, trace, fingerprints[index]
                )
            recordings[index] = _Recording(workload, trace, detection_seconds, False)
            finished = make_event(
                "task_finish",
                stage="record",
                workload=workload.name,
                seconds=detection_seconds,
            )
            recorded[index] = [started, finished]

        def open_classification(index):
            """Probe the classification cache for one recording and submit
            its stage-3 work in :func:`_chunk_size` chunks."""
            recording = recordings[index]
            workload = recording.workload
            predicates = list(workload.predicates)
            if self.options.use_semantic_predicates:
                predicates += list(workload.semantic_predicates)
            context = {
                "predicates": tuple(predicates),
                "program_fingerprint": fingerprints[index],
            }
            contexts[index] = context
            races = recording.trace.races
            if self.classification_cache is None:
                misses = [race.race_id for race in races]
            else:
                file_key = ClassificationCache.file_key(
                    workload.name,
                    workload.inputs,
                    self.config,
                    fingerprints[index],
                    self.options.use_semantic_predicates,
                    ClassificationCache.predicate_fingerprint(predicates),
                )
                file_keys[index] = file_key
                if file_key not in opened:
                    opened[file_key] = (
                        self.classification_cache.load(
                            workload.name, file_key, [race.race_id for race in races]
                        )
                        or {}
                    )
                served = opened[file_key]
                misses = []
                for race in races:
                    hit = served.get(race.race_id)
                    if hit is None:
                        misses.append(race.race_id)
                        continue
                    slots[index][race.race_id] = hit
                    cls_hits[index].add(race.race_id)
            if not misses:
                return
            race_misses[index] = misses
            unlanded[index] = len(misses)
            # The token lets task executors share one copy of the trace.
            context["trace_token"] = f"{os.getpid()}:{next(_TRACE_TOKENS)}"
            # A closure-bearing workload does not pickle: its stage 3 runs
            # in the driver.
            inline = pool is None or not picklable(
                workload.program, context["predicates"]
            )
            payloads = [
                self._task_payload(recordings, contexts, index, race_id)
                for race_id in misses
            ]
            size = _chunk_size(len(payloads), workers)
            for start in range(0, len(payloads), size):
                supervisor.submit(
                    execute_task,
                    payloads[start : start + size],
                    tag=(index, start, misses[start : start + size]),
                    inline=inline,
                )

        # Trace-cached workloads need no recording: their stage-3 work
        # enters the pool first and runs while the driver records the rest.
        for index in range(count):
            if recordings[index] is not None:
                open_classification(index)
        for index in range(count):
            if recordings[index] is None:
                record(index)
                open_classification(index)

        while not supervisor.done:
            for (index, start, chunk_misses), chunk_outputs in supervisor.wait_some():
                for race_id, item in zip(chunk_misses, chunk_outputs):
                    race_events[(index, race_id)] = item.get("events")
                    slots[index][race_id] = item["classified"]
                # Count races, not chunks: the file is written once, when
                # the workload's last missed race lands.
                unlanded[index] -= len(chunk_misses)
                if self.classification_cache is not None and not unlanded[index]:
                    self.classification_cache.store(
                        workloads[index].name, file_keys[index], slots[index]
                    )
                decisions[(index, start)] = {
                    "stage": "classify",
                    "chunk_size": len(chunk_outputs),
                    "actual_seconds": sum(map(_task_seconds, chunk_outputs)),
                }

        # ------------------------------------------------- canonical replay
        # The drain finished; emit the run's events in batch order, exactly
        # once, independent of the completion interleaving above.
        for index in range(count):
            if trace_hits[index] is not None:
                self.events.emit("cache", tier="trace", hit=trace_hits[index])
        for index in sorted(recorded):
            self.events.absorb(recorded[index])
            self.events.emit("trace_recorded", workload=workloads[index].name)
        if self.classification_cache is not None:
            for index in range(count):
                for race in recordings[index].trace.races:
                    self.events.emit(
                        "cache",
                        tier="classification",
                        hit=race.race_id in cls_hits[index],
                    )
        for index in range(count):
            for race_id in race_misses[index]:
                self.events.emit(
                    "task_submit",
                    stage="classify",
                    workload=workloads[index].name,
                    race=race_id,
                )
            for race_id in race_misses[index]:
                self.events.absorb(race_events[(index, race_id)])
                self.events.emit(
                    "classification_computed",
                    workload=workloads[index].name,
                    race=race_id,
                )
        for key in sorted(decisions):
            self.events.emit("scheduler_decision", **decisions[key])
        # Recovery records (retries, respawns, quarantines, deadline hits)
        # replay here, after the drain, exactly like scheduler decisions:
        # buffered at nondeterministic moments, emitted in canonical order.
        self._dispatcher.drain_recovery()
        return self._finalize_runs(recordings, slots, cls_hits)

    # ---------------------------------------------------------------- stage 3

    def _finalize_runs(
        self, recordings, slots, cls_hits
    ) -> List[EngineRun]:
        """Assemble the batch's EngineRuns from the filled classification
        slots."""
        from repro.core.portend import PortendResult

        runs: List[EngineRun] = []
        for index, recording in enumerate(recordings):
            result = PortendResult(program=recording.trace.program, trace=recording.trace)
            result.detection_seconds = recording.detection_seconds
            result.classified = [
                slots[index][race.race_id] for race in recording.trace.races
            ]
            result.classification_seconds = sum(
                item.analysis_seconds for item in result.classified
            )
            runs.append(
                EngineRun(
                    workload=recording.workload,
                    result=result,
                    trace_cached=recording.cached,
                    classifications_cached=len(cls_hits[index]),
                )
            )
        return runs

    def _task_payload(self, recordings, contexts, index: int, race_id: int) -> Dict:
        """Build one stage-3 :class:`ClassificationTask` payload."""
        return ClassificationTask(
            workload=recordings[index].workload.name,
            race_id=race_id,
            trace=recordings[index].trace,
            config=self.config,
            program=recordings[index].workload.program,
            predicates=contexts[index]["predicates"],
            trace_token=contexts[index]["trace_token"],
            program_fingerprint=contexts[index]["program_fingerprint"],
        ).to_payload()

