"""The batch analysis engine: record → detect → classify in one scheduler.

Portend's cost is dominated by per-race alternate-schedule exploration
(§3.3-§3.4), and every unit of that cost is independent of every other: the
workload recordings are independent programs, the races of one trace are
independent classifications, and the Mp primary paths of one race are
independent explorations.  The engine exploits all three levels:

* **Stage 1 -- record.** Each workload's recording is a
  :class:`~repro.engine.tasks.RecordTask`, with the on-disk
  :class:`~repro.engine.cache.TraceCache` as the stage's backing store.
* **Stage 2 -- detect.** Race detection runs inline with the recording (the
  happens-before detector is an execution listener), so detection rides the
  same queue instead of a separate serial pass.
* **Stage 3 -- classify.** At *race* granularity one
  :class:`~repro.engine.tasks.ClassificationTask` classifies a whole race; at
  *path* granularity a :class:`~repro.engine.tasks.PlanTask` per race runs
  Algorithm 1 and counts the primary paths, one
  :class:`~repro.engine.tasks.PathTask` per ``(race, primary-path)`` returns
  a partial :class:`~repro.core.multi_path.PathVerdict`, and a deterministic
  merge in this module recombines the partials into a ``ClassifiedRace``
  bit-identical to the serial result.  The
  :class:`~repro.engine.cache.ClassificationCache` is this stage's backing
  store: warm re-runs skip classification entirely.

Every batch runs through one scheduler, the full-stream drain
(:meth:`AnalysisEngine._stream_drain`): record, classify, plan and path
chunks all share one ``wait(FIRST_COMPLETED)`` loop over a
:class:`~repro.engine.dispatch.PoolSupervisor`.  A landed recording
immediately submits its workload's stage-3 work, and a landed plan
immediately fans out its :class:`~repro.engine.tasks.PathTask` chunks, so
stage 3 of one workload overlaps stage 1 of the next and the pool never
idles at a stage boundary.  Chunk sizes and submission order come from an
online cost model (:mod:`repro.engine.costmodel`).  A serial run is the same
drain with no pool: the supervisor executes each submitted chunk in the
driving process.

Determinism: every random decision during classification derives from
``PortendConfig.race_seed(race_id, path_index)``, and partial results are
keyed by ``(recording index, race_id, path_index)`` and merged in path
order, so the engine produces classifications bit-identical to the serial
run regardless of worker count, task granularity, or completion order.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.alternate import reset_replay_memo
from repro.core.categories import ClassifiedRace
from repro.core.classifier import (
    SingleStageOutcome,
    finalize_multipath,
    finalize_single,
)
from repro.core.config import PortendConfig
from repro.core.multi_path import PathVerdict, merge_path_verdicts
from repro.engine.cache import ClassificationCache, TraceCache
from repro.engine.costmodel import CostModel
from repro.engine.dispatch import PoolDispatcher, env_int, picklable
from repro.engine.events import EventLogger, write_events
from repro.engine.faults import FaultPlan, resolve_fault_plan
from repro.engine.stats import EngineStats
from repro.engine.tasks import (
    ClassificationTask,
    PathTask,
    PlanTask,
    RecordTask,
    execute_path_task,
    execute_plan_task,
    execute_record_task,
    execute_task,
)
from repro.explore.paths import reset_explore_memo
from repro.record_replay.trace import ExecutionTrace
from repro.symex.solver import reset_worker_caches
from repro.workloads import Workload, all_workloads, load_workload

#: stage-3 task granularities (see EngineOptions.granularity)
GRANULARITIES = ("auto", "race", "path")

#: monotonic source of trace tokens -- process-unique, never reused, so
#: in-driver task execution can never be served a stale memoized trace
_TRACE_TOKENS = itertools.count()


def _default_parallel() -> int:
    return env_int("REPRO_PARALLEL", 0)


def _default_fault_plan() -> Optional[str]:
    return os.environ.get("REPRO_FAULT_PLAN", "").strip() or None


def _default_max_pool_respawns() -> int:
    return env_int("REPRO_MAX_POOL_RESPAWNS", 2)


def _default_max_task_retries() -> int:
    return env_int("REPRO_MAX_TASK_RETRIES", 2)


def _default_task_deadline_ms() -> int:
    return env_int("REPRO_TASK_DEADLINE_MS", 0)


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
    #: stage-3 task granularity: "race" classifies a whole race per task,
    #: "path" fans each race out into per-primary-path tasks, and "auto"
    #: adapts per workload when a pool is in use (see
    #: :func:`choose_granularity`) and stays at "race" serially
    granularity: str = "auto"
    #: pinned to True (every path task classifies the primary its plan
    #: shipped); False raises.  Kept only because the benchmark harness
    #: passes every field by keyword -- a benchmark change will remove it.
    ship_primaries: bool = True
    #: on-disk entry bound for each cache layer (LRU-evicted beyond it);
    #: None means unbounded
    cache_max_entries: Optional[int] = None
    #: pinned to "streaming", the only scheduler; any other value raises.
    #: Kept only because the benchmark harness passes every field by
    #: keyword -- a benchmark change will remove it.
    dispatch: str = "streaming"
    #: pinned to 500, the cost model's per-chunk wall-clock target in
    #: milliseconds (see :mod:`repro.engine.costmodel`); any other value
    #: raises.  Kept only because the benchmark harness passes every field
    #: by keyword -- a benchmark change will remove it.
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
    #: before the run downgrades to serial execution.  Default from
    #: ``REPRO_MAX_POOL_RESPAWNS`` (2).
    max_pool_respawns: int = field(default_factory=_default_max_pool_respawns)
    #: failed executions a task may accumulate (crash / malformed result /
    #: deadline expiry) before it is quarantined to the in-driver serial
    #: path.  Default from ``REPRO_MAX_TASK_RETRIES`` (2).
    max_task_retries: int = field(default_factory=_default_max_task_retries)
    #: flat per-chunk deadline in milliseconds for the supervised drain; 0
    #: derives a deadline per chunk from the cost model's latency estimate
    #: (with a generous floor, see ``REPRO_DEADLINE_FLOOR_MS``).  Default
    #: from ``REPRO_TASK_DEADLINE_MS`` (0 = cost-model auto).
    task_deadline_ms: int = field(default_factory=_default_task_deadline_ms)

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
                "the re-exploration fallback was removed; path tasks always "
                "classify their shipped primary"
            )
        if self.chunk_target_ms != 500:
            raise ValueError(
                f"chunk_target_ms is pinned to 500, got {self.chunk_target_ms!r}"
            )


def choose_granularity(
    distinct_races: int,
    workers: int,
    race_cost: float = 0.0,
    split_cost: float = 0.0,
) -> str:
    """Pick a stage-3 grain for one workload from the batch shape.

    Worker count alone is a bad signal: per-path tasks exist to keep a pool
    busy, but a workload whose trace already contains more races than the
    pool is wide gets all the concurrency it needs from per-race tasks, and
    the path fan-out only adds plan/merge overhead.  The chooser therefore
    keys on *distinct races per workload versus pool width*: an
    ``experiments all --parallel N`` batch classifies SQLite-like workloads
    (one race) at path granularity and stress-like workloads (hundreds of
    races) at race granularity within the same run.

    The 2x headroom factor keeps per-race tasks from merely matching the
    pool width: with fewer than two waves of race tasks per worker, stragglers
    leave the pool idle at the tail, which is exactly where path fan-out pays.

    When the cost model has latency history for the workload, the shape rule
    is refined by *expected cost*: ``race_cost`` is the estimated seconds to
    classify one race whole, ``split_cost`` the estimated plan + per-path
    seconds of splitting it.  Splitting only shortens the critical path when
    the per-path pieces are cheaper than the whole-race task; when the
    history says ``split_cost >= race_cost`` (the plan overhead dominates),
    the fan-out cannot pay and the chooser stays at race granularity.  Cold
    estimates (zeros) leave the shape-based decision untouched.
    """
    if workers is None or workers <= 1:
        return "race"
    if distinct_races >= 2 * workers:
        return "race"
    if race_cost > 0.0 and split_cost > 0.0 and split_cost >= race_cost:
        return "race"
    return "path"


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
    #: program content hash, computed once per workload and reused by the
    #: classification-cache keys and the cost model
    program_fingerprint: str = ""


class AnalysisEngine:
    """Batches and parallelizes the whole record→detect→classify pipeline."""

    def __init__(
        self,
        config: Optional[PortendConfig] = None,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.config = config or PortendConfig()
        self.options = options or EngineOptions()
        if self.options.granularity not in GRANULARITIES:
            raise ValueError(
                f"unknown granularity {self.options.granularity!r}; "
                f"expected one of {', '.join(GRANULARITIES)}"
            )
        #: the run's structured event stream: the single source every
        #: counter is folded from (see :mod:`repro.engine.events`)
        self.events = EventLogger()
        #: the previous run's folded stats view / event snapshot
        self.last_run_stats: Optional[EngineStats] = None
        self.last_run_events: List[Dict] = []
        #: the engine's online cost model: chunk sizing + submission order,
        #: learned in memory and never persisted
        self.cost_model = CostModel()
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
            TraceCache(self.options.cache_dir, max_entries=self.options.cache_max_entries)
            if self.options.cache_dir
            else None
        )
        self.classification_cache = (
            ClassificationCache(
                self.options.cache_dir, max_entries=self.options.cache_max_entries
            )
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
        # Apply any driver-side sidecar corruption up front (the fuzzing
        # half of the fault plan), and snapshot the claim ledger so only
        # faults fired *during this run* replay as events at run finish.
        self._fault_claims_baseline: Sequence[str] = ()
        if self._fault_spec is not None:
            plan = FaultPlan(self._fault_spec)
            self._fault_claims_baseline = plan.claim_names()
            plan.apply_sidecar_faults(self.options.cache_dir)
        self.events.reset()
        self.events.emit(
            "run_start",
            workloads=[workload.name for workload in workloads],
            parallel=self.options.parallel,
            granularity=self.options.granularity,
        )
        self._run_started = time.perf_counter()

    def _finish_run(self) -> EngineStats:
        """Close the run: snapshot the event stream, fold it into the run's
        stats view, and append the JSONL file when configured."""
        # Flush recovery records the drain loops did not replay themselves
        # (e.g. a warm-up respawn on a fully-cached run that never dispatched).
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
        is submitted the moment its recording lands, so stage 3 of one
        workload overlaps stage 1 of the next.  Serial runs go through the
        same drain with no pool.

        The driving process's worker-lifetime solver caches start fresh per
        run (pool workers get the same via the pool initializer), so runs
        cannot observe each other's warm state; likewise the event stream is
        per-run, folded into a stats view when the run finishes
        (``run.stats`` / ``engine.last_run_stats``).
        """
        self._begin_run(workloads)
        try:
            # Eager warm-up: pool construction + worker spin-up overlap the
            # cache probes below instead of delaying the first real task.
            self._dispatcher.warm()
            runs = self._stream_pipeline(workloads)
        finally:
            self._dispatcher.shutdown()
            stats = self._finish_run()
        for run in runs:
            run.stats = stats
        return runs

    # ------------------------------------------------------------ full stream

    def _workload_granularity(
        self, distinct_races: int, costs: Tuple[float, float], workers: int
    ) -> str:
        """The per-workload stage-3 grain.

        ``costs`` is the workload's ``(race_cost, split_cost)`` estimate
        pair and ``workers`` the width of the pool its tasks will run on (1
        in the driver), both frozen at drain start so mid-drain cost-model
        updates cannot make the choice depend on completion order.
        """
        if self.options.granularity != "auto":
            return self.options.granularity
        race_cost, split_cost = costs
        return choose_granularity(
            distinct_races, workers, race_cost=race_cost, split_cost=split_cost
        )

    def _stream_pipeline(self, workloads: Sequence[Workload]) -> List[EngineRun]:
        """The run-wide scheduler: record, classify, plan and path chunks in
        one ``wait(FIRST_COMPLETED)`` loop.

        Stage 1 and stage 3 overlap across workloads: the moment a
        RecordTask lands, its workload's classification work (cache probes,
        then ClassificationTask chunks or PlanTasks) is submitted to the
        same supervisor, and each finished PlanTask immediately fans out its
        PathTask chunks -- so classification of workload A runs while
        workload B is still recording.  Chunk sizes and submission order
        come from the run's :class:`~repro.engine.costmodel.CostModel`.

        Without a pool -- a serial run, a pool that cannot be built, record
        payloads that do not pickle -- the drain runs over a supervisor with
        no pool, which executes every chunk in the driving process.  Nothing
        is emitted into the event stream until the drain finishes, and the
        replay walks workloads in batch order (path partials sorted by path
        index), so the merged stream is structurally bit-identical across
        completion interleavings -- and verdicts are bit-identical to a
        serial run because every task is deterministic and the merge
        consumes results keyed by ``(index, race_id, path_index)`` in path
        order, never in completion order.
        """
        config_data = self.config.to_dict()
        fingerprints = [
            TraceCache.program_fingerprint(workload.program) for workload in workloads
        ]
        record_payloads: Dict[int, Dict] = {
            index: RecordTask(
                workload=workload.name,
                inputs=dict(workload.inputs),
                config=config_data,
                # Attach the actual program: the batch may contain what-if
                # variants that differ from the registry build.
                program=workload.program,
                program_fingerprint=fingerprints[index],
            ).to_payload()
            for index, workload in enumerate(workloads)
        }
        pool = self._dispatcher.acquire_for(list(record_payloads.values()))
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
                    recordings[index] = _Recording(
                        workload, cached, 0.0, True, fingerprints[index]
                    )
                    del record_payloads[index]
        return self._stream_drain(
            pool,
            workloads,
            fingerprints,
            recordings,
            trace_hits,
            record_payloads,
            config_data,
        )

    def _stream_drain(
        self,
        pool,
        workloads,
        fingerprints,
        recordings,
        trace_hits,
        record_payloads,
        config_data,
    ) -> List[EngineRun]:
        """Drive the full-stream drain loop, then replay the canonical event
        stream and merge (see :meth:`_stream_pipeline`)."""
        model = self.cost_model
        # Pool width at drain start: grain choices and chunk sizes must not
        # depend on whether the pool dies (and downgrades) mid-drain.
        workers = max(1, self.options.parallel or 1) if pool is not None else 1
        count = len(workloads)

        slots: List[Dict[int, ClassifiedRace]] = [{} for _ in range(count)]
        cached_counts: List[int] = [0] * count
        contexts: List[Optional[Dict]] = [None] * count
        #: per-workload classification-cache probe results, trace order
        cls_hits: List[Set[int]] = [set() for _ in range(count)]
        race_misses: List[List[Tuple[int, int, str]]] = [[] for _ in range(count)]
        path_misses: List[List[Tuple[int, int, str]]] = [[] for _ in range(count)]
        #: workloads whose stage-3 payloads run in the driver (no pool, or
        #: they do not pickle)
        inline: Set[int] = set()

        record_outputs: Dict[int, Dict] = {}
        race_outputs: Dict[Tuple[int, int], Dict] = {}
        plans: Dict[Tuple[int, int], Dict] = {}
        partials: Dict[Tuple[int, int], List[Dict]] = {}
        decisions: List[Dict] = []
        in_flight = {"record": 0, "classify": 0, "plan": 0, "path": 0}
        # Scheduling inputs are frozen *before* the drain starts: the cost
        # model keeps learning mid-drain (observe_output), and reading live
        # estimates inside the loop would make grain choices depend on
        # completion order -- breaking the structural bit-identity the
        # shuffled-completion harness enforces.
        cost_frozen = [model.split_costs(fingerprint) for fingerprint in fingerprints]
        #: logical dispatch batches riding the already-acquired pool (inline
        #: batches do not count); the replay emits one ``pool reused`` per
        #: batch, independent of how many chunks the cost model packed
        pooled_batches = 0
        record_clock = _OverlapClock()
        plan_clock = _OverlapClock()
        # Every submission rides the run's supervisor: a crash, hang or
        # malformed result retries / respawns / quarantines per the
        # degradation ladder in :mod:`repro.engine.dispatch` instead of
        # aborting the stream.  The engine's module-global ``wait`` is
        # injected so it stays the test suite's monkeypatch seam.
        supervisor = self._dispatcher.supervise(pool, wait_fn=wait)

        def update_clocks():
            stage3 = in_flight["classify"] + in_flight["plan"] + in_flight["path"]
            record_clock.update(in_flight["record"], stage3)
            plan_clock.update(in_flight["plan"], in_flight["path"])

        def submit_chunks(kind, stage_misses, payloads, index):
            """Submit one logical batch as cost-sized chunks."""
            nonlocal pooled_batches
            if index not in inline:
                pooled_batches += 1
            size = model.chunk_size(kind, fingerprints[index], len(payloads), workers)
            estimate = model.estimate(kind, fingerprints[index])
            worker_fn = execute_task if kind == "classify" else execute_path_task
            for start in range(0, len(payloads), size):
                chunk_payloads = payloads[start : start + size]
                ref = (
                    stage_misses[start : start + size]
                    if kind == "classify"
                    else stage_misses
                )
                supervisor.submit(
                    worker_fn,
                    chunk_payloads,
                    tag=(
                        kind,
                        (ref, estimate * len(chunk_payloads), fingerprints[index]),
                    ),
                    estimate=estimate * len(chunk_payloads),
                    inline=index in inline,
                )
                in_flight[kind] += 1

        def open_classification(index):
            """Probe the classification cache for one landed recording and
            submit its stage-3 work."""
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
            predicate_fingerprint = ""
            if self.classification_cache is not None:
                predicate_fingerprint = ClassificationCache.predicate_fingerprint(
                    predicates
                )
            misses: List[Tuple[int, int, str]] = []
            for race in recording.trace.races:
                key = ""
                if self.classification_cache is not None:
                    key = ClassificationCache.key(
                        workload.name,
                        workload.inputs,
                        self.config,
                        race.race_id,
                        program_fingerprint=fingerprints[index],
                        use_semantic_predicates=self.options.use_semantic_predicates,
                        predicate_fingerprint=predicate_fingerprint,
                    )
                    cached = self.classification_cache.load(workload.name, key)
                    if cached is not None:
                        cached_counts[index] += 1
                        cls_hits[index].add(race.race_id)
                        slots[index][race.race_id] = cached
                        continue
                misses.append((index, race.race_id, key))
            if not misses:
                return
            # Serialize traces lazily: only workloads with at least one
            # cache miss pay for the wire format.  The token lets task
            # executors share one deserialization per trace.
            context["trace_data"] = recording.trace.to_dict()
            context["trace_token"] = f"{os.getpid()}:{next(_TRACE_TOKENS)}"
            # Record payloads carry no predicates, so a closure-bearing
            # workload is only found unpicklable here; its stage 3 runs in
            # the driver, at race grain under "auto" (path fan-out would
            # buy no concurrency there).
            width = workers
            if pool is None or not picklable(workload.program, context["predicates"]):
                inline.add(index)
                width = 1
            grain = self._workload_granularity(
                len(recording.trace.races), cost_frozen[index], width
            )
            if grain == "race":
                race_misses[index] = misses
                payloads = [
                    self._task_payload(
                        ClassificationTask,
                        recordings,
                        contexts,
                        config_data,
                        miss_index,
                        race_id,
                    )
                    for miss_index, race_id, _key in misses
                ]
                submit_chunks("classify", misses, payloads, index)
            else:
                path_misses[index] = misses
                for miss in misses:
                    payload = self._task_payload(
                        PlanTask, recordings, contexts, config_data, miss[0], miss[1]
                    )
                    supervisor.submit(
                        execute_plan_task,
                        [payload],
                        tag=("plan", miss),
                        estimate=model.estimate("plan", fingerprints[index]),
                        inline=index in inline,
                    )
                    in_flight["plan"] += 1

        # Submit the record queue longest-expected-first so the straggler
        # workload starts recording before its faster siblings fill the pool.
        record_order = sorted(
            record_payloads,
            key=lambda index: -model.estimate("record", fingerprints[index]),
        )
        for index in record_order:
            supervisor.submit(
                execute_record_task,
                [record_payloads[index]],
                tag=("record", index),
                estimate=model.estimate("record", fingerprints[index]),
            )
            in_flight["record"] += 1
        # Trace-cached workloads skip stage 1 entirely: their stage-3 work
        # enters the scheduler immediately and overlaps the live recordings.
        for index in range(count):
            if recordings[index] is not None:
                open_classification(index)
        update_clocks()

        while not supervisor.done:
            for tag, chunk_outputs in supervisor.wait_some():
                kind, ref = tag
                in_flight[kind] -= 1
                if kind == "record":
                    output = chunk_outputs[0]
                    index = ref
                    workload = workloads[index]
                    trace = ExecutionTrace.from_dict(output["trace"])
                    if self.cache is not None:
                        self.cache.store(
                            workload.name,
                            workload.inputs,
                            self.config,
                            trace,
                            fingerprints[index],
                        )
                    recordings[index] = _Recording(
                        workload,
                        trace,
                        output["detection_seconds"],
                        False,
                        fingerprints[index],
                    )
                    record_outputs[index] = output
                    model.observe_output("record", fingerprints[index], output)
                    open_classification(index)
                elif kind == "plan":
                    output = chunk_outputs[0]
                    index, race_id, _key = ref
                    plans[(index, race_id)] = output
                    model.observe_output("plan", fingerprints[index], output)
                    payloads = list(
                        self._path_payloads(
                            recordings, contexts, config_data, index, race_id, output
                        )
                    )
                    if payloads:
                        submit_chunks("path", (index, race_id), payloads, index)
                else:
                    # classify: ``target`` is the chunk's misses; path: the
                    # chunk's (index, race_id)
                    target, estimate, fingerprint = ref
                    if kind == "classify":
                        for miss, item in zip(target, chunk_outputs):
                            race_outputs[(miss[0], miss[1])] = item
                    else:
                        partials.setdefault(target, []).extend(chunk_outputs)
                    actual = 0.0
                    for item in chunk_outputs:
                        seconds = model.observe_output(kind, fingerprint, item)
                        actual += seconds or 0.0
                    decisions.append(
                        {
                            "stage": kind,
                            "chunk_size": len(chunk_outputs),
                            "estimated_seconds": estimate,
                            "actual_seconds": actual,
                        }
                    )
                update_clocks()

        # ------------------------------------------------- canonical replay
        # The drain finished; emit the run's events in batch order, exactly
        # once, independent of the completion interleaving above.
        for index in range(count):
            if trace_hits[index] is not None:
                self.events.emit("cache", tier="trace", hit=trace_hits[index])
            if index in record_payloads:
                self.events.emit(
                    "task_submit", stage="record", workload=workloads[index].name
                )
        for index in sorted(record_outputs):
            self.events.absorb(record_outputs[index].get("events"))
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
            for miss_index, race_id, _key in race_misses[index]:
                self.events.emit(
                    "task_submit",
                    stage="classify",
                    workload=workloads[miss_index].name,
                    race=race_id,
                )
            for miss_index, race_id, key in race_misses[index]:
                item = race_outputs[(miss_index, race_id)]
                self.events.absorb(item.get("events"))
                self._store_classification(
                    workloads[miss_index].name,
                    miss_index,
                    race_id,
                    key,
                    ClassifiedRace.from_dict(item["classified"]),
                    slots,
                )
        # Pool bookkeeping only exists when a pool ran: a serial run keeps
        # pools_created == pool_reuses == 0 and reports no overlap.
        if pool is not None:
            self.events.emit("stage_overlap", seconds=plan_clock.total())
            self.events.emit(
                "stage_overlap", channel="record_classify", seconds=record_clock.total()
            )
            for _ in range(pooled_batches):
                self.events.emit("pool", action="reused")
        for decision in decisions:
            self.events.emit("scheduler_decision", **decision)
        # Recovery records (retries, respawns, quarantines, deadline hits)
        # replay here, after the drain, exactly like scheduler decisions:
        # buffered at nondeterministic moments, emitted in canonical order.
        self._dispatcher.drain_recovery()
        all_path_misses = [miss for index in range(count) for miss in path_misses[index]]
        plan_list = [plans[(index, race_id)] for index, race_id, _key in all_path_misses]
        for index, race_id, _key in all_path_misses:
            self.events.emit(
                "task_submit",
                stage="plan",
                workload=workloads[index].name,
                race=race_id,
            )
        for (index, race_id, _key), plan in zip(all_path_misses, plan_list):
            self.events.absorb(plan.get("events"))
            for path_index in range(plan["path_count"] if plan["needs_paths"] else 0):
                self.events.emit(
                    "task_submit",
                    stage="path",
                    workload=workloads[index].name,
                    race=race_id,
                    path=path_index,
                )
            for item in sorted(
                partials.get((index, race_id), ()), key=lambda o: o["path_index"]
            ):
                self.events.absorb(item.get("events"))
        self._merge_path_results(recordings, all_path_misses, plan_list, partials, slots)
        return self._finalize_runs(recordings, slots, cached_counts)

    # ---------------------------------------------------------------- stage 3

    def _finalize_runs(
        self, recordings, slots, cached_counts
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
                    classifications_cached=cached_counts[index],
                )
            )
        return runs

    def _task_payload(
        self, task_cls, recordings, contexts, config_data, index: int, race_id: int,
        **extra,
    ) -> Dict:
        """Build one stage-3 task payload (shared by both granularities).

        The single place the per-race task fields are assembled, so the
        race-granularity and path-granularity queues cannot drift apart.
        """
        return task_cls(
            workload=recordings[index].workload.name,
            race_id=race_id,
            trace=contexts[index]["trace_data"],
            config=config_data,
            use_semantic_predicates=self.options.use_semantic_predicates,
            program=recordings[index].workload.program,
            predicates=contexts[index]["predicates"],
            trace_token=contexts[index]["trace_token"],
            program_fingerprint=contexts[index]["program_fingerprint"],
            **extra,
        ).to_payload()

    def _store_classification(
        self, name: str, index: int, race_id: int, key: str,
        classified: ClassifiedRace, slots,
    ) -> None:
        self.events.emit("classification_computed", workload=name, race=race_id)
        if self.classification_cache is not None and key:
            self.classification_cache.store(name, key, classified)
        slots[index][race_id] = classified

    def _path_payloads(
        self, recordings, contexts, config_data, index: int, race_id: int, plan: Dict
    ) -> Iterator[Dict]:
        """One PathTask payload per primary path of an inconclusive plan.

        Embeds the plan's serialized primary so the worker classifies from
        shipped data instead of re-exploring the BFS prefix.
        """
        if not plan["needs_paths"]:
            return
        for path_index, primary in enumerate(plan["primaries"]):
            yield self._task_payload(
                PathTask, recordings, contexts, config_data, index, race_id,
                path_index=path_index, primary=primary,
            )

    def _merge_path_results(self, recordings, misses, plans, partials, slots) -> None:
        """Deterministic merge: recombine partial verdicts in path order.

        Pure function of the (plan, partial-verdict) data, so any completion
        order -- pooled or in-driver -- produces bit-identical
        ``ClassifiedRace`` results.
        """
        races_by_id = {
            index: recordings[index].trace.races_by_id()
            for index in {index for index, _race_id, _key in misses}
        }
        for (index, race_id, key), plan in zip(misses, plans):
            race = races_by_id[index][race_id]
            outcome = SingleStageOutcome.from_dict(plan["single"])
            if not plan["needs_paths"]:
                classified = finalize_single(race, outcome, self.config, plan["seconds"])
            else:
                outputs = sorted(
                    partials.get((index, race_id), ()), key=lambda o: o["path_index"]
                )
                verdicts = [PathVerdict.from_dict(o["verdict"]) for o in outputs]
                multi = merge_path_verdicts(
                    verdicts,
                    paths_explored=plan["path_count"],
                    states_pruned=plan["states_pruned"],
                    prune_reasons=plan["prune_reasons"],
                )
                elapsed = plan["seconds"] + sum(o["seconds"] for o in outputs)
                classified = finalize_multipath(race, outcome, multi, self.config, elapsed)
            self._store_classification(
                recordings[index].workload.name, index, race_id, key, classified, slots
            )


class _OverlapClock:
    """Accumulates wall-clock time during which both stages are in flight.

    One instance per overlap channel: the full-stream scheduler keeps a
    plan↔path clock and a record↔classify clock (the latter counting any
    stage-3 future -- classify, plan or path -- as the right-hand side).
    """

    def __init__(self) -> None:
        self._since: Optional[float] = None
        self._total = 0.0

    def update(self, left_in_flight: int, right_in_flight: int) -> None:
        now = time.perf_counter()
        overlapping = left_in_flight > 0 and right_in_flight > 0
        if overlapping and self._since is None:
            self._since = now
        elif not overlapping and self._since is not None:
            self._total += now - self._since
            self._since = None

    def total(self) -> float:
        self.update(0, 0)
        return self._total
