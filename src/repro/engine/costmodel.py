"""Online task-cost model for the adaptive scheduler.

The dispatcher used to size chunks with static width math (``len // 4·workers``
for wide queues, pool width for path batches): correct on homogeneous queues,
wasteful on skewed ones, where a chunk that happened to collect the expensive
tasks runs long after the rest of the pool drained.  This module replaces the
static guesses with an **online cost model**: every finished task's
``task_finish`` latency (already measured by the structured event log) is
folded into an exponentially-weighted moving average keyed by
``(task kind, workload fingerprint)``, and the scheduler asks the model two
questions:

* *how big should a chunk be* so that it runs for roughly
  :attr:`CostModel.target_seconds` (big enough to amortize pickling, small
  enough that the tail of the queue still load-balances), and
* *which payload should go first* (the engine submits recordings
  longest-expected-first, so stragglers start early instead of anchoring
  the tail).

Estimates are advisory only -- they change *where and in what batch* a task
runs, never what it computes -- so a cold, empty, or wildly wrong model
cannot affect verdicts, only wall-clock.  A model lives for one engine run:
it starts cold and nothing of it is persisted.

The same estimates feed ``choose_granularity``, which weighs the expected
cost of splitting a race into plan + path tasks against classifying it
whole (:meth:`CostModel.split_costs`).

**Chunk-size invariants.**  ``chunk_size`` guarantees at least
``min(count, 2 * workers)`` chunks whenever the queue has at least two tasks
per worker, and at least ``min(count, workers)`` chunks always -- this is
the fix for the old wide-queue fallback, under which a batch needing
irregular time per task could load-balance badly across the pool.  The upper
bound is ``max(1, count // (workers * waves))`` payloads per chunk, so no
single chunk can serialize the whole queue onto one worker.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

#: default EWMA smoothing factor: new observations carry 30% weight, so the
#: model adapts within a few tasks without thrashing on one outlier
DEFAULT_ALPHA = 0.3

#: default per-chunk wall-clock target (seconds), inside the ~250ms-1s band
#: where chunks amortize pickling yet still load-balance
DEFAULT_TARGET_SECONDS = 0.5


class CostModel:
    """EWMA cost estimates per (task kind, workload fingerprint).

    Thread-compatible with the engine's single-threaded scheduler loop: all
    mutation happens in the driving process as results are collected.
    """

    def __init__(
        self,
        target_seconds: float = DEFAULT_TARGET_SECONDS,
        alpha: float = DEFAULT_ALPHA,
    ) -> None:
        self.target_seconds = max(0.001, float(target_seconds))
        self.alpha = alpha
        #: ("kind|fingerprint") -> [ewma_seconds, observation_count]
        self._entries: Dict[str, List[float]] = {}
        #: per-kind aggregate, the fallback for unseen fingerprints
        self._kinds: Dict[str, List[float]] = {}

    # ------------------------------------------------------------ observation

    @staticmethod
    def _key(kind: str, fingerprint: str) -> str:
        return f"{kind}|{fingerprint}"

    def _fold(self, table: Dict[str, List[float]], key: str, seconds: float) -> None:
        entry = table.get(key)
        if entry is None:
            table[key] = [seconds, 1]
        else:
            entry[0] += self.alpha * (seconds - entry[0])
            entry[1] += 1

    def observe(self, kind: str, fingerprint: str, seconds: float) -> None:
        """Fold one finished task's wall-clock seconds into the model."""
        if seconds < 0:
            return
        self._fold(self._entries, self._key(kind, fingerprint), seconds)
        self._fold(self._kinds, kind, seconds)

    def observe_output(
        self, kind: str, fingerprint: str, output: Optional[Mapping]
    ) -> Optional[float]:
        """Extract a task result's measured latency and fold it in.

        Task results carry their worker-side ``task_finish`` event (the same
        latency ``events-info`` histograms); outputs without one (e.g. cache
        hits) are ignored.  Returns the observed seconds, or None.
        """
        seconds = self.output_seconds(output)
        if seconds is not None:
            self.observe(kind, fingerprint, seconds)
        return seconds

    def split_costs(self, fingerprint: str) -> Tuple[float, float]:
        """(whole-race cost, split critical-path cost) for one workload.

        The split cost is the expected latency of the plan-then-paths
        pipeline for a single race: the plan plus one path slice (paths run
        in parallel, so one slice approximates the critical path).  Both
        are 0.0 when the model is cold, which callers must treat as "no
        opinion".
        """
        race_cost = self.estimate("classify", fingerprint)
        plan_cost = self.estimate("plan", fingerprint)
        path_cost = self.estimate("path", fingerprint)
        if plan_cost <= 0 and path_cost <= 0:
            return race_cost, 0.0
        return race_cost, plan_cost + path_cost

    @staticmethod
    def output_seconds(output: Optional[Mapping]) -> Optional[float]:
        """The worker-measured wall-clock seconds of one task output."""
        if not output:
            return None
        for event in reversed(output.get("events") or ()):
            if event.get("kind") == "task_finish":
                return float(event.get("seconds", 0.0))
        seconds = output.get("seconds")
        return float(seconds) if seconds is not None else None

    # ------------------------------------------------------------- estimation

    def estimate(self, kind: str, fingerprint: str) -> float:
        """Expected seconds for one task, or 0.0 when the model is cold."""
        entry = self._entries.get(self._key(kind, fingerprint))
        if entry is None:
            entry = self._kinds.get(kind)
        return entry[0] if entry else 0.0

    def _chunk_upper(self, count: int, workers: int) -> int:
        """Max payloads per chunk: never fewer than ``workers`` chunks, and
        two waves per worker when the queue is at least two-per-worker deep
        (stragglers then leave the pool idle for at most one chunk).

        Floor division, not ceiling: ``ceil(6 / 4)`` would pack chunks of 2
        and leave a 4-worker pool with only 3 chunks, violating the
        at-least-``min(count, workers)``-chunks invariant."""
        waves = 2 if count >= 2 * workers else 1
        return max(1, count // (workers * waves))

    def chunk_size(
        self, kind: str, fingerprint: str, count: int, workers: int
    ) -> int:
        """Payloads per chunk for a homogeneous queue of ``count`` tasks.

        With a warm estimate the chunk targets ``target_seconds`` of work;
        cold, it falls back to the legacy ``count // 4·workers`` heuristic.
        Either way the result is clamped to the invariant bounds described
        in the module docstring.
        """
        if count <= 0:
            return 1
        workers = max(1, workers)
        upper = self._chunk_upper(count, workers)
        estimate = self.estimate(kind, fingerprint)
        if estimate > 0:
            size = int(self.target_seconds / estimate)
        else:
            size = count // (workers * 4)
        return max(1, min(size, upper))
