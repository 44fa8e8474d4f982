"""Pool lifecycle and supervision for the engine's one scheduler.

:class:`PoolDispatcher` owns one persistent process pool per engine run,
fed by the engine's full-stream drain: records and classifications all
live in one ``wait(FIRST_COMPLETED)`` loop, so stage-3 work of
one workload runs while another workload is still recording (see
``AnalysisEngine._stream_pipeline``).  The pool is created eagerly by
:meth:`PoolDispatcher.warm` (or lazily on first use) with
:func:`~repro.engine.tasks.pool_worker_initializer` installed, reused by
every dispatch of the run (both sides emit ``pool`` events into the run's
:class:`~repro.engine.events.EventLogger`, which fold into the
``pools_created``/``pool_reuses`` counters), and shut down by the engine
when the run finishes.  Without a pool -- a serial run, a pool that cannot
be built, payloads that do not pickle -- the same drain runs over a
:class:`PoolSupervisor` whose pool is None, which executes every submitted
chunk in the driving process.

The engine cuts each workload's races into chunks by one static rule
(``repro.engine.engine._chunk_size``: at least ``min(count, workers)``
chunks, two waves per worker on deep queues), submits recordings in batch
order, and reports every chunk as a ``scheduler_decision`` event once the
drain finishes.

Supervision (the fault-tolerance layer)
---------------------------------------

Every pooled drain runs under a :class:`PoolSupervisor`, which turns worker
failure from a run-wide event into a per-task one.  The degradation ladder:

1. **retry** -- a chunk that crashes its worker, misses its deadline, or
   returns a malformed result is *bisected into singletons* and re-submitted
   with capped exponential backoff, up to ``max_task_retries`` extra
   executions per task;
2. **respawn** -- a ``BrokenProcessPool`` (or an expired deadline) tears the
   persistent pool down with ``shutdown(cancel_futures=True)`` and rebuilds
   it -- re-running :func:`~repro.engine.tasks.pool_worker_initializer`, so
   the fault plan re-arms -- up to ``max_pool_respawns`` times per run;
3. **quarantine** -- a task that keeps failing is exiled to the in-driver
   serial path (*it alone*, not the run).  Crashes cannot name a culprit
   (every pending future of a broken pool fails identically), so repeat
   suspects are first *probed alone* on the rebuilt pool: a lone probe that
   crashes the pool is the poison task, is quarantined, and its respawn does
   not count against the budget;
4. **serial** -- only when the respawn budget is exhausted does the rest of
   the run execute in-driver (recorded as a ``pool`` event with
   ``action=downgraded``).

Every pooled chunk gets one flat deadline: ``task_deadline_ms`` when it is
above 0, else 30 s.  Worker results are validated at this boundary
(:func:`validate_worker_output`): a wrong-shaped result raises
:class:`~repro.engine.errors.EngineError` naming the task instead of a bare
``KeyError`` deep inside the merge.  Recovery is buffered as plain records
and replayed as ``task_retry`` / ``pool_respawn`` / ``task_quarantined`` /
``deadline_exceeded`` events *after* the drain (like ``scheduler_decision``),
so the event stream stays canonical-order deterministic.

In-driver execution runs the same task code as a worker, so results are
bit-identical either way -- every task is deterministic, supervision only
re-runs deterministic tasks, chunking only decides batching, and callers
merge in task order, never completion order.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.engine.errors import EngineError
from repro.engine.events import EventLogger
from repro.engine.tasks import (
    execute_noop_task,
    execute_payload_chunk,
    execute_record_task,
    execute_task,
    pool_worker_initializer,
)

#: the stage name per worker entry point (anything else is "task")
_WORKER_KINDS = {
    execute_record_task: "record",
    execute_task: "classify",
}

#: the pooled chunk deadline when ``task_deadline_ms`` is 0
_DEFAULT_DEADLINE_MS = 30000

#: never spin the watchdog faster than this
_MIN_WAIT_S = 0.05

_MISSING = object()


def env_int(name: str, default: int) -> int:
    """An integer ``REPRO_*`` setting: unset or blank means ``default``.

    Anything else that is not an integer raises ``ValueError`` naming the
    variable, so a typo such as ``REPRO_PARALLEL=two`` fails loudly instead
    of silently running with the default.
    """
    value = os.environ.get(name, "").strip()
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def worker_kind(worker: Callable) -> str:
    """The stage name of one worker entry point (events, validation)."""
    return _WORKER_KINDS.get(worker, "task")


def describe_task(kind: str, payload: Mapping) -> str:
    """A human-readable name for one task payload (used in errors/events)."""
    name = f"{kind} task for workload {payload.get('workload', '?')!r}"
    if payload.get("race_id") is not None:
        name += f", race {payload['race_id']}"
    return name


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_worker_output(kind: str, payload: Mapping, output) -> None:
    """Validate one worker result at the dispatch boundary.

    Each task kind has required keys/types; a worker that returns a
    wrong-shaped dict (bit rot, a fault plan's ``malformed`` op, a future
    network transport) raises :class:`EngineError` naming the task here,
    instead of a bare ``KeyError`` deep inside the engine's merge.
    """
    name = describe_task(kind, payload)
    if not isinstance(output, Mapping):
        raise EngineError(
            f"{name} returned {type(output).__name__}, expected a result dict"
        )

    def need(field: str, check: Callable[[object], bool], expect: str) -> None:
        value = output.get(field, _MISSING)
        if value is _MISSING or not check(value):
            raise EngineError(
                f"{name} returned a malformed result: field {field!r} {expect}"
            )

    if kind == "record":
        need("trace", lambda v: isinstance(v, Mapping), "must be a trace dict")
        need("detection_seconds", _is_number, "must be a number")
    elif kind == "classify":
        need("classified", lambda v: isinstance(v, Mapping),
             "must be a classified-race dict")
    # other kinds ("task", e.g. warm-up no-ops) only need to be a Mapping


def _payload_identity(payload: Mapping) -> Dict:
    identity: Dict = {}
    if payload.get("race_id") is not None:
        identity["race"] = payload["race_id"]
    return identity


class _Flight:
    """One in-flight (or queued) chunk submission and its retry state."""

    __slots__ = (
        "key", "worker", "kind", "payloads", "positions",
        "attempts", "suspicion", "submitted_at", "probe",
    )

    def __init__(self, key, worker, kind, payloads, positions):
        self.key = key
        self.worker = worker
        self.kind = kind
        self.payloads = payloads
        self.positions = positions
        #: failed executions so far (retry budget consumed)
        self.attempts = 0
        #: pool crashes this flight was in flight for (culprit ambiguity)
        self.suspicion = 0
        self.submitted_at = 0.0
        #: True while this flight runs *alone* on the pool to test whether
        #: it is the task that keeps killing workers
        self.probe = False


class PoolSupervisor:
    """Supervises one drain's submissions on the persistent pool.

    Callers :meth:`submit` tagged chunks and repeatedly call
    :meth:`wait_some` until :attr:`done`; each tag's outputs are delivered
    exactly once, in assembled payload order, no matter how many crashes,
    hangs, retries, or respawns happened along the way.  With ``pool`` None
    (or a chunk submitted ``inline``) the chunk runs in the driving process
    at submit time and its outputs come back from the next
    :meth:`wait_some`.  The supervisor only
    ever calls ``pool.submit`` (so the test suite's deferred fake pools work
    unchanged) and waits via the injected ``wait_fn`` (so the engine's
    monkeypatchable module-global ``wait`` stays the seam it is today);
    sweeping a *broken* pool's leftover futures uses the real
    :func:`concurrent.futures.wait`, since a fake pool never breaks.
    """

    def __init__(self, dispatcher: "PoolDispatcher", pool, wait_fn=None):
        self.dispatcher = dispatcher
        self.pool = pool
        self.wait_fn = wait_fn if wait_fn is not None else futures_wait
        self.pending: Dict[object, _Flight] = {}
        self.backlog: List[_Flight] = []
        self.probation: deque = deque()
        self._tags: Dict[int, object] = {}
        self._assembly: Dict[int, Dict] = {}
        self._completed: List = []
        self._next_key = 0

    # ------------------------------------------------------------ interface

    @property
    def done(self) -> bool:
        return not self._assembly and not self._completed

    def submit(
        self,
        worker,
        payloads: Sequence[Mapping],
        tag,
        inline: bool = False,
    ):
        """Queue one chunk; its assembled outputs come back under ``tag``.

        ``inline`` runs the chunk in the driving process even when a pool is
        up (its payloads do not pickle)."""
        key = self._next_key
        self._next_key += 1
        self._tags[key] = tag
        self._assembly[key] = {
            "outputs": [None] * len(payloads),
            "missing": len(payloads),
        }
        flight = _Flight(
            key, worker, worker_kind(worker), list(payloads),
            list(range(len(payloads))),
        )
        if self.pool is None or inline:
            self._run_in_driver(flight)
        elif self.probation:
            self.backlog.append(flight)
        else:
            self._submit_flight(flight)

    def wait_some(self) -> List:
        """Block until at least one tag fully assembles; return
        ``[(tag, outputs), ...]`` batches (empty only when nothing is left)."""
        while not self._completed and self._assembly:
            self._pump()
            if not self.pending:
                if self._completed:
                    break
                if self.backlog or self.probation:
                    continue
                raise EngineError(
                    "supervisor stalled with incomplete task assemblies"
                )
            done, _not_done = self.wait_fn(
                set(self.pending),
                return_when=FIRST_COMPLETED,
                timeout=self._next_timeout(),
            )
            if not done:
                self._handle_deadlines()
                continue
            crashed: List[_Flight] = []
            for future in done:
                flight = self.pending.pop(future, None)
                if flight is None:
                    continue
                try:
                    outputs = future.result()
                except (BrokenProcessPool, OSError):
                    crashed.append(flight)
                    continue
                self._accept(flight, outputs)
            if crashed:
                self._handle_crash(crashed)
        completed, self._completed = self._completed, []
        return completed

    # ----------------------------------------------------------- submission

    def _pump(self) -> None:
        """Feed the pool from the probation and backlog queues."""
        if self.pool is None:
            held = list(self.probation) + self.backlog
            self.probation.clear()
            self.backlog = []
            for flight in held:
                self._run_in_driver(flight)
            return
        if self.probation:
            # Suspects run strictly alone: a crash during a lone probe
            # names the poison task unambiguously.
            if not self.pending:
                probe = self.probation.popleft()
                probe.probe = True
                self._submit_flight(probe)
            return
        if self.backlog:
            backlog, self.backlog = self.backlog, []
            for flight in backlog:
                self._submit_flight(flight)

    def _submit_flight(self, flight: _Flight) -> None:
        flight.submitted_at = time.monotonic()
        try:
            future = self.pool.submit(
                execute_payload_chunk, flight.worker, flight.payloads
            )
        except (BrokenProcessPool, OSError, RuntimeError):
            # A worker death (e.g. during warm-up) can surface as a broken
            # pool at *submit* time; that is a crash like any other, not a
            # reason to downgrade the run.
            self._handle_crash([flight], reason="pool broke at submit")
            return
        self.pending[future] = flight

    def _next_timeout(self) -> float:
        earliest = min(flight.submitted_at for flight in self.pending.values())
        return max(
            _MIN_WAIT_S, earliest + self.dispatcher.deadline_s - time.monotonic()
        )

    # ------------------------------------------------------------- delivery

    def _deliver(self, key: int, position: int, output) -> None:
        assembly = self._assembly[key]
        assembly["outputs"][position] = output
        assembly["missing"] -= 1
        if assembly["missing"] == 0:
            del self._assembly[key]
            self._completed.append((self._tags.pop(key), assembly["outputs"]))

    def _accept(self, flight: _Flight, outputs) -> None:
        if not isinstance(outputs, list) or len(outputs) != len(flight.payloads):
            self._handle_invalid(flight, list(range(len(flight.payloads))))
            return
        bad: List[int] = []
        for offset, output in enumerate(outputs):
            try:
                validate_worker_output(flight.kind, flight.payloads[offset], output)
            except EngineError:
                bad.append(offset)
        bad_set = set(bad)
        for offset in range(len(outputs)):
            if offset not in bad_set:
                self._deliver(flight.key, flight.positions[offset], outputs[offset])
        if bad:
            self._handle_invalid(flight, bad)

    # --------------------------------------------------------- failure paths

    def _handle_invalid(self, flight: _Flight, offsets: Sequence[int]) -> None:
        """Malformed results: retry the bad payloads as singletons."""
        for offset in offsets:
            single = self._single(flight, offset)
            single.attempts = flight.attempts + 1
            if single.attempts > self.dispatcher.max_task_retries:
                self._quarantine(single, "malformed result")
            else:
                self._record_retry(single, "malformed")
                if self.pool is None:
                    self._run_in_driver(single)
                else:
                    self.backlog.append(single)
        self._backoff(flight.attempts + 1)

    def _handle_crash(self, crashed: List[_Flight], reason: str = "worker crash") -> None:
        # A broken pool fails *every* pending future; sweep the stragglers
        # with the real wait so none are lost.
        if self.pending:
            futures_wait(set(self.pending))
            for future in list(self.pending):
                flight = self.pending.pop(future)
                try:
                    outputs = future.result()
                except Exception:  # noqa: BLE001 - broken pool, any failure
                    crashed.append(flight)
                else:
                    self._accept(flight, outputs)
        # A lone probe that crashed the pool IS the poison task: quarantine
        # it, and don't charge its respawn against the budget (each free
        # respawn permanently removes one poison task, so this stays
        # bounded).
        lone = len(crashed) == 1 and crashed[0].probe
        self.pool = self.dispatcher._respawn(reason, charge=not lone)
        if lone:
            flight = crashed[0]
            flight.probe = False
            self._quarantine(flight, reason)
            return
        worst = 0
        for flight in crashed:
            flight.probe = False
            for single in self._bisect(flight):
                single.attempts += 1
                single.suspicion += 1
                worst = max(worst, single.attempts)
                self._record_retry(single, "crash")
                if (
                    single.suspicion >= 2
                    or single.attempts > self.dispatcher.max_task_retries
                ):
                    self.probation.append(single)
                else:
                    self.backlog.append(single)
        self._backoff(worst)

    def _handle_deadlines(self) -> None:
        """The wait timed out: cancel expired chunks and respawn the pool."""
        deadline_s = self.dispatcher.deadline_s
        now = time.monotonic()
        expired = [
            flight
            for flight in self.pending.values()
            if flight.submitted_at + deadline_s <= now
        ]
        if not expired:
            return
        expired_set = set(id(flight) for flight in expired)
        survivors = [
            flight
            for flight in self.pending.values()
            if id(flight) not in expired_set
        ]
        for flight in expired:
            payload = flight.payloads[0]
            record = {
                "kind": "deadline_exceeded",
                "stage": flight.kind,
                "workload": payload.get("workload", "?"),
                "chunk_size": len(flight.payloads),
                "deadline_seconds": deadline_s,
            }
            if len(flight.payloads) == 1:
                record.update(_payload_identity(payload))
            self.dispatcher.recovery.append(record)
        # The hung worker cannot be cancelled (shutdown(cancel_futures=True)
        # does not interrupt a running task), so the whole pool is abandoned
        # and rebuilt; the orphan exits on its own once its task returns.
        self.pending.clear()
        self.pool = self.dispatcher._respawn("task deadline exceeded")
        for flight in survivors:
            flight.probe = False
            if self.pool is None:
                self._run_in_driver(flight)
            else:
                self.backlog.append(flight)
        for flight in expired:
            flight.probe = False
            for single in self._bisect(flight):
                single.attempts += 1
                if single.attempts > self.dispatcher.max_task_retries:
                    self._quarantine(single, "task deadline exceeded")
                else:
                    self._record_retry(single, "deadline")
                    if self.pool is None:
                        self._run_in_driver(single)
                    else:
                        self.backlog.append(single)

    def _bisect(self, flight: _Flight) -> List[_Flight]:
        """Split a failed chunk into singleton flights (shared assembly key)."""
        if len(flight.payloads) == 1:
            return [flight]
        singles = []
        for offset in range(len(flight.payloads)):
            single = self._single(flight, offset)
            single.attempts = flight.attempts
            single.suspicion = flight.suspicion
            singles.append(single)
        return singles

    def _single(self, flight: _Flight, offset: int) -> _Flight:
        return _Flight(
            flight.key,
            flight.worker,
            flight.kind,
            [flight.payloads[offset]],
            [flight.positions[offset]],
        )

    def _quarantine(self, flight: _Flight, reason: str) -> None:
        """Exile this flight's tasks to the in-driver serial path.

        The driving process never installs the fault plan, so a quarantined
        task runs fault-free here; if it *still* produces an invalid result,
        :func:`validate_worker_output` raises the terminal
        :class:`EngineError`.
        """
        for payload in flight.payloads:
            record = {
                "kind": "task_quarantined",
                "stage": flight.kind,
                "workload": payload.get("workload", "?"),
                "reason": reason,
            }
            record.update(_payload_identity(payload))
            self.dispatcher.recovery.append(record)
        self._run_in_driver(flight)

    def _run_in_driver(self, flight: _Flight) -> None:
        for offset, payload in enumerate(flight.payloads):
            output = flight.worker(payload)
            validate_worker_output(flight.kind, payload, output)
            self._deliver(flight.key, flight.positions[offset], output)

    def _record_retry(self, flight: _Flight, reason: str) -> None:
        for payload in flight.payloads:
            record = {
                "kind": "task_retry",
                "stage": flight.kind,
                "workload": payload.get("workload", "?"),
                "attempt": flight.attempts,
                "reason": reason,
            }
            record.update(_payload_identity(payload))
            self.dispatcher.recovery.append(record)

    def _backoff(self, attempt: int) -> None:
        base = self.dispatcher.retry_backoff_s
        if base <= 0:
            return
        time.sleep(min(1.0, base * (2 ** max(attempt - 1, 0))))


class PoolDispatcher:
    """Owns worker-pool dispatch for one engine run."""

    def __init__(
        self,
        workers: Optional[int],
        events: Optional[EventLogger] = None,
        max_pool_respawns: int = 2,
        max_task_retries: int = 2,
        task_deadline_ms: int = 0,
        fault_spec: Optional[Mapping] = None,
        retry_backoff_s: float = 0.05,
    ) -> None:
        self.workers = int(workers or 0)
        #: pool-lifecycle events land here (the engine passes its run logger;
        #: a standalone dispatcher gets a private stream)
        self.events = events if events is not None else EventLogger()
        #: supervision knobs (see the module docstring's degradation ladder)
        self.max_pool_respawns = max(0, int(max_pool_respawns))
        self.max_task_retries = max(0, int(max_task_retries))
        #: every pooled chunk's deadline: ``task_deadline_ms``, or 30 s at 0
        self.deadline_s = (
            max(0, int(task_deadline_ms)) or _DEFAULT_DEADLINE_MS
        ) / 1000.0
        self.retry_backoff_s = float(retry_backoff_s)
        #: resolved fault-plan spec shipped to pool workers (None = no plan);
        #: the driving process itself never injects
        self.fault_spec = dict(fault_spec) if fault_spec else None
        #: charged pool respawns so far (lone-probe poison respawns are free)
        self.respawns = 0
        #: buffered recovery records, replayed post-drain as events (never
        #: mid-drain: completion order must not leak into the stream)
        self.recovery: List[Dict] = []
        #: the persistent pool is gone for good: stop pooling for this run
        self._broken = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._warm_futures: List = []

    # ----------------------------------------------------------- pool lease

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def acquire(self) -> Optional[ProcessPoolExecutor]:
        """The run's persistent pool, or None serially.

        Created once per run on first use; every later acquisition reuses it
        and counts a ``pool reuse``.  A pool that breaks mid-drain is
        respawned by the :class:`PoolSupervisor` driving it.
        """
        if not self.parallel or self._broken:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=pool_worker_initializer,
                    initargs=(self.fault_spec,),
                )
            except OSError:
                self._broken = True
                return None
            self.events.emit("pool", action="created")
        else:
            self.events.emit("pool", action="reused")
        return self._pool

    def acquire_for(self, payloads: Sequence[Dict]) -> Optional[ProcessPoolExecutor]:
        """:meth:`acquire` gated on the payloads actually being poolable."""
        if not payloads or not self.parallel or self._broken:
            return None
        return self.acquire() if payloads_picklable(payloads) else None

    def warm(self) -> None:
        """Eagerly build the persistent pool and spin up its workers.

        Called when a run starts: submits one no-op task per worker slot
        (``ProcessPoolExecutor`` forks processes on demand, so an idle
        freshly-built pool has zero workers) and returns without waiting, so
        process spin-up and each worker's initializer run concurrently with
        the driver's cache probes instead of inside the first real task's
        measured latency.  The futures are kept and reaped non-blockingly at
        the first supervised dispatch (:meth:`supervise`): a worker that
        died during warm-up is discovered there and counted as a respawn,
        not as a surprise failure inside the first real chunk.  Counts as
        the run's single ``pool created`` event; subsequent dispatches reuse
        the warm pool and count ``pool reuse`` exactly as before.
        """
        pool = self.acquire()
        if pool is None:
            return
        try:
            self._warm_futures = [
                pool.submit(execute_noop_task, {}) for _ in range(self.workers)
            ]
        except (BrokenProcessPool, OSError, RuntimeError):
            # A worker crashing mid-warm-up can break the pool while the
            # no-ops are still being submitted; rebuild it rather than
            # giving up on pooling for the whole run.
            self._respawn("worker died during warm-up")

    def supervise(self, pool, wait_fn=None) -> PoolSupervisor:
        """A :class:`PoolSupervisor` for one drain over ``pool``.

        Reaps any outstanding warm-up futures first; a warm-up death
        respawns the pool here, before the first real chunk is submitted.
        """
        if pool is not None:
            pool = self._reap_warm_futures(pool)
        return PoolSupervisor(self, pool, wait_fn)

    def _reap_warm_futures(self, pool):
        futures, self._warm_futures = self._warm_futures, []
        failed = False
        for future in futures:
            if not future.done():
                continue
            try:
                if future.exception() is not None:
                    failed = True
            except Exception:  # noqa: BLE001 - cancelled counts as failed
                failed = True
        if not failed:
            return pool
        return self._respawn("worker died during warm-up")

    def _respawn(self, reason: str, charge: bool = True):
        """Tear down and rebuild the persistent pool (the supervision path).

        Respawns re-run :func:`pool_worker_initializer` (the fault plan
        re-arms) but deliberately do **not** emit ``pool created`` or
        touch ``pools_created`` -- a streaming run still creates exactly one
        pool; recoveries are their own ``pool_respawn`` events.  Returns the
        new pool, or None once the budget is exhausted (recorded as a
        ``pool`` event with ``action=downgraded``) or the rebuild fails.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._warm_futures = []
        if charge:
            self.respawns += 1
            if self.respawns > self.max_pool_respawns:
                self._broken = True
                self.recovery.append(
                    {"kind": "pool", "action": "downgraded", "reason": reason}
                )
                return None
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=pool_worker_initializer,
                initargs=(self.fault_spec,),
            )
        except OSError:
            self._broken = True
            self.recovery.append(
                {"kind": "pool", "action": "downgraded", "reason": reason}
            )
            return None
        self.recovery.append(
            {"kind": "pool_respawn", "reason": reason, "respawns": self.respawns}
        )
        return self._pool

    def drain_recovery(self) -> None:
        """Replay buffered recovery records as events, post-drain.

        Recovery happens at nondeterministic moments mid-drain; buffering the
        records and emitting them here (exactly like ``scheduler_decision``)
        keeps the canonical event stream's order independent of completion
        interleavings.
        """
        records, self.recovery = self.recovery, []
        for record in records:
            record = dict(record)
            kind = record.pop("kind")
            self.events.emit(kind, **record)

    def shutdown(self) -> None:
        """Tear the persistent pool down (end of the engine run)."""
        pool, self._pool = self._pool, None
        self._warm_futures = []
        if pool is not None:
            pool.shutdown(wait=True)


def payloads_picklable(payloads: Sequence[Dict]) -> bool:
    """Probe one payload per workload for picklability.

    Payloads of the same workload share their program/predicates/trace
    objects, so one representative suffices (a custom predicate closure
    would fail the probe).
    """
    representatives = {payload.get("workload"): payload for payload in payloads}
    return all(picklable(payload) for payload in representatives.values())


def picklable(*objects) -> bool:
    """Whether the payload can ship to a worker (e.g. lambda predicates can't)."""
    try:
        pickle.dumps(objects)
    except Exception:  # noqa: BLE001 - any pickling failure means serial
        return False
    return True
