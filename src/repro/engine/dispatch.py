"""Pool lifecycle and supervision for the engine's one scheduler.

:class:`PoolDispatcher` owns one persistent process pool per engine run,
fed by the engine's full-stream drain: the pool runs classification chunks
only, drained in one ``wait(FIRST_COMPLETED)`` loop, while the driver
records the next workload (see ``AnalysisEngine._stream_pipeline``).  The
pool is created eagerly by
:meth:`PoolDispatcher.warm` (or lazily on first use) with
:func:`~repro.engine.tasks.pool_worker_initializer` installed, reused by
every dispatch of the run (its creation emits a ``pool`` event into the
run's :class:`~repro.engine.events.EventLogger`, which folds into the
``pools_created`` counter), and shut down by the engine
when the run finishes.  Without a pool -- a serial run, a pool that cannot
be built -- the same drain runs over a :class:`PoolSupervisor` whose pool
is None, which executes every submitted chunk in the driving process; a
chunk whose payloads do not pickle is submitted ``inline`` and runs there
too.

The engine cuts each workload's races into chunks by one static rule
(``repro.engine.engine._chunk_size``: at least ``min(count, workers)``
chunks, two waves per worker on deep queues) and reports every chunk as a
``scheduler_decision`` event once the drain finishes.

Supervision (the fault-tolerance layer)
---------------------------------------

Every pooled drain runs under a :class:`PoolSupervisor`, which turns worker
failure from a run-wide event into a per-task one.  The degradation ladder:

1. **retry** -- a chunk that crashes its worker, misses its deadline, or
   returns a malformed result is resubmitted *whole* on its first failure
   and split into singletons only on a repeat (:meth:`PoolSupervisor._retry`,
   the one failure rule).  Tasks are deterministic, so a retry never waits
   and returns what the failed run would have;
2. **respawn** -- a ``BrokenProcessPool`` (or an expired deadline) tears the
   persistent pool down with ``shutdown(cancel_futures=True)`` and rebuilds
   it -- re-running :func:`~repro.engine.tasks.pool_worker_initializer`, so
   the fault plan re-arms -- up to ``max_pool_respawns`` times per run;
3. **quarantine** -- a task that keeps failing is exiled to the in-driver
   serial path (*it alone*, not the run).  A deadline or a malformed
   result names its culprit, so a task past ``max_task_retries`` extra
   executions is quarantined.  Crashes cannot name a culprit
   (every pending future of a broken pool fails identically), so repeat
   crash suspects are first *probed alone* on the rebuilt pool: a lone
   probe that crashes the pool is the poison task, is quarantined, and its
   respawn does not count against the budget;
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

from repro.core.categories import ClassifiedRace
from repro.engine.errors import EngineError
from repro.engine.events import EventLogger
from repro.engine.tasks import (
    execute_noop_task,
    execute_payload_chunk,
    execute_task,
    pool_worker_initializer,
)

#: the stage name per worker entry point (anything else is "task")
_WORKER_KINDS = {execute_task: "classify"}

#: the pooled chunk deadline when ``task_deadline_ms`` is 0
_DEFAULT_DEADLINE_MS = 30000

#: never spin the watchdog faster than this
_MIN_WAIT_S = 0.05

#: how long a crash sweep waits for the broken pool to fail its futures
_SWEEP_S = 1.0

#: the ``task_quarantined`` reason per retry reason that can name a culprit
_QUARANTINE_REASONS = {
    "deadline": "task deadline exceeded",
    "malformed": "malformed result",
}

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


def validate_worker_output(kind: str, payload: Mapping, output) -> None:
    """Validate one worker result at the dispatch boundary.

    Every result must be a dict, and a classification must carry its
    :class:`~repro.core.categories.ClassifiedRace` (a dict there is
    malformed too); a worker that returns a wrong-shaped result (bit rot, a
    fault plan's ``malformed`` op) raises :class:`EngineError` naming the
    task here, instead of a bare ``KeyError`` deep inside the engine's
    merge.  Other kinds ("task", e.g. warm-up no-ops) only need to be a
    dict.
    """
    name = describe_task(kind, payload)
    if not isinstance(output, Mapping):
        raise EngineError(
            f"{name} returned {type(output).__name__}, expected a result dict"
        )
    if kind == "classify" and not isinstance(output.get("classified"), ClassifiedRace):
        raise EngineError(
            f"{name} returned a malformed result: field 'classified' must be a "
            "ClassifiedRace"
        )


def _payload_identity(payload: Mapping) -> Dict:
    identity: Dict = {}
    if payload.get("race_id") is not None:
        identity["race"] = payload["race_id"]
    return identity


class _Flight:
    """One in-flight (or queued) chunk submission and its retry state."""

    __slots__ = (
        "key", "worker", "kind", "payloads", "positions",
        "attempts", "submitted_at", "probe",
    )

    def __init__(self, key, worker, kind, payloads, positions):
        self.key = key
        self.worker = worker
        self.kind = kind
        self.payloads = payloads
        self.positions = positions
        #: failed executions so far (retry budget consumed)
        self.attempts = 0
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
                self._submit_flight(self.probation.popleft(), probe=True)
            return
        backlog, self.backlog = self.backlog, []
        for flight in backlog:
            if self.pool is None:
                # A submit below broke the pool past its respawn budget:
                # the next pump runs the rest in the driver.
                self.backlog.append(flight)
            else:
                self._submit_flight(flight)

    def _submit_flight(self, flight: _Flight, probe: bool = False) -> None:
        flight.probe = probe
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
            self._retry(flight, "malformed")
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
            self._retry(self._subset(flight, bad), "malformed")

    # --------------------------------------------------------- failure paths

    def _handle_crash(self, crashed: List[_Flight], reason: str = "worker crash") -> None:
        # A broken pool fails *every* pending future; sweep the stragglers
        # with the real wait so none are lost.  The wait is bounded: a
        # future submitted while the pool was breaking can stay pending
        # forever (before 3.12, CPython marks a pool broken and fails its
        # futures without holding the lock its submit takes), and a future
        # the sweep outlasts counts as crashed.
        if self.pending:
            futures_wait(set(self.pending), timeout=_SWEEP_S)
            for future in list(self.pending):
                flight = self.pending.pop(future)
                try:
                    outputs = future.result(timeout=0)
                except Exception:  # noqa: BLE001 - broken pool, lost, any failure
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
            self._quarantine(crashed[0], reason)
            return
        for flight in crashed:
            self._retry(flight, "crash")

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
        # Chunks that were merely in flight beside it run again uncharged.
        self.backlog.extend(
            flight for flight in self.pending.values() if flight not in expired
        )
        self.pending.clear()
        self.pool = self.dispatcher._respawn("task deadline exceeded")
        for flight in expired:
            self._retry(flight, "deadline")

    def _retry(self, flight: _Flight, reason: str) -> None:
        """The one rule for a failed chunk (``crash``, ``deadline`` or
        ``malformed``).

        Every task is deterministic, so waiting before a retry buys nothing
        and a retry returns what the failed run would have.  The first
        failure resubmits the chunk whole; a repeat splits it into
        singletons.  A crash cannot name its culprit, so a repeat crash
        suspect is probed alone (:attr:`probation`); a deadline or a
        malformed result does, so a piece past ``max_task_retries`` is
        quarantined.  Without a pool, :meth:`_pump` runs every queued piece
        in the driver.
        """
        flight.attempts += 1
        budget = self.dispatcher.max_task_retries
        for piece in [flight] if flight.attempts == 1 else self._bisect(flight):
            if reason != "crash" and piece.attempts > budget:
                self._quarantine(piece, _QUARANTINE_REASONS[reason])
                continue
            self._record_retry(piece, reason)
            if reason == "crash" and (piece.attempts > 1 or piece.attempts > budget):
                self.probation.append(piece)
            else:
                self.backlog.append(piece)

    def _bisect(self, flight: _Flight) -> List[_Flight]:
        """Split a failed chunk into singleton flights (shared assembly key)."""
        if len(flight.payloads) == 1:
            return [flight]
        return [
            self._subset(flight, [offset]) for offset in range(len(flight.payloads))
        ]

    def _subset(self, flight: _Flight, offsets: Sequence[int]) -> _Flight:
        """A flight of some of ``flight``'s payloads, with its attempts."""
        subset = _Flight(
            flight.key,
            flight.worker,
            flight.kind,
            [flight.payloads[offset] for offset in offsets],
            [flight.positions[offset] for offset in offsets],
        )
        subset.attempts = flight.attempts
        return subset

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

    # ----------------------------------------------------------- pool lease

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def acquire(self) -> Optional[ProcessPoolExecutor]:
        """The run's persistent pool, or None serially.

        Created once per run on first use (emitting ``pool created``); every
        later acquisition returns the same pool.  A pool that breaks
        mid-drain is respawned by the :class:`PoolSupervisor` driving it.
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
        return self._pool

    def warm(self) -> None:
        """Eagerly build the persistent pool and spin up its workers.

        Called when a run starts: submits one no-op task per worker slot
        (``ProcessPoolExecutor`` forks processes on demand, so an idle
        freshly-built pool has zero workers) and returns without waiting, so
        process spin-up and each worker's initializer run concurrently with
        the driver's cache probes and recordings instead of inside the first
        real task's measured latency.  Nothing waits on the no-ops: a worker
        that dies during warm-up breaks the pool, and the first real submit or wait
        then takes the supervisor's ordinary crash path.  Counts as the
        run's single ``pool created`` event; subsequent dispatches reuse the
        warm pool.
        """
        pool = self.acquire()
        if pool is None:
            return
        try:
            for _ in range(self.workers):
                pool.submit(execute_noop_task, {})
        except (BrokenProcessPool, OSError, RuntimeError):
            # The pool broke while the no-ops were still being submitted;
            # the first real submit meets it broken (see above).
            pass

    def supervise(self, pool, wait_fn=None) -> PoolSupervisor:
        """A :class:`PoolSupervisor` for one drain over ``pool``."""
        return PoolSupervisor(self, pool, wait_fn)

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
        if pool is not None:
            pool.shutdown(wait=True)


def picklable(*objects) -> bool:
    """Whether the payload can ship to a worker (e.g. lambda predicates can't)."""
    try:
        pickle.dumps(objects)
    except Exception:  # noqa: BLE001 - any pickling failure means serial
        return False
    return True
