"""Deterministic fault injection for the dispatch layer.

A *fault plan* is a small JSON spec -- passed inline or as a file path via
``--fault-plan`` / ``REPRO_FAULT_PLAN`` -- describing faults to inject into
pool workers::

    {
      "seed": 0,
      "claims_dir": "/tmp/plan.claims",        # optional; derived if absent
      "faults": [
        {"op": "crash",     "stage": "classify", "workload": "stress_harmful"},
        {"op": "hang",      "stage": "classify", "ms": 20000},
        {"op": "malformed", "stage": "classify", "times": 1}
      ]
    }

Each entry matches task-entry calls by ``stage`` (``classify`` / ``noop``;
omit to match any, and any other stage is rejected -- ``record`` too, since
recording runs in the driving process, where no fault fires) and optionally
``workload`` / ``race``.  ``times`` (default 1) bounds how often the entry
fires *across the whole plan lifetime*: firing is arbitrated through atomic
claim files in ``claims_dir`` (``O_CREAT | O_EXCL``), so an entry fires its
budget exactly once no matter how many worker processes race for it and no
matter how often a crashed task is retried.  That is what makes recovery
testable: a ``crash`` entry kills one worker once, and the retry of the same
task runs clean.

Ops:

``crash``
    ``os._exit(87)`` -- simulates a worker segfault; the pool breaks and
    every pending future raises ``BrokenProcessPool``.
``hang``
    sleep ``ms`` milliseconds (default 1000), then continue normally.  The
    sleep is finite on purpose: ``shutdown(cancel_futures=True)`` cannot kill
    a sleeping worker, so an abandoned hung worker must eventually exit on
    its own.  Pair with a task deadline shorter than ``ms`` to exercise the
    deadline watchdog.
``malformed``
    the task entry point returns a wrong-shaped payload, exercising result
    validation at the dispatch boundary.

``seed`` identifies the plan (it is recorded in claim files and replayed in
``fault_injected`` events); the spec itself is already fully deterministic,
so the seed carries no additional randomness today.

Faults are installed only by :func:`repro.engine.tasks.pool_worker_initializer`
-- the driving process never injects, which is what keeps the quarantine /
in-driver path fault-free and verdicts bit-identical to serial.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.engine.errors import FaultPlanError

#: supported fault operations
FAULT_OPS = ("crash", "hang", "malformed")

#: exit status used by the ``crash`` op (distinctive in worker post-mortems)
CRASH_EXIT_CODE = 87

#: the task entry points that call :func:`maybe_inject_fault`
FAULT_STAGES = ("classify", "noop")

_MATCH_FIELDS = ("stage", "workload", "race")


def resolve_fault_plan(value: Optional[str]) -> Optional[Dict[str, Any]]:
    """Resolve a ``--fault-plan`` value into a normalized, picklable spec.

    ``value`` may be ``None`` (no plan), an inline JSON object (anything
    starting with ``{``), or a path to a JSON file.  The returned dict always
    carries a ``claims_dir`` (created if needed): for file-based plans it
    defaults to ``<path>.claims`` next to the plan so repeated runs against
    the same plan file share one claim ledger; inline plans get a fresh
    temporary directory per resolution, flagged ``temporary``: the engine
    run that replays its claims removes it, and with it the plan's unspent
    slots (a later run of the same engine finds no ledger and fires
    nothing; an entry still fires at most ``times`` times).
    """

    if value is None or value == "":
        return None
    text = value.strip()
    if text.startswith("{"):
        source = "<inline>"
    else:
        source = value
        try:
            with open(value, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FaultPlanError(f"fault plan {value!r} is unreadable: {exc}") from exc
    try:
        spec = json.loads(text)
    except ValueError as exc:
        raise FaultPlanError(f"fault plan {source} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise FaultPlanError(f"fault plan {source} must be a JSON object")

    faults = spec.get("faults", [])
    if not isinstance(faults, list):
        raise FaultPlanError(f"fault plan {source}: 'faults' must be a list")
    normalized: List[Dict[str, Any]] = []
    for index, entry in enumerate(faults):
        if not isinstance(entry, dict):
            raise FaultPlanError(f"fault plan {source}: fault #{index} must be an object")
        op = entry.get("op")
        if op not in FAULT_OPS:
            raise FaultPlanError(
                f"fault plan {source}: fault #{index} has unknown op {op!r}; "
                f"choose from {', '.join(FAULT_OPS)}"
            )
        stage = entry.get("stage")
        if stage is not None and stage not in FAULT_STAGES:
            raise FaultPlanError(
                f"fault plan {source}: fault #{index} has unknown stage {stage!r}; "
                f"choose from {', '.join(FAULT_STAGES)}"
            )
        times = entry.get("times", 1)
        if not isinstance(times, int) or isinstance(times, bool) or times < 1:
            raise FaultPlanError(
                f"fault plan {source}: fault #{index} 'times' must be a positive int"
            )
        item = {"index": index, "op": op, "times": times}
        for field in _MATCH_FIELDS:
            if field in entry and entry[field] is not None:
                item[field] = entry[field]
        if op == "hang":
            item["ms"] = entry.get("ms", 1000)
        normalized.append(item)

    claims_dir = spec.get("claims_dir")
    temporary = not claims_dir and source == "<inline>"
    if temporary:
        claims_dir = tempfile.mkdtemp(prefix="repro-faults-")
    elif not claims_dir:
        claims_dir = value + ".claims"
    os.makedirs(claims_dir, exist_ok=True)

    return {
        "seed": spec.get("seed", 0),
        "claims_dir": claims_dir,
        "temporary": temporary,
        "faults": normalized,
    }


class FaultPlan:
    """A resolved fault plan bound to its cross-process claim ledger."""

    def __init__(self, spec: Dict[str, Any]):
        self.spec = spec
        self.seed = spec.get("seed", 0)
        self.claims_dir = spec["claims_dir"]
        self.faults = spec["faults"]

    # -- matching / claiming ------------------------------------------------

    @staticmethod
    def _matches(entry: Dict[str, Any], stage: str, workload: str, race) -> bool:
        context = {"stage": stage, "workload": workload, "race": race}
        for field in _MATCH_FIELDS:
            if field in entry and entry[field] != context[field]:
                return False
        return True

    def _claim(self, entry: Dict[str, Any], context: Dict[str, Any]) -> Optional[int]:
        """Atomically claim one firing slot for ``entry``; None when spent."""

        for slot in range(entry["times"]):
            claim_path = os.path.join(
                self.claims_dir, f"{entry['index']:03d}.{slot:03d}"
            )
            try:
                fd = os.open(claim_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return None
            record = dict(context)
            record.update(
                index=entry["index"], slot=slot, op=entry["op"], pid=os.getpid(),
                seed=self.seed,
            )
            try:
                os.write(fd, json.dumps(record, sort_keys=True).encode("utf-8"))
            finally:
                os.close(fd)
            return slot
        return None

    # -- worker-side injection ---------------------------------------------

    def fire(self, stage: str, workload: str, race=None) -> Optional[str]:
        """Inject the first matching, unspent fault.  Returns the op fired
        (``"hang"`` after sleeping, ``"malformed"`` telling the caller to
        return garbage) or None.  ``crash`` does not return."""

        for entry in self.faults:
            if not self._matches(entry, stage, workload, race):
                continue
            context = {"stage": stage, "workload": workload, "race": race}
            if self._claim(entry, context) is None:
                continue
            op = entry["op"]
            if op == "crash":
                os._exit(CRASH_EXIT_CODE)
            if op == "hang":
                time.sleep(entry.get("ms", 1000) / 1000.0)
                return "hang"
            return "malformed"
        return None

    # -- driver-side replay ------------------------------------------------

    def claim_names(self) -> List[str]:
        """Names of all claim files currently in the ledger."""

        try:
            return sorted(os.listdir(self.claims_dir))
        except OSError:
            return []

    def claimed_records(self, exclude=()) -> List[Dict[str, Any]]:
        """Read the claim ledger (minus ``exclude`` names), deterministically
        ordered by (fault index, slot).  Unreadable or partially written
        claims degrade to the plan entry's own fields."""

        excluded = set(exclude)
        records = []
        for name in self.claim_names():
            if name in excluded:
                continue
            try:
                index_text, slot_text = name.split(".", 1)
                index, slot = int(index_text), int(slot_text)
            except ValueError:
                continue
            record: Dict[str, Any] = {"index": index, "slot": slot}
            try:
                with open(os.path.join(self.claims_dir, name), "r", encoding="utf-8") as handle:
                    payload = json.loads(handle.read())
                if isinstance(payload, dict):
                    record.update(payload)
            except (OSError, ValueError):
                pass
            if "op" not in record and 0 <= index < len(self.faults):
                entry = self.faults[index]
                record["op"] = entry["op"]
                for field in _MATCH_FIELDS:
                    if field in entry:
                        record.setdefault(field, entry[field])
            records.append(record)
        records.sort(key=lambda item: (item["index"], item["slot"]))
        return records


# -- process-global installation (workers only) ----------------------------

_ACTIVE: Optional[FaultPlan] = None


def install_fault_plan(spec: Optional[Dict[str, Any]]) -> None:
    """Install (or clear, with None) the process-global fault plan.  Called
    from ``pool_worker_initializer``; the driving process never installs."""

    global _ACTIVE
    _ACTIVE = FaultPlan(spec) if spec else None


def maybe_inject_fault(stage: str, workload: str, race=None) -> Optional[str]:
    """Task-entry hook: inject per the installed plan, else no-op."""

    if _ACTIVE is None:
        return None
    return _ACTIVE.fire(stage, workload, race=race)
