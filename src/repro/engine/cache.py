"""On-disk caches: traces (Stage 1) and classifications (Stage 3).

Both halves of the pipeline are deterministic, so both are cacheable:

* :class:`TraceCache` -- recording is the front half of the pipeline cost;
  for a fixed ``(program, inputs, config)`` triple the recorded trace is
  deterministic, so it can be reused across engine runs (and across
  processes -- the cache stores the JSON wire format of
  :meth:`ExecutionTrace.to_dict`).  Only the configuration knobs that
  influence *recording* take part in the cache key (classification knobs
  like Mp/Ma/seed do not invalidate a recording).
* :class:`ClassificationCache` -- a ``ClassifiedRace`` is deterministic
  given ``(program, inputs, config, race_id)`` plus the predicate set, so
  warm re-runs of ``python -m repro.experiments all --cache-dir D`` can skip
  classification entirely.  Here the key must cover *every* classification
  knob (``race_seed``'s base seed, the Mp/Ma limits, the ablation switches,
  the predicate mode): any config change invalidates cached verdicts rather
  than silently serving stale classifications.

Each cache mixes a format version into its keys so stale entries from older
layouts are simply missed, never mis-parsed.  Both caches can share one
directory: their file names use disjoint infixes.

Lifecycle: both caches share the :class:`_DirectoryCache` housekeeping --
an optional ``max_entries`` bound with least-recently-used eviction (every
hit refreshes the entry's mtime, every store evicts the stalest overflow),
a per-entry persisted hit counter (``<entry>.json.hits`` sidecars), and a
``stored_at`` timestamp inside each entry.  ``collect_cache_info`` /
``render_cache_info`` back the ``cache-info`` CLI subcommand, which dumps
per-entry age and hit counts for a cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.categories import ClassifiedRace
from repro.core.config import PortendConfig
from repro.record_replay.trace import ExecutionTrace

#: bump when the serialized trace layout changes incompatibly
TRACE_FORMAT_VERSION = 1

#: bump when the serialized ClassifiedRace layout changes incompatibly
CLASSIFICATION_FORMAT_VERSION = 1


def _canonical(obj):
    """Recursively reduce an object graph to a process-independent form.

    Two sources of instability need canonicalizing when fingerprinting a
    program: ``Stmt.uid`` comes from a process-global counter (rebuilds of
    the same program differ), and set/frozenset iteration order follows
    per-process string-hash randomization (and can leak into the insertion
    order of derived dicts).  Statements reduce to (type, slot values)
    without ``uid``; sets and dict items are sorted; everything else
    bottoms out in primitives or a deterministic repr.
    """
    import dataclasses

    from repro.lang.ast import Stmt

    if isinstance(obj, Stmt):
        slots = [
            slot
            for klass in type(obj).__mro__
            for slot in getattr(klass, "__slots__", ())
            if slot != "uid"
        ]
        return (
            type(obj).__name__,
            tuple((slot, _canonical(getattr(obj, slot))) for slot in slots),
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted((_canonical(item) for item in obj), key=repr))
    if isinstance(obj, dict):
        return tuple(
            sorted(
                ((_canonical(k), _canonical(v)) for k, v in obj.items()), key=repr
            )
        )
    if isinstance(obj, (bool, int, float, str, bytes, type(None))):
        return obj
    return repr(obj)


def _code_fingerprint(code) -> str:
    """Process-stable hash of a code object's compiled logic.

    Reduces a code object to its bytecode plus stable constant/name reprs,
    with nested code objects (lambdas, comprehensions on Python < 3.12)
    replaced by their own fingerprint -- a raw ``repr`` of a code object
    embeds a memory address, and a raw ``repr`` of a set/frozenset constant
    (e.g. an ``in {'a', 'b'}`` literal) follows per-process string-hash
    iteration order; either would change across runs and defeat warm-cache
    hits.
    """
    import types

    consts = tuple(
        _code_fingerprint(const)
        if isinstance(const, types.CodeType)
        else _stable_value_repr(const)
        for const in code.co_consts
    )
    digest = hashlib.sha256(
        (code.co_code.hex() + repr(consts) + repr(code.co_names)).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def _stable_value_repr(value) -> str:
    """A repr that never embeds a memory address.

    Primitives and their containers reduce to their real repr, callables to
    their fingerprint; anything else degrades to its type name -- stable
    (so warm runs stay warm) but content-insensitive, which is the
    documented limit of predicate fingerprinting.
    """
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return repr(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        items = [_stable_value_repr(item) for item in value]
        if isinstance(value, (frozenset, set)):
            items = sorted(items)
        return f"{type(value).__name__}[{','.join(items)}]"
    if isinstance(value, dict):
        return (
            "dict["
            + ",".join(
                sorted(f"{_stable_value_repr(k)}:{_stable_value_repr(v)}" for k, v in value.items())
            )
            + "]"
        )
    if callable(value):
        return _callable_fingerprint(value)
    return type(value).__name__


def _callable_fingerprint(fn) -> str:
    """Process-stable hash of a callable's logic *and* captured parameters.

    Beyond the bytecode (:func:`_code_fingerprint`), the hash covers closure
    cell contents, argument defaults, and ``functools.partial`` bindings --
    the places where two same-named predicates most commonly differ (e.g. a
    predicate factory capturing a threshold).  Captured values reduce via
    :func:`_stable_value_repr`, so non-primitive captured objects degrade to
    a type name rather than an address-bearing repr.
    """
    import functools

    if isinstance(fn, functools.partial):
        bound = (
            tuple(_stable_value_repr(arg) for arg in fn.args),
            tuple(sorted((key, _stable_value_repr(val)) for key, val in (fn.keywords or {}).items())),
        )
        digest = hashlib.sha256(
            (f"partial:{_callable_fingerprint(fn.func)}:{bound!r}").encode("utf-8")
        )
        return digest.hexdigest()[:16]
    code = getattr(fn, "__code__", None)
    if code is None:
        return type(fn).__name__
    cells = tuple(
        _stable_value_repr(cell.cell_contents)
        for cell in (getattr(fn, "__closure__", None) or ())
    )
    defaults = tuple(
        _stable_value_repr(default) for default in (getattr(fn, "__defaults__", None) or ())
    )
    digest = hashlib.sha256(
        (f"{_code_fingerprint(code)}:{cells!r}:{defaults!r}").encode("utf-8")
    )
    return digest.hexdigest()[:16]


def _atomic_write_json(cache_dir: Path, path: Path, payload: str) -> None:
    """Publish one cache entry atomically.

    Unique tmp name per writer: concurrent engine runs may share a cache
    dir, and ``os.replace`` makes the final publish atomic
    (last-writer-wins; identical keys produce identical content).
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def _hits_path(path: Path) -> Path:
    """Sidecar file persisting one entry's hit counter."""
    return Path(str(path) + ".hits")


def _read_hits(path: Path) -> int:
    try:
        return int(_hits_path(path).read_text())
    except (OSError, ValueError):
        return 0


class _DirectoryCache:
    """Shared housekeeping for the on-disk caches: bound, LRU order, info.

    Both caches may share one directory; entry ownership is decided by the
    ``-cls-`` file-name infix.  Recency is the entry file's mtime (bumped on
    every hit), so LRU eviction needs no extra bookkeeping and survives
    across processes.  All housekeeping is best-effort: a concurrently
    deleted entry or an unwritable sidecar must never fail the analysis.
    """

    _CLS_INFIX = "-cls-"
    #: "trace" or "classification"; also decides entry-file ownership
    kind = ""

    def __init__(self, cache_dir, max_entries: Optional[int] = None) -> None:
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self.max_entries = max_entries

    # ----------------------------------------------------------- housekeeping

    def _owns(self, path: Path) -> bool:
        is_classification = self._CLS_INFIX in path.name
        return is_classification if self.kind == "classification" else not is_classification

    def _entries_by_recency(self) -> List[Path]:
        """This cache's entry files, least recently used first."""
        stamped = []
        try:
            candidates = list(self.cache_dir.glob("*.json"))
        except OSError:
            return []
        for path in candidates:
            if not self._owns(path):
                continue
            try:
                stamped.append((path.stat().st_mtime, str(path)))
            except OSError:
                continue
        return [Path(name) for _mtime, name in sorted(stamped)]

    def _record_hit(self, path: Path) -> None:
        """Persist the hit and refresh the entry's LRU recency."""
        self.hits += 1
        try:
            count = _read_hits(path) + 1
            tmp = path.with_name(f"{path.name}.{os.getpid()}.hits.tmp")
            tmp.write_text(str(count))
            os.replace(tmp, _hits_path(path))
            os.utime(path, None)
        except OSError:
            pass

    def _evict_overflow(self) -> List[Path]:
        """Drop least-recently-used entries beyond ``max_entries``."""
        if self.max_entries is None:
            return []
        entries = self._entries_by_recency()
        evicted: List[Path] = []
        while len(entries) > self.max_entries:
            victim = entries.pop(0)
            try:
                victim.unlink()
                _hits_path(victim).unlink(missing_ok=True)
            except OSError:
                continue
            evicted.append(victim)
        return evicted

    def info(self) -> List[Dict]:
        """Per-entry metadata: file, age, persisted hits, size."""
        now = time.time()
        rows: List[Dict] = []
        for path in self._entries_by_recency():
            try:
                stat = path.stat()
                with open(path, "r", encoding="utf-8") as handle:
                    stored_at = json.load(handle).get("stored_at", stat.st_mtime)
            except (OSError, ValueError):
                continue
            rows.append(
                {
                    "file": path.name,
                    "kind": self.kind,
                    "age_seconds": max(0.0, now - float(stored_at)),
                    "hits": _read_hits(path),
                    "size_bytes": stat.st_size,
                }
            )
        return rows


def collect_cache_info(cache_dir) -> List[Dict]:
    """Per-entry metadata for both cache tiers sharing ``cache_dir``."""
    return TraceCache(cache_dir).info() + ClassificationCache(cache_dir).info()


def render_cache_info(rows: List[Dict]) -> str:
    """Human-readable table backing the ``cache-info`` CLI subcommand."""
    if not rows:
        return "cache-info: no cache entries"
    lines = [
        f"cache-info: {len(rows)} entries",
        f"{'kind':<16} {'age':>10} {'hits':>6} {'size':>10}  file",
    ]
    for row in sorted(rows, key=lambda r: (r["kind"], r["file"])):
        lines.append(
            f"{row['kind']:<16} {row['age_seconds']:>9.1f}s {row['hits']:>6} "
            f"{row['size_bytes']:>9}B  {row['file']}"
        )
    return "\n".join(lines)


class TraceCache(_DirectoryCache):
    """Directory-backed cache of recorded execution traces."""

    kind = "trace"

    # -------------------------------------------------------------------- key

    @staticmethod
    def program_fingerprint(program) -> str:
        """Content hash of a :class:`Program`.

        Two workloads can share a name but differ in code (what-if variants
        like ``build_memcached(remove_slab_lock=True)``), so the cache key
        must cover the program *content*, not just its name.  The hash is
        taken over the :func:`_canonical` reduction of the program's
        attributes, which is stable across rebuilds and across processes
        (see its docstring for what needs canonicalizing and why).
        """
        canonical = _canonical(dict(vars(program)))
        return hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()

    @staticmethod
    def key(
        program: str,
        inputs: Dict[str, int],
        config: PortendConfig,
        program_fingerprint: str = "",
    ) -> str:
        """Stable fingerprint of one recording: (program, inputs, config)."""
        fingerprint = {
            "version": TRACE_FORMAT_VERSION,
            "program": program,
            "program_fingerprint": program_fingerprint,
            "inputs": sorted(inputs.items()),
            "max_steps_per_execution": config.max_steps_per_execution,
        }
        digest = hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def _path(self, program: str, key: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in program)
        return self.cache_dir / f"{safe}-{key[:16]}.json"

    # -------------------------------------------------------------- load/store

    def load(
        self,
        program: str,
        inputs: Dict[str, int],
        config: PortendConfig,
        program_fingerprint: str = "",
    ) -> Optional[ExecutionTrace]:
        """Return the cached trace, or None on a miss or a corrupt entry."""
        key = self.key(program, inputs, config, program_fingerprint)
        path = self._path(program, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("key") != key:
                raise ValueError("cache key mismatch")
            trace = ExecutionTrace.from_dict(entry["trace"])
        except Exception:  # noqa: BLE001 - any unreadable entry is a miss
            # Corrupt, stale, or hand-edited entries must never crash the
            # run; the engine simply re-records (and overwrites the entry).
            self.misses += 1
            return None
        self._record_hit(path)
        return trace

    def store(
        self,
        program: str,
        inputs: Dict[str, int],
        config: PortendConfig,
        trace: ExecutionTrace,
        program_fingerprint: str = "",
    ) -> Path:
        """Persist a recorded trace; returns the cache file path."""
        key = self.key(program, inputs, config, program_fingerprint)
        path = self._path(program, key)
        payload = json.dumps(
            {"key": key, "stored_at": time.time(), "trace": trace.to_dict()}
        )
        _atomic_write_json(self.cache_dir, path, payload)
        self._evict_overflow()
        return path


class ClassificationCache(_DirectoryCache):
    """Directory-backed cache of classified races (the pipeline's back half).

    Keys cover everything a classification depends on: the program *content*
    (fingerprint, so what-if variants sharing a registry name never
    collide), the inputs, the race id, the **full** classification config
    (seed, Mp/Ma, ablation switches -- see
    :meth:`PortendConfig.classification_fingerprint`), and the predicate set
    (both the ``use_semantic_predicates`` mode and the predicate names).
    """

    kind = "classification"

    # -------------------------------------------------------------------- key

    @staticmethod
    def predicate_fingerprint(predicates) -> str:
        """Stable fingerprint of the semantic predicates in effect.

        Covers each predicate's name *and* (best-effort) its logic: compiled
        bytecode, closure cell values, argument defaults, and
        ``functools.partial`` bindings, so editing a predicate's body or its
        captured parameters invalidates cached verdicts even when its name
        stays the same.  Only process-stable inputs go into the hash --
        never object ``repr``s that embed memory addresses, which would
        break warm-run cache hits across processes.  Known limit:
        non-primitive captured objects reduce to their type name, so
        mutating such an object's *content* does not invalidate.
        """
        parts = []
        for predicate in predicates:
            parts.append(f"{predicate.name}:{_callable_fingerprint(predicate.check)}")
        return "|".join(sorted(parts))

    @staticmethod
    def key(
        program: str,
        inputs: Dict[str, int],
        config: PortendConfig,
        race_id: int,
        program_fingerprint: str = "",
        use_semantic_predicates: bool = False,
        predicate_fingerprint: str = "",
    ) -> str:
        """Stable fingerprint of one classification."""
        fingerprint = {
            "version": CLASSIFICATION_FORMAT_VERSION,
            "program": program,
            "program_fingerprint": program_fingerprint,
            "inputs": sorted(inputs.items()),
            "config": config.classification_fingerprint(),
            "race_id": race_id,
            "use_semantic_predicates": use_semantic_predicates,
            "predicates": predicate_fingerprint,
        }
        digest = hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def _path(self, program: str, key: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in program)
        return self.cache_dir / f"{safe}-cls-{key[:16]}.json"

    # -------------------------------------------------------------- load/store

    def load(self, program: str, key: str) -> Optional[ClassifiedRace]:
        """Return the cached classification, or None on a miss."""
        path = self._path(program, key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("key") != key:
                raise ValueError("cache key mismatch")
            classified = ClassifiedRace.from_dict(entry["classified"])
        except Exception:  # noqa: BLE001 - any unreadable entry is a miss
            # Corrupt, stale, or hand-edited entries must never crash the
            # run; the engine simply re-classifies (and overwrites).
            self.misses += 1
            return None
        self._record_hit(path)
        return classified

    def store(self, program: str, key: str, classified: ClassifiedRace) -> Path:
        """Persist a classification; returns the cache file path."""
        path = self._path(program, key)
        payload = json.dumps(
            {"key": key, "stored_at": time.time(), "classified": classified.to_dict()}
        )
        _atomic_write_json(self.cache_dir, path, payload)
        self._evict_overflow()
        return path
