"""On-disk caches: traces (Stage 1) and classifications (Stage 3).

Both halves of the pipeline are deterministic, so both are cacheable:

* :class:`TraceCache` -- recording is the front half of the pipeline cost;
  for a fixed ``(program, inputs, config)`` triple the recorded trace is
  deterministic, so it can be reused across engine runs (and across
  processes -- the cache stores the JSON form of
  :meth:`ExecutionTrace.to_dict`).  Only the configuration knobs that
  influence *recording* take part in the cache key (classification knobs
  like Mp/Ma/seed do not invalidate a recording).
* :class:`ClassificationCache` -- a ``ClassifiedRace`` is deterministic
  given ``(program, inputs, config, race_id)`` plus the predicate set, so
  warm re-runs of ``python -m repro.experiments all --cache-dir D`` can skip
  classification entirely.  Here the key must cover *every* classification
  knob (``race_seed``'s base seed, the Mp/Ma limits, the ablation switches,
  the predicate mode): any config change invalidates cached verdicts rather
  than silently serving stale classifications.  One file holds all the
  races of one workload run; each race is an entry with its own key.  An
  entry holds the verdict without its race: the race is already encoded in
  the trace, and a load hands each verdict the recording's own report.

Both caches take and return objects; this module is the only one that
turns traces and verdicts into dicts and back.  Each cache mixes a format
version into its keys so stale entries from older layouts are simply
missed, never mis-parsed.  Both caches can share one
directory: their file names use disjoint infixes.

Both caches are plain content-addressed files: a load only reads, a store
writes one file atomically, so a warm run leaves the directory untouched.
Nothing evicts entries; the directory is user-managed (delete it to
reclaim space).  Hit counts live in the run's ``cache`` events, not here.
``collect_cache_info`` / ``render_cache_info`` back the ``cache-info`` CLI
subcommand, which dumps per-file kind, age, entry count and size for a
cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import weakref
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.categories import ClassifiedRace
from repro.core.config import PortendConfig
from repro.detection.race_report import RaceReport
from repro.record_replay.trace import ExecutionTrace

#: bump when the serialized trace layout changes incompatibly
TRACE_FORMAT_VERSION = 1

#: bump when the serialized ClassifiedRace layout changes incompatibly
#: (2: one file per workload run, one entry per race; 3: entries without
#: their race, the version written first in each file)
CLASSIFICATION_FORMAT_VERSION = 3

#: how every classification file of the current layout begins (the version
#: is its first key), so a store tells layouts apart without parsing files
_CLASSIFICATION_HEAD = f'{{"version": {CLASSIFICATION_FORMAT_VERSION}, '.encode("utf-8")

#: the :class:`Program` declarations a program fingerprint covers; the
#: derived maps ``finalize()`` computes from them are not hashed
PROGRAM_FIELDS = (
    "name", "language", "globals", "arrays", "mutexes", "condvars", "barriers", "functions", "entry"
)

#: finalized Program -> (guard, digest); see TraceCache.program_fingerprint
_FINGERPRINTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


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


def _program_guard(program) -> tuple:
    """A shallow snapshot of a program's declarations.  It holds each
    function and body object, not its id (a freed object's id is reused);
    tuple comparison short-circuits on identity, so it stays cheap."""
    return (
        program.name,
        program.language,
        program.entry,
        tuple(program.globals.items()),
        tuple(program.barriers.items()),
        tuple(sorted(program.mutexes)),
        tuple(sorted(program.condvars)),
        tuple((decl.name, decl.size, decl.fill) for decl in program.arrays.values()),
        tuple((name, fn, fn.body) for name, fn in program.functions.items()),
    )


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


class _DirectoryCache:
    """Shared listing for the on-disk caches.

    Both caches may share one directory; entry ownership is decided by the
    ``-cls-`` file-name infix.
    """

    _CLS_INFIX = "-cls-"
    #: "trace" or "classification"; also decides entry-file ownership
    kind = ""

    def __init__(self, cache_dir) -> None:
        self.cache_dir = Path(cache_dir)

    def _owns(self, path: Path) -> bool:
        is_classification = self._CLS_INFIX in path.name
        return is_classification if self.kind == "classification" else not is_classification

    @staticmethod
    def _entry_count(data: Dict) -> int:
        """How many results one parsed file holds."""
        return 1

    def _file_pattern(self, program: str) -> str:
        """A glob matching ``program``'s ``<prefix><16 hex>.json`` files
        (each cache names its own ``_prefix``)."""
        return self._prefix(program) + "[0-9a-f]" * 16 + ".json"

    def _drop_sidecars(self, program: str) -> None:
        """Delete the ``<file>.json.hits`` hit-count sidecars older versions
        wrote beside ``program``'s files: nothing reads or lists them."""
        for sidecar in self.cache_dir.glob(self._file_pattern(program) + ".hits"):
            sidecar.unlink(missing_ok=True)

    def info(self) -> List[Dict]:
        """Per-file metadata: file, kind, age, entries, size."""
        now = time.time()
        rows: List[Dict] = []
        for path in sorted(self.cache_dir.glob("*.json")):
            if not self._owns(path):
                continue
            try:
                stat = path.stat()
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                stored_at = data.get("stored_at", stat.st_mtime)
                entries = self._entry_count(data)
            except (OSError, ValueError, AttributeError, TypeError):
                continue
            rows.append(
                {
                    "file": path.name,
                    "kind": self.kind,
                    "age_seconds": max(0.0, now - float(stored_at)),
                    "entries": entries,
                    "size_bytes": stat.st_size,
                }
            )
        return rows


def collect_cache_info(cache_dir) -> List[Dict]:
    """Per-file metadata for both cache tiers sharing ``cache_dir``."""
    return TraceCache(cache_dir).info() + ClassificationCache(cache_dir).info()


def render_cache_info(rows: List[Dict]) -> str:
    """Human-readable table backing the ``cache-info`` CLI subcommand."""
    if not rows:
        return "cache-info: no cache entries"
    lines = [
        f"cache-info: {len(rows)} files",
        f"{'kind':<16} {'age':>10} {'entries':>7} {'size':>10}  file",
    ]
    for row in sorted(rows, key=lambda r: (r["kind"], r["file"])):
        lines.append(
            f"{row['kind']:<16} {row['age_seconds']:>9.1f}s {row['entries']:>7} "
            f"{row['size_bytes']:>9}B  {row['file']}"
        )
    return "\n".join(lines)


class TraceCache(_DirectoryCache):
    """Directory-backed cache of recorded execution traces."""

    kind = "trace"

    # -------------------------------------------------------------------- key

    @staticmethod
    def program_fingerprint(program) -> str:
        """Content hash of a :class:`Program`'s declarations.

        Two workloads can share a name but differ in code (what-if variants
        like ``build_memcached(remove_slab_lock=True)``), so the cache key
        must cover the program *content*, not just its name.  The hash is
        taken over the :func:`_canonical` reduction of :data:`PROGRAM_FIELDS`
        (not the maps ``finalize()`` derives from them), stable across
        rebuilds and processes.  A finalized program's digest is memoised
        per object until its :func:`_program_guard` changes.  Known limit:
        an in-place ``Stmt`` mutation after ``finalize()`` breaks the
        immutable-after-finalize contract and is not detected.
        """
        guard = _program_guard(program) if program.finalized else None
        memo = _FINGERPRINTS.get(program) if guard is not None else None
        if memo is not None and memo[0] == guard:
            return memo[1]
        canonical = _canonical([(name, getattr(program, name)) for name in PROGRAM_FIELDS])
        digest = hashlib.sha256(repr(canonical).encode("utf-8")).hexdigest()
        if guard is not None:
            _FINGERPRINTS[program] = (guard, digest)
        return digest

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

    @staticmethod
    def _prefix(program: str) -> str:
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in program)
        return f"{safe}-"

    def _path(self, program: str, key: str) -> Path:
        return self.cache_dir / f"{self._prefix(program)}{key[:16]}.json"

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
            return None
        return trace

    def store(
        self,
        program: str,
        inputs: Dict[str, int],
        config: PortendConfig,
        trace: ExecutionTrace,
        program_fingerprint: str = "",
    ) -> Path:
        """Persist a recorded trace (as ``ExecutionTrace.to_dict``); returns
        the cache file path.  Drops the program's old ``.hits`` sidecars."""
        key = self.key(program, inputs, config, program_fingerprint)
        path = self._path(program, key)
        payload = json.dumps(
            {"key": key, "stored_at": time.time(), "trace": trace.to_dict()}
        )
        _atomic_write_json(self.cache_dir, path, payload)
        self._drop_sidecars(program)
        return path


class ClassificationCache(_DirectoryCache):
    """Directory-backed cache of classified races (the pipeline's back half).

    One file per workload run, ``<program>-cls-<file key>.json``, holds
    ``{"version", "key", "stored_at", "entries": {race_id: {"key",
    "classified"}}}``, where ``classified`` is the verdict's dict without
    its ``race``.
    The file key (:meth:`file_key`) covers everything a classification
    depends on except the race: the program *content* (fingerprint, so
    what-if variants sharing a registry name never collide), the inputs, the
    **full** classification config (seed, Mp/Ma, ablation switches -- see
    :meth:`PortendConfig.classification_fingerprint`), and the predicate set
    (the ``use_semantic_predicates`` mode and :meth:`predicate_fingerprint`).
    Each entry carries its per-race :meth:`entry_key` and is served only
    when that key matches.  This class
    owns the dict format: callers store and load ``ClassifiedRace`` objects.
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
    def file_key(
        program: str,
        inputs: Dict[str, int],
        config: PortendConfig,
        program_fingerprint: str = "",
        use_semantic_predicates: bool = False,
        predicate_fingerprint: str = "",
    ) -> str:
        """Stable fingerprint of one workload run's classifications."""
        fingerprint = {
            "version": CLASSIFICATION_FORMAT_VERSION,
            "program": program,
            "program_fingerprint": program_fingerprint,
            "inputs": sorted(inputs.items()),
            "config": config.classification_fingerprint(),
            "use_semantic_predicates": use_semantic_predicates,
            "predicates": predicate_fingerprint,
        }
        digest = hashlib.sha256(
            json.dumps(fingerprint, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    @staticmethod
    def entry_key(file_key: str, race_id: int) -> str:
        """The key of one race's entry inside the file keyed ``file_key``."""
        return hashlib.sha256(f"{file_key}:{race_id}".encode("utf-8")).hexdigest()

    @staticmethod
    def _prefix(program: str) -> str:
        safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in program)
        return f"{safe}-cls-"

    def _path(self, program: str, key: str) -> Path:
        return self.cache_dir / f"{self._prefix(program)}{key[:16]}.json"

    @staticmethod
    def _entry_count(data: Dict) -> int:
        return len(data.get("entries") or ())

    # -------------------------------------------------------------- load/store

    def load(
        self, program: str, file_key: str, races: Sequence[RaceReport]
    ) -> Optional[Dict[int, ClassifiedRace]]:
        """Serve ``races``, one recording's reports, from the file keyed
        ``file_key``.

        Returns race id -> decoded verdict, holding that recording's report,
        for every entry whose :meth:`entry_key` matches, or None when the
        file is missing or corrupt or serves no race.
        """
        path = self._path(program, file_key)
        served: Dict[int, ClassifiedRace] = {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            if data.get("key") != file_key:
                raise ValueError("cache key mismatch")
            entries = data["entries"]
            for race in races:
                entry = entries.get(str(race.race_id))
                if entry is not None and entry.get("key") == self.entry_key(
                    file_key, race.race_id
                ):
                    served[race.race_id] = ClassifiedRace.from_dict(
                        entry["classified"], race
                    )
        except Exception:  # noqa: BLE001 - any unreadable file is a miss
            # Corrupt, stale, or hand-edited files must never crash the run;
            # the engine simply re-classifies (and overwrites the file).
            return None
        return served or None

    def store(
        self, program: str, file_key: str, races: Dict[int, ClassifiedRace]
    ) -> Path:
        """Persist one workload run's races (race id -> ``ClassifiedRace``)
        as one file, each entry under its :meth:`entry_key` and without its
        race (the trace holds it); returns the cache file path."""
        path = self._path(program, file_key)
        entries = {
            str(race_id): {
                "key": self.entry_key(file_key, race_id),
                "classified": replace(races[race_id], race=None).to_dict(),
            }
            for race_id in sorted(races)
        }
        payload = json.dumps(
            {
                "version": CLASSIFICATION_FORMAT_VERSION,
                "key": file_key,
                "stored_at": time.time(),
                "entries": entries,
            }
        )
        _atomic_write_json(self.cache_dir, path, payload)
        self._drop_old_layouts(program, path)
        return path

    def _drop_old_layouts(self, program: str, written: Path) -> None:
        """Delete ``program``'s classification files of another layout.

        Every key covers the format version, so no key reaches a file of
        another version again, and nothing else ever deletes it.  Nor does
        anything read the ``<file>.json.hits`` hit-count sidecars older
        versions wrote beside each file, so they go too.  Only each file's
        head is read: a file of the current layout begins with
        :data:`_CLASSIFICATION_HEAD` and stays, whatever config it was
        written for.
        """
        self._drop_sidecars(program)
        for path in self.cache_dir.glob(self._file_pattern(program)):
            if path == written:
                continue
            try:
                with open(path, "rb") as handle:
                    head = handle.read(len(_CLASSIFICATION_HEAD))
            except OSError:
                continue
            if head != _CLASSIFICATION_HEAD:
                path.unlink(missing_ok=True)
