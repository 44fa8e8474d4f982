"""Shared-memory model: globals, fixed-size arrays and a malloc/free heap.

Memory locations are identified by hashable tuples (see
:class:`MemoryLocation`); the race detector keys its access histories on
them, and Portend's reports print them.  All error conditions raise
:class:`repro.runtime.errors.ProgramCrash`, which the executor turns into a
``CRASH`` outcome -- mirroring how KLEE terminates a state on a memory error
(§3.5 "For memory errors, Portend relies on the mechanism already provided by
KLEE inside Cloud9").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.lang.program import Program
from repro.runtime.errors import CrashKind, ProgramCrash
from repro.symex.expr import Value, is_symbolic


@dataclass(frozen=True)
class MemoryLocation:
    """Identity of a shared memory cell.

    ``space`` is one of ``"global"``, ``"array"`` or ``"heap"``; ``name`` is
    the variable/array name (or the allocation id for heap objects) and
    ``index`` the element index for arrays and heap objects.
    """

    space: str
    name: str
    index: int = 0

    def describe(self) -> str:
        if self.space == "global":
            return self.name
        if self.space == "array":
            return f"{self.name}[{self.index}]"
        return f"heap#{self.name}[{self.index}]"


@dataclass
class HeapObject:
    """A heap allocation: a fixed-size cell vector plus a freed flag."""

    object_id: int
    size: int
    cells: List[Value]
    freed: bool = False


class Memory:
    """The mutable shared-memory image of one execution state.

    Cloning is copy-on-write: :meth:`clone` shares every container with the
    copy and marks both sides unowned, and each mutator re-copies exactly
    the container it is about to write (the globals dict, one array, one
    heap object).  A state fork is therefore O(touched cells), not
    O(memory image); untouched containers stay shared for the lifetime of
    both states.  Readers never materialize anything.
    """

    def __init__(self, program: Program) -> None:
        self._globals: Dict[str, Value] = dict(program.globals)
        self._arrays: Dict[str, List[Value]] = {
            name: [decl.fill] * decl.size for name, decl in program.arrays.items()
        }
        self._array_sizes: Dict[str, int] = {
            name: decl.size for name, decl in program.arrays.items()
        }
        self._heap: Dict[int, HeapObject] = {}
        self._next_object_id = 1
        self._globals_owned = True
        self._arrays_owned = True
        self._owned_arrays = set(self._arrays)
        self._heap_owned = True
        self._owned_objects: set = set()
        self.counters = None

    # ------------------------------------------------------------------ clone

    def clone(self) -> "Memory":
        """A copy-on-write clone; both sides relinquish ownership.

        After the clone every container is reachable from both memories, so
        the next write on *either* side must materialize a private copy --
        hence ownership is dropped on ``self`` as well as on the copy.
        """
        copy = Memory.__new__(Memory)
        copy._globals = self._globals
        copy._arrays = self._arrays
        copy._array_sizes = self._array_sizes  # immutable after __init__
        copy._heap = self._heap
        copy._next_object_id = self._next_object_id
        copy.counters = self.counters
        for memory in (self, copy):
            memory._globals_owned = False
            memory._arrays_owned = False
            memory._owned_arrays = set()
            memory._heap_owned = False
            memory._owned_objects = set()
        return copy

    def __deepcopy__(self, memo: dict) -> "Memory":
        return self.clone()

    # ------------------------------------------------- copy-on-write plumbing

    def _count_copy(self) -> None:
        if self.counters is not None:
            self.counters.cow_copies += 1

    def _own_globals(self) -> None:
        if not self._globals_owned:
            self._globals = dict(self._globals)
            self._globals_owned = True
            self._count_copy()

    def _own_array(self, name: str) -> List[Value]:
        if name not in self._owned_arrays:
            if not self._arrays_owned:
                self._arrays = dict(self._arrays)
                self._arrays_owned = True
            self._arrays[name] = list(self._arrays[name])
            self._owned_arrays.add(name)
            self._count_copy()
        return self._arrays[name]

    def _own_heap_dict(self) -> None:
        if not self._heap_owned:
            self._heap = dict(self._heap)
            self._heap_owned = True

    def _own_object(self, pointer: int) -> HeapObject:
        obj = self._heap[pointer]
        if pointer not in self._owned_objects:
            self._own_heap_dict()
            obj = HeapObject(obj.object_id, obj.size, list(obj.cells), obj.freed)
            self._heap[pointer] = obj
            self._owned_objects.add(pointer)
            self._count_copy()
        return obj

    # ---------------------------------------------------------------- globals

    def has_global(self, name: str) -> bool:
        return name in self._globals

    def load_global(self, name: str) -> Value:
        try:
            return self._globals[name]
        except KeyError as exc:
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"read of undeclared global {name!r}"
            ) from exc

    def store_global(self, name: str, value: Value) -> None:
        if name not in self._globals:
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"write to undeclared global {name!r}"
            )
        self._own_globals()
        self._globals[name] = value

    # ----------------------------------------------------------------- arrays

    def has_array(self, name: str) -> bool:
        return name in self._arrays

    def array_size(self, name: str) -> int:
        try:
            return self._array_sizes[name]
        except KeyError as exc:
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"access to undeclared array {name!r}"
            ) from exc

    def load_array(self, name: str, index: int) -> Value:
        self._check_bounds(name, index)
        return self._arrays[name][index]

    def store_array(self, name: str, index: int, value: Value) -> None:
        self._check_bounds(name, index)
        self._own_array(name)[index] = value

    def _check_bounds(self, name: str, index: int) -> None:
        size = self.array_size(name)
        if not isinstance(index, int) or isinstance(index, bool) and False:
            raise ProgramCrash(
                CrashKind.OUT_OF_BOUNDS, f"non-integer index into array {name!r}"
            )
        if index < 0 or index >= size:
            raise ProgramCrash(
                CrashKind.OUT_OF_BOUNDS,
                f"index {index} out of bounds for array {name!r} of size {size}",
            )

    # ------------------------------------------------------------------- heap

    def malloc(self, size: int) -> int:
        if size <= 0:
            raise ProgramCrash(CrashKind.INVALID_POINTER, f"malloc of size {size}")
        object_id = self._next_object_id
        self._next_object_id += 1
        self._own_heap_dict()
        self._heap[object_id] = HeapObject(object_id, size, [0] * size)
        self._owned_objects.add(object_id)
        return object_id

    def free(self, pointer: int) -> None:
        obj = self._lookup_object(pointer, for_free=True)
        if obj.freed:
            raise ProgramCrash(
                CrashKind.DOUBLE_FREE, f"double free of heap object #{pointer}"
            )
        self._own_object(pointer).freed = True

    def load_heap(self, pointer: int, index: int) -> Value:
        obj = self._checked_object(pointer, index)
        return obj.cells[index]

    def store_heap(self, pointer: int, index: int, value: Value) -> None:
        self._checked_object(pointer, index)
        self._own_object(pointer).cells[index] = value

    def heap_object(self, pointer: int) -> HeapObject:
        return self._lookup_object(pointer, for_free=False)

    def live_heap_objects(self) -> List[HeapObject]:
        return [obj for obj in self._heap.values() if not obj.freed]

    def _lookup_object(self, pointer: int, for_free: bool) -> HeapObject:
        if not isinstance(pointer, int) or pointer <= 0:
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"invalid pointer value {pointer!r}"
            )
        obj = self._heap.get(pointer)
        if obj is None:
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"unknown heap object #{pointer}"
            )
        return obj

    def _checked_object(self, pointer: int, index: int) -> HeapObject:
        obj = self._lookup_object(pointer, for_free=False)
        if obj.freed:
            raise ProgramCrash(
                CrashKind.USE_AFTER_FREE, f"use of freed heap object #{pointer}"
            )
        if index < 0 or index >= obj.size:
            raise ProgramCrash(
                CrashKind.OUT_OF_BOUNDS,
                f"index {index} out of bounds for heap object #{pointer} "
                f"of size {obj.size}",
            )
        return obj

    # -------------------------------------------------------------- snapshots

    def snapshot(self) -> Tuple:
        """A hashable snapshot of the concrete shared state.

        Used by the Record/Replay-Analyzer baseline, which compares the
        memory state of the primary and alternate executions right after the
        race.  Symbolic cells are rendered by repr so that two snapshots are
        equal only when they agree structurally.
        """
        def freeze(value: Value):
            return value if not is_symbolic(value) else ("sym", repr(value))

        globals_part = tuple(sorted((k, freeze(v)) for k, v in self._globals.items()))
        arrays_part = tuple(
            (name, tuple(freeze(v) for v in cells))
            for name, cells in sorted(self._arrays.items())
        )
        heap_part = tuple(
            (oid, obj.freed, tuple(freeze(v) for v in obj.cells))
            for oid, obj in sorted(self._heap.items())
        )
        return globals_part, arrays_part, heap_part

    def key(self) -> Tuple:
        """An equality-comparable image of the whole memory.

        Unlike :meth:`snapshot` it keeps symbolic cells as expressions
        (compared structurally), freed heap objects and the allocation
        counter, so two keys are equal exactly when every later load,
        store, ``malloc`` and ``free`` behaves the same on both memories.
        Meant for ``==``, not for hashing.
        """
        return (
            tuple(self._globals.items()),
            tuple((name, tuple(cells)) for name, cells in self._arrays.items()),
            tuple(
                (oid, obj.size, obj.freed, tuple(obj.cells))
                for oid, obj in self._heap.items()
            ),
            self._next_object_id,
        )

    def globals_view(self) -> Dict[str, Value]:
        return dict(self._globals)

    def arrays_view(self) -> Dict[str, List[Value]]:
        return {name: list(cells) for name, cells in self._arrays.items()}
