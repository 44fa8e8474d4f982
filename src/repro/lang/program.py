"""Program container: globals, synchronisation objects and functions.

A :class:`Program` corresponds to a compiled binary in the original system:
it owns the AST of every function, the declarations of shared state, and the
static metadata the analyses rely on (pc → statement map, per-function
write sets for the infinite-loop detector, a source-lines-of-code estimate
for Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lang.ast import (
    ArrayRef,
    Assign,
    Call,
    Free,
    GlobalRef,
    HeapRef,
    If,
    Input,
    Malloc,
    Stmt,
    While,
    expression_reads,
    iter_statements,
)


class ProgramError(Exception):
    """Raised for malformed programs (unknown functions, duplicate names...)."""


@dataclass
class ArrayDecl:
    """A fixed-size global array with a fill value."""

    name: str
    size: int
    fill: int = 0


@dataclass
class Function:
    """A named function with positional parameters and a statement body."""

    name: str
    params: Tuple[str, ...]
    body: Tuple[Stmt, ...]

    def __deepcopy__(self, memo: dict) -> "Function":
        return self


class Program:
    """An immutable-after-finalize program."""

    def __init__(self, name: str, language: str = "C") -> None:
        self.name = name
        self.language = language
        self.globals: Dict[str, int] = {}
        self.arrays: Dict[str, ArrayDecl] = {}
        self.mutexes: Set[str] = set()
        self.condvars: Set[str] = set()
        self.barriers: Dict[str, int] = {}
        self.functions: Dict[str, Function] = {}
        self.entry: str = "main"
        self._finalized = False
        self._pc_map: Dict[int, Stmt] = {}
        self._write_sets: Dict[str, FrozenSet[Tuple[str, Optional[str]]]] = {}
        self._input_decls: Dict[str, Input] = {}

    # ------------------------------------------------------------ declarations

    def add_global(self, name: str, initial: int = 0) -> None:
        self._check_not_finalized()
        if name in self.globals or name in self.arrays:
            raise ProgramError(f"duplicate global {name!r}")
        self.globals[name] = initial

    def add_array(self, name: str, size: int, fill: int = 0) -> None:
        self._check_not_finalized()
        if name in self.globals or name in self.arrays:
            raise ProgramError(f"duplicate global {name!r}")
        if size <= 0:
            raise ProgramError(f"array {name!r} must have positive size")
        self.arrays[name] = ArrayDecl(name, size, fill)

    def add_mutex(self, name: str) -> None:
        self._check_not_finalized()
        self.mutexes.add(name)

    def add_condvar(self, name: str) -> None:
        self._check_not_finalized()
        self.condvars.add(name)

    def add_barrier(self, name: str, parties: int) -> None:
        self._check_not_finalized()
        if parties <= 0:
            raise ProgramError(f"barrier {name!r} must have positive party count")
        self.barriers[name] = parties

    def add_function(self, function: Function) -> None:
        self._check_not_finalized()
        if function.name in self.functions:
            raise ProgramError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function

    # ---------------------------------------------------------------- finalize

    def finalize(self) -> "Program":
        """Assign program counters and compute static metadata."""
        if self._finalized:
            return self
        if self.entry not in self.functions:
            raise ProgramError(f"entry function {self.entry!r} is not defined")
        pc = 0
        for function in self.functions.values():
            for stmt in iter_statements(function.body):
                pc += 1
                stmt.pc = pc
                if not stmt.label:
                    stmt.label = f"{self.name}.c:{pc}"
                self._pc_map[pc] = stmt
                if isinstance(stmt, Input):
                    self._input_decls.setdefault(stmt.name, stmt)
        self._validate()
        self._compute_write_sets()
        self._finalized = True
        return self

    def _validate(self) -> None:
        for function in self.functions.values():
            for stmt in iter_statements(function.body):
                if isinstance(stmt, Call) and stmt.function not in self.functions:
                    raise ProgramError(
                        f"{function.name}: call to unknown function {stmt.function!r}"
                    )
                if isinstance(stmt, (Assign,)):
                    target = stmt.target
                    if isinstance(target, GlobalRef) and target.name not in self.globals:
                        raise ProgramError(
                            f"{function.name}: assignment to undeclared global {target.name!r}"
                        )
                    if isinstance(target, ArrayRef) and target.name not in self.arrays:
                        raise ProgramError(
                            f"{function.name}: assignment to undeclared array {target.name!r}"
                        )

    def _compute_write_sets(self) -> None:
        """Compute, per function, the set of shared locations it may write.

        The result over-approximates writes transitively through calls and is
        used by the infinite-loop detector (§3.5): a busy-wait loop whose exit
        condition cannot be written by any other live thread is an infinite
        loop rather than ad-hoc synchronisation.
        """
        direct: Dict[str, Set[Tuple[str, Optional[str]]]] = {}
        calls: Dict[str, Set[str]] = {}
        for name, function in self.functions.items():
            writes: Set[Tuple[str, Optional[str]]] = set()
            callees: Set[str] = set()
            for stmt in iter_statements(function.body):
                if isinstance(stmt, Assign):
                    target = stmt.target
                    if isinstance(target, GlobalRef):
                        writes.add(("global", target.name))
                    elif isinstance(target, ArrayRef):
                        writes.add(("array", target.name))
                    elif isinstance(target, HeapRef):
                        writes.add(("heap", None))
                elif isinstance(stmt, (Malloc, Free)):
                    writes.add(("heap", None))
                elif isinstance(stmt, Call):
                    callees.add(stmt.function)
            direct[name] = writes
            calls[name] = callees

        # Transitive closure over the (small, acyclic in practice) call graph.
        resolved: Dict[str, FrozenSet[Tuple[str, Optional[str]]]] = {}

        def resolve(name: str, seen: Set[str]) -> FrozenSet[Tuple[str, Optional[str]]]:
            if name in resolved:
                return resolved[name]
            if name in seen or name not in direct:
                return frozenset(direct.get(name, set()))
            seen = seen | {name}
            writes = set(direct[name])
            for callee in calls.get(name, set()):
                writes |= resolve(callee, seen)
            result = frozenset(writes)
            resolved[name] = result
            return result

        for name in self.functions:
            self._write_sets[name] = resolve(name, set())

    def _check_not_finalized(self) -> None:
        if self._finalized:
            raise ProgramError("program is already finalized")

    # ------------------------------------------------------------------ queries

    @property
    def finalized(self) -> bool:
        return self._finalized

    def statement_at(self, pc: int) -> Stmt:
        try:
            return self._pc_map[pc]
        except KeyError as exc:
            raise ProgramError(f"no statement with pc {pc}") from exc

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError as exc:
            raise ProgramError(f"unknown function {name!r}") from exc

    def write_set(self, function_name: str) -> FrozenSet[Tuple[str, Optional[str]]]:
        return self._write_sets.get(function_name, frozenset())

    def input_declarations(self) -> Dict[str, Input]:
        """Named program inputs (for marking inputs symbolic)."""
        return dict(self._input_decls)

    def statement_count(self) -> int:
        return len(self._pc_map)

    def lines_of_code(self) -> int:
        """A statement-count LoC estimate, used for the Table 1 reproduction."""
        # Declarations also count as a line each, like `cloc` would count them.
        declarations = (
            len(self.globals)
            + len(self.arrays)
            + len(self.mutexes)
            + len(self.condvars)
            + len(self.barriers)
            + len(self.functions)
        )
        return self.statement_count() + declarations

    def all_pcs(self) -> List[int]:
        return sorted(self._pc_map)

    def __deepcopy__(self, memo: dict) -> "Program":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program({self.name!r}, functions={len(self.functions)}, "
            f"statements={self.statement_count()})"
        )
