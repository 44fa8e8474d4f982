"""Abstract syntax tree of the mini concurrent language.

Expressions and statements are plain mutable-by-construction objects that are
*frozen in practice* after :meth:`repro.lang.program.Program.finalize` runs:
the runtime never mutates them, and execution states share the AST (their
``__deepcopy__`` returns ``self``) so checkpointing stays cheap.  A bare
integer given where an expression is expected -- a statement's expression or
an expression node's operand -- becomes a :class:`Const` at construction, so
the interpreter evaluates ``Expr`` trees only.

Expression operator names mirror C (``+``, ``==``, ``&&`` ...), and the
expression helpers (:func:`add`, :func:`eq`, ...) make workload definitions
readable without a parser.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr:
    """Base class for expressions. Shared between states; never deep-copied."""

    __slots__ = ()

    def __deepcopy__(self, memo: dict) -> "Expr":
        return self


@dataclass(frozen=True)
class Const(Expr):
    """A literal integer (booleans are written as 0/1)."""

    value: int


@dataclass(frozen=True)
class LocalRef(Expr):
    """A read of a thread-local (stack) variable."""

    name: str


@dataclass(frozen=True)
class GlobalRef(Expr):
    """A read of a global scalar variable (shared memory)."""

    name: str


@dataclass(frozen=True)
class ArrayRef(Expr):
    """A read of an element of a fixed-size global array."""

    name: str
    index: "ExprLike"

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", as_expr(self.index))


@dataclass(frozen=True)
class HeapRef(Expr):
    """A read of a heap cell: ``pointer[index]``."""

    pointer: "ExprLike"
    index: "ExprLike"

    def __post_init__(self) -> None:
        object.__setattr__(self, "pointer", as_expr(self.pointer))
        object.__setattr__(self, "index", as_expr(self.index))


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation; ``op`` is a C-style operator token."""

    op: str
    left: "ExprLike"
    right: "ExprLike"

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", as_expr(self.left))
        object.__setattr__(self, "right", as_expr(self.right))


@dataclass(frozen=True)
class UnOp(Expr):
    """A unary operation: ``!`` or unary ``-``."""

    op: str
    operand: "ExprLike"

    def __post_init__(self) -> None:
        object.__setattr__(self, "operand", as_expr(self.operand))


@dataclass(frozen=True)
class InputRef(Expr):
    """A reference to a named program input (see the ``Input`` statement)."""

    name: str


ExprLike = Union[Expr, int]
LValue = Union[LocalRef, GlobalRef, ArrayRef, HeapRef]


def as_expr(value: ExprLike) -> Expr:
    """Wrap bare Python integers as ``Const`` nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value))
    if isinstance(value, int):
        return Const(value)
    raise TypeError(f"cannot use {value!r} as an expression")


# Expression helpers ---------------------------------------------------------


def local(name: str) -> LocalRef:
    return LocalRef(name)


def glob(name: str) -> GlobalRef:
    return GlobalRef(name)


def arr(name: str, index: ExprLike) -> ArrayRef:
    return ArrayRef(name, index)


def heap(pointer: ExprLike, index: ExprLike = 0) -> HeapRef:
    return HeapRef(pointer, index)


def _bin(op: str, left: ExprLike, right: ExprLike) -> BinOp:
    return BinOp(op, left, right)


def add(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("+", left, right)


def sub(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("-", left, right)


def mul(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("*", left, right)


def div(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("/", left, right)


def mod(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("%", left, right)


def eq(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("==", left, right)


def ne(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("!=", left, right)


def lt(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("<", left, right)


def le(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("<=", left, right)


def gt(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin(">", left, right)


def ge(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin(">=", left, right)


def logical_and(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("&&", left, right)


def logical_or(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("||", left, right)


def logical_not(operand: ExprLike) -> UnOp:
    return UnOp("!", operand)


def bit_and(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("&", left, right)


def bit_or(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("|", left, right)


def bit_xor(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("^", left, right)


def shl(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin("<<", left, right)


def shr(left: ExprLike, right: ExprLike) -> BinOp:
    return _bin(">>", left, right)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

_stmt_counter = itertools.count(1)


class Stmt:
    """Base class for statements.

    ``pc`` is a program-wide unique program counter assigned by
    :meth:`repro.lang.program.Program.finalize`; ``label`` is a
    ``file:line``-style location used in race reports.
    """

    __slots__ = ("pc", "label", "uid")

    def __init__(self, label: str = "") -> None:
        self.pc: int = -1
        self.label: str = label
        self.uid: int = next(_stmt_counter)

    def __deepcopy__(self, memo: dict) -> "Stmt":
        return self

    def children(self) -> Tuple[Sequence["Stmt"], ...]:
        """Nested statement blocks, used by the finalizer and static analyses."""
        return ()

    def describe(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        location = self.label or f"pc={self.pc}"
        return f"<{self.describe()} @ {location}>"


class Assign(Stmt):
    """``target = value`` where the target is any lvalue."""

    __slots__ = ("target", "value")

    def __init__(self, target: LValue, value: ExprLike, label: str = "") -> None:
        super().__init__(label)
        self.target = target
        self.value = as_expr(value)

    def describe(self) -> str:
        return f"Assign({self.target})"


class If(Stmt):
    """``if (cond) { then_body } else { else_body }``."""

    __slots__ = ("cond", "then_body", "else_body")

    def __init__(
        self,
        cond: ExprLike,
        then_body: Sequence[Stmt],
        else_body: Sequence[Stmt] = (),
        label: str = "",
    ) -> None:
        super().__init__(label)
        self.cond = as_expr(cond)
        self.then_body = tuple(then_body)
        self.else_body = tuple(else_body)

    def children(self) -> Tuple[Sequence[Stmt], ...]:
        return (self.then_body, self.else_body)


class While(Stmt):
    """``while (cond) { body }``."""

    __slots__ = ("cond", "body")

    def __init__(self, cond: ExprLike, body: Sequence[Stmt], label: str = "") -> None:
        super().__init__(label)
        self.cond = as_expr(cond)
        self.body = tuple(body)

    def children(self) -> Tuple[Sequence[Stmt], ...]:
        return (self.body,)


class Lock(Stmt):
    """``pthread_mutex_lock(mutex)``."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: str, label: str = "") -> None:
        super().__init__(label)
        self.mutex = mutex

    def describe(self) -> str:
        return f"Lock({self.mutex})"


class Unlock(Stmt):
    """``pthread_mutex_unlock(mutex)``."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: str, label: str = "") -> None:
        super().__init__(label)
        self.mutex = mutex

    def describe(self) -> str:
        return f"Unlock({self.mutex})"


class CondWait(Stmt):
    """``pthread_cond_wait(cond, mutex)``."""

    __slots__ = ("cond", "mutex")

    def __init__(self, cond: str, mutex: str, label: str = "") -> None:
        super().__init__(label)
        self.cond = cond
        self.mutex = mutex


class CondSignal(Stmt):
    """``pthread_cond_signal(cond)``."""

    __slots__ = ("cond",)

    def __init__(self, cond: str, label: str = "") -> None:
        super().__init__(label)
        self.cond = cond


class CondBroadcast(Stmt):
    """``pthread_cond_broadcast(cond)``."""

    __slots__ = ("cond",)

    def __init__(self, cond: str, label: str = "") -> None:
        super().__init__(label)
        self.cond = cond


class BarrierWait(Stmt):
    """``pthread_barrier_wait(barrier)``."""

    __slots__ = ("barrier",)

    def __init__(self, barrier: str, label: str = "") -> None:
        super().__init__(label)
        self.barrier = barrier


class Spawn(Stmt):
    """``pthread_create``: start ``function(args...)`` in a new thread.

    The new thread's id is stored in the local variable ``target`` of the
    spawning thread so that it can later be joined.
    """

    __slots__ = ("target", "function", "args")

    def __init__(
        self, target: str, function: str, args: Sequence[ExprLike] = (), label: str = ""
    ) -> None:
        super().__init__(label)
        self.target = target
        self.function = function
        self.args = tuple(as_expr(a) for a in args)

    def describe(self) -> str:
        return f"Spawn({self.function})"


class Join(Stmt):
    """``pthread_join`` on a thread id expression."""

    __slots__ = ("thread",)

    def __init__(self, thread: ExprLike, label: str = "") -> None:
        super().__init__(label)
        self.thread = as_expr(thread)


class Output(Stmt):
    """``write``/``printf``: emit the channel name plus evaluated values."""

    __slots__ = ("channel", "values")

    def __init__(self, channel: str, values: Sequence[ExprLike] = (), label: str = "") -> None:
        super().__init__(label)
        self.channel = channel
        self.values = tuple(as_expr(v) for v in values)

    def describe(self) -> str:
        return f"Output({self.channel})"


class Input(Stmt):
    """Read a named program input into a local variable.

    In a recording run the value comes from the concrete inputs supplied to
    the executor (or ``default``); during multi-path analysis the input is
    marked symbolic with the inclusive domain ``[lo, hi]``.
    """

    __slots__ = ("target", "name", "lo", "hi", "default")

    def __init__(
        self,
        target: str,
        name: str,
        lo: int = 0,
        hi: int = 255,
        default: int = 0,
        label: str = "",
    ) -> None:
        super().__init__(label)
        self.target = target
        self.name = name
        self.lo = lo
        self.hi = hi
        self.default = default

    def describe(self) -> str:
        return f"Input({self.name})"


class Assert(Stmt):
    """``assert(cond)``: a basic in-code specification predicate."""

    __slots__ = ("cond", "message")

    def __init__(self, cond: ExprLike, message: str = "assertion failed", label: str = "") -> None:
        super().__init__(label)
        self.cond = as_expr(cond)
        self.message = message


class Abort(Stmt):
    """Unconditional crash (e.g. modelling a segfaulting code path)."""

    __slots__ = ("message",)

    def __init__(self, message: str = "abort", label: str = "") -> None:
        super().__init__(label)
        self.message = message


class Call(Stmt):
    """Call ``function(args...)``; the return value lands in local ``target``."""

    __slots__ = ("target", "function", "args")

    def __init__(
        self,
        function: str,
        args: Sequence[ExprLike] = (),
        target: Optional[str] = None,
        label: str = "",
    ) -> None:
        super().__init__(label)
        self.function = function
        self.args = tuple(as_expr(a) for a in args)
        self.target = target

    def describe(self) -> str:
        return f"Call({self.function})"


class Return(Stmt):
    """Return from the current function, optionally with a value."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[ExprLike] = None, label: str = "") -> None:
        super().__init__(label)
        self.value = None if value is None else as_expr(value)


class Malloc(Stmt):
    """``target = malloc(size)``; the pointer is an opaque positive integer."""

    __slots__ = ("target", "size")

    def __init__(self, target: str, size: ExprLike, label: str = "") -> None:
        super().__init__(label)
        self.target = target
        self.size = as_expr(size)


class Free(Stmt):
    """``free(pointer)``; double frees and invalid frees crash the program."""

    __slots__ = ("pointer",)

    def __init__(self, pointer: ExprLike, label: str = "") -> None:
        super().__init__(label)
        self.pointer = as_expr(pointer)


class Yield(Stmt):
    """A scheduling point with no other effect (``sched_yield``)."""

    __slots__ = ()


class Sleep(Stmt):
    """``usleep``-style yield; ``ticks`` only documents intent."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: int = 1, label: str = "") -> None:
        super().__init__(label)
        self.ticks = ticks


class Nop(Stmt):
    """A statement with no effect (placeholder in generated code)."""

    __slots__ = ()


class Break(Stmt):
    """Break out of the innermost loop."""

    __slots__ = ()


class Continue(Stmt):
    """Continue with the next iteration of the innermost loop."""

    __slots__ = ()


SYNC_STMTS = (
    Lock,
    Unlock,
    CondWait,
    CondSignal,
    CondBroadcast,
    BarrierWait,
    Spawn,
    Join,
    Yield,
    Sleep,
)
"""Statement types that are always scheduler preemption points (§3.1)."""


def iter_statements(body: Sequence[Stmt]):
    """Yield every statement in ``body``, recursing into nested blocks."""
    for stmt in body:
        yield stmt
        for block in stmt.children():
            yield from iter_statements(block)


def expression_reads(expr: ExprLike):
    """Yield the shared-memory reads (globals / arrays / heap) in ``expr``.

    Used by static analyses (write-set computation, ad-hoc-sync pattern
    detection).  Nested index expressions are included.
    """
    expr = as_expr(expr)
    if isinstance(expr, GlobalRef):
        yield ("global", expr.name)
    elif isinstance(expr, ArrayRef):
        yield ("array", expr.name)
        yield from expression_reads(expr.index)
    elif isinstance(expr, HeapRef):
        yield ("heap", None)
        yield from expression_reads(expr.pointer)
        yield from expression_reads(expr.index)
    elif isinstance(expr, BinOp):
        yield from expression_reads(expr.left)
        yield from expression_reads(expr.right)
    elif isinstance(expr, UnOp):
        yield from expression_reads(expr.operand)


def statement_expressions(stmt: Stmt):
    """Yield the top-level expressions the executor evaluates for ``stmt``.

    Covers every expression a statement reads; the local a statement writes
    (an ``Assign`` to a ``LocalRef``, or the ``target`` of ``Spawn``,
    ``Input``, ``Call`` and ``Malloc``) is not an expression and is not
    yielded.
    """
    if isinstance(stmt, Assign):
        yield stmt.value
        target = stmt.target
        if isinstance(target, ArrayRef):
            yield target.index
        elif isinstance(target, HeapRef):
            yield target.pointer
            yield target.index
    elif isinstance(stmt, (If, While, Assert)):
        yield stmt.cond
    elif isinstance(stmt, (Spawn, Call)):
        yield from stmt.args
    elif isinstance(stmt, Join):
        yield stmt.thread
    elif isinstance(stmt, Output):
        yield from stmt.values
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, Malloc):
        yield stmt.size
    elif isinstance(stmt, Free):
        yield stmt.pointer


def local_reads(expr: ExprLike):
    """Yield the names of the locals ``expr`` reads (nested indices included)."""
    expr = as_expr(expr)
    if isinstance(expr, LocalRef):
        yield expr.name
    elif isinstance(expr, ArrayRef):
        yield from local_reads(expr.index)
    elif isinstance(expr, HeapRef):
        yield from local_reads(expr.pointer)
        yield from local_reads(expr.index)
    elif isinstance(expr, BinOp):
        yield from local_reads(expr.left)
        yield from local_reads(expr.right)
    elif isinstance(expr, UnOp):
        yield from local_reads(expr.operand)
