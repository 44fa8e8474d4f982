"""Symbolic integer/boolean expressions.

Concrete values are plain Python ``int`` (booleans are represented as 0/1 at
the expression level, mirroring how KLEE treats ``i1`` values).  Symbolic
values are instances of :class:`SymExpr`.  Every symbolic variable carries a
finite inclusive domain ``[lo, hi]``; this is the contract that keeps the
bounded solver complete.

The module exposes smart constructors (``sym_add``, ``sym_eq``, ...) that
constant-fold eagerly: applying them to two concrete operands returns a
concrete Python value, so interpreter code never needs to special-case the
"everything is concrete" fast path.

Symbolic nodes are **hash-consed**: the smart constructors (and the JSON
decoder) intern every node in a process-wide table, so structurally equal
expressions built through them are the *same object*.  Combined with the
per-node cached structural hash, this makes the dict/set operations the
solver's memoization layer relies on O(1) instead of O(tree).  Interning is
an optimization only -- equality stays the structural equality the frozen
dataclasses define, and nodes built by calling a constructor directly are
merely not shared, never wrong.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple, Union

Value = Union[int, "SymExpr"]


class ExprError(Exception):
    """Raised for malformed expressions or invalid concrete evaluation."""


class ConcreteEvaluationError(ExprError):
    """Raised when a concrete evaluation hits an undefined operation.

    The interpreter converts this into a program-level crash (e.g. division
    by zero), matching how KLEE turns undefined LLVM operations into errors.
    """


class Op(enum.Enum):
    """Operators of the expression language."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "and"
    OR = "or"
    NOT = "not"
    NEG = "neg"
    BAND = "&"
    BOR = "|"
    BXOR = "^"
    SHL = "<<"
    SHR = ">>"
    MIN = "min"
    MAX = "max"


_COMPARISONS = {Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE}
_BOOLEAN_OPS = {Op.AND, Op.OR, Op.NOT}


def _as_int(value: object) -> int:
    """Normalise concrete values to int (True/False become 1/0)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    raise ExprError(f"expected a concrete integer, got {value!r}")


class SymExpr:
    """Base class for all symbolic expression nodes.

    Expression nodes are immutable and hashable; they are shared freely
    between execution states, so deep copies of interpreter state
    intentionally do not duplicate them (see ``__deepcopy__``).
    """

    __slots__ = ()

    def __deepcopy__(self, memo: dict) -> "SymExpr":
        return self

    def __getstate__(self) -> dict:
        # The cached structural hash (see _install_cached_hash) depends on
        # the per-process string-hash seed; shipping it to another process
        # would leave an instance whose hash disagrees with equal peers.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # Symbolic expressions intentionally do not override __eq__ to mean
    # semantic equality; structural equality is what dataclass equality
    # provides on the subclasses.


#: sentinel marking a no-argument ``SymVar.__new__`` call (the pickle/copy
#: reconstruction path, which must never touch the intern table)
_UNSET = object()


@dataclass(frozen=True)
class SymVar(SymExpr):
    """A free symbolic variable with an inclusive finite domain.

    Variables are interned at construction: two ``SymVar`` calls with the
    same (name, lo, hi) return the *same object*, so every expression tree
    shares its leaves.  This is what lets the compound-node interning (and
    the simplifier's identity rewrites, which hand back subtrees) preserve
    object identity across independently built but structurally equal
    expressions.  Unpickled instances bypass the table (they are merely
    equal, not identical -- structural equality is unaffected).
    """

    name: str
    lo: int = 0
    hi: int = 255

    def __new__(cls, name=_UNSET, lo: int = 0, hi: int = 255) -> "SymVar":
        if name is _UNSET:
            # Pickle/copy reconstruct with no arguments and then restore the
            # instance dict; interning here would alias distinct objects.
            return super().__new__(cls)
        cached = _INTERN_TABLE.get((cls, name, lo, hi))
        if cached is not None:
            return cached
        self = super().__new__(cls)
        if len(_INTERN_TABLE) >= _INTERN_LIMIT:
            _INTERN_TABLE.clear()
        _INTERN_TABLE[(cls, name, lo, hi)] = self
        return self

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ExprError(f"empty domain for symbolic variable {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymVar({self.name}:[{self.lo},{self.hi}])"


@dataclass(frozen=True)
class BinExpr(SymExpr):
    """A binary operation over two operands (each concrete or symbolic)."""

    op: Op
    left: Value
    right: Value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.left!r} {self.op.value} {self.right!r})"


@dataclass(frozen=True)
class UnExpr(SymExpr):
    """A unary operation (negation or logical not)."""

    op: Op
    operand: Value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.op.value} {self.operand!r})"


@dataclass(frozen=True)
class IteExpr(SymExpr):
    """If-then-else expression: ``then_value`` if ``cond`` is nonzero."""

    cond: Value
    then_value: Value
    else_value: Value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ite({self.cond!r}, {self.then_value!r}, {self.else_value!r})"


# ------------------------------------------------------------- hash-consing

#: process-wide intern table: (node class, *field values) -> canonical node.
#: Bounded by clearing on overflow -- interning is a sharing optimization,
#: so dropping the table only costs future sharing, never correctness.
_INTERN_TABLE: Dict[tuple, SymExpr] = {}
_INTERN_LIMIT = 1 << 18


def _intern(cls, args: tuple) -> SymExpr:
    """Return the canonical instance of ``cls(*args)``.

    The interning constructor used by the smart constructors and the JSON
    decoder.  Field values double as the table key, so two lookups with
    structurally equal children (themselves interned, hence identical)
    hit the same entry.
    """
    key = (cls, *args)
    node = _INTERN_TABLE.get(key)
    if node is None:
        node = cls(*args)
        if len(_INTERN_TABLE) >= _INTERN_LIMIT:
            _INTERN_TABLE.clear()
        _INTERN_TABLE[key] = node
    return node


def _install_cached_hash(cls, key_fn) -> None:
    """Replace ``cls.__hash__`` with a lazily cached structural hash.

    The dataclass-generated hash walks the whole field tuple on every call,
    which makes hashing a deep tree O(nodes) *per lookup*; constraint sets
    are hashed constantly by the solver cache.  The cached value lives in
    the instance ``__dict__`` (the dataclasses are frozen but not slotted)
    and is dropped on pickling (see ``SymExpr.__getstate__``).
    """

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash(key_fn(self))
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__


_install_cached_hash(SymVar, lambda s: ("var", s.name, s.lo, s.hi))
_install_cached_hash(BinExpr, lambda s: ("bin", s.op, s.left, s.right))
_install_cached_hash(UnExpr, lambda s: ("un", s.op, s.operand))
_install_cached_hash(
    IteExpr, lambda s: ("ite", s.cond, s.then_value, s.else_value)
)


def is_symbolic(value: object) -> bool:
    """Return True when ``value`` contains symbolic content."""
    return isinstance(value, SymExpr)


def free_variables(value: Value) -> FrozenSet[SymVar]:
    """Collect the free symbolic variables appearing in ``value``."""
    if not isinstance(value, SymExpr):
        return frozenset()
    if isinstance(value, SymVar):
        return frozenset((value,))
    if isinstance(value, BinExpr):
        return free_variables(value.left) | free_variables(value.right)
    if isinstance(value, UnExpr):
        return free_variables(value.operand)
    if isinstance(value, IteExpr):
        return (
            free_variables(value.cond)
            | free_variables(value.then_value)
            | free_variables(value.else_value)
        )
    raise ExprError(f"unknown expression node {value!r}")


def _apply_binary(op: Op, left: int, right: int) -> int:
    """Apply a binary operator to two concrete integers."""
    left = _as_int(left)
    right = _as_int(right)
    if op is Op.ADD:
        return left + right
    if op is Op.SUB:
        return left - right
    if op is Op.MUL:
        return left * right
    if op is Op.DIV:
        if right == 0:
            raise ConcreteEvaluationError("division by zero")
        # C-style truncation toward zero.
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    if op is Op.MOD:
        if right == 0:
            raise ConcreteEvaluationError("modulo by zero")
        return left - right * (
            abs(left) // abs(right) if (left >= 0) == (right >= 0) else -(abs(left) // abs(right))
        )
    if op is Op.EQ:
        return int(left == right)
    if op is Op.NE:
        return int(left != right)
    if op is Op.LT:
        return int(left < right)
    if op is Op.LE:
        return int(left <= right)
    if op is Op.GT:
        return int(left > right)
    if op is Op.GE:
        return int(left >= right)
    if op is Op.AND:
        return int(bool(left) and bool(right))
    if op is Op.OR:
        return int(bool(left) or bool(right))
    if op is Op.BAND:
        return left & right
    if op is Op.BOR:
        return left | right
    if op is Op.BXOR:
        return left ^ right
    if op is Op.SHL:
        if right < 0:
            raise ConcreteEvaluationError("negative shift amount")
        return left << right
    if op is Op.SHR:
        if right < 0:
            raise ConcreteEvaluationError("negative shift amount")
        return left >> right
    if op is Op.MIN:
        return min(left, right)
    if op is Op.MAX:
        return max(left, right)
    raise ExprError(f"operator {op} is not binary")


def _apply_unary(op: Op, operand: int) -> int:
    operand = _as_int(operand)
    if op is Op.NOT:
        return int(not operand)
    if op is Op.NEG:
        return -operand
    raise ExprError(f"operator {op} is not unary")


def make_binary(op: Op, left: Value, right: Value) -> Value:
    """Build a binary expression, constant-folding concrete operands."""
    if not is_symbolic(left) and not is_symbolic(right):
        return _apply_binary(op, _as_int(left), _as_int(right))
    return _intern(BinExpr, (op, left, right))


def make_unary(op: Op, operand: Value) -> Value:
    """Build a unary expression, constant-folding concrete operands."""
    if not is_symbolic(operand):
        return _apply_unary(op, _as_int(operand))
    return _intern(UnExpr, (op, operand))


def make_ite(cond: Value, then_value: Value, else_value: Value) -> Value:
    """Build an if-then-else expression, folding a concrete condition."""
    if not is_symbolic(cond):
        return then_value if _as_int(cond) != 0 else else_value
    return _intern(IteExpr, (cond, then_value, else_value))


def make_var(name: str, lo: int = 0, hi: int = 255) -> "SymVar":
    """Interning constructor for symbolic variables.

    Kept for symmetry with the other factories; ``SymVar`` itself interns
    in ``__new__``, so direct construction is equivalent.
    """
    return SymVar(name, lo, hi)


# Smart constructors used throughout the interpreter and the workloads.

def sym_add(a: Value, b: Value) -> Value:
    return make_binary(Op.ADD, a, b)


def sym_sub(a: Value, b: Value) -> Value:
    return make_binary(Op.SUB, a, b)


def sym_mul(a: Value, b: Value) -> Value:
    return make_binary(Op.MUL, a, b)


def sym_div(a: Value, b: Value) -> Value:
    return make_binary(Op.DIV, a, b)


def sym_mod(a: Value, b: Value) -> Value:
    return make_binary(Op.MOD, a, b)


def sym_eq(a: Value, b: Value) -> Value:
    return make_binary(Op.EQ, a, b)


def sym_ne(a: Value, b: Value) -> Value:
    return make_binary(Op.NE, a, b)


def sym_lt(a: Value, b: Value) -> Value:
    return make_binary(Op.LT, a, b)


def sym_le(a: Value, b: Value) -> Value:
    return make_binary(Op.LE, a, b)


def sym_gt(a: Value, b: Value) -> Value:
    return make_binary(Op.GT, a, b)


def sym_ge(a: Value, b: Value) -> Value:
    return make_binary(Op.GE, a, b)


def sym_and(a: Value, b: Value) -> Value:
    return make_binary(Op.AND, a, b)


def sym_or(a: Value, b: Value) -> Value:
    return make_binary(Op.OR, a, b)


def sym_not(a: Value) -> Value:
    return make_unary(Op.NOT, a)


def sym_neg(a: Value) -> Value:
    return make_unary(Op.NEG, a)


def sym_ite(cond: Value, then_value: Value, else_value: Value) -> Value:
    return make_ite(cond, then_value, else_value)


def substitute(value: Value, assignment: Mapping[str, int]) -> Value:
    """Replace symbolic variables with the concrete values in ``assignment``.

    Variables missing from ``assignment`` remain symbolic; constant folding
    happens on the way back up, so a full assignment yields a concrete int.
    """
    if not isinstance(value, SymExpr):
        return _as_int(value)
    if isinstance(value, SymVar):
        if value.name in assignment:
            return _as_int(assignment[value.name])
        return value
    if isinstance(value, BinExpr):
        return make_binary(
            value.op,
            substitute(value.left, assignment),
            substitute(value.right, assignment),
        )
    if isinstance(value, UnExpr):
        return make_unary(value.op, substitute(value.operand, assignment))
    if isinstance(value, IteExpr):
        return make_ite(
            substitute(value.cond, assignment),
            substitute(value.then_value, assignment),
            substitute(value.else_value, assignment),
        )
    raise ExprError(f"unknown expression node {value!r}")


def evaluate(value: Value, assignment: Mapping[str, int]) -> int:
    """Fully evaluate ``value`` under ``assignment``.

    Raises :class:`ExprError` if the assignment does not cover every free
    variable of the expression.
    """
    result = substitute(value, assignment)
    if isinstance(result, SymExpr):
        missing = sorted(var.name for var in free_variables(result))
        raise ExprError(f"evaluation is not total; unassigned variables: {missing}")
    return result


def expr_size(value: Value) -> int:
    """Number of nodes in the expression (1 for concrete values)."""
    if not isinstance(value, SymExpr):
        return 1
    if isinstance(value, SymVar):
        return 1
    if isinstance(value, BinExpr):
        return 1 + expr_size(value.left) + expr_size(value.right)
    if isinstance(value, UnExpr):
        return 1 + expr_size(value.operand)
    if isinstance(value, IteExpr):
        return (
            1
            + expr_size(value.cond)
            + expr_size(value.then_value)
            + expr_size(value.else_value)
        )
    raise ExprError(f"unknown expression node {value!r}")


def value_to_dict(value: Value) -> object:
    """JSON-serializable encoding of a concrete or symbolic value.

    Concrete integers encode as themselves; symbolic nodes encode as tagged
    dicts.  The encoding is the wire format used when execution traces cross
    process boundaries (see :mod:`repro.engine`).
    """
    if not isinstance(value, SymExpr):
        return _as_int(value)
    if isinstance(value, SymVar):
        return {"kind": "var", "name": value.name, "lo": value.lo, "hi": value.hi}
    if isinstance(value, BinExpr):
        return {
            "kind": "bin",
            "op": value.op.value,
            "left": value_to_dict(value.left),
            "right": value_to_dict(value.right),
        }
    if isinstance(value, UnExpr):
        return {"kind": "un", "op": value.op.value, "operand": value_to_dict(value.operand)}
    if isinstance(value, IteExpr):
        return {
            "kind": "ite",
            "cond": value_to_dict(value.cond),
            "then": value_to_dict(value.then_value),
            "else": value_to_dict(value.else_value),
        }
    raise ExprError(f"unknown expression node {value!r}")


def value_from_dict(data: object) -> Value:
    """Inverse of :func:`value_to_dict`.

    Symbolic nodes are rebuilt verbatim (no constant folding) and interned,
    so a round trip preserves expression structure exactly while maximizing
    sharing with expressions already live in this process.
    """
    if isinstance(data, bool):
        return int(data)
    if isinstance(data, int):
        return data
    if not isinstance(data, dict):
        raise ExprError(f"cannot decode value from {data!r}")
    kind = data.get("kind")
    if kind == "var":
        return SymVar(data["name"], data["lo"], data["hi"])
    if kind == "bin":
        return _intern(
            BinExpr,
            (Op(data["op"]), value_from_dict(data["left"]), value_from_dict(data["right"])),
        )
    if kind == "un":
        return _intern(UnExpr, (Op(data["op"]), value_from_dict(data["operand"])))
    if kind == "ite":
        return _intern(
            IteExpr,
            (
                value_from_dict(data["cond"]),
                value_from_dict(data["then"]),
                value_from_dict(data["else"]),
            ),
        )
    raise ExprError(f"cannot decode value from {data!r}")


def render(value: Value) -> str:
    """Human-readable rendering used in debugging-aid reports."""
    if not isinstance(value, SymExpr):
        return str(_as_int(value))
    if isinstance(value, SymVar):
        return value.name
    if isinstance(value, BinExpr):
        return f"({render(value.left)} {value.op.value} {render(value.right)})"
    if isinstance(value, UnExpr):
        return f"({value.op.value} {render(value.operand)})"
    if isinstance(value, IteExpr):
        return (
            f"ite({render(value.cond)}, {render(value.then_value)}, "
            f"{render(value.else_value)})"
        )
    raise ExprError(f"unknown expression node {value!r}")
