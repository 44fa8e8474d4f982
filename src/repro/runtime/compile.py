"""Compiled dispatch: lower programs into per-statement handler closures.

The tree-walking :class:`~repro.runtime.executor.Executor` re-discovers the
same facts on every step: a 24-arm ``isinstance`` chain per statement, an
``as_expr`` + ``isinstance`` walk per (sub)expression, operator-token lookups
per arithmetic node.  This module performs that discovery once per program:

* :func:`compile_expr` lowers an expression tree into a closure
  ``(ex, state, tid, stmt, listeners) -> Value`` with constants, memory
  locations and operators resolved at compile time;
* :func:`compile_program` builds a table ``pc -> handler`` of per-statement
  closures, fully specializing the hot statement forms (assign, branches,
  loops, output) and falling through to the executor's ``_exec_*`` methods
  for the synchronisation statements (whose cost is the sync logic itself,
  not dispatch);
* :class:`CompiledExecutor` is a drop-in :class:`Executor` whose
  ``_dispatch``/``_eval`` consult those tables.

Compiled programs are cached process-wide by the trace-cache program
fingerprint (:func:`compiled_program_for`), so pool workers compile each
workload once even though :func:`repro.workloads.registry.load_workload`
rebuilds a fresh ``Program`` instance per task.  Cross-instance reuse is
sound because ``finalize`` assigns pcs deterministically: two programs with
equal fingerprints have identical statements at identical pcs, and every
observable artifact (traces, races, labels) is keyed by pc, never by AST
object identity.  The cache is cleared by fresh pool workers via
:func:`reset_compiled_cache` (wired into ``pool_worker_initializer``).

Both interpreters are bit-identical by contract: verdicts, traces, event
streams and RNG consumption must not depend on ``--interp``.  The
equivalence suite (``tests/test_interpreter.py``) and the ``interpreter``
bench block enforce this.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.lang import ast
from repro.lang.program import Program
from repro.runtime.errors import CrashKind, ProgramCrash
from repro.runtime.executor import (
    _BINOP_TOKENS,
    _UNOP_TOKENS,
    Executor,
    ExecutorConfig,
)
from repro.runtime.listeners import ListenerGroup
from repro.runtime.memory import MemoryLocation
from repro.runtime.state import ExecutionState, OutputRecord
from repro.runtime.threadstate import BlockEntry, LoopEntry
from repro.symex.expr import (
    ConcreteEvaluationError,
    Value,
    is_symbolic,
    make_binary,
    make_unary,
    sym_ne,
)
from repro.symex.simplify import simplify
from repro.symex.solver import Solver

#: selectable interpreter kernels (``--interp`` / ``REPRO_INTERP``)
INTERP_MODES = ("tree", "compiled")

EvalFn = Callable[["Executor", ExecutionState, int, ast.Stmt, ListenerGroup], Value]
HandlerFn = Callable[
    ["Executor", ExecutionState, int, ast.Stmt, ListenerGroup], List[ExecutionState]
]


# --------------------------------------------------------------------------
# Expression compilation
# --------------------------------------------------------------------------


def compile_expr(expr: ast.ExprLike) -> EvalFn:
    """Lower one expression tree into an evaluator closure.

    The closure replicates ``Executor._eval`` exactly — including evaluation
    order, short-circuiting, division side conditions and crash messages —
    but with all type tests and operator lookups performed here, once.
    """
    expr = ast.as_expr(expr)

    if isinstance(expr, ast.Const):
        value = expr.value

        def run_const(ex, state, tid, stmt, listeners):
            return value

        return run_const

    if isinstance(expr, ast.LocalRef):
        name = expr.name

        def run_local(ex, state, tid, stmt, listeners):
            frame = state.thread(tid).current_frame()
            if name not in frame.locals:
                raise ProgramCrash(
                    CrashKind.INVALID_POINTER, f"read of undefined local {name!r}"
                )
            return frame.locals[name]

        return run_local

    if isinstance(expr, ast.GlobalRef):
        name = expr.name
        location = MemoryLocation("global", name)

        def run_global(ex, state, tid, stmt, listeners):
            value = state.memory.load_global(name)
            ex._emit_access(state, tid, location, False, stmt, listeners, value)
            return value

        return run_global

    if isinstance(expr, ast.ArrayRef):
        name = expr.name
        index_run = compile_expr(expr.index)

        def run_array(ex, state, tid, stmt, listeners):
            index = index_run(ex, state, tid, stmt, listeners)
            index = ex._check_array_index(state, name, index)
            value = state.memory.load_array(name, index)
            ex._emit_access(
                state, tid, MemoryLocation("array", name, index), False, stmt, listeners, value
            )
            return value

        return run_array

    if isinstance(expr, ast.HeapRef):
        pointer_run = compile_expr(expr.pointer)
        index_run = compile_expr(expr.index)

        def run_heap(ex, state, tid, stmt, listeners):
            pointer = pointer_run(ex, state, tid, stmt, listeners)
            pointer = int(ex._concretize(state, pointer, what="heap pointer"))
            index = index_run(ex, state, tid, stmt, listeners)
            index = int(ex._concretize(state, index, what="heap index"))
            value = state.memory.load_heap(pointer, index)
            ex._emit_access(
                state,
                tid,
                MemoryLocation("heap", str(pointer), index),
                False,
                stmt,
                listeners,
                value,
            )
            return value

        return run_heap

    if isinstance(expr, ast.InputRef):
        name = expr.name

        def run_input_ref(ex, state, tid, stmt, listeners):
            if name in state.symbolic_inputs:
                return state.symbolic_inputs[name]
            if name in state.concrete_inputs:
                return int(state.concrete_inputs[name])
            raise ProgramCrash(
                CrashKind.INVALID_POINTER, f"reference to unread input {name!r}"
            )

        return run_input_ref

    if isinstance(expr, ast.UnOp):
        operand_run = compile_expr(expr.operand)
        token = expr.op
        op = _UNOP_TOKENS.get(token)
        if op is None:

            def run_unknown_unop(ex, state, tid, stmt, listeners):
                operand_run(ex, state, tid, stmt, listeners)
                raise ProgramCrash(
                    CrashKind.INVALID_POINTER, f"unknown operator {token!r}"
                )

            return run_unknown_unop

        def run_unop(ex, state, tid, stmt, listeners):
            return simplify(make_unary(op, operand_run(ex, state, tid, stmt, listeners)))

        return run_unop

    if isinstance(expr, ast.BinOp):
        return _compile_binop(expr)

    rendered = repr(expr)

    def run_invalid(ex, state, tid, stmt, listeners):  # pragma: no cover - defensive
        raise ProgramCrash(
            CrashKind.INVALID_POINTER, f"cannot evaluate expression {rendered}"
        )

    return run_invalid


def _apply_op(op, left: Value, right: Value) -> Value:
    try:
        return simplify(make_binary(op, left, right))
    except ConcreteEvaluationError as exc:
        raise ProgramCrash(CrashKind.DIVISION_BY_ZERO, str(exc)) from exc


def _compile_binop(expr: ast.BinOp) -> EvalFn:
    token = expr.op
    left_run = compile_expr(expr.left)
    right_run = compile_expr(expr.right)
    op = _BINOP_TOKENS.get(token)

    if token in ("&&", "||"):
        is_and = token == "&&"

        def run_logical(ex, state, tid, stmt, listeners):
            left = left_run(ex, state, tid, stmt, listeners)
            if not is_symbolic(left):
                if is_and:
                    if left == 0:
                        return 0
                elif left != 0:
                    return 1
                right = right_run(ex, state, tid, stmt, listeners)
                return _apply_op(op, 1 if left != 0 else 0, right)
            right = right_run(ex, state, tid, stmt, listeners)
            return _apply_op(op, left, right)

        return run_logical

    if op is None:

        def run_unknown_binop(ex, state, tid, stmt, listeners):
            left_run(ex, state, tid, stmt, listeners)
            right_run(ex, state, tid, stmt, listeners)
            raise ProgramCrash(CrashKind.INVALID_POINTER, f"unknown operator {token!r}")

        return run_unknown_binop

    if token in ("/", "%"):

        def run_division(ex, state, tid, stmt, listeners):
            left = left_run(ex, state, tid, stmt, listeners)
            right = right_run(ex, state, tid, stmt, listeners)
            if not is_symbolic(right):
                if int(right) == 0:
                    raise ProgramCrash(CrashKind.DIVISION_BY_ZERO, "division by zero")
            else:
                # Assume the divisor is nonzero on this path, matching the
                # tree interpreter's side condition.
                state.path_condition.add(sym_ne(right, 0))
            return _apply_op(op, left, right)

        return run_division

    def run_binop(ex, state, tid, stmt, listeners):
        left = left_run(ex, state, tid, stmt, listeners)
        right = right_run(ex, state, tid, stmt, listeners)
        return _apply_op(op, left, right)

    return run_binop


def compile_store(target: ast.LValue) -> Callable:
    """Lower an lvalue into a store closure ``(..., value) -> None``."""
    if isinstance(target, ast.LocalRef):
        name = target.name

        def store_local(ex, state, tid, stmt, listeners, value):
            state.frame_mut(tid).locals[name] = value

        return store_local

    if isinstance(target, ast.GlobalRef):
        name = target.name
        location = MemoryLocation("global", name)

        def store_global(ex, state, tid, stmt, listeners, value):
            state.memory.store_global(name, value)
            ex._emit_access(state, tid, location, True, stmt, listeners, value)

        return store_global

    if isinstance(target, ast.ArrayRef):
        name = target.name
        index_run = compile_expr(target.index)

        def store_array(ex, state, tid, stmt, listeners, value):
            index = index_run(ex, state, tid, stmt, listeners)
            index = ex._check_array_index(state, name, index)
            state.memory.store_array(name, index, value)
            ex._emit_access(
                state, tid, MemoryLocation("array", name, index), True, stmt, listeners, value
            )

        return store_array

    if isinstance(target, ast.HeapRef):
        pointer_run = compile_expr(target.pointer)
        index_run = compile_expr(target.index)

        def store_heap(ex, state, tid, stmt, listeners, value):
            pointer = pointer_run(ex, state, tid, stmt, listeners)
            pointer = int(ex._concretize(state, pointer, what="heap pointer"))
            index = index_run(ex, state, tid, stmt, listeners)
            index = int(ex._concretize(state, index, what="heap index"))
            state.memory.store_heap(pointer, index, value)
            ex._emit_access(
                state,
                tid,
                MemoryLocation("heap", str(pointer), index),
                True,
                stmt,
                listeners,
                value,
            )

        return store_heap

    rendered = repr(target)

    def store_invalid(ex, state, tid, stmt, listeners, value):  # pragma: no cover
        raise ProgramCrash(CrashKind.INVALID_POINTER, f"cannot store to {rendered}")

    return store_invalid


# --------------------------------------------------------------------------
# Statement compilation
# --------------------------------------------------------------------------


def _delegate(method) -> HandlerFn:
    """A thin handler around one of the executor's ``_exec_*`` methods."""

    def run_delegate(ex, state, tid, stmt, listeners):
        method(ex, state, tid, stmt, listeners)
        return []

    return run_delegate


def compile_stmt(stmt: ast.Stmt) -> HandlerFn:
    """Lower one statement into a dispatch handler closure."""
    if isinstance(stmt, ast.Assign):
        value_run = compile_expr(stmt.value)
        store = compile_store(stmt.target)

        def run_assign(ex, state, tid, stmt, listeners):
            store(ex, state, tid, stmt, listeners, value_run(ex, state, tid, stmt, listeners))
            return []

        return run_assign

    if isinstance(stmt, ast.If):
        cond_run = compile_expr(stmt.cond)
        then_body = stmt.then_body
        else_body = stmt.else_body

        def run_if(ex, state, tid, stmt, listeners):
            cond = cond_run(ex, state, tid, stmt, listeners)
            if not is_symbolic(cond):
                branch = then_body if cond != 0 else else_body
                if branch:
                    state.frame_mut(tid).control.append(BlockEntry(branch, 0))
                return []
            return ex._fork_branch(
                state,
                tid,
                cond,
                on_true=lambda s: Executor._enter_branch(s, tid, then_body),
                on_false=lambda s: Executor._enter_branch(s, tid, else_body),
            )

        return run_if

    if isinstance(stmt, ast.While):

        def run_while(ex, state, tid, stmt, listeners):
            state.frame_mut(tid).control.append(LoopEntry(stmt))
            return []

        return run_while

    if isinstance(stmt, ast.Output):
        channel = stmt.channel
        value_runs = tuple(compile_expr(value) for value in stmt.values)

        def run_output(ex, state, tid, stmt, listeners):
            values = tuple(
                simplify(value_run(ex, state, tid, stmt, listeners))
                for value_run in value_runs
            )
            record = OutputRecord(
                channel=channel,
                values=values,
                tid=tid,
                pc=stmt.pc,
                label=stmt.label,
                step=state.step_count,
            )
            state.append_output(record)
            listeners.on_output(state, record)
            return []

        return run_output

    if isinstance(stmt, ast.Abort):
        message = stmt.message

        def run_abort(ex, state, tid, stmt, listeners):
            raise ProgramCrash(CrashKind.EXPLICIT_ABORT, message)

        return run_abort

    if isinstance(stmt, (ast.Yield, ast.Sleep, ast.Nop)):

        def run_nop(ex, state, tid, stmt, listeners):
            return []

        return run_nop

    if isinstance(stmt, ast.Break):

        def run_break(ex, state, tid, stmt, listeners):
            ex._exec_break(state, tid)
            return []

        return run_break

    if isinstance(stmt, ast.Continue):

        def run_continue(ex, state, tid, stmt, listeners):
            ex._exec_continue(state, tid)
            return []

        return run_continue

    if isinstance(stmt, ast.CondSignal):

        def run_signal(ex, state, tid, stmt, listeners):
            ex._exec_cond_signal(state, tid, stmt, listeners, broadcast=False)
            return []

        return run_signal

    if isinstance(stmt, ast.CondBroadcast):

        def run_broadcast(ex, state, tid, stmt, listeners):
            ex._exec_cond_signal(state, tid, stmt, listeners, broadcast=True)
            return []

        return run_broadcast

    delegated = _DELEGATED_STATEMENTS.get(type(stmt))
    if delegated is not None:
        return _delegate(delegated)

    kind = type(stmt).__name__

    def run_unsupported(ex, state, tid, stmt, listeners):  # pragma: no cover
        raise ProgramCrash(CrashKind.INVALID_SYNC, f"unsupported statement {kind}")

    return run_unsupported


#: statements whose handler simply binds the matching ``_exec_*`` method at
#: compile time (sync-heavy forms where dispatch is not the bottleneck)
_DELEGATED_STATEMENTS = {
    ast.Lock: Executor._exec_lock,
    ast.Unlock: Executor._exec_unlock,
    ast.CondWait: Executor._exec_cond_wait,
    ast.BarrierWait: Executor._exec_barrier,
    ast.Spawn: Executor._exec_spawn,
    ast.Join: Executor._exec_join,
    ast.Input: Executor._exec_input,
    ast.Assert: Executor._exec_assert,
    ast.Call: Executor._exec_call,
    ast.Return: Executor._exec_return,
    ast.Malloc: Executor._exec_malloc,
    ast.Free: Executor._exec_free,
}


# --------------------------------------------------------------------------
# Whole-program compilation + the fingerprint-keyed cache
# --------------------------------------------------------------------------


class CompiledProgram:
    """The pc-keyed handler table of one (finalized) program."""

    __slots__ = ("program", "fingerprint", "handlers")

    def __init__(self, program: Program, fingerprint: str, handlers: Dict[int, HandlerFn]):
        self.program = program
        self.fingerprint = fingerprint
        self.handlers = handlers


def compile_program(program: Program, fingerprint: str = "") -> CompiledProgram:
    """Compile every statement of ``program`` into a ``pc -> handler`` table."""
    if not program.finalized:
        program.finalize()
    handlers: Dict[int, HandlerFn] = {}
    for function in program.functions.values():
        for stmt in ast.iter_statements(function.body):
            handlers[stmt.pc] = compile_stmt(stmt)
    return CompiledProgram(program, fingerprint, handlers)


#: fingerprint -> CompiledProgram, shared by every executor in the process
_COMPILED_CACHE: Dict[str, CompiledProgram] = {}

#: Program -> fingerprint memo.  The fingerprint hashes ``vars(program)``
#: (see TraceCache.program_fingerprint), so it must NEVER be stashed as an
#: attribute on the program itself — that would silently change trace-cache
#: keys.  A WeakKeyDictionary leaves the instance untouched.
_FP_MEMO: "weakref.WeakKeyDictionary[Program, str]" = weakref.WeakKeyDictionary()


def program_fingerprint(program: Program) -> str:
    fingerprint = _FP_MEMO.get(program)
    if fingerprint is None:
        # Imported lazily: engine.cache is a consumer of the runtime layer.
        from repro.engine.cache import TraceCache

        fingerprint = TraceCache.program_fingerprint(program)
        _FP_MEMO[program] = fingerprint
    return fingerprint


def compiled_program_for(program: Program) -> CompiledProgram:
    """The process-wide compiled form of ``program``.

    Keyed by content fingerprint: fingerprint-equal programs have identical
    statements at identical pcs (finalize assigns pcs deterministically), so
    a table compiled from one instance drives any other — which is what lets
    pool workers compile once per workload even though the task layer
    rebuilds ``Program`` objects from the registry per task.
    """
    fingerprint = program_fingerprint(program)
    entry = _COMPILED_CACHE.get(fingerprint)
    if entry is None:
        entry = compile_program(program, fingerprint)
        _COMPILED_CACHE[fingerprint] = entry
    return entry


def reset_compiled_cache() -> None:
    """Drop compiled programs (called by fresh pool workers)."""
    _COMPILED_CACHE.clear()
    _FP_MEMO.clear()


def compiled_cache_info() -> Dict[str, int]:
    return {"programs": len(_COMPILED_CACHE)}


# --------------------------------------------------------------------------
# The compiled executor
# --------------------------------------------------------------------------


class CompiledExecutor(Executor):
    """An :class:`Executor` that dispatches through compiled handler tables.

    Semantics are bit-identical to the tree walker; only the dispatch
    mechanism changes.  ``_dispatch`` is a dict hit on ``stmt.pc``;
    ``_eval`` resolves expressions through a per-executor id-keyed table
    seeded at construction (covering every expression the delegated
    ``_exec_*`` methods and the loop stepper evaluate), compiling unseen
    expressions on first use.
    """

    interp = "compiled"

    def __init__(
        self,
        program: Program,
        solver: Optional[Solver] = None,
        config: Optional[ExecutorConfig] = None,
    ) -> None:
        super().__init__(program, solver=solver, config=config)
        self._compiled = compiled_program_for(self.program)
        self._handlers = self._compiled.handlers
        # id(expr) -> (expr, evaluator).  Keyed by identity because Expr
        # nodes are frozen dataclasses whose value-equality hash walks the
        # whole tree; the paired expr reference guards against id reuse and
        # keeps the key's referent alive.
        self._evaluators: Dict[int, Tuple[ast.Expr, EvalFn]] = {}
        for function in self.program.functions.values():
            for stmt in ast.iter_statements(function.body):
                for expr in ast.statement_expressions(stmt):
                    key = id(expr)
                    if key not in self._evaluators:
                        self._evaluators[key] = (expr, compile_expr(expr))

    def _dispatch(self, state, tid, stmt, listeners):
        handler = self._handlers.get(stmt.pc)
        if handler is None:  # pragma: no cover - unfinalized/foreign statement
            return Executor._dispatch(self, state, tid, stmt, listeners)
        return handler(self, state, tid, stmt, listeners)

    def _eval(self, state, tid, expr, stmt, listeners):
        entry = self._evaluators.get(id(expr))
        if entry is not None and entry[0] is expr:
            return entry[1](self, state, tid, stmt, listeners)
        run = compile_expr(expr)
        if isinstance(expr, ast.Expr):
            self._evaluators[id(expr)] = (expr, run)
        return run(self, state, tid, stmt, listeners)


def create_executor(
    program: Program,
    interp: str = "tree",
    solver: Optional[Solver] = None,
    config: Optional[ExecutorConfig] = None,
) -> Executor:
    """Build the executor for an ``--interp`` mode name."""
    if interp not in INTERP_MODES:
        raise ValueError(
            f"unknown interpreter {interp!r}; choose from {', '.join(INTERP_MODES)}"
        )
    cls = CompiledExecutor if interp == "compiled" else Executor
    return cls(program, solver=solver, config=config)
