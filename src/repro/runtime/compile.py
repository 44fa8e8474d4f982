"""``create_executor``: the benchmark harness's way to build an executor.

There is one interpreter, :class:`~repro.runtime.executor.Executor`; the
library builds it directly.  This shim remains only because
``perfbench/run.py`` imports it and passes its pinned ``interp="tree"``; it
goes away with the benchmark change that drops that pin.
"""

from __future__ import annotations

from typing import Optional

from repro.lang.program import Program
from repro.runtime.executor import Executor, ExecutorConfig
from repro.symex.solver import Solver


def create_executor(
    program: Program,
    interp: str = "tree",
    solver: Optional[Solver] = None,
    config: Optional[ExecutorConfig] = None,
) -> Executor:
    """Build the executor; ``interp`` must be ``"tree"``, the only kernel."""
    if interp != "tree":
        raise ValueError(f"unknown interpreter {interp!r}; the only one is 'tree'")
    return Executor(program, solver=solver, config=config)
