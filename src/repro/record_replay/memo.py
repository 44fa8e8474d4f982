"""The shared work of the trace a process is classifying.

Portend replays each race's primary from the recorded schedule and explores
the trace's symbolic paths (§3.1, §3.3).  The races of one trace share that
work, and every process classifies a trace's races one after another (the
driving process serially, a pool worker chunk by chunk).  So a process keeps
the shared work of exactly one (trace, program) pair, in one
:class:`TraceMemo`; :func:`trace_memo` replaces it when asked for another
trace or program, so the work of a trace the process has moved past is
garbage.  Each engine run and each fresh pool worker starts empty
(:func:`reset_trace_memo`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.symex.solver import SolverMemo


@dataclass
class TraceMemo:
    """The shared work of one (trace, program) pair, both held so that
    they compare by identity."""

    trace: ExecutionTrace
    program: Program
    #: :func:`repro.core.alternate.replay_primary`'s passes, most recently
    #: used last, at most ``replay_limit`` of them
    replays: OrderedDict = field(default_factory=OrderedDict)
    replay_limit: int = 1
    #: :class:`repro.explore.paths.MultiPathExplorer`'s shared searches
    searches: Dict[tuple, object] = field(default_factory=dict)
    #: the memo every task's fresh solver reads and writes
    solver: SolverMemo = field(default_factory=SolverMemo)


_CURRENT: Optional[TraceMemo] = None


def trace_memo(trace: ExecutionTrace, program: Program) -> TraceMemo:
    """The memo of ``(trace, program)``, replacing the current one when it
    belongs to another trace or program."""
    global _CURRENT
    if _CURRENT is None or _CURRENT.trace is not trace or _CURRENT.program is not program:
        _CURRENT = TraceMemo(trace, program)
    return _CURRENT


def reset_trace_memo() -> None:
    """Forget the current memo (a new engine run, a fresh pool worker)."""
    global _CURRENT
    _CURRENT = None
