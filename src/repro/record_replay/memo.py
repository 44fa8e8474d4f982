"""The shared work of one trace classified against one program.

Portend replays each race's primary from the recorded schedule and explores
the trace's symbolic paths (§3.1, §3.3).  The races of one trace share that
work, kept in one :class:`TraceMemo`.  The memo is an argument, never a
global: whoever classifies a trace's races makes one and hands it to every
stage, as ``classify_race`` does with each race's enforcement memo.  The
engine's :class:`~repro.engine.tasks.TraceContext` owns one per context,
:meth:`repro.core.portend.Portend.classify_trace` makes one per call, and the
Record/Replay-Analyzer baseline one per trace it classifies.  A memo holds no
reference to its trace or program: its holder pairs them, so the work goes
when the holder drops it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict

from repro.symex.solver import SolverMemo


@dataclass
class TraceMemo:
    """The shared work of one (trace, program) pair."""

    #: :func:`repro.core.alternate.replay_primary`'s passes, most recently
    #: used last, at most ``replay_limit`` of them
    replays: OrderedDict = field(default_factory=OrderedDict)
    replay_limit: int = 1
    #: :class:`repro.explore.paths.MultiPathExplorer`'s shared searches
    searches: Dict[tuple, object] = field(default_factory=dict)
    #: the memo every engine task's fresh solver reads and writes
    solver: SolverMemo = field(default_factory=SolverMemo)
