"""The benchmark's own bookkeeping: in-memory spans and the arithmetic on them.

Everything here is independent of :mod:`repro`, so the unit tests in
``test_perfbench.py`` exercise it without running an analysis.
"""

from __future__ import annotations

import json
import math
import time
from typing import Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    """One timed call: ``parent`` indexes the enclosing span of the same process."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: Optional[Dict] = None


class Tracer:
    """Records the nested spans of one process in memory.

    Spans are written out only by :meth:`flush_to` (pool workers, after each
    task) or read directly from :attr:`spans` (the driving process).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def annotate(self, index: int, attrs: Optional[Dict]) -> None:
        self.spans[index][4] = attrs

    @property
    def idle(self) -> bool:
        """No span is open, so the buffer can be flushed and cleared."""
        return not self._stack

    def finished(self) -> List[Span]:
        return [Span(*record) for record in self.spans]

    def flush_to(self, path: str) -> None:
        """Append this process's spans to ``path`` as one JSON line and clear."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.spans) + "\n")
        self.clear()


def load_span_file(path: str) -> List[List[Span]]:
    """The span batches one worker flushed, each with its own parent indices."""
    batches: List[List[Span]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                batches.append([Span(*record) for record in json.loads(line)])
    return batches


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def fold_self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's self time: its duration minus what its direct children cover.

    Only direct children are subtracted (a grandchild is already inside its
    parent's interval), and overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, ())
        )
        result.append(span.end - span.start - covered)
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def count_failures(
    expected: Mapping[Hashable, object], actual: Mapping[Hashable, object]
) -> Tuple[int, int]:
    """``(attempted, failed)`` verdicts of one pass against a reference.

    A reference race whose verdict is missing or different fails once; a
    verdict for a race the reference does not know is also attempted and
    failed once.
    """
    extra = [key for key in actual if key not in expected]
    failed = sum(1 for key, verdict in expected.items() if actual.get(key) != verdict)
    return len(expected) + len(extra), failed + len(extra)
