"""Recording executions: run a program, detect races, produce a trace."""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

from repro.detection.happens_before import HappensBeforeDetector
from repro.detection.race_report import cluster_races
from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.executor import Executor, RunResult
from repro.runtime.listeners import ExecutionListener
from repro.runtime.scheduler import RoundRobinPolicy, SchedulePolicy, ScheduleDecision
from repro.runtime.state import ExecutionState


class TraceRecorder(ExecutionListener):
    """Listener that records scheduling decisions into a trace."""

    def __init__(self, trace: ExecutionTrace) -> None:
        self.trace = trace
        self._index = 0

    def on_schedule(self, state, chosen_tid, previous_tid, reason) -> None:
        thread = state.thread(chosen_tid)
        stmt = thread.next_statement()
        pc = stmt.pc if stmt is not None else 0
        self.trace.decisions.append(
            ScheduleDecision(
                index=self._index,
                tid=chosen_tid,
                pc=pc,
                step=state.step_count,
                reason=reason,
            )
        )
        self._index += 1

    def on_input(self, state, record) -> None:
        self.trace.input_log.append(record)


def record_execution(
    program: Program,
    concrete_inputs: Optional[Dict[str, int]] = None,
    policy: Optional[SchedulePolicy] = None,
    executor: Optional[Executor] = None,
    detector: Optional[HappensBeforeDetector] = None,
    extra_listeners: Sequence[ExecutionListener] = (),
    max_steps: Optional[int] = None,
) -> Tuple[ExecutionTrace, ExecutionState, RunResult]:
    """Run ``program`` once, recording the schedule and detecting races.

    This is the front end of Portend's pipeline: "Portend's race analysis
    starts by executing the target program and dynamically detecting data
    races" (§3.1).  Returns the trace (with clustered distinct races), the
    final execution state and the raw run result.
    """
    executor = executor or Executor(program)
    detector = detector if detector is not None else HappensBeforeDetector()
    policy = policy or RoundRobinPolicy()
    trace = ExecutionTrace(program=program.name, concrete_inputs=dict(concrete_inputs or {}))
    recorder = TraceRecorder(trace)

    state = executor.initial_state(concrete_inputs=concrete_inputs)
    listeners = [recorder, detector, *extra_listeners]
    result = executor.run(state, policy=policy, listeners=listeners, max_steps=max_steps)

    trace.races = cluster_races(program.name, detector.races())
    trace.step_count = state.step_count
    trace.preemption_points = state.preemption_points
    trace.outcome = state.outcome.kind.value if state.outcome else result.status.value
    return trace, state, result


def record_program_trace(
    program: Program,
    concrete_inputs: Optional[Dict[str, int]] = None,
    max_steps: Optional[int] = None,
    detector_ignore_mutexes: bool = False,
) -> Tuple[ExecutionTrace, float]:
    """Record one timed execution of a program: the engine's Stage-1 unit.

    Recording is deterministic for a fixed ``(program, inputs)`` pair (the
    round-robin recording schedule never consults an RNG), so the same call
    produces the same trace whether it runs in the driving process or in a
    pool worker.  Returns ``(trace, detection_seconds)``; detection (the
    happens-before race analysis) happens inline with the recorded run, so
    the timing covers the paper's full "record + detect" front half.
    """
    program = program if program.finalized else program.finalize()
    executor = Executor(program)
    detector = HappensBeforeDetector(ignore_mutexes=detector_ignore_mutexes)
    started = time.perf_counter()
    trace, _state, _result = record_execution(
        program,
        concrete_inputs=concrete_inputs,
        executor=executor,
        detector=detector,
        max_steps=max_steps,
    )
    return trace, time.perf_counter() - started
