"""Multi-path exploration of primary executions (§3.3, Fig. 5).

The explorer re-executes the target program with (some of) its inputs marked
symbolic.  Branches on symbolic conditions fork the execution state; each
state follows the recorded schedule trace, and states whose schedule diverges
from the trace *before* the racing accesses are pruned ("Portend prunes the
paths that do not obey the thread schedule in the trace").  Divergence after
the second racing access is tolerated, which "significantly increases
Portend's accuracy over the state of the art".

For every retained, completed primary path the explorer reports the path
condition, the symbolic outputs, and a concrete input assignment (the SMT
model) that drives the program down that path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.detection.race_report import RaceReport
from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.errors import ExecutionOutcome
from repro.runtime.executor import Executor, RunResult, RunStatus
from repro.runtime.listeners import ExecutionListener, MemoryAccess
from repro.runtime.scheduler import ReplayPolicy, RoundRobinPolicy
from repro.runtime.state import ExecutionState, OutputRecord
from repro.symex.path_condition import PathCondition
from repro.symex.solver import Solver


@dataclass
class PrimaryPath:
    """One explored primary path that exercises the target race.

    The path is **plain data**: everything the per-path analysis
    (:func:`repro.core.multi_path.analyze_primary_path`) consumes -- the
    path condition, the symbolic outputs, the concrete input model, the
    terminal outcome and the exploration bookkeeping -- is serializable via
    :meth:`to_dict`/:meth:`from_dict`, so a plan task can ship its explored
    primaries to path workers instead of each worker re-running the BFS
    prefix.  ``state`` (the live interpreter state the explorer finished
    with) is an optional extra for in-process callers; it never crosses a
    process boundary and deserialized paths carry ``state=None``.
    """

    index: int
    path_condition: PathCondition
    symbolic_outputs: List[OutputRecord]
    concrete_inputs: Dict[str, int]
    diverged_after_race: bool
    race_reached_step: int
    symbolic_branches: int
    outcome: Optional[ExecutionOutcome] = None
    state: Optional[ExecutionState] = None

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        """JSON wire format of the path (no live interpreter state)."""
        return {
            "index": self.index,
            "path_condition": self.path_condition.to_dict(),
            "symbolic_outputs": [record.to_dict() for record in self.symbolic_outputs],
            "concrete_inputs": dict(self.concrete_inputs),
            "diverged_after_race": self.diverged_after_race,
            "race_reached_step": self.race_reached_step,
            "symbolic_branches": self.symbolic_branches,
            "outcome": self.outcome.to_dict() if self.outcome is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PrimaryPath":
        outcome = data["outcome"]
        return cls(
            index=data["index"],
            path_condition=PathCondition.from_dict(data["path_condition"]),
            symbolic_outputs=[
                OutputRecord.from_dict(record) for record in data["symbolic_outputs"]
            ],
            concrete_inputs=dict(data["concrete_inputs"]),
            diverged_after_race=data["diverged_after_race"],
            race_reached_step=data["race_reached_step"],
            symbolic_branches=data["symbolic_branches"],
            outcome=ExecutionOutcome.from_dict(outcome) if outcome is not None else None,
        )


class _RaceReachedTracker(ExecutionListener):
    """Marks (in each state's notes) when the racing accesses have executed.

    The note travels with forked states, so the explorer can later tell
    whether a schedule divergence happened before or after the race.
    """

    NOTE_FIRST = "explore.first_access_step"
    NOTE_RACE = "explore.race_reached_step"

    def __init__(self, race: RaceReport) -> None:
        self.race = race

    def on_access(self, state, access: MemoryAccess) -> None:
        location = self.race.location
        if access.location.space != location.space or access.location.name != location.name:
            return
        if self.NOTE_RACE in state.notes:
            return
        if access.tid == self.race.first.tid and access.pc == self.race.first.pc:
            state.notes.setdefault(self.NOTE_FIRST, access.step)
            return
        if access.tid == self.race.second.tid and self.NOTE_FIRST in state.notes:
            state.notes[self.NOTE_RACE] = access.step


class MultiPathExplorer:
    """Find up to Mp primary paths that follow the trace and hit the race."""

    def __init__(
        self,
        executor: Executor,
        program: Program,
        trace: ExecutionTrace,
        race: RaceReport,
        solver: Optional[Solver] = None,
        max_primaries: int = 5,
        max_states: int = 256,
        max_steps_per_state: int = 200_000,
        symbolic_input_limit: int = 2,
    ) -> None:
        self.executor = executor
        self.program = program
        self.trace = trace
        self.race = race
        self.solver = solver or executor.solver
        self.max_primaries = max_primaries
        self.max_states = max_states
        self.max_steps_per_state = max_steps_per_state
        self.symbolic_input_limit = symbolic_input_limit
        self.states_explored = 0
        self.states_pruned = 0
        #: one human-readable entry per pruned state, explaining why the
        #: path was discarded (schedule divergence reasons come from
        #: :class:`repro.runtime.scheduler.ReplayPolicy` diagnostics)
        self.prune_reasons: List[str] = []

    @classmethod
    def for_config(
        cls,
        executor: Executor,
        program: Program,
        trace: ExecutionTrace,
        race: RaceReport,
        config,
        max_primaries: Optional[int] = None,
    ) -> "MultiPathExplorer":
        """Build an explorer from a :class:`PortendConfig`.

        The single place that maps config knobs onto explorer arguments:
        the serial classifier, the engine's plan task, and the per-path
        re-derivation all construct their explorers here, so a future
        exploration knob cannot silently diverge between them (which would
        break the plan/worker path-count agreement).  ``config`` is untyped
        to keep :mod:`repro.explore` import-independent from
        :mod:`repro.core`.
        """
        return cls(
            executor,
            program,
            trace,
            race,
            solver=executor.solver,
            max_primaries=(
                config.effective_mp() if max_primaries is None else max_primaries
            ),
            max_states=config.max_explored_states,
            max_steps_per_state=config.max_steps_per_execution,
            symbolic_input_limit=config.symbolic_inputs,
        )

    # -------------------------------------------------------------- symbolic

    def symbolic_input_names(self) -> List[str]:
        """Choose which declared inputs to mark symbolic (paper uses 2)."""
        declared = list(self.program.input_declarations())
        return declared[: self.symbolic_input_limit]

    # ----------------------------------------------------------------- explore

    def explore(self) -> List[PrimaryPath]:
        """Run the exploration and return the retained primary paths."""
        symbolic_names = self.symbolic_input_names()
        initial = self.executor.initial_state(
            concrete_inputs=dict(self.trace.concrete_inputs),
            symbolic_inputs=symbolic_names,
        )
        tracker = _RaceReachedTracker(self.race)
        worklist: List[ExecutionState] = [initial]
        primaries: List[PrimaryPath] = []

        while worklist and len(primaries) < self.max_primaries:
            if self.states_explored >= self.max_states:
                break
            state = worklist.pop(0)
            self.states_explored += 1
            policy = self._policy_for(state)
            result = self.executor.run(
                state,
                policy=policy,
                listeners=[tracker],
                max_steps=self.max_steps_per_state,
            )
            worklist.extend(result.forks)

            if result.status is not RunStatus.COMPLETED:
                self._prune(state, f"execution did not complete ({result.status.value})")
                continue
            race_step = state.notes.get(_RaceReachedTracker.NOTE_RACE)
            if race_step is None:
                # This path never exercised the target race: prune (§3.3).
                self._prune(state, "path never exercised the target race")
                continue
            if policy.diverged and (
                policy.divergence_step is None or policy.divergence_step < race_step
            ):
                # Schedule divergence before the race: the path does not obey
                # the recorded schedule trace, prune it.
                detail = policy.divergence_reason or "unknown divergence"
                self._prune(
                    state,
                    f"schedule diverged before the race at step "
                    f"{policy.divergence_step}: {detail}",
                )
                continue

            concrete_inputs = self._solve_inputs(state)
            if concrete_inputs is None:
                self._prune(state, "path condition has no concrete input model")
                continue
            primaries.append(
                PrimaryPath(
                    index=len(primaries),
                    path_condition=state.path_condition,
                    symbolic_outputs=list(state.output_log),
                    concrete_inputs=concrete_inputs,
                    diverged_after_race=policy.diverged,
                    race_reached_step=race_step,
                    symbolic_branches=state.symbolic_branches,
                    outcome=state.outcome,
                    state=state,
                )
            )
        return primaries

    # -------------------------------------------------------------- internals

    def _prune(self, state: ExecutionState, reason: str) -> None:
        self.states_pruned += 1
        self.prune_reasons.append(f"state {state.state_id}: {reason}")

    def _policy_for(self, state: ExecutionState) -> ReplayPolicy:
        """Resume trace replay at the decision this state has already reached.

        ``state.preemption_points`` counts exactly the recorded scheduling
        decisions consumed so far, so forked states continue the trace from
        the right position.
        """
        consumed = state.preemption_points
        return ReplayPolicy(self.trace.decisions[consumed:], fallback=RoundRobinPolicy())

    def _solve_inputs(self, state: ExecutionState) -> Optional[Dict[str, int]]:
        """Concrete inputs that drive the program down this path."""
        model = self.solver.get_model(list(state.path_condition.constraints))
        if model is None and len(state.path_condition) > 0:
            return None
        inputs = dict(self.trace.concrete_inputs)
        for name, var in state.symbolic_inputs.items():
            if model is not None and name in model:
                inputs[name] = model[name]
            elif name not in inputs:
                inputs[name] = var.lo
        return inputs


def explore_primary(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config,
    path_index: int,
) -> Optional[PrimaryPath]:
    """Deterministically re-derive one primary path of a race's exploration.

    The explorer's search is breadth-first over a deterministic worklist
    (states pop in FIFO order, forks append in creation order), so the
    primaries found with ``max_primaries = n`` are exactly the first ``n``
    primaries of a larger exploration -- a *prefix property*, so re-deriving
    path ``i`` stops the search at ``i + 1`` primaries.  The engine never
    calls this: plans ship their serialized primaries
    (:meth:`PrimaryPath.to_dict`) to the path tasks.  It is kept as the test
    suite's equivalence oracle for that wire format.  Returns None when the
    exploration yields fewer than ``path_index + 1`` primaries.

    ``config`` is a :class:`repro.core.config.PortendConfig`; it is untyped
    here to keep :mod:`repro.explore` import-independent from
    :mod:`repro.core`.
    """
    explorer = MultiPathExplorer.for_config(
        executor,
        program,
        trace,
        race,
        config,
        max_primaries=min(config.effective_mp(), path_index + 1),
    )
    primaries = explorer.explore()
    if len(primaries) <= path_index:
        return None
    return primaries[path_index]
