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

**One search per trace.**  The breadth-first search does not depend on the
race: a race only decides which completed states become its primaries and
when its walk stops (``max_primaries``, ``max_states``).  So the trace's
memo keeps one lazily extended search (:class:`_SharedSearch`, in the
``searches`` of the :class:`~repro.record_replay.memo.TraceMemo` every
explorer is built with), with one tracker that notes, per state, where
every race of ``trace.races`` was reached.
Each :meth:`MultiPathExplorer.explore` walks that record with its own
cursor.  A state nobody has popped yet runs on the walking explorer's
executor (its statements and solver queries count there); a state another
explorer ran is read as it is.  A race outside ``trace.races`` (a
hand-built report) walks a fresh search of its own, memoised nowhere,
whose tracker watches that race only.  Primaries, counts and prune
reasons equal those of a breadth-first search run for the race alone
(the oracle of ``tests/test_shared_explore.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import astuple, dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.detection.race_report import RaceReport
from repro.lang.program import Program
from repro.record_replay.memo import TraceMemo
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.errors import ExecutionOutcome
from repro.runtime.executor import Executor, RunStatus
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
    terminal outcome and the exploration bookkeeping.
    """

    index: int
    path_condition: PathCondition
    symbolic_outputs: List[OutputRecord]
    concrete_inputs: Dict[str, int]
    diverged_after_race: bool
    race_reached_step: int
    symbolic_branches: int
    outcome: Optional[ExecutionOutcome] = None


#: a race as the reached-tracker sees it:
#: ``(location space, location name, first.tid, first.pc, second.tid)``
_Watch = Tuple[object, str, int, int, int]


def _watch(race: RaceReport) -> _Watch:
    location = race.location
    return (location.space, location.name, race.first.tid, race.first.pc, race.second.tid)


class _RaceReachedTracker(ExecutionListener):
    """Marks (in each state's notes) when each watched race's accesses executed.

    One tracker watches every race of a trace, indexed by location; race
    ``w`` writes only its own note keys ``(NOTE_FIRST, w)`` and
    ``(NOTE_RACE, w)``, so each race's notes are exactly what a tracker
    watching that race alone would write.  The notes travel with forked
    states, so the explorer can later tell whether a schedule divergence
    happened before or after the race.  It wants only the watched
    locations' names; ``on_access`` still matches the space too.
    """

    NOTE_FIRST = "explore.first_access_step"
    NOTE_RACE = "explore.race_reached_step"

    def __init__(self, races: Sequence[RaceReport]) -> None:
        watches = dict.fromkeys(_watch(race) for race in races)
        self.watches = frozenset(watches)
        self.access_names = frozenset(watch[1] for watch in watches)
        self._by_location: Dict[Tuple[object, str], List[Tuple[_Watch, tuple, tuple]]] = {}
        for watch in watches:
            self._by_location.setdefault(watch[:2], []).append(
                (watch, (self.NOTE_FIRST, watch), (self.NOTE_RACE, watch))
            )

    def on_access(self, state, access: MemoryAccess) -> None:
        watching = self._by_location.get((access.location.space, access.location.name))
        if not watching:
            return
        notes = state.notes
        for watch, first_key, race_key in watching:
            if race_key in notes:
                continue
            if access.tid == watch[2] and access.pc == watch[3]:
                notes.setdefault(first_key, access.step)
            elif access.tid == watch[4] and first_key in notes:
                notes[race_key] = access.step


@dataclass
class _Popped:
    """One popped state of a search, after its run: what the stop rules read."""

    status: RunStatus
    #: the state as its run left it (None unless the run completed)
    state: Optional[ExecutionState]
    diverged: bool
    divergence_step: Optional[int]
    divergence_reason: Optional[str]


def _run_popped(
    executor: Executor,
    trace: ExecutionTrace,
    state: ExecutionState,
    tracker: _RaceReachedTracker,
    max_steps: int,
) -> Tuple[_Popped, List[ExecutionState]]:
    """Run one popped state on ``executor``; return it and its forks.

    Trace replay resumes at the decision the state has already reached:
    ``state.preemption_points`` counts exactly the recorded scheduling
    decisions consumed so far, so forked states continue the trace from the
    right position.  The state's counters are re-attached to ``executor``
    first, so the statements count on the executor that runs them.
    """
    state.attach_counters(executor.counters)
    policy = ReplayPolicy(
        trace.decisions[state.preemption_points:], fallback=RoundRobinPolicy()
    )
    result = executor.run(state, policy=policy, listeners=[tracker], max_steps=max_steps)
    completed = result.status is RunStatus.COMPLETED
    popped = _Popped(
        status=result.status,
        state=state if completed else None,
        diverged=policy.diverged,
        divergence_step=policy.divergence_step,
        divergence_reason=policy.divergence_reason,
    )
    return popped, result.forks


class _SharedSearch:
    """One breadth-first search of a trace's symbolic tree, extended lazily.

    ``popped[i]`` is the ``i``-th state the search popped.  The explorer
    that first needs state ``i`` runs it on its own executor; every other
    explorer reads the result.  The tracker watches ``races``.
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        initial: ExecutionState,
        max_steps: int,
        races: Sequence[RaceReport],
    ) -> None:
        self.trace = trace
        self.tracker = _RaceReachedTracker(races)
        self.max_steps = max_steps
        self.frontier: Deque[ExecutionState] = deque([initial])
        self.popped: List[_Popped] = []
        #: set when a run raised: the search lost a state and is discarded
        self.broken = False

    def pop(self, index: int, executor: Executor) -> Optional[_Popped]:
        """The ``index``-th popped state, None once the search is exhausted.

        A state already popped is returned as its run left it; otherwise
        ``executor`` pops and runs the next frontier state.
        """
        if index < len(self.popped):
            return self.popped[index]
        if not self.frontier:
            return None
        state = self.frontier.popleft()
        try:
            popped, forks = _run_popped(executor, self.trace, state, self.tracker, self.max_steps)
        except BaseException:
            self.broken = True
            raise
        self.frontier.extend(forks)
        self.popped.append(popped)
        return popped


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
        *,
        memo: TraceMemo,
    ) -> None:
        self.executor = executor
        self.program = program
        self.trace = trace
        self.race = race
        #: the memo of ``trace`` classified against the executor's program
        self.memo = memo
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
        *,
        memo: TraceMemo,
    ) -> "MultiPathExplorer":
        """Build an explorer from a :class:`PortendConfig`.

        The single place that maps config knobs onto explorer arguments, so
        a future exploration knob cannot silently diverge between its
        callers.  ``config`` is untyped to keep :mod:`repro.explore`
        import-independent from :mod:`repro.core`.
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
            memo=memo,
        )

    # -------------------------------------------------------------- symbolic

    def symbolic_input_names(self) -> List[str]:
        """Choose which declared inputs to mark symbolic (paper uses 2)."""
        declared = list(self.program.input_declarations())
        return declared[: self.symbolic_input_limit]

    def _initial_state(self, symbolic_names: Sequence[str]) -> ExecutionState:
        return self.executor.initial_state(
            concrete_inputs=dict(self.trace.concrete_inputs),
            symbolic_inputs=symbolic_names,
        )

    # ----------------------------------------------------------------- explore

    def explore(self) -> List[PrimaryPath]:
        """Run the exploration and return the retained primary paths.

        This race walks its search (see :meth:`_search`) with its own
        cursor and stop rules.
        """
        search = self._search()
        primaries: List[PrimaryPath] = []
        index = 0
        while len(primaries) < self.max_primaries and self.states_explored < self.max_states:
            popped = search.pop(index, self.executor)
            if popped is None:
                break
            index += 1
            self._consider(popped, primaries)
        return primaries

    # -------------------------------------------------------------- internals

    def _search(self) -> _SharedSearch:
        """The memoised search of this explorer's trace or, when the race is
        not one of ``trace.races`` (a hand-built report), a fresh search
        that watches this race only and is memoised nowhere.

        The search lives in the explorer's memo (so it is kept per trace
        and program), keyed by everything else a run reads: the
        symbolic inputs, the per-state step bound and the executor and
        solver configuration (the loop bound, and the solver's assignment
        budget, since its UNKNOWN answers decide forks).  The stop rules
        (``max_primaries``, ``max_states``) stay out: each walker applies
        its own.
        """
        executor = self.executor
        symbolic_names = self.symbolic_input_names()

        def fresh(races: Sequence[RaceReport]) -> _SharedSearch:
            initial = self._initial_state(symbolic_names)
            return _SharedSearch(self.trace, initial, self.max_steps_per_state, races)

        searches = self.memo.searches
        key = (
            tuple(symbolic_names),
            self.max_steps_per_state,
            astuple(executor.config),
            executor.solver.max_assignments,
        )
        search = searches.get(key)
        watches = (
            search.tracker.watches
            if search is not None
            else frozenset(map(_watch, self.trace.races))
        )
        if _watch(self.race) not in watches:
            return fresh([self.race])
        if search is None or search.broken:
            search = searches[key] = fresh(self.trace.races)
        return search

    def _consider(self, popped: _Popped, primaries: List[PrimaryPath]) -> None:
        """Count one popped state, and keep it as a primary or prune it."""
        self.states_explored += 1
        if popped.status is not RunStatus.COMPLETED:
            self._prune(f"execution did not complete ({popped.status.value})")
            return
        state = popped.state
        race_step = state.notes.get((_RaceReachedTracker.NOTE_RACE, _watch(self.race)))
        if race_step is None:
            # This path never exercised the target race: prune (§3.3).
            self._prune("path never exercised the target race")
            return
        if popped.diverged and (
            popped.divergence_step is None or popped.divergence_step < race_step
        ):
            # Schedule divergence before the race: the path does not obey
            # the recorded schedule trace, prune it.
            detail = popped.divergence_reason or "unknown divergence"
            self._prune(
                f"schedule diverged before the race at step "
                f"{popped.divergence_step}: {detail}"
            )
            return

        concrete_inputs = self._solve_inputs(state)
        if concrete_inputs is None:
            self._prune("path condition has no concrete input model")
            return
        primaries.append(
            PrimaryPath(
                index=len(primaries),
                path_condition=state.path_condition.clone(),
                symbolic_outputs=list(state.output_log),
                concrete_inputs=concrete_inputs,
                diverged_after_race=popped.diverged,
                race_reached_step=race_step,
                symbolic_branches=state.symbolic_branches,
                outcome=state.outcome,
            )
        )

    def _prune(self, reason: str) -> None:
        """Record a pruned state, numbered by its pop order in the search
        (1 is the initial state), so reasons never depend on process history."""
        self.states_pruned += 1
        self.prune_reasons.append(f"state {self.states_explored}: {reason}")

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
