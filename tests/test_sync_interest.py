"""Tests for on-demand synchronisation and scheduling events.

A :class:`~repro.runtime.listeners.ListenerGroup` lists, once, the members
that override ``on_sync`` and ``on_schedule``; the executor builds a
``SyncEvent`` only when some member overrides ``on_sync`` and calls
``on_schedule`` only when some member overrides that:

* a run whose listeners override neither builds no ``SyncEvent`` and makes
  no scheduling callback;
* a listener that overrides one of the two gets exactly the callbacks a
  listener overriding both gets for that one, and the other is not
  published;
* a listener overriding both sees the same sequence from the live loop and
  from the replaced one (``OracleExecutor``);
* attaching a do-nothing sync listener to every run of the serial registry
  changes no verdict and no statement count.
"""

import pytest

from repro.runtime import executor as executor_module
from repro.runtime.executor import Executor
from repro.runtime.listeners import ExecutionListener, ListenerGroup
from repro.runtime.scheduler import CooperativePolicy, RandomPolicy, RoundRobinPolicy

from test_access_interest import _AccessLog, _StepCounter
from test_step_loop import OracleExecutor, _EventLog, _serial_registry, _sink_program

#: every kind of ``SyncEvent`` the sink program publishes
_SINK_SYNC_KINDS = {
    "lock",
    "unlock",
    "cond_wait",
    "cond_broadcast",
    "barrier_wait",
    "barrier_release",
    "spawn",
    "join",
    "exit",
}


class _Schedules(ExecutionListener):
    """Overrides ``on_schedule`` only."""

    def __init__(self):
        self.events = []

    def on_schedule(self, state, chosen_tid, previous_tid, reason):
        self.events.append(("schedule", chosen_tid, previous_tid, reason, state.step_count))


class _Syncs(ExecutionListener):
    """Overrides ``on_sync`` only."""

    def __init__(self):
        self.events = []

    def on_sync(self, state, event):
        self.events.append(("sync", event))


class _SyncSink(ExecutionListener):
    """Takes sync and schedule events and does nothing with them."""

    def on_sync(self, state, event):
        pass

    def on_schedule(self, state, chosen_tid, previous_tid, reason):
        pass


#: the unpatched originals, so each ``_run`` counts only its own run
_REAL_SYNC_EVENT = executor_module.SyncEvent
_REAL_ON_SCHEDULE = ListenerGroup.on_schedule


def _run(listeners, monkeypatch, executor_class=Executor, policy=RoundRobinPolicy):
    """Run the sink program; return the executor, the ``SyncEvent``s built
    and the number of ``ListenerGroup.on_schedule`` calls."""
    built = []

    def counting(*fields):
        event = _REAL_SYNC_EVENT(*fields)
        built.append(event)
        return event

    scheduled = []

    def counted(self, state, chosen_tid, previous_tid, reason):
        scheduled.append(chosen_tid)
        _REAL_ON_SCHEDULE(self, state, chosen_tid, previous_tid, reason)

    monkeypatch.setattr(executor_module, "SyncEvent", counting)
    monkeypatch.setattr(ListenerGroup, "on_schedule", counted)
    executor = executor_class(_sink_program())
    state = executor.initial_state()
    executor.run(state, policy=policy(), listeners=listeners)
    assert state.outcome is not None
    return executor, built, len(scheduled)


def _of_kind(events, kind):
    return [event for event in events if event[0] == kind]


class TestInterestFold:
    def test_group_lists_only_the_overriding_members(self):
        schedules, syncs, sink = _Schedules(), _Syncs(), _SyncSink()
        group = ListenerGroup([_AccessLog(), schedules, _StepCounter(), syncs, sink])
        assert group.schedule_listeners == [schedules, sink]
        assert group.sync_listeners == [syncs, sink]
        assert ListenerGroup([_AccessLog(), _StepCounter()]).sync_listeners == []
        assert ListenerGroup([_AccessLog(), _StepCounter()]).schedule_listeners == []


@pytest.mark.parametrize(
    "policy",
    # a random seed whose run has a waiter block on the condition variable
    [RoundRobinPolicy, CooperativePolicy, lambda: RandomPolicy(seed=3)],
    ids=["round_robin", "cooperative", "random"],
)
class TestEventsPublished:
    def test_run_overriding_neither_builds_no_event(self, policy, monkeypatch):
        for listeners in ([], [_AccessLog(), _StepCounter()]):
            executor, built, scheduled = _run(listeners, monkeypatch, policy=policy)
            assert executor.counters.statements > 0
            assert built == [] and executor.counters.sync_events == 0
            assert scheduled == 0

    def test_one_callback_each(self, policy, monkeypatch):
        everything = _EventLog()
        executor, built, scheduled = _run([everything], monkeypatch, policy=policy)
        syncs = _of_kind(everything.events, "sync")
        schedules = _of_kind(everything.events, "schedule")
        assert {event.kind for _tag, event in syncs} == _SINK_SYNC_KINDS
        assert len(built) == executor.counters.sync_events == len(syncs)
        assert scheduled == len(schedules) > 0

        only_schedules = _Schedules()
        executor, built, scheduled = _run([only_schedules], monkeypatch, policy=policy)
        assert only_schedules.events == schedules
        assert built == [] and executor.counters.sync_events == 0
        assert scheduled == len(schedules)

        only_syncs = _Syncs()
        executor, built, scheduled = _run([only_syncs], monkeypatch, policy=policy)
        assert only_syncs.events == syncs
        assert [("sync", event) for event in built] == syncs
        assert executor.counters.sync_events == len(syncs)
        assert scheduled == 0

    def test_live_loop_publishes_what_the_replaced_loop_did(self, policy, monkeypatch):
        live, oracle = _EventLog(), _EventLog()
        executor, built, scheduled = _run([live], monkeypatch, policy=policy)
        _oracle, oracle_built, oracle_scheduled = _run(
            [oracle], monkeypatch, executor_class=OracleExecutor, policy=policy
        )
        assert live.events == oracle.events
        assert built == oracle_built and scheduled == oracle_scheduled
        assert {event.kind for _tag, event in _of_kind(live.events, "sync")} == _SINK_SYNC_KINDS


def test_a_sync_listener_on_every_run_keeps_every_registry_verdict(monkeypatch):
    rows, counters = _serial_registry()
    attached = []
    original = ListenerGroup.__init__

    def with_sink(self, listeners=()):
        sink = _SyncSink()
        attached.append(sink)
        original(self, list(listeners) + [sink])

    with monkeypatch.context() as patch:
        patch.setattr(ListenerGroup, "__init__", with_sink)
        sunk_rows, sunk_counters = _serial_registry()
    assert attached
    assert len(rows) == 385
    assert sunk_rows == rows
    # the sink makes every run build its sync events, and changes nothing else
    assert sunk_counters.pop("sync_events") > counters.pop("sync_events")
    assert sunk_counters == counters
