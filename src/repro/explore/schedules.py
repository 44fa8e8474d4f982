"""Schedule diversification for multi-schedule analysis (§3.4)."""

from __future__ import annotations

from typing import List, Optional

from repro.runtime.scheduler import RandomPolicy, SchedulePolicy


def alternate_schedule_policies(count: int, base_seed: int) -> List[Optional[SchedulePolicy]]:
    """Post-race schedule policies for the alternates of one primary path.

    The first is None, the single-post schedule of Algorithm 1 (see
    :func:`repro.core.alternate.run_alternate`): the preempted thread is
    released to make its racing access, then round-robin continues.  On the
    path that replays the recorded inputs this is Algorithm 1's own
    alternate, which the race's enforcement memo hands back without running
    it again.  Every further alternate runs under an independently seeded
    random scheduler, so "every alternate execution will most likely have a
    different schedule from the original input trace".  ``base_seed`` comes from
    :meth:`repro.core.config.PortendConfig.race_seed`, which mixes in the
    race id and primary-path index: every race owns its schedule seeds, so
    serial and parallel classification produce bit-identical results.
    """
    if count <= 0:
        return []
    policies: List[Optional[SchedulePolicy]] = [None]
    for index in range(1, count):
        policies.append(RandomPolicy(seed=base_seed + index))
    return policies
