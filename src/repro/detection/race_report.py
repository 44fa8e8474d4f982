"""Race records, clustering and report data structures.

Portend "clusters the data races it detects, in order to filter out similar
races; the clustering criterion is whether the racing accesses are made to
the same shared memory location by the same threads, and the stack traces of
the accesses are the same" (§4).  Two races are *distinct* "if they involve
different accesses to shared variables" (Table 3 caption); the same distinct
race may be observed many times (race instances).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.listeners import MemoryAccess
from repro.runtime.memory import MemoryLocation
from repro.runtime.threadstate import StackEntry


@dataclass(frozen=True)
class AccessInfo:
    """One racing access, as recorded by the detector."""

    tid: int
    pc: int
    label: str
    is_write: bool
    location: MemoryLocation
    step: int
    stack: Tuple = ()
    locks_held: Tuple[str, ...] = ()

    @classmethod
    def from_access(
        cls,
        access: MemoryAccess,
        stack: Tuple[StackEntry, ...],
        locks_held: Sequence[str] = (),
    ) -> "AccessInfo":
        """Record ``access`` with the accessing thread's ``stack`` at the time."""
        return cls(
            tid=access.tid,
            pc=access.pc,
            label=access.label,
            is_write=access.is_write,
            location=access.location,
            step=access.step,
            stack=stack,
            locks_held=tuple(locks_held),
        )

    @property
    def kind(self) -> str:
        return "WRITE" if self.is_write else "READ"

    def thread_identity(self) -> str:
        """Stable identity of the accessing thread for clustering purposes.

        §4 clusters races made "by the same threads"; raw dynamic tids are the
        wrong notion of thread identity in a model with symmetric worker
        pools (every pairwise race between N identical workers would become
        its own distinct race), so the thread is identified by its role: the
        entry function at the bottom of the recorded stack trace.  Accesses
        recorded without a stack fall back to the dynamic tid.
        """
        if self.stack:
            return self.stack[0].function
        return f"tid:{self.tid}"

    def cluster_signature(self) -> Tuple:
        """Hashable, orderable signature of this access for clustering."""
        return (
            self.pc,
            self.thread_identity(),
            tuple((entry.function, entry.label) for entry in self.stack),
        )

    def describe(self) -> str:
        return f"{self.kind} of {self.location.describe()} by T{self.tid} at {self.label or self.pc}"

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "tid": self.tid,
            "pc": self.pc,
            "label": self.label,
            "is_write": self.is_write,
            "location": {
                "space": self.location.space,
                "name": self.location.name,
                "index": self.location.index,
            },
            "step": self.step,
            "stack": [[entry.function, entry.label] for entry in self.stack],
            "locks_held": list(self.locks_held),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AccessInfo":
        location = data["location"]
        return cls(
            tid=data["tid"],
            pc=data["pc"],
            label=data["label"],
            is_write=data["is_write"],
            location=MemoryLocation(location["space"], location["name"], location["index"]),
            step=data["step"],
            stack=tuple(StackEntry(function, label) for function, label in data["stack"]),
            locks_held=tuple(data["locks_held"]),
        )


@dataclass(frozen=True)
class RaceInstance:
    """One dynamic occurrence of a race: two conflicting, concurrent accesses.

    ``first`` is the access that occurred earlier in the observed execution
    (the "primary" order); ``second`` is the later one.
    """

    first: AccessInfo
    second: AccessInfo

    @property
    def location(self) -> MemoryLocation:
        return self.second.location

    def distinct_key(self) -> Tuple:
        """Key identifying the *distinct race* this instance belongs to.

        §4: the clustering criterion is "whether the racing accesses are made
        to the same shared memory location by the same threads, and the stack
        traces of the accesses are the same".  The key therefore covers the
        location, the program counters, the thread identities and the full
        stack traces of both accesses (the two access signatures are sorted
        so the key does not depend on which access was observed first).
        """
        signatures = tuple(
            sorted((self.first.cluster_signature(), self.second.cluster_signature()))
        )
        return (self.location.space, self.location.name, signatures)

    def to_dict(self) -> Dict:
        return {"first": self.first.to_dict(), "second": self.second.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict) -> "RaceInstance":
        return cls(
            first=AccessInfo.from_dict(data["first"]),
            second=AccessInfo.from_dict(data["second"]),
        )


@dataclass
class RaceReport:
    """A distinct data race plus all of its observed instances."""

    race_id: int
    program: str
    first: AccessInfo
    second: AccessInfo
    instances: List[RaceInstance] = field(default_factory=list)

    @property
    def location(self) -> MemoryLocation:
        return self.second.location

    @property
    def tids(self) -> Tuple[int, int]:
        return (self.first.tid, self.second.tid)

    @property
    def pcs(self) -> Tuple[int, int]:
        return (self.first.pc, self.second.pc)

    @property
    def instance_count(self) -> int:
        return len(self.instances)

    def describe(self) -> str:
        lines = [
            f"Data Race during access to: {self.location.describe()}",
            f"current thread id: {self.second.tid}: {self.second.kind}",
            f"racing thread id: {self.first.tid}: {self.first.kind}",
            f"Current thread at:",
            f"  {self.second.label or self.second.pc}",
            f"Previous at:",
            f"  {self.first.label or self.first.pc}",
            f"observed instances: {self.instance_count}",
        ]
        return "\n".join(lines)

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "race_id": self.race_id,
            "program": self.program,
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
            "instances": [instance.to_dict() for instance in self.instances],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RaceReport":
        return cls(
            race_id=data["race_id"],
            program=data["program"],
            first=AccessInfo.from_dict(data["first"]),
            second=AccessInfo.from_dict(data["second"]),
            instances=[RaceInstance.from_dict(item) for item in data["instances"]],
        )


def cluster_races(
    program_name: str, instances: Sequence[RaceInstance]
) -> List[RaceReport]:
    """Group race instances into distinct races.

    The first observed instance of each cluster provides the representative
    access pair (its ordering defines the "primary" order used during
    classification).
    """
    reports: Dict[Tuple, RaceReport] = {}
    next_id = 1
    for instance in instances:
        key = instance.distinct_key()
        report = reports.get(key)
        if report is None:
            report = RaceReport(
                race_id=next_id,
                program=program_name,
                first=instance.first,
                second=instance.second,
            )
            next_id += 1
            reports[key] = report
        report.instances.append(instance)
    return list(reports.values())
