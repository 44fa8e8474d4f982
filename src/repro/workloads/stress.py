"""Synthetic stress workloads: many races per trace, many paths per race.

The paper's workload set tops out at 19 distinct races per program
(memcached, Table 3), which leaves a per-race work queue starved on wide
machines and makes parallel speedups hard to see in CI.  ``stress`` is the
opposite shape: a single recording whose trace contains ``races`` distinct
write-write races (two unsynchronised writer threads storing the same value
into ``races`` disjoint globals -- the RW "redundant writes" pattern of §5
replicated per slot), so the classification stage alone fans out into
hundreds of independent tasks.

Every race is "k-witness harmless" by construction: both writers store the
same constant and the program output never reads the slots, so all
orderings are equivalent.  That keeps the ground truth trivial while the
engine still pays the full per-race exploration cost, which is exactly what
a scheduler/cache benchmark wants.

``stress_deep`` stresses the *other* axis: per-race primary-path fan-out.
Each slot's race is the same redundant-write pattern, but main ends with a
chain of input-dependent branches (two symbolic inputs, three thresholds
each) that emit symbolic diagnostics, so every race's multi-path
exploration forks into many primary paths (Mp-bounded) whose outputs need
symbolic comparison.  This is the shape that exercises multi-path
exploration and the solver's memoization -- the same membership query repeats
across alternate schedules and duplicate diagnostic channels.

``stress_harmful`` is the adversarial complement: every slot's race is
*harmful* (the alternate ordering observes an uninitialised zero and
crashes with a division by zero -- pbzip2's eager-metadata pattern from
Table 2, replicated per slot), so the classifier takes the evidence-heavy
route for every single race: crash capture, failing-input extraction,
spec-violation reporting.  ``stress`` answers "how fast can we wave
hundreds of harmless races through?"; ``stress_harmful`` answers "how fast
can we *convict* hundreds of harmful ones?".
"""

from __future__ import annotations

from repro.core.categories import RaceClass, SpecViolationKind
from repro.lang.ast import add, div, ge, glob, local
from repro.lang.builder import ProgramBuilder
from repro.workloads.base import GroundTruth, Workload

#: distinct races in the registry build (``load_workload("stress")``)
DEFAULT_RACES = 160

#: slots (= races) in the registry build of ``stress_deep``
DEFAULT_DEEP_SLOTS = 12

#: slots (= crash races) in the registry build of ``stress_harmful``
DEFAULT_HARMFUL_RACES = 120


def build_stress(races: int = DEFAULT_RACES) -> Workload:
    """Build the stress workload with ``races`` distinct write-write races."""
    if races < 1:
        raise ValueError("stress workload needs at least one race")
    b = ProgramBuilder("stress", language="C++")
    for index in range(races):
        b.global_var(f"slot_{index:04d}", 0)

    # Two writer threads store the same constant into every slot, giving one
    # distinct (variable-keyed) race per slot and no harmful consequence.
    for thread_name, base_line in (("writer_a", 100), ("writer_b", 1000)):
        writer = b.function(thread_name)
        for index in range(races):
            writer.assign(
                glob(f"slot_{index:04d}"),
                1,
                label=f"stress.cpp:{base_line + index}",
            )
        writer.ret()

    main = b.function("main")
    main.spawn("t1", "writer_a", label="stress.cpp:20")
    main.spawn("t2", "writer_b", label="stress.cpp:21")
    main.join(local("t1"))
    main.join(local("t2"))
    main.output("stdout", [1], label="stress.cpp:24")
    main.ret()

    return Workload(
        name="stress",
        program=b.build(),
        description=f"synthetic stress: {races} distinct redundant-write races",
        paper_loc=0,
        paper_language="C++",
        paper_forked_threads=3,
        expected_distinct_races=races,
        is_micro_benchmark=True,
        ground_truth={
            f"slot_{index:04d}": GroundTruth(
                f"slot_{index:04d}", RaceClass.K_WITNESS_HARMLESS
            )
            for index in range(races)
        },
    )


def build_stress_deep(slots: int = DEFAULT_DEEP_SLOTS) -> Workload:
    """Build the deep-path stress workload with ``slots`` distinct races.

    One redundant-write race per slot (two writer threads, same constant),
    plus a post-join chain of symbolic branches in main: ``depth_a`` and
    ``depth_b`` are declared inputs that the multi-path explorer marks
    symbolic, and each ``>= threshold`` test forks the exploration.  The
    feasible combinations per input are its 4 domain values, so every race
    has far more completed primary paths than the default Mp=5 budget --
    the per-path fan-out itself becomes the workload.  Branch arms emit the
    *same* symbolic expression on two channels (a diagnostic echoed to a
    log), which is what makes the solver-side memo measurable: the
    membership query of symbolic output comparison repeats per channel and
    per alternate schedule.
    """
    if slots < 1:
        raise ValueError("stress_deep workload needs at least one slot")
    b = ProgramBuilder("stress_deep", language="C++")
    for index in range(slots):
        b.global_var(f"deep_{index:03d}", 0)

    # Same racy shape as ``stress``: one distinct write-write race per slot,
    # harmless by construction (both writers store the same constant).
    for thread_name, base_line in (("writer_a", 100), ("writer_b", 1000)):
        writer = b.function(thread_name)
        for index in range(slots):
            writer.assign(
                glob(f"deep_{index:03d}"),
                1,
                label=f"stress_deep.cpp:{base_line + index}",
            )
        writer.ret()

    main = b.function("main")
    main.input("da", "depth_a", 0, 3, default=0, label="stress_deep.cpp:10")
    main.input("db", "depth_b", 0, 3, default=0, label="stress_deep.cpp:11")
    main.spawn("t1", "writer_a", label="stress_deep.cpp:20")
    main.spawn("t2", "writer_b", label="stress_deep.cpp:21")
    main.join(local("t1"))
    main.join(local("t2"))

    # Input-dependent branch chain *after* the racing accesses: every fork
    # still reaches the race (schedule divergence past the race is
    # tolerated, §3.3), so each feasible input region becomes a retained
    # primary path.
    line = 30
    for gate, input_local in (("a", "da"), ("b", "db")):
        for level in (1, 2, 3):
            with main.if_(ge(local(input_local), level), label=f"stress_deep.cpp:{line}"):
                diagnostic = add(local(input_local), level)
                main.output("diag", [diagnostic], label=f"stress_deep.cpp:{line + 1}")
                main.output("log", [diagnostic], label=f"stress_deep.cpp:{line + 2}")
            with main.else_():
                main.nop()
            line += 4

    main.output("stdout", [1], label=f"stress_deep.cpp:{line}")
    main.ret()

    return Workload(
        name="stress_deep",
        program=b.build(),
        inputs={"depth_a": 0, "depth_b": 0},
        description=(
            f"synthetic deep-path stress: {slots} redundant-write races, "
            "many primary paths per race"
        ),
        paper_loc=0,
        paper_language="C++",
        paper_forked_threads=3,
        expected_distinct_races=slots,
        is_micro_benchmark=True,
        ground_truth={
            f"deep_{index:03d}": GroundTruth(
                f"deep_{index:03d}", RaceClass.K_WITNESS_HARMLESS
            )
            for index in range(slots)
        },
    )


def build_stress_harmful(races: int = DEFAULT_HARMFUL_RACES) -> Workload:
    """Build the harmful stress workload with ``races`` crash races.

    Each slot replicates pbzip2's eager-metadata crash (Table 2): a
    dedicated setter thread initialises ``meta_<i>`` while main divides by
    it without waiting for the setter.  In the recorded round-robin
    schedule every setter runs before main's reads (the ``sched_yield``
    after the spawn loop drains all runnable setters, each of which is two
    preemption-free statements), so recording completes normally and the
    happens-before detector reports one write-read race per slot -- the
    joins come only after the reads, so no edge orders them.  The alternate
    ordering of any slot's race makes main observe the uninitialised zero
    and crash with a division by zero, which is exactly the evidence-heavy
    classification path: crash capture, failing-input extraction and
    spec-violation reporting for *every* race of the trace.
    """
    if races < 1:
        raise ValueError("stress_harmful workload needs at least one race")
    b = ProgramBuilder("stress_harmful", language="C++")
    for index in range(races):
        b.global_var(f"meta_{index:04d}", 0)

    # One single-write setter per slot: its write races with main's read.
    for index in range(races):
        setter = b.function(f"setter_{index:04d}")
        setter.assign(
            glob(f"meta_{index:04d}"),
            4 + index % 8,
            label=f"stress_harmful.cpp:{100 + index}",
        )
        setter.ret()

    main = b.function("main")
    for index in range(races):
        main.spawn(
            f"t{index}", f"setter_{index:04d}", label=f"stress_harmful.cpp:{20 + index}"
        )
    # The recorded schedule's only ordering aid: one yield, after which the
    # round-robin scheduler runs every not-yet-finished setter to
    # completion before main resumes.  A yield is not a synchronisation
    # edge, so the races below survive detection.
    main.yield_(label=f"stress_harmful.cpp:{20 + races}")

    # Eager consumption, no join yet: correct only if the setter already
    # ran; the alternate ordering divides by the uninitialised zero.
    for index in range(races):
        main.assign(
            local(f"q{index}"),
            div(100, glob(f"meta_{index:04d}")),
            label=f"stress_harmful.cpp:{1000 + index}",
        )
    main.output("stdout", [1], label=f"stress_harmful.cpp:{1000 + races}")
    for index in range(races):
        main.join(local(f"t{index}"))
    main.ret()

    return Workload(
        name="stress_harmful",
        program=b.build(),
        description=(
            f"synthetic harmful stress: {races} crash-per-slot metadata races"
        ),
        paper_loc=0,
        paper_language="C++",
        paper_forked_threads=races + 1,
        expected_distinct_races=races,
        is_micro_benchmark=True,
        ground_truth={
            f"meta_{index:04d}": GroundTruth(
                f"meta_{index:04d}",
                RaceClass.SPEC_VIOLATED,
                spec_kind=SpecViolationKind.CRASH,
            )
            for index in range(races)
        },
    )
