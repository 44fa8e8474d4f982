"""Reusable race-pattern generators for the model workloads.

Every pattern mirrors a code shape the paper documents:

* :func:`add_guarded_data_group` -- the pbzip2/Fig. 8(d) pattern: a producer
  fills shared buffers and then raises an ad-hoc "done" flag; a consumer
  busy-waits on the flag and reads the buffers.  Each buffer variable yields
  one "single ordering" race (the alternate ordering cannot be enforced
  because the consumer cannot pass the busy-wait while the producer is
  preempted); the flag itself yields one genuine race whose classification is
  chosen by the caller (the consumer can report how long it waited, which
  makes the flag race "output differs", or stay silent, which makes it
  "k-witness harmless").
* :func:`add_printed_stat` -- the memcached/Fig. 8(c) pattern: an
  unsynchronised statistics variable whose value is printed, so the output
  depends on the access ordering ("output differs").
* :func:`add_gated_print_race` -- the Fig. 4 pattern: the racy value only
  reaches the output along an input-dependent path, so single-path analysis
  sees no difference and multi-path analysis is required.
* :func:`add_silent_counter_race` -- ctrace-style counters that race but
  never influence output ("k-witness harmless", post-race states differ).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lang.ast import add, arr, eq, ge, glob, gt, le, local, lt, ne, sub
from repro.lang.builder import FunctionBuilder, ProgramBuilder


def add_guarded_data_group(
    builder: ProgramBuilder,
    producer: FunctionBuilder,
    consumer: FunctionBuilder,
    flag: str,
    data_names: Sequence[str],
    data_value: int = 42,
    report_wait_iterations: bool = False,
    wait_channel: str = "stderr",
    source: str = "workload.c",
    line_base: int = 100,
) -> None:
    """Emit the busy-wait producer/consumer pattern.

    The producer writes every ``data_names`` variable and then sets ``flag``;
    the consumer spins on ``flag`` (with a ``usleep`` in the loop body, like
    pbzip2) and then reads every data variable.  When
    ``report_wait_iterations`` is True the consumer prints how many times it
    polled, which makes the race on ``flag`` an "output differs" race.
    """
    builder.global_var(flag, 0)
    for name in data_names:
        builder.global_var(name, 0)

    for offset, name in enumerate(data_names):
        producer.assign(
            glob(name), data_value + offset, label=f"{source}:{line_base + offset}"
        )
    producer.assign(glob(flag), 1, label=f"{source}:{line_base + len(data_names)}")

    iters_var = f"__{flag}_wait_iters"
    consumer.assign(local(iters_var), 0)
    with consumer.while_(eq(glob(flag), 0), label=f"{source}:{line_base + 50}"):
        consumer.assign(local(iters_var), add(local(iters_var), 1))
        consumer.sleep(1, label=f"{source}:{line_base + 51}")
    if report_wait_iterations:
        consumer.output(
            wait_channel, [local(iters_var)], label=f"{source}:{line_base + 52}"
        )
    for offset, name in enumerate(data_names):
        consumer.assign(
            local(f"__read_{name}"),
            glob(name),
            label=f"{source}:{line_base + 60 + offset}",
        )


def add_printed_stat(
    builder: ProgramBuilder,
    writer: FunctionBuilder,
    reader: FunctionBuilder,
    variable: str,
    write_value: int,
    channel: str = "stats",
    source: str = "workload.c",
    line: int = 300,
    declare: bool = True,
) -> None:
    """A racy statistic whose value is printed (single-path "output differs")."""
    if declare:
        builder.global_var(variable, 0)
    writer.assign(glob(variable), write_value, label=f"{source}:{line}")
    reader.output(channel, [glob(variable)], label=f"{source}:{line + 1}")


def add_gated_print_race(
    builder: ProgramBuilder,
    writer: FunctionBuilder,
    reader: FunctionBuilder,
    variable: str,
    gate_local: str,
    gate_value: int,
    write_value: int,
    channel: str = "debug",
    source: str = "workload.c",
    line: int = 400,
    declare: bool = True,
) -> None:
    """The Fig. 4 pattern: the racy value is printed only on one input path.

    ``gate_local`` must be a local of the reader holding a program input; the
    racy read happens unconditionally (so the race is always detected), but
    the value only reaches the output when the input equals ``gate_value`` --
    which is not the value used by the recorded test, so single-path analysis
    observes no output difference and multi-path analysis is needed.
    """
    if declare:
        builder.global_var(variable, 0)
    writer.assign(glob(variable), write_value, label=f"{source}:{line}")
    snapshot = f"__snap_{variable}"
    reader.assign(local(snapshot), glob(variable), label=f"{source}:{line + 1}")
    with reader.if_(eq(local(gate_local), gate_value), label=f"{source}:{line + 2}"):
        reader.output(channel, [local(snapshot)], label=f"{source}:{line + 3}")


def add_silent_counter_race(
    builder: ProgramBuilder,
    first: FunctionBuilder,
    second: FunctionBuilder,
    variable: str,
    first_delta: int = 1,
    second_delta: int = 1,
    source: str = "workload.c",
    line: int = 500,
) -> None:
    """Racy read-modify-write counters that never reach the output.

    Both orderings leave the program output untouched, so Portend classifies
    the race "k-witness harmless"; the post-race memory states differ (a lost
    update is possible), which is exactly the case where the
    Record/Replay-Analyzer baseline misclassifies the race as harmful.
    """
    builder.global_var(variable, 0)
    first.assign(
        glob(variable), add(glob(variable), first_delta), label=f"{source}:{line}"
    )
    second.assign(
        glob(variable), add(glob(variable), second_delta), label=f"{source}:{line + 1}"
    )

