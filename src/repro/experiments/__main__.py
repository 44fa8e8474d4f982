"""Command-line entry point: ``python -m repro.experiments <experiment>``.

The driver builds one default :class:`~repro.core.config.PortendConfig` and
one :class:`~repro.engine.EngineOptions` from the flags the user set (a
flag left unset keeps the field's default, including its ``REPRO_*``
environment default).  The shared-run experiments (table3/table4/table5/
fig9) all consume one analysis of the workload list under that pair,
computed once through the :class:`repro.engine.AnalysisEngine`; the
ablation experiments (table2, fig7, fig10) sweep their own variants of the
config and run every analysis under the same options.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile

from repro.experiments import fig7, fig9, fig10, table1, table2, table3, table4, table5

_EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig7": fig7,
    "fig9": fig9,
    "fig10": fig10,
}

#: experiments whose run() accepts precomputed default-config runs
_RUNS_CAPABLE = {"table3", "table4", "table5", "fig9"}

#: ablation experiments whose run() takes the (config, options) pair
_ENGINE_FLAG_CAPABLE = {"table2", "fig7", "fig10"}

#: EngineOptions fields settable from the command line (each flag's argparse
#: ``dest`` is the field name; an unset flag is None and is not passed)
_OPTION_FLAGS = (
    "parallel",
    "cache_dir",
    "events_path",
    "fault_plan",
)


def _given(args: argparse.Namespace, names) -> dict:
    """The subset of ``names`` the user actually set on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table or figure from the Portend paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "cache-info", "events-info", "profile"],
        help="which table/figure to regenerate, 'cache-info' to dump "
        "per-file kind, age, entry count and size of a --cache-dir, "
        "'events-info' to "
        "summarize a structured event log written via --events, or "
        "'profile' to run one workload's analysis under cProfile",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        metavar="WORKLOAD",
        help="workload name for the 'profile' experiment (e.g. 'bbuf')",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="classify races over N worker processes (0/1 = serial).  "
        "Defaults to the REPRO_PARALLEL environment variable, else 0",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache recorded execution traces and classified races in DIR "
        "and reuse them (the directory is never pruned: delete it to "
        "reclaim space)",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        metavar="NAMES",
        help="comma-separated workload subset for the shared-run experiments "
        "(table3/table4/table5/fig9); default: the full Table 1 list",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan for the pool workers: inline "
        "JSON (starting with '{') or a path to a JSON file describing crash/"
        "hang/malformed-result faults (see "
        "repro.engine.faults).  Defaults to the REPRO_FAULT_PLAN "
        "environment variable, else none",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="how many functions the 'profile' experiment prints (by "
        "cumulative time; default 25)",
    )
    parser.add_argument(
        "--events",
        default=None,
        dest="events_path",
        metavar="PATH",
        help="append every engine run's structured event stream to PATH as "
        "JSON lines (the file is truncated at invocation start); summarize "
        "it afterwards with the 'events-info' experiment",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine cache/recompute counters after the experiments, "
        "folded from the invocation's event log (--events, else a temporary "
        "file removed afterwards); always printed when --cache-dir is given",
    )
    args = parser.parse_args(argv)

    if args.experiment == "cache-info":
        if not args.cache_dir:
            parser.error("cache-info requires --cache-dir")
        from repro.engine.cache import collect_cache_info, render_cache_info

        print(render_cache_info(collect_cache_info(args.cache_dir)))
        return 0

    if args.experiment == "events-info":
        if not args.events_path:
            parser.error("events-info requires --events")
        from repro.engine.events import load_events, render_events_info

        print(render_events_info(load_events(args.events_path)))
        return 0

    from repro.core.config import PortendConfig
    from repro.engine import EngineOptions

    config = PortendConfig()
    options = EngineOptions(**_given(args, _OPTION_FLAGS))

    if args.experiment == "profile":
        if not args.target:
            parser.error("profile requires a workload name (e.g. 'profile bbuf')")
        from repro.experiments.profile import render_profile, run_profile

        print(render_profile(run_profile(args.target, config, top=args.profile_top)))
        return 0

    # The stats line is the fold of the event log every engine run of this
    # invocation appends to; without --events that log is a temporary file.
    show_stats = bool(args.stats or args.cache_dir)
    temporary_log = None
    if show_stats and not options.events_path:
        handle, temporary_log = tempfile.mkstemp(prefix="repro-events-", suffix=".jsonl")
        os.close(handle)
        options = dataclasses.replace(options, events_path=temporary_log)
    try:
        if options.events_path:
            # Engine runs append; start each invocation from an empty log.
            open(options.events_path, "w", encoding="utf-8").close()
        _run_experiments(args, config, options)
        if show_stats:
            from repro.engine.events import fold_events, load_events

            # One line the warm-cache CI job can assert on: a second
            # identically configured run must report "classifications
            # computed=0".
            print(fold_events(load_events(options.events_path)).summary())
    finally:
        if temporary_log is not None:
            os.unlink(temporary_log)
    return 0


def _run_experiments(args: argparse.Namespace, config, options) -> None:
    """Regenerate the requested tables/figures under one (config, options)."""
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    shared_runs = None
    if any(name in _RUNS_CAPABLE for name in names):
        from repro.experiments.runner import analyze_all

        workload_names = (
            [item.strip() for item in args.workloads.split(",") if item.strip()]
            if args.workloads
            else None
        )
        shared_runs = analyze_all(
            workload_names, config, options, measure_plain_time="table4" in names
        )

    for name in names:
        module = _EXPERIMENTS[name]
        if name in _RUNS_CAPABLE:
            result = module.run(runs=shared_runs)
        elif name in _ENGINE_FLAG_CAPABLE:
            result = module.run(config, options)
        else:
            result = module.run()
        print(module.render(result))
        print()


if __name__ == "__main__":
    sys.exit(main())
