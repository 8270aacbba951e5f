"""Command-line entry point for the experiment pipeline.

::

    python -m repro.experiments run fig2 fig6 --jobs 8 --store .runstore

plus ``list`` (describe every scenario) and ``report`` (regenerate
EXPERIMENTS.md). ``run`` resolves the scenarios' declared requests
through one shared store — duplicates across scenarios execute once —
and prints the store/runner counters at the end, so a second invocation
against an on-disk ``--store`` shows the hits.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import List, Optional

from repro import obs
from repro.config import SimConfig
from repro.errors import ReproError
from repro.experiments import common, registry
from repro.runner import Runner
from repro.runstore import open_store

USAGE = """\
usage: python -m repro.experiments <command>

commands:
  list                         describe every scenario (runs, reuse)
  run <name ...|all> [options] resolve scenarios through one shared store
                               options: --jobs N  --batch-worlds K
                                        --store DIR  --apps a,b
                                        --page-scale N  --quiet
                                        --trace PATH
  report [output.md]           regenerate the EXPERIMENTS.md report

scenario names: {names}
"""


def _usage() -> str:
    return USAGE.format(names=", ".join(registry.scenario_names()))


def _list_command() -> int:
    registry.load_all()
    for scenario in registry.all_scenarios():
        runs = len(scenario.required_runs())
        reuse = f" (includes {', '.join(scenario.reuses)})" if scenario.reuses else ""
        print(f"{scenario.name:10s} {runs:4d} runs{reuse:24s} {scenario.description}")
    return 0


def _run_command(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments run",
        description="Resolve one or more scenarios through a shared run store.",
    )
    parser.add_argument("names", nargs="+", help="scenario names, or 'all'")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cache misses (default: serial)",
    )
    parser.add_argument(
        "--batch-worlds", type=int, default=1, metavar="K",
        help="execute up to K compatible cache misses as one batched "
        "multi-run group (results are byte-identical to serial)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="on-disk run store directory ('memory' or omitted: in-memory)",
    )
    parser.add_argument(
        "--apps", default=None, metavar="A,B,...",
        help="comma-separated application subset",
    )
    parser.add_argument(
        "--page-scale", type=int, default=None, metavar="N",
        help="override SimConfig.page_scale (larger = coarser and faster)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-scenario tables"
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a deterministic trace + metrics file (forces --jobs 1)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    apps: Optional[List[str]] = args.apps.split(",") if args.apps else None
    names = registry.scenario_names() if args.names == ["all"] else args.names
    jobs = args.jobs
    if args.trace is not None and jobs > 1:
        # Worker processes run with their own (null) observability
        # sessions, so a parallel trace would be missing the run bodies.
        print("note: --trace forces --jobs 1")
        jobs = 1
    obs_session = None
    with ExitStack() as stack:
        if args.trace is not None:
            obs_session = stack.enter_context(obs.session())
        runner = Runner(
            store=open_store(args.store),
            jobs=jobs,
            batch_worlds=args.batch_worlds,
        )
        if args.page_scale is not None:
            stack.enter_context(common.configured(SimConfig(page_scale=args.page_scale)))
        for name in names:
            scenario = registry.get_scenario(name)
            if not args.quiet:
                print(f"\n######## {scenario.name} ########\n")
            scenario.run(apps=apps, verbose=not args.quiet, runner=runner)
    if obs_session is not None:
        obs_session.write_trace(args.trace)
        print(f"trace written to {args.trace}")
    print(runner.summary())
    return 0


def main(argv=None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0
    command = argv[0]
    try:
        if command == "list":
            return _list_command()
        if command == "run":
            return _run_command(argv[1:])
        if command == "report":
            from repro.experiments import report

            return report.main(argv[1:])
        print(f"unknown command {command!r}\n\n{_usage()}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
