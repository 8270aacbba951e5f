#!/usr/bin/env python3
"""Automatic NUMA policy selection (the paper's section 7 open problem).

For a handful of applications spanning the three imbalance classes,
compare the two selectors of :mod:`repro.core.autoselect`:

* the probing selector (try everything briefly, keep the fastest);
* the counter-heuristic selector (one first-touch probe, classify by
  imbalance, apply the paper's section 3.5.2 rule, with the hypervisor
  overrides for disk and churn);

against the oracle (full runs of every policy).

Run:
    python examples/auto_policy.py
"""

from repro.analysis.tables import format_table
from repro.core.autoselect import (
    CounterHeuristicSelector,
    ProbingSelector,
    make_xen_probe,
)
from repro.core.policies.base import PolicySpec
from repro.experiments import common
from repro.workloads.suite import get_app

APPS = ["cg.C", "bt.C", "kmeans", "dc.B", "wrmem"]


def resolve(request):
    """One single-VM run through the default pipeline."""
    return common.default_runner().resolve([request]).one(request)


def main() -> int:
    rows = []
    for name in APPS:
        app = get_app(name)
        probe = make_xen_probe(app)

        probing = ProbingSelector(probe).select()
        heuristic = CounterHeuristicSelector(
            probe,
            disk_mb_s=app.disk_mb_s,
            churn_per_thread_s=app.churn_per_thread_s,
        ).select()

        # Oracle: the full sweep, resolved through the default pipeline
        # (its in-memory store serves the regret runs below as hits).
        _, oracle_label = common.best_xen_numa(resolve, name)
        oracle = PolicySpec.parse(oracle_label)

        def regret(spec):
            chosen = resolve(common.xen_request(name, spec))
            best = resolve(common.xen_request(name, oracle))
            return chosen.completion_seconds / best.completion_seconds - 1.0

        rows.append(
            [
                name,
                probing.chosen.label,
                f"{regret(probing.chosen):+.0%}",
                heuristic.chosen.label,
                f"{regret(heuristic.chosen):+.0%}",
                oracle.label,
            ]
        )
        print(f"{name}: heuristic said: {heuristic.rationale}")

    print()
    print(
        format_table(
            ["app", "probing", "regret", "heuristic", "regret", "oracle"],
            rows,
            title="Automatic policy selection vs the oracle",
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
