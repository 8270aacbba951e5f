"""Figure 9: two consolidated VMs, 48 vCPUs each, sharing every pCPU.

Both virtual machines span all 48 cores; every physical CPU runs exactly
two vCPUs (one per VM) and Xen's credit scheduler shares it fairly. As in
Figure 8, the improvement of the best per-application Xen NUMA policy
over the round-1G default is reported per VM. MCS locks stay off: the
paper's spin-loop trick only works for non-consolidated workloads.

Like Figure 8 this is two-stage (sweeps pick the policies, pair runs
follow), and the per-application sweeps it declares overlap Figure 8's —
shared requests the store serves from cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.tables import format_percent, format_table
from repro.core.policies.base import PolicyName, PolicySpec
from repro.experiments import common
from repro.experiments.fig8 import pair_apps, resolved_best_spec
from repro.experiments.registry import Scenario, register
from repro.runner import ResultSet, Runner
from repro.sim.runspec import RunRequest, VmRequest

__all__ = ["DEFAULT_PAIRS", "Fig9Result", "PairResult", "run"]

#: Six consolidated pairs (labels in the paper's figure are garbled; the
#: pairs cover all imbalance classes).
DEFAULT_PAIRS: List[Tuple[str, str]] = [
    ("cg.C", "sp.C"),
    ("facesim", "streamcluster"),
    ("kmeans", "pca"),
    ("bt.C", "lu.C"),
    ("ep.D", "ua.C"),
    ("bodytrack", "swaptions"),
]


@dataclass
class PairResult:
    apps: Tuple[str, str]
    improvements: Tuple[float, float]
    policies: Tuple[str, str]


@dataclass
class Fig9Result:
    pairs: List[PairResult]

    def count_vm_improved_above(self, threshold: float) -> int:
        return sum(1 for p in self.pairs if max(p.improvements) > threshold)

    def max_degradation(self) -> float:
        return max(0.0, -min(min(p.improvements) for p in self.pairs))


def consolidated_request(
    names: Tuple[str, str], policies: Tuple[PolicySpec, PolicySpec]
) -> RunRequest:
    """One consolidated two-VM run: both VMs span all nodes and pCPUs."""
    all_nodes = list(range(8))
    pin = list(range(48))
    vms = [
        VmRequest(
            app=name,
            policy=policies[i].base.value,
            carrefour=policies[i].carrefour,
            num_vcpus=48,
            home_nodes=all_nodes,
            pin_pcpus=pin,
        )
        for i, name in enumerate(names)
    ]
    return common.pair_request(vms)


def required_runs(
    apps: Optional[Sequence[str]] = None,
    pairs: Optional[List[Tuple[str, str]]] = None,
) -> List[RunRequest]:
    """Policy sweeps for every paired app plus the round-1G baselines."""
    pairs = pairs or DEFAULT_PAIRS
    requests: List[RunRequest] = []
    for name in pair_apps(pairs):
        requests.extend(common.xen_numa_requests(name))
    round1g = PolicySpec(PolicyName.ROUND_1G)
    for pair in pairs:
        requests.append(consolidated_request(pair, (round1g, round1g)))
    return requests


def _consolidated_completions(
    results: ResultSet,
    names: Tuple[str, str],
    policies: Tuple[PolicySpec, PolicySpec],
) -> Tuple[float, float]:
    run_results = results.get(consolidated_request(names, policies))
    return run_results[0].completion_seconds, run_results[1].completion_seconds


def assemble(
    results: ResultSet,
    apps: Optional[Sequence[str]] = None,
    verbose: bool = False,
    pairs: Optional[List[Tuple[str, str]]] = None,
) -> Fig9Result:
    """Build Figure 9 from resolved runs (``apps`` ignored)."""
    pairs = pairs or DEFAULT_PAIRS
    round1g = PolicySpec(PolicyName.ROUND_1G)
    best = {name: resolved_best_spec(results, name) for name in pair_apps(pairs)}
    results.resolve(
        [
            consolidated_request(pair, (best[pair[0]], best[pair[1]]))
            for pair in pairs
        ]
    )
    out: List[PairResult] = []
    rows: List[List[str]] = []
    for pair in pairs:
        base = _consolidated_completions(results, pair, (round1g, round1g))
        best_specs = (best[pair[0]], best[pair[1]])
        best_times = _consolidated_completions(results, pair, best_specs)
        improvements = (
            base[0] / best_times[0] - 1.0,
            base[1] / best_times[1] - 1.0,
        )
        out.append(
            PairResult(
                apps=pair,
                improvements=improvements,
                policies=(best_specs[0].label, best_specs[1].label),
            )
        )
        for i in (0, 1):
            rows.append(
                [
                    f"{pair[0]} + {pair[1]}",
                    pair[i],
                    out[-1].policies[i],
                    format_percent(improvements[i], signed=True),
                ]
            )
    result = Fig9Result(out)
    if verbose:
        print(
            format_table(
                ["pair", "vm", "policy", "improvement"],
                rows,
                title="Figure 9 - 2 consolidated VMs (48 vCPUs each) vs Xen+",
            )
        )
        print(
            f"\n> pairs with a VM improved > 50%: "
            f"{result.count_vm_improved_above(0.5)}/{len(result.pairs)}; "
            f"max degradation {format_percent(result.max_degradation())}"
        )
    return result


def run(
    apps: Optional[Sequence[str]] = None,
    verbose: bool = True,
    pairs: Optional[List[Tuple[str, str]]] = None,
    runner: Optional[Runner] = None,
) -> Fig9Result:
    """Regenerate Figure 9 (``apps`` ignored; pass ``pairs`` to restrict)."""
    runner = runner or common.default_runner()
    results = runner.resolve(required_runs(apps, pairs=pairs))
    return assemble(results, apps=apps, verbose=verbose, pairs=pairs)


SCENARIO = register(
    Scenario(
        name="fig9",
        description="Two consolidated 48-vCPU VMs: best policy vs round-1G",
        required_runs=required_runs,
        assemble=assemble,
        run=run,
        reuses=("fig8",),
    )
)


if __name__ == "__main__":  # pragma: no cover
    run()
