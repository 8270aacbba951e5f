"""Carrefour's user/system component split and the iteration loop.

The **system component** (in the kernel — in Xen for the paper's port)
gathers counters and hot-page samples and executes migration commands. The
**user component** (a process — in dom0 for the port) turns the metrics
into per-page decisions. They communicate through a narrow command
interface; in the Xen port that interface is the ``CARREFOUR_CONTROL``
hypercall, trapped by dom0's Linux and forwarded into the hypervisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.carrefour.heuristics import (
    Action,
    PageDecision,
    PlacementFn,
    interleave_candidates,
    migration_candidates,
    replication_candidates,
)
from repro.carrefour.metrics import CarrefourMetrics, compute_metrics
from repro.core.policies.base import EpochObservation
from repro.errors import PolicyError
from repro.hardware.counters import HotPageBatch, PerfCounters


@dataclass(frozen=True)
class CarrefourConfig:
    """Thresholds of the decision logic (defaults follow Carrefour).

    Attributes:
        min_access_rate_per_s: below this machine-wide access rate the
            engine stays idle — the workload is not memory bound.
        imbalance_threshold: controller imbalance (relative std-dev)
            enabling the interleave heuristic.
        locality_threshold: local-access fraction *below* which the
            migration heuristic turns on.
        link_rho_threshold: interconnect utilisation considered saturated.
        migration_budget: max pages moved per iteration (migrations cost).
        enable_replication: the paper's port discards replication; the
            ablation benchmark flips this on.
        single_node_share: dominance required by the migration heuristic.
        iteration_overhead_seconds: fixed cost of running one iteration —
            IBS sample processing, hot-page sorting and the dom0 round
            trip. Real Carrefour costs a fraction of a percent to a few
            percent of each interval; this is what makes the plain static
            policy win when there is nothing useful to migrate.
    """

    min_access_rate_per_s: float = 1.0e7
    imbalance_threshold: float = 0.35
    locality_threshold: float = 0.80
    link_rho_threshold: float = 0.30
    migration_budget: int = 4096
    enable_replication: bool = False
    single_node_share: float = 0.90
    iteration_overhead_seconds: float = 6.0e-3


@dataclass
class IterationResult:
    """What one Carrefour iteration did."""

    metrics: CarrefourMetrics
    decisions: List[PageDecision] = field(default_factory=list)
    applied: int = 0
    interleave_enabled: bool = False
    migration_enabled: bool = False
    replication_enabled: bool = False


class UserComponent:
    """Decision logic (the dom0 process in the Xen port)."""

    def __init__(self, config: CarrefourConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng

    def decide(
        self,
        metrics: CarrefourMetrics,
        hot_pages: HotPageBatch,
        placement: PlacementFn,
    ) -> IterationResult:
        """Choose heuristics from the global metrics, then pick pages.

        Pages are selected with array masks over the whole sample. The
        budget counts candidates before cross-heuristic dedup (a page
        decided by an earlier heuristic still uses up a later one's
        slot), the first decision per page wins, and the interleave
        targets are drawn as one array — ``rng.integers(n, size=k)``
        consumes the stream exactly like ``k`` sequential scalar draws,
        and an iteration without candidates draws nothing.
        """
        result = IterationResult(metrics=metrics)
        if metrics.access_rate_per_s < self.config.min_access_rate_per_s:
            return result

        result.interleave_enabled = (
            metrics.imbalance > self.config.imbalance_threshold
        )
        congested = (
            metrics.max_link_rho > self.config.link_rho_threshold
            or metrics.local_fraction < self.config.locality_threshold
        )
        result.migration_enabled = congested
        result.replication_enabled = congested and self.config.enable_replication
        if not hot_pages:
            return result

        pages = hot_pages.pages
        domains = hot_pages.domains
        accesses = hot_pages.accesses
        nodes = np.asarray(placement(pages))
        budget = self.config.migration_budget
        decisions = result.decisions
        decided: set = set()

        def decided_mask(candidate_pages: np.ndarray) -> np.ndarray:
            return np.isin(
                candidate_pages,
                np.fromiter(decided, dtype=np.int64, count=len(decided)),
            )

        if result.replication_enabled and budget > len(decisions):
            mask = replication_candidates(
                accesses, hot_pages.write_fraction, nodes
            )
            for pos in np.nonzero(mask)[0][: budget - len(decisions)].tolist():
                page = int(pages[pos])
                decisions.append(
                    PageDecision(
                        page, int(domains[pos]), Action.REPLICATE, int(nodes[pos])
                    )
                )
                decided.add(page)

        if result.migration_enabled and budget > len(decisions):
            mask, dominant = migration_candidates(
                accesses, nodes, self.config.single_node_share
            )
            positions = np.nonzero(mask)[0][: budget - len(decisions)]
            cand_pages = pages[positions]
            keep = np.zeros(positions.size, dtype=bool)
            keep[np.unique(cand_pages, return_index=True)[1]] = True
            if decided:
                keep &= ~decided_mask(cand_pages)
            for pos in positions[keep].tolist():
                page = int(pages[pos])
                decisions.append(
                    PageDecision(
                        page, int(domains[pos]), Action.MIGRATE, int(dominant[pos])
                    )
                )
                decided.add(page)

        if (
            result.interleave_enabled
            and budget > len(decisions)
            and metrics.overloaded_nodes
            and metrics.underloaded_nodes
        ):
            targets = np.asarray(list(metrics.underloaded_nodes), dtype=np.int64)
            mask = interleave_candidates(nodes, metrics.overloaded_nodes)
            if decided:
                mask &= ~decided_mask(pages)
            positions = np.nonzero(mask)[0][: budget - len(decisions)]
            if positions.size:
                dsts = targets[self.rng.integers(len(targets), size=positions.size)]
                for pos, dst in zip(positions.tolist(), dsts.tolist()):
                    decisions.append(
                        PageDecision(
                            int(pages[pos]), int(domains[pos]),
                            Action.INTERLEAVE, int(dst),
                        )
                    )
        return result


def _shut_down(*args) -> None:
    raise PolicyError("Carrefour is shut down")


class SystemComponent:
    """Counter access and migration execution (inside Xen in the port).

    Args:
        counters: the machine's performance counters; the component claims
            them exclusively — this is why the paper's Table 1 could not
            measure its metrics while Carrefour ran.
        placement: resolves a page array to the node currently backing
            each page (-1 where unmapped).
        apply_fn: executes one decision (a p2m migration in the Xen port,
            a direct page move in Linux mode); returns True when the page
            actually moved.
    """

    OWNER = "carrefour"

    def __init__(
        self,
        counters: PerfCounters,
        placement: PlacementFn,
        apply_fn: Callable[[PageDecision], bool],
    ):
        self.counters = counters
        self.placement = placement
        self.apply_fn = apply_fn
        reg = obs.registry()
        self._total_applied = reg.counter("carrefour.applied")
        self._total_commands = reg.counter("carrefour.commands")
        counters.claim(self.OWNER)

    @property
    def total_applied(self) -> int:
        """Decisions that actually moved a page."""
        return self._total_applied.value

    @total_applied.setter
    def total_applied(self, value: int) -> None:
        self._total_applied.value = value

    @property
    def total_commands(self) -> int:
        """Decisions received from the user component."""
        return self._total_commands.value

    @total_commands.setter
    def total_commands(self, value: int) -> None:
        self._total_commands.value = value

    def apply(self, decisions: Sequence[PageDecision]) -> int:
        """Execute a command batch from the user component."""
        applied = 0
        for decision in decisions:
            self.total_commands += 1
            if self.apply_fn(decision):
                applied += 1
        self.total_applied += applied
        return applied

    def shutdown(self) -> None:
        """Release the performance counters and drop the callbacks.

        The callbacks are bound methods of the policy that owns this
        component; dropping them breaks that reference cycle, so a
        finished world is freed by reference counting.
        """
        self.counters.release(self.OWNER)
        self.placement = _shut_down
        self.apply_fn = _shut_down


class CarrefourEngine:
    """One Carrefour instance: user + system components wired together.

    Args:
        system: the in-kernel/in-hypervisor half.
        config: thresholds.
        rng: deterministic random source for the interleave heuristic.
        command_channel: optional callable carrying command batches from
            the user to the system component — the Xen port routes this
            through the ``CARREFOUR_CONTROL`` hypercall. Defaults to a
            direct call.
    """

    def __init__(
        self,
        system: SystemComponent,
        config: CarrefourConfig = CarrefourConfig(),
        rng: Optional[np.random.Generator] = None,
        command_channel: Optional[Callable[[Sequence[PageDecision]], int]] = None,
    ):
        self.system = system
        self.config = config
        self.user = UserComponent(config, rng or np.random.default_rng(0))
        self.command_channel = command_channel or system.apply
        self.history: List[IterationResult] = []
        self._iterations = obs.registry().counter("carrefour.iterations")

    def run_iteration(self, observation: EpochObservation) -> IterationResult:
        """One sampling/decision/apply cycle."""
        metrics = compute_metrics(observation)
        result = self.user.decide(
            metrics, observation.hot_pages, self.system.placement
        )
        if result.decisions:
            result.applied = self.command_channel(result.decisions)
        self.history.append(result)
        self._iterations.inc()
        tr = obs.tracer()
        if tr.enabled:
            tr.instant(
                "carrefour.iteration",
                cat="policy",
                decisions=len(result.decisions),
                applied=result.applied,
            )
        return result

    def iteration_cost_seconds(self, result: IterationResult) -> float:
        """Fixed engine overhead (migration copy time is accounted by the
        internal interface / Linux backend, not here)."""
        if result.metrics.access_rate_per_s < self.config.min_access_rate_per_s:
            return 0.0
        return self.config.iteration_overhead_seconds

    def shutdown(self) -> None:
        """Stop the engine and release the counters.

        The command channel may close over the policy manager, which
        reaches this engine through its domains; it reverts to the
        (now stopped) system component.
        """
        self.system.shutdown()
        self.command_channel = self.system.apply
