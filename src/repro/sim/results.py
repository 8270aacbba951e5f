"""Run records produced by the simulation engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


@dataclass
class EpochRecord:
    """Per-epoch measurements of one application run.

    Attributes:
        epoch: index.
        ops_done: operations completed this epoch (all threads).
        imbalance: relative std-dev of the app's per-node access counts.
        max_link_rho: utilisation of the app's most loaded link counting
            *only this run's* traffic (its contribution, the Table 1
            metric) — not the world total the run experiences, which the
            engine hands to policies via the epoch observation instead.
        local_fraction: node-local share of the app's accesses.
        policy_cost_seconds: overhead charged by the dynamic policy.
        migrations: pages moved by the dynamic policy this epoch.
    """

    epoch: int
    ops_done: float
    imbalance: float
    max_link_rho: float
    local_fraction: float
    policy_cost_seconds: float = 0.0
    migrations: int = 0

    def to_json(self) -> Dict[str, float]:
        """A JSON-serializable dict that round-trips exactly.

        All fields are floats or ints; ``json`` preserves both exactly
        (floats via shortest round-trip repr), so
        ``EpochRecord.from_json(record.to_json()) == record`` bit-for-bit.
        """
        return {
            "epoch": self.epoch,
            "ops_done": self.ops_done,
            "imbalance": self.imbalance,
            "max_link_rho": self.max_link_rho,
            "local_fraction": self.local_fraction,
            "policy_cost_seconds": self.policy_cost_seconds,
            "migrations": self.migrations,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, float]) -> "EpochRecord":
        return cls(
            epoch=int(payload["epoch"]),
            ops_done=float(payload["ops_done"]),
            imbalance=float(payload["imbalance"]),
            max_link_rho=float(payload["max_link_rho"]),
            local_fraction=float(payload["local_fraction"]),
            policy_cost_seconds=float(payload.get("policy_cost_seconds", 0.0)),
            migrations=int(payload.get("migrations", 0)),
        )


@dataclass
class RunResult:
    """Outcome of one (application, environment, policy) run.

    Attributes:
        app: application name.
        environment: environment label ("linux", "xen", "xen+").
        policy: policy label ("First-Touch / Carrefour", ...).
        completion_seconds: simulated completion time.
        epochs: epochs simulated.
        records: per-epoch details.
        stats: free-form counters (faults, hypercalls, migrations, ...).
        metrics: transient observability snapshot of the run's context
            (fault, queue, p2m and policy counters at completion), taken
            by the engine. Deliberately excluded from equality and from
            :meth:`to_json`: stored results, reports and cache keys are
            byte-identical with and without observability enabled.
    """

    app: str
    environment: str
    policy: str
    completion_seconds: float
    epochs: int
    records: List[EpochRecord] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict, compare=False, repr=False)

    @property
    def mean_imbalance(self) -> float:
        """Time-averaged access imbalance (the Table 1 metric)."""
        if not self.records:
            return 0.0
        return float(np.mean([r.imbalance for r in self.records]))

    @property
    def mean_max_link_rho(self) -> float:
        """Time-averaged utilisation of the most loaded link (Table 1)."""
        if not self.records:
            return 0.0
        return float(np.mean([r.max_link_rho for r in self.records]))

    @property
    def mean_local_fraction(self) -> float:
        if not self.records:
            return 1.0
        return float(np.mean([r.local_fraction for r in self.records]))

    @property
    def total_migrations(self) -> int:
        return int(sum(r.migrations for r in self.records))

    def to_json(self) -> Dict:
        """JSON-serializable form (see :meth:`EpochRecord.to_json`)."""
        return {
            "app": self.app,
            "environment": self.environment,
            "policy": self.policy,
            "completion_seconds": self.completion_seconds,
            "epochs": self.epochs,
            "records": [r.to_json() for r in self.records],
            "stats": dict(self.stats),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "RunResult":
        return cls(
            app=payload["app"],
            environment=payload["environment"],
            policy=payload["policy"],
            completion_seconds=float(payload["completion_seconds"]),
            epochs=int(payload["epochs"]),
            records=[EpochRecord.from_json(r) for r in payload.get("records", [])],
            stats={k: float(v) for k, v in payload.get("stats", {}).items()},
        )

    def summary(self) -> str:
        """One-line textual summary."""
        return (
            f"{self.app:>14s} [{self.environment}/{self.policy}] "
            f"T={self.completion_seconds:8.2f}s imb={self.mean_imbalance:5.2f} "
            f"link={self.mean_max_link_rho:4.2f} local={self.mean_local_fraction:4.2f}"
        )


def relative_overhead(result: RunResult, baseline: RunResult) -> float:
    """The paper's "relative overhead": T/T_base - 1 (Figures 1, 6, 10)."""
    return result.completion_seconds / baseline.completion_seconds - 1.0


def relative_improvement(result: RunResult, baseline: RunResult) -> float:
    """The paper's "relative improvement": T_base/T - 1 (Figures 2, 7-9)."""
    return baseline.completion_seconds / result.completion_seconds - 1.0
