"""Repeated-run statistics (the paper reports the average of 6 runs).

A single simulation is deterministic given its seed; the paper's
run-to-run variation is reproduced by re-running with different seeds
(which perturbs Carrefour's random interleaving, the burst noise and the
churn sampling) and averaging, exactly like the evaluation protocol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.config import SimConfig
from repro.sim.results import RunResult


@dataclass(frozen=True)
class RepeatedResult:
    """Aggregate of several seeded runs of one configuration.

    Attributes:
        runs: the individual results, in seed order.
        mean_seconds: average completion time.
        std_seconds: standard deviation of completion time.
    """

    runs: tuple
    mean_seconds: float
    std_seconds: float

    @property
    def cv(self) -> float:
        """Coefficient of variation (run-to-run noise level)."""
        if self.mean_seconds == 0:
            return 0.0
        return self.std_seconds / self.mean_seconds

    @property
    def representative(self) -> RunResult:
        """The run closest to the mean (for metric inspection)."""
        return min(
            self.runs,
            key=lambda r: abs(r.completion_seconds - self.mean_seconds),
        )


def run_repeated(
    run_fn: Callable[[SimConfig], RunResult],
    config: Optional[SimConfig] = None,
    repeats: int = 6,
) -> RepeatedResult:
    """Run one configuration ``repeats`` times with distinct seeds.

    Args:
        run_fn: builds a fresh world from a config and runs it —
            typically ``lambda cfg: run_app(XenEnvironment(config=cfg),
            spec)``.
        config: base configuration (seed is replaced per repeat).
        repeats: number of runs (the paper uses 6).
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    base = config or SimConfig()
    runs: List[RunResult] = []
    for i in range(repeats):
        seeded = dataclasses.replace(base, rng_seed=base.rng_seed + 1000 * i)
        runs.append(run_fn(seeded))
    seconds = np.array([r.completion_seconds for r in runs])
    return RepeatedResult(
        runs=tuple(runs),
        mean_seconds=float(seconds.mean()),
        std_seconds=float(seconds.std()),
    )
