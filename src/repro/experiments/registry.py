"""The scenario registry: every figure/table as a declarative pipeline.

A :class:`Scenario` splits an experiment into the three phases the
unified pipeline needs:

* ``required_runs(apps)`` — the :class:`~repro.sim.runspec.RunRequest`
  list the experiment consumes. Declaring runs (instead of executing
  them inline) is what lets the runner deduplicate *across* scenarios:
  ``run fig2 fig6`` executes Figure 2's sweep once because Figure 6's
  ``required_runs`` literally includes Figure 2's — the reuse the old
  memo dict produced by key collision is now a declared dependency
  (see ``reuses``).
* ``assemble(results, apps, verbose)`` — turn a resolved
  :class:`~repro.runner.ResultSet` into the experiment's result object.
  Two-stage scenarios (Figures 8-9) resolve follow-up requests through
  the same ``ResultSet``.
* ``run(apps, verbose, runner)`` — the classic one-call interface:
  resolve ``required_runs`` through ``runner`` (the process-default
  serial runner when omitted) and assemble.

Modules self-register at import time; :func:`load_all` imports them all,
so the registry is complete after one call and nothing here imports an
experiment module at module level (no cycles).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ExperimentError

#: Modules that define scenarios, in the paper's presentation order.
SCENARIO_MODULES: Tuple[str, ...] = (
    "fig1",
    "fig2",
    "table1",
    "table2",
    "table3",
    "table4",
    "fig5",
    "io_micro",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "batching",
    "cluster_migration",
)


@dataclass(frozen=True)
class Scenario:
    """One figure/table experiment, as the pipeline sees it.

    Attributes:
        name: registry key (``fig1`` ... ``batching``).
        description: one line for ``python -m repro.experiments list``.
        required_runs: ``(apps=None) -> List[RunRequest]``; empty for
            analytic scenarios that consume no engine runs.
        assemble: ``(results, apps=None, verbose=False) -> result``.
        run: ``(apps=None, verbose=True, runner=None) -> result``.
        reuses: names of scenarios whose requests this one includes —
            documentation *and* a checkable claim (the CLI's store
            counters show the hits).
    """

    name: str
    description: str
    required_runs: Callable[..., List]
    assemble: Callable[..., object]
    run: Callable[..., object]
    reuses: Tuple[str, ...] = field(default=())


class _ScenarioRegistry:
    """Holds the process-wide scenario table.

    An instance with its own dict (rather than a bare module-level dict)
    keeps every mutation behind the two methods below, where the
    dataflow lint can see it.
    """

    __slots__ = ("_by_name",)

    def __init__(self) -> None:
        self._by_name: Dict[str, Scenario] = {}

    def add(self, scenario: Scenario) -> None:
        self._by_name[scenario.name] = scenario

    def get(self, name: str) -> Optional["Scenario"]:
        return self._by_name.get(name)


_REGISTRY = _ScenarioRegistry()


def register(scenario: Scenario) -> Scenario:
    """Register ``scenario``, replacing a same-named one (reload-safe)."""
    _REGISTRY.add(scenario)
    return scenario


def load_all() -> None:
    """Import every scenario module so the registry is fully populated."""
    for module in SCENARIO_MODULES:
        importlib.import_module(f"repro.experiments.{module}")


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name.

    Raises:
        ExperimentError: unknown name.
    """
    load_all()
    scenario = _REGISTRY.get(name)
    if scenario is None:
        known = ", ".join(scenario_names())
        raise ExperimentError(f"unknown scenario {name!r}; known: {known}")
    return scenario


def scenario_names() -> List[str]:
    """Registered names in presentation order."""
    load_all()
    return [m for m in SCENARIO_MODULES if _REGISTRY.get(m) is not None]


def all_scenarios() -> List[Scenario]:
    """Every registered scenario, in presentation order."""
    return [_REGISTRY.get(name) for name in scenario_names()]
