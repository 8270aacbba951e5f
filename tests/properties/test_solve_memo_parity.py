"""Solve memo vs forced misses: randomized observational equality.

A stepper replays a remembered fixed point when its exact solver input
repeats (``EpochStepper._recall``). The oracle is the same engine with
the recall patched to always miss, i.e. every epoch iterated afresh.
Hypothesis draws the world (Xen and native-Linux Carrefour, stock-Xen
round-1G, two co-located VMs, the two-host live-migration scenario, and
a world solved without the early exit), the application and the seed;
both sides must produce equal results, records, stats and metric
snapshots, and under an observability session byte-identical traces
and metrics.
"""

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import SimConfig
from repro.experiments import cluster_migration, common
from repro.runner.exec import build_world, execute_request
from repro.sim.engine import EpochStepper, run_world
from repro.sim.runspec import RunRequest, VmRequest

APPS = ("cg.C", "streamcluster", "swaptions", "ep.D")
SCENARIOS = (
    "xen-carrefour",
    "linux-carrefour",
    "xen-round-1g",
    "two-vms",
    "cluster-migration",
    "no-early-exit",
)


def _request(scenario, app, config):
    if scenario == "xen-carrefour":
        return RunRequest(
            environment="xen",
            features="Xen+",
            vms=(VmRequest(app=app, policy="first-touch", carrefour=True),),
            config=config,
        )
    if scenario == "linux-carrefour":
        return RunRequest(
            environment="linux",
            vms=(VmRequest(app=app, policy="round-4k", carrefour=True),),
            config=config,
        )
    if scenario == "two-vms":
        return RunRequest(
            environment="xen",
            features="Xen+",
            vms=(
                VmRequest(app=app, policy="round-4k", num_vcpus=6),
                VmRequest(app="swaptions", policy="first-touch", num_vcpus=6),
            ),
            config=config,
        )
    if scenario == "cluster-migration":
        with common.configured(config):
            return cluster_migration.required_runs()[0]
    # xen-round-1g, and no-early-exit runs the same static world
    return RunRequest(
        environment="xen",
        features="Xen",
        vms=(VmRequest(app=app, policy="round-1g"),),
        config=config,
    )


def _execute(scenario, request):
    if scenario == "no-early-exit":
        return run_world(build_world(request), solver_epsilon=None)
    return execute_request(request)


def _simulate(scenario, request, memo):
    """Results plus the canonical trace text of a second, traced run."""
    with mock.patch.object(
        EpochStepper,
        "_recall",
        EpochStepper._recall if memo else (lambda self, key: None),
    ):
        results = _execute(scenario, request)
        with obs.session() as session:
            traced = _execute(scenario, request)
        trace = obs.dump_payload(session.payload())
    return results, traced, trace


def _observed(results):
    return json.dumps(
        [
            {
                "result": r.to_json(),
                "records": [vars(rec) for rec in r.records],
                "stats": r.stats,
                "metrics": r.metrics,
            }
            for r in results
        ],
        sort_keys=True,
        default=repr,
    )


@settings(max_examples=18, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    app=st.sampled_from(APPS),
    seed=st.sampled_from((42, 7, 3)),
    page_scale=st.sampled_from((1024, 4096)),
)
def test_memo_replay_is_observationally_identical(scenario, app, seed, page_scale):
    request = _request(
        scenario, app, SimConfig(rng_seed=seed, page_scale=page_scale)
    )
    memo_results, memo_traced, memo_trace = _simulate(scenario, request, True)
    miss_results, miss_traced, miss_trace = _simulate(scenario, request, False)
    assert memo_results == miss_results
    assert _observed(memo_results) == _observed(miss_results)
    assert _observed(memo_traced) == _observed(miss_traced)
    assert memo_trace == miss_trace


def test_every_scenario_replays_some_epochs():
    """The parity above is not vacuous: each world hits the memo."""
    solves = {"n": 0}
    original = EpochStepper._fixed_point

    def counted(self, latm, inputs):
        solves["n"] += 1
        return original(self, latm, inputs)

    config = SimConfig(page_scale=4096)
    with mock.patch.object(EpochStepper, "_fixed_point", counted):
        for scenario in SCENARIOS:
            solves["n"] = 0
            results = _execute(scenario, _request(scenario, "cg.C", config))
            epochs = sum(r.epochs for r in results)
            assert 0 < solves["n"] < epochs, scenario
