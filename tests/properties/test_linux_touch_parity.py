"""Bulk Linux first-touch vs the per-page fault loop: exact equality.

``_LinuxContext.touch_segment`` initialises an untouched segment with
one allocation per node, one page-table update and one placement write.
The oracle is the same engine with ``touch_segment`` patched to return
False, so every page faults through ``GuestAddressSpace.touch`` and
``LinuxNumaMode.backing``. Hypothesis draws the policy (first-touch or
round-4K, with or without Carrefour), one to three applications in one
world (churning ones included, so release+retouch epochs follow the
initialisation), the seed, the page scale, and optionally a nearly full
node with a reserve, so pages spill to other nodes. Both sides must
agree on the results and on every piece of allocator, page-table and
placement state, right after initialisation and at the end of the run.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.errors import OutOfMemoryError
from repro.guest.vmm import GuestAddressSpace
from repro.sim.engine import EpochStepper
from repro.sim.environment import LinuxEnvironment, _LinuxContext
from repro.workloads.suite import get_app

from tests.conftest import fast_app

#: wc, pca and psearchy churn; wc's footprint overfills a node at
#: page scale 4096.
APPS = ("cg.C", "wc", "streamcluster", "pca", "psearchy", "swaptions")
POLICIES = ("first-touch", "round-4k")


def _world(policy, carrefour, apps, seed, page_scale, pressure):
    """A native world; ``pressure`` = (node, reserve, slack) leaves
    ``slack`` frames above a ``reserve`` on ``node`` before the
    initialisation."""
    env = LinuxEnvironment(
        policy=policy,
        carrefour=carrefour,
        config=SimConfig(rng_seed=seed, page_scale=page_scale),
    )
    world = env.setup(
        [fast_app(get_app(name), baseline_seconds=4.0) for name in apps]
    )
    if pressure is not None:
        node, reserve, slack = pressure
        for run in world.runs:
            run.context.numa_mode.allocator.reserve_per_node = reserve
        memory = world.machine.memory
        fill = memory.free_frames_on(node) - reserve - slack
        if fill > 0:
            memory.alloc_frames(node, fill)
    return world


def _state(world):
    """Everything the two touch paths could leave differently."""
    machine = world.machine
    memory = machine.memory
    runs = []
    for run in world.runs:
        context = run.context
        mode = context.numa_mode
        runs.append(
            {
                "frames": list(mode._frames.items()),
                "table": list(context.aspace._table.items()),
                "guest_faults": context.aspace.guest_faults,
                "init_seconds": run.init_seconds,
                "fallback_allocations": mode.allocator.fallback_allocations,
                "rr_cursor": mode.allocator._rr_cursor,
                "placements": [
                    (
                        s.placement.nodes.tolist(),
                        s.placement.counts.tolist(),
                        s.placement.version,
                    )
                    for s in run.segments
                ],
            }
        )
    return {
        "free_frames": [
            memory.free_frames_on(node) for node in range(machine.num_nodes)
        ],
        "extents": [
            (list(ext._starts), list(ext._lengths))
            for _, ext in sorted(memory._extents.items())
        ],
        "runs": runs,
    }


def _observed(results):
    return [
        (r, [vars(rec) for rec in r.records], r.stats, r.metrics) for r in results
    ]


def _touch_path(bulk):
    """Keep the bulk path, or force the per-page loop."""
    return mock.patch.object(
        _LinuxContext,
        "touch_segment",
        _LinuxContext.touch_segment if bulk else (lambda *args: False),
    )


def _simulate(bulk, *case):
    """(results, state after initialise, final state) of one world."""
    with _touch_path(bulk):
        world = _world(*case)
        stepper = EpochStepper(world)
        stepper.initialize()
        initialised = _state(world)
        now = 0.0
        while stepper.epoch < 400 and stepper.step(now):
            now += stepper.epoch_seconds
        results = stepper.finish(now)
    return results, initialised, _state(world)


@settings(max_examples=30, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    carrefour=st.booleans(),
    apps=st.lists(st.sampled_from(APPS), min_size=1, max_size=3),
    seed=st.sampled_from((42, 7)),
    page_scale=st.sampled_from((1024, 4096)),
    pressure=st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 7),
            st.integers(1, 64),
            st.integers(0, 200),
        ),
    ),
)
@example("first-touch", False, ["cg.C", "pca"], 42, 4096, (0, 16, 40))
@example("round-4k", True, ["wc"], 7, 4096, (3, 8, 5))
@example("first-touch", True, ["wc", "streamcluster"], 42, 4096, None)
def test_bulk_touch_matches_per_page_faults(
    policy, carrefour, apps, seed, page_scale, pressure
):
    case = (policy, carrefour, tuple(apps), seed, page_scale, pressure)
    bulk = _simulate(True, *case)
    loop = _simulate(False, *case)
    assert bulk[0] == loop[0]
    assert _observed(bulk[0]) == _observed(loop[0])
    assert bulk[1] == loop[1]
    assert bulk[2] == loop[2]


@pytest.mark.parametrize("policy", POLICIES)
def test_cases_take_the_bulk_path_and_spill(policy):
    """The parity above is not vacuous: initialisation faults no page
    one by one, pages spill off the nearly full node, and churn retouches
    pages after it."""
    touches = {"n": 0}
    original = GuestAddressSpace.touch

    def counted(self, vpfn, thread):
        touches["n"] += 1
        return original(self, vpfn, thread)

    with mock.patch.object(GuestAddressSpace, "touch", counted):
        world = _world(policy, False, ("cg.C", "wc"), 42, 4096, (0, 16, 40))
        stepper = EpochStepper(world)
        stepper.initialize()
        assert touches["n"] == 0
        modes = [run.context.numa_mode for run in world.runs]
        assert sum(mode.allocator.fallback_allocations for mode in modes) > 0
        stepper.step(0.0)
        assert touches["n"] > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_out_of_memory_raises_at_the_same_page(policy):
    """When memory cannot hold a segment the bulk path declines, and the
    per-page loop raises after filling the same frames."""
    states = []
    for bulk in (True, False):
        with _touch_path(bulk):
            world = _world(policy, False, ("wc",), 42, 4096, None)
            memory = world.machine.memory
            for node in range(world.machine.num_nodes):
                memory.alloc_frames(node, memory.free_frames_on(node) - 20)
            with pytest.raises(OutOfMemoryError):
                EpochStepper(world).initialize()
            states.append(_state(world))
    assert states[0] == states[1]
