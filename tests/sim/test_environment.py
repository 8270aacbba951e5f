"""Environment wiring: guest sizing, policy selection, io/sync params."""

import gc
import weakref

import pytest

from repro.core.policies.base import PolicyName, PolicySpec
from repro.errors import HypercallError
from repro.hypervisor.hypercalls import Hypercall
from repro.hypervisor.xen import XEN, XEN_PLUS
from repro.sim.engine import run_world
from repro.sim.environment import (
    LinuxEnvironment,
    MCS_APPS,
    VmSpec,
    XenEnvironment,
)
from repro.workloads.suite import get_app

from tests.conftest import fast_app


def xen_world(app, policy, features=XEN_PLUS, **env_kwargs):
    env = XenEnvironment(features=features, **env_kwargs)
    return env.setup([VmSpec(app=app, policy=policy)])


def freed_by_refcount(make_world):
    """Run a fresh world to the end and drop it with the cycle collector
    off; True when its machine (which the hypervisor holds) died too."""
    world = make_world()
    machine = weakref.ref(world.machine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_world(world)
        del world
        return machine() is None
    finally:
        if enabled:
            gc.enable()


class TestXenSetup:
    def test_policy_selected_through_hypercall(self):
        app = fast_app(get_app("cg.C"))
        world = xen_world(app, PolicySpec(PolicyName.FIRST_TOUCH))
        run = world.runs[0]
        assert run.context.domain.numa_policy.name == "first-touch"
        # The selection went through NUMA_SET_POLICY.
        from repro.hypervisor.hypercalls import Hypercall

        count, _ = run.context.hypervisor.hypercalls.stats[
            Hypercall.NUMA_SET_POLICY
        ]
        assert count == 1
        world.teardown()

    def test_first_touch_free_list_reported(self):
        app = fast_app(get_app("cg.C"))
        world = xen_world(app, PolicySpec(PolicyName.FIRST_TOUCH))
        domain = world.runs[0].context.domain
        # The guest's free pages were invalidated wholesale.
        assert domain.p2m.invalidations > 100
        world.teardown()

    def test_round_4k_keeps_mapping(self):
        app = fast_app(get_app("cg.C"))
        world = xen_world(app, PolicySpec(PolicyName.ROUND_4K))
        domain = world.runs[0].context.domain
        assert domain.p2m.num_valid == domain.memory_pages
        world.teardown()

    def test_vm_has_at_least_8gib_middle(self):
        tiny = fast_app(get_app("swaptions"))
        world = xen_world(tiny, PolicySpec(PolicyName.ROUND_1G))
        domain = world.runs[0].context.domain
        gib_pages = max(1, (1 << 30) // world.machine.config.page_bytes)
        assert domain.memory_pages >= 10 * gib_pages
        world.teardown()

    def test_io_mode_follows_policy(self):
        disk_app = fast_app(get_app("dc.B"))
        w_r4k = xen_world(disk_app, PolicySpec(PolicyName.ROUND_4K))
        w_ft = xen_world(disk_app, PolicySpec(PolicyName.FIRST_TOUCH))
        io_r4k = w_r4k.runs[0].context.io_seconds_per_op
        io_ft = w_ft.runs[0].context.io_seconds_per_op
        # First-touch forces the slow paravirt path.
        assert io_ft > io_r4k > 0
        w_r4k.teardown()
        w_ft.teardown()

    def test_mcs_only_for_the_two_apps_single_vm(self):
        stream = fast_app(get_app("streamcluster"))
        other = fast_app(get_app("ua.C"))
        w1 = xen_world(stream, PolicySpec(PolicyName.ROUND_4K))
        w2 = xen_world(other, PolicySpec(PolicyName.ROUND_4K))
        assert w1.runs[0].context.sync_fraction < 0.1  # MCS spin overhead
        assert w2.runs[0].context.sync_fraction > 0.3  # blocking IPIs
        w1.teardown()
        w2.teardown()

    def test_stock_xen_has_no_mcs(self):
        stream = fast_app(get_app("streamcluster"))
        world = xen_world(stream, PolicySpec(PolicyName.ROUND_4K), features=XEN)
        assert world.runs[0].context.sync_fraction > 0.2
        world.teardown()

    def test_churn_slowdown_modes(self):
        churny = fast_app(get_app("wrmem"))
        batched = xen_world(churny, PolicySpec(PolicyName.ROUND_4K))
        strawman = xen_world(
            churny, PolicySpec(PolicyName.ROUND_4K), unbatched_hypercalls=True
        )
        assert batched.runs[0].context.churn_slowdown < 1.1
        assert strawman.runs[0].context.churn_slowdown > 2.0
        batched.teardown()
        strawman.teardown()

    def test_first_touch_churn_pays_faults(self):
        churny = fast_app(get_app("wrmem"))
        r4k = xen_world(churny, PolicySpec(PolicyName.ROUND_4K))
        ft = xen_world(churny, PolicySpec(PolicyName.FIRST_TOUCH))
        assert (
            ft.runs[0].context.churn_slowdown
            > r4k.runs[0].context.churn_slowdown
        )
        r4k.teardown()
        ft.teardown()


class TestLinuxSetup:
    def test_threads_default_to_machine_cpus(self):
        app = fast_app(get_app("cg.C"))
        world = LinuxEnvironment().setup([app])
        assert len(world.runs[0].threads) == world.machine.num_cpus
        world.teardown()

    def test_thread_count_override(self):
        app = fast_app(get_app("cg.C"))
        world = LinuxEnvironment(num_threads=8).setup([app])
        assert len(world.runs[0].threads) == 8
        world.teardown()

    def test_mcs_apps_constant(self):
        assert MCS_APPS == frozenset({"facesim", "streamcluster"})

    def test_native_io_cheaper_than_pv(self):
        disk_app = fast_app(get_app("dc.B"))
        linux = LinuxEnvironment().setup([disk_app])
        xen = xen_world(disk_app, PolicySpec(PolicyName.FIRST_TOUCH))
        assert (
            linux.runs[0].context.io_seconds_per_op
            < xen.runs[0].context.io_seconds_per_op
        )
        linux.teardown()
        xen.teardown()

    @pytest.mark.parametrize("policy", ["first-touch", "round-4k"])
    def test_finished_carrefour_world_is_freed_without_the_cycle_collector(
        self, policy
    ):
        """The engine's placement and apply callbacks are bound to the
        NUMA mode that holds the engine; teardown breaks that cycle."""
        app = fast_app(get_app("cg.C"), baseline_seconds=2.0)
        assert freed_by_refcount(
            lambda: LinuxEnvironment(policy=policy, carrefour=True).setup([app])
        )


class TestXenTeardown:
    @pytest.mark.parametrize("features", [XEN, XEN_PLUS], ids=["Xen", "Xen+"])
    def test_finished_world_is_freed_without_the_cycle_collector(self, features):
        """Teardown leaves no reference cycle through the world or the
        hypervisor's hypercall table, so a finished static-policy world
        is released as soon as its last reference goes, not at the next
        full garbage collection (which let dead worlds pile up and raised
        peak memory over a long sweep)."""
        app = fast_app(get_app("cg.C"), baseline_seconds=2.0)
        assert freed_by_refcount(
            lambda: xen_world(
                app, PolicySpec(PolicyName.ROUND_1G), features=features
            )
        )

    @pytest.mark.parametrize("base", [PolicyName.FIRST_TOUCH, PolicyName.ROUND_4K])
    def test_finished_carrefour_world_is_freed_without_the_cycle_collector(
        self, base
    ):
        """Carrefour's engine calls back into its policy, the policy holds
        its domain, and the command channel closes over the policy
        manager; teardown breaks each of these cycles."""
        app = fast_app(get_app("cg.C"), baseline_seconds=2.0)
        assert freed_by_refcount(
            lambda: xen_world(app, PolicySpec(base, carrefour=True))
        )

    def test_hypercalls_after_teardown_raise(self):
        world = xen_world(fast_app(get_app("cg.C")), PolicySpec(PolicyName.ROUND_4K))
        hypercalls = world.runs[0].context.hypervisor.hypercalls
        world.teardown()
        with pytest.raises(HypercallError):
            hypercalls.dispatch(Hypercall.EMPTY, 1, 0)
