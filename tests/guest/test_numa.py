"""Native Linux NUMA modes: first-touch, round-4K, Carrefour backend."""

import pytest

from repro.carrefour.heuristics import Action, PageDecision
from repro.errors import PolicyError
from repro.guest.numa import LinuxNumaMode
from repro.guest.process import Thread
from repro.hardware.presets import small_machine


@pytest.fixture
def machine():
    return small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=512)


def thread_on(node):
    t = Thread(tid=0, vcpu_id=0)
    t.node = node
    return t


class TestFirstTouch:
    def test_allocates_on_toucher_node(self, machine):
        mode = LinuxNumaMode(machine, "first-touch")
        mfn = mode.backing(100, thread_on(3))
        assert machine.node_of_frame(mfn) == 3
        assert mode.node_of_page(100) == 3

    def test_fallback_on_full_node(self, machine):
        mode = LinuxNumaMode(machine, "first-touch")
        while machine.memory.alloc_frames(3, 1) is not None:
            pass
        mfn = mode.backing(100, thread_on(3))
        assert machine.node_of_frame(mfn) != 3


class TestRound4K:
    def test_round_robin(self, machine):
        mode = LinuxNumaMode(machine, "round-4k")
        nodes = [
            machine.node_of_frame(mode.backing(i, thread_on(0)))
            for i in range(8)
        ]
        assert nodes == [0, 1, 2, 3, 0, 1, 2, 3]


class TestBackMany:
    @pytest.mark.parametrize("policy", ["first-touch", "round-4k"])
    def test_matches_per_page_backing(self, machine, policy):
        placed = {"bulk": [], "loop": []}
        bulk = LinuxNumaMode(machine, policy)
        bulk.on_pages_placed = lambda v, n: placed["bulk"].extend(
            zip(v, n.tolist())
        )
        other = small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=512)
        loop = LinuxNumaMode(other, policy)
        loop.on_page_placed = lambda v, n: placed["loop"].append((v, n))
        vpfns = list(range(100, 110))
        mfns = bulk.back_many(vpfns, 2)
        expected = [loop.backing(v, thread_on(2)) for v in vpfns]
        assert mfns == expected
        assert bulk._frames == loop._frames
        assert placed["bulk"] == placed["loop"]

    def test_scalar_hook_without_batch_hook(self, machine):
        placed = []
        mode = LinuxNumaMode(machine, "first-touch")
        mode.on_page_placed = lambda v, n: placed.append((v, n))
        mode.back_many([7, 8], 1)
        assert placed == [(7, 1), (8, 1)]

    def test_too_large_batch_allocates_nothing(self, machine):
        mode = LinuxNumaMode(machine, "round-4k")
        free = [machine.memory.free_frames_on(n) for n in range(4)]
        assert mode.back_many(list(range(4 * 512 + 1)), 0) is None
        assert [machine.memory.free_frames_on(n) for n in range(4)] == free
        assert mode._frames == {}
        assert mode.allocator._rr_cursor == 0


class TestValidation:
    def test_unknown_policy_rejected(self, machine):
        with pytest.raises(PolicyError):
            LinuxNumaMode(machine, "numad")

    def test_name(self, machine):
        assert LinuxNumaMode(machine, "round-4k").name == "round-4k"
        assert (
            LinuxNumaMode(machine, "round-4k", carrefour=True).name
            == "round-4k/carrefour"
        )


class TestRelease:
    def test_release_vpfn_frees_current_frame(self, machine):
        mode = LinuxNumaMode(machine, "first-touch")
        before = machine.memory.free_frames_on(1)
        mode.backing(100, thread_on(1))
        assert mode.release_vpfn(100)
        assert machine.memory.free_frames_on(1) == before
        assert mode.node_of_page(100) is None

    def test_release_unknown_is_false(self, machine):
        mode = LinuxNumaMode(machine, "first-touch")
        assert not mode.release_vpfn(123)


class TestCarrefourBackend:
    def _decision(self, vpfn, dst, action=Action.MIGRATE):
        return PageDecision(page=vpfn, domain_id=0, action=action, dst_node=dst)

    def test_migration_moves_frame(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.backing(100, thread_on(0))
        assert mode._apply_decision(self._decision(100, 2))
        assert mode.node_of_page(100) == 2
        assert mode.pages_migrated == 1
        assert mode.migration_seconds > 0

    def test_same_node_is_noop(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.backing(100, thread_on(0))
        assert not mode._apply_decision(self._decision(100, 0))

    def test_unmapped_page_is_noop(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        assert not mode._apply_decision(self._decision(55, 2))

    def test_replicate_discarded(self, machine):
        """The Xen port discards replication; Linux mode mirrors it."""
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.backing(100, thread_on(0))
        assert not mode._apply_decision(
            self._decision(100, 2, action=Action.REPLICATE)
        )

    def test_release_after_migration_frees_new_frame(self, machine):
        """The stale-frame bug this design exists to avoid."""
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.backing(100, thread_on(0))
        mode._apply_decision(self._decision(100, 2))
        before = machine.memory.free_frames_on(2)
        assert mode.release_vpfn(100)
        assert machine.memory.free_frames_on(2) == before + 1

    def test_hooks_fire(self, machine):
        placed, moved = [], []
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.on_page_placed = lambda v, n: placed.append((v, n))
        mode.on_page_moved = lambda v, n: moved.append((v, n))
        mode.backing(100, thread_on(1))
        mode._apply_decision(self._decision(100, 3))
        assert placed == [(100, 1)]
        assert moved == [(100, 3)]

    def test_counters_claimed_by_carrefour(self, machine):
        LinuxNumaMode(machine, "first-touch", carrefour=True)
        assert machine.counters.owner == "carrefour"

    def test_shutdown_releases_counters(self, machine):
        mode = LinuxNumaMode(machine, "first-touch", carrefour=True)
        mode.shutdown()
        assert machine.counters.owner is None
