"""Property-based tests of the guest and native page allocators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import OutOfMemoryError
from repro.guest.page_alloc import GuestPageAllocator, NativePageAllocator
from repro.hardware.presets import small_machine

PAGES = 64


class GuestAllocatorMachine(RuleBasedStateMachine):
    """Alloc/free sequences keep the free list consistent."""

    def __init__(self):
        super().__init__()
        self.alloc = GuestPageAllocator(first_gpfn=100, num_pages=PAGES)
        self.live = set()
        self.events = []
        self.alloc.on_alloc = lambda g: self.events.append(("a", g))
        self.alloc.on_release = lambda g: self.events.append(("r", g))

    @rule()
    def allocate(self):
        if self.alloc.free_pages == 0:
            return
        gpfn = self.alloc.alloc()
        assert gpfn not in self.live, "allocator handed out a live page"
        assert 100 <= gpfn < 100 + PAGES
        self.live.add(gpfn)

    @rule(data=st.data())
    def release(self, data):
        if not self.live:
            return
        gpfn = data.draw(st.sampled_from(sorted(self.live)))
        self.live.discard(gpfn)
        self.alloc.free(gpfn)

    @invariant()
    def accounting_consistent(self):
        assert self.alloc.allocated_pages == len(self.live)
        assert self.alloc.free_pages == PAGES - len(self.live)

    @invariant()
    def free_list_disjoint_from_live(self):
        free = set(self.alloc.iter_free())
        assert not (free & self.live)
        assert len(free) == self.alloc.free_pages

    @invariant()
    def hooks_saw_every_transition(self):
        balance = {}
        for kind, gpfn in self.events:
            balance[gpfn] = balance.get(gpfn, 0) + (1 if kind == "a" else -1)
        for gpfn in self.live:
            assert balance.get(gpfn) == 1
        for gpfn, value in balance.items():
            assert value in (0, 1)


TestGuestAllocatorMachine = GuestAllocatorMachine.TestCase



NODES = 4
FRAMES_PER_NODE = 24


def _native(used, reserve, cursor):
    """A native allocator whose machine has frame ``node * 24 + i`` in use
    where ``used[node][i]`` (so the free extents are fragmented)."""
    machine = small_machine(
        num_nodes=NODES, cpus_per_node=1, frames_per_node=FRAMES_PER_NODE
    )
    memory = machine.memory
    for node, flags in enumerate(used):
        mfns = memory.alloc_singles(node, FRAMES_PER_NODE)
        memory.free_frames_many(mfns[~np.asarray(flags, dtype=bool)])
    alloc = NativePageAllocator(machine, reserve_per_node=reserve)
    alloc._rr_cursor = cursor
    return alloc


def _native_state(alloc):
    return (
        [
            (list(ext._starts), list(ext._lengths))
            for ext in alloc.machine.memory._extents.values()
        ],
        alloc.fallback_allocations,
        alloc._rr_cursor,
    )


native_case = dict(
    used=st.lists(
        st.lists(st.booleans(), min_size=FRAMES_PER_NODE, max_size=FRAMES_PER_NODE),
        min_size=NODES,
        max_size=NODES,
    ),
    reserve=st.integers(0, 6),
    cursor=st.integers(0, NODES - 1),
    count=st.integers(1, NODES * FRAMES_PER_NODE),
)


def _loop(alloc, count, step):
    """The per-page calls; the frames, or None once one raised."""
    try:
        return [step() for _ in range(count)]
    except OutOfMemoryError:
        return None


@settings(max_examples=150, deadline=None)
@given(node=st.integers(0, NODES - 1), **native_case)
def test_alloc_many_matches_alloc_on_loop(used, reserve, cursor, count, node):
    """First-touch batches spill like ``alloc_on``: same frames, extents
    and fallback count; a batch memory cannot hold allocates nothing."""
    bulk = _native(used, reserve, cursor)
    loop = _native(used, reserve, cursor)
    before = _native_state(bulk)
    mfns = bulk.alloc_many(np.full(count, node))
    expected = _loop(loop, count, lambda: loop.alloc_on(node))
    if expected is None:
        assert mfns is None
        assert _native_state(bulk) == before
    else:
        assert mfns.tolist() == expected
        assert _native_state(bulk) == _native_state(loop)


@settings(max_examples=150, deadline=None)
@given(**native_case)
def test_alloc_round_robin_many_matches_loop(used, reserve, cursor, count):
    """Round-4K batches interleave from the cursor and leave it where
    the per-page loop does, spilling off full nodes the same way."""
    bulk = _native(used, reserve, cursor)
    loop = _native(used, reserve, cursor)
    before = _native_state(bulk)
    mfns = bulk.alloc_round_robin_many(count)
    expected = _loop(loop, count, loop.alloc_round_robin)
    if expected is None:
        assert mfns is None
        assert _native_state(bulk) == before
    else:
        assert mfns.tolist() == expected
        assert _native_state(bulk) == _native_state(loop)
