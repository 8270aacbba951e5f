"""Guest physical page allocators.

Two flavours, matching the two execution modes of the evaluation:

* :class:`GuestPageAllocator` — the allocator of a *virtualised* guest.
  The NUMA topology is hidden (the whole point of the paper), so there is
  a single free list. Pages are zero-filled on release (Linux behaviour,
  paper section 4.4.2 — this is what makes free pages interchangeable for
  the hypervisor's first-touch). Allocation is LIFO (Linux per-CPU page
  lists), which is what creates the realloc-while-queued race of section
  4.2.4. Hooks notify the paravirtual patch of every alloc/release.

* :class:`NativePageAllocator` — the allocator of bare-metal Linux:
  per-node free lists over *machine* frames, used by the native NUMA
  policies (first-touch allocates from the toucher's node with
  round-robin fallback, round-4K round-robins deliberately).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.errors import OutOfMemoryError
from repro.hardware.machine import Machine

#: Called with the page frame number on every alloc/release.
PageHook = Callable[[int], None]
#: Called with a whole gpfn array when a batch allocation happens.
PageBatchHook = Callable[[np.ndarray], None]


class GuestPageAllocator:
    """Single free-list allocator over a domain's guest-physical frames.

    Args:
        first_gpfn: start of the allocatable range (the guest kernel
            reserves low memory — which also keeps applications out of
            the fragmented first guest GiB, see the round-1G layout).
        num_pages: allocatable page count.
        zero_on_free: fill released pages with zeros (Linux behaviour).
    """

    def __init__(self, first_gpfn: int, num_pages: int, zero_on_free: bool = True):
        if num_pages < 1:
            raise OutOfMemoryError("allocator needs at least one page")
        self.first_gpfn = first_gpfn
        self.num_pages = num_pages
        self.zero_on_free = zero_on_free
        # LIFO free list: bump pointer for never-used pages plus a stack
        # of recycled ones (recycled pages are preferred, like Linux's
        # per-CPU page lists).
        self._bump = first_gpfn
        self._limit = first_gpfn + num_pages
        self._recycled: List[int] = []
        self._allocated: set = set()
        self.pages_zeroed = 0
        self.on_alloc: Optional[PageHook] = None
        self.on_release: Optional[PageHook] = None
        self.on_alloc_many: Optional[PageBatchHook] = None

    def alloc(self) -> int:
        """Allocate one guest-physical page (topology-oblivious)."""
        if self._recycled:
            gpfn = self._recycled.pop()
        elif self._bump < self._limit:
            gpfn = self._bump
            self._bump += 1
        else:
            raise OutOfMemoryError("guest is out of physical memory")
        self._allocated.add(gpfn)
        if self.on_alloc is not None:
            self.on_alloc(gpfn)
        return gpfn

    def alloc_many(self, count: int) -> Optional[np.ndarray]:
        """Allocate ``count`` consecutive bump pages in one step.

        The batch init path needs a *contiguous* gpfn run (so segments
        can be tracked as key ranges); the bump pointer provides one only
        while no recycled pages are pending. Returns None when the free
        list cannot serve the batch that way — callers fall back to the
        scalar :meth:`alloc` loop.
        """
        if count < 1 or self._recycled or self._bump + count > self._limit:
            return None
        gpfns = np.arange(self._bump, self._bump + count, dtype=np.int64)
        self._allocated.update(range(self._bump, self._bump + count))
        self._bump += count
        if self.on_alloc_many is not None:
            self.on_alloc_many(gpfns)
        elif self.on_alloc is not None:
            for gpfn in gpfns.tolist():
                self.on_alloc(gpfn)
        return gpfns

    def free(self, gpfn: int) -> None:
        """Release one page back to the free list (zeroing it)."""
        if gpfn not in self._allocated:
            raise OutOfMemoryError(f"double free of guest page {gpfn:#x}")
        self._allocated.discard(gpfn)
        if self.zero_on_free:
            self.pages_zeroed += 1
        self._recycled.append(gpfn)
        if self.on_release is not None:
            self.on_release(gpfn)

    def iter_free(self):
        """Iterate over every currently-free page frame number.

        Used when switching to first-touch at run time: the guest reports
        its whole free list so the hypervisor can invalidate those pages
        and trap their next (first) allocation.
        """
        yield from self._recycled
        yield from range(self._bump, self._limit)

    @property
    def free_pages(self) -> int:
        return (self._limit - self._bump) + len(self._recycled)

    @property
    def allocated_pages(self) -> int:
        return len(self._allocated)


class NativePageAllocator:
    """Per-node free lists over machine frames (bare-metal Linux).

    Args:
        machine: source of frames.
        reserve_per_node: frames to keep for "the kernel" on each node.
    """

    def __init__(self, machine: Machine, reserve_per_node: int = 0):
        self.machine = machine
        self.reserve_per_node = reserve_per_node
        self._rr_cursor = 0
        self.fallback_allocations = 0

    def alloc_on(self, node: int) -> int:
        """Allocate a frame from ``node``, falling back round-robin.

        This is Linux's first-touch allocation rule (paper section 3.1).
        """
        mfn = self._try_node(node)
        if mfn is not None:
            return mfn
        num = self.machine.num_nodes
        for offset in range(1, num):
            candidate = (node + offset) % num
            mfn = self._try_node(candidate)
            if mfn is not None:
                self.fallback_allocations += 1
                return mfn
        raise OutOfMemoryError("no node has free memory")

    def alloc_round_robin(self) -> int:
        """Allocate from nodes in turn (the round-4K policy's rule)."""
        node = self._rr_cursor
        self._rr_cursor = (self._rr_cursor + 1) % self.machine.num_nodes
        return self.alloc_on(node)

    def alloc_many(self, preferred: np.ndarray) -> Optional[np.ndarray]:
        """One frame per entry, as ``alloc_on(preferred[i])`` in order.

        A node serves pages until it is down to ``reserve_per_node`` and
        then stays full for the rest of the batch, so the batch splits
        into at most ``num_nodes`` phases, each with a fixed route from
        preferred node to the first node with room in ``alloc_on``'s
        spill order. Every node then takes its pages with one
        ``alloc_singles`` (single-frame first-fit drains a node's extents
        front to back, and nodes share no frames): the frames, the
        extents and ``fallback_allocations`` end as the per-page loop
        leaves them. Returns None, allocating nothing, when the nodes
        together cannot hold the batch; the per-page loop then raises
        :class:`OutOfMemoryError` at the page where memory runs out.
        """
        preferred = np.asarray(preferred, dtype=np.int64)
        count = preferred.size
        num = self.machine.num_nodes
        memory = self.machine.memory
        room = [
            max(0, memory.free_frames_on(node) - self.reserve_per_node)
            for node in range(num)
        ]
        if count == 0 or sum(room) < count:
            return None
        nodes = np.empty(count, dtype=np.int64)
        pos = 0
        while pos < count:
            route = list(range(num))
            for node in range(num):
                while not room[route[node]]:
                    route[node] = (route[node] + 1) % num
            phase = np.asarray(route, dtype=np.int64)[preferred[pos:]]
            end = phase.size
            demand = np.bincount(phase, minlength=num).tolist()
            for node in range(num):
                if demand[node] > room[node]:
                    # The page that finds ``node`` full ends the phase.
                    end = min(end, int(np.flatnonzero(phase == node)[room[node]]))
            phase = phase[:end]
            nodes[pos : pos + end] = phase
            for node, taken in enumerate(np.bincount(phase, minlength=num).tolist()):
                room[node] -= taken
            pos += end
        self.fallback_allocations += int(np.count_nonzero(nodes != preferred))
        mfns = np.empty(count, dtype=np.int64)
        for node, taken in enumerate(np.bincount(nodes, minlength=num).tolist()):
            if taken:
                mfns[nodes == node] = memory.alloc_singles(node, taken)
        return mfns

    def alloc_round_robin_many(self, count: int) -> Optional[np.ndarray]:
        """``count`` successive :meth:`alloc_round_robin` calls in one batch.

        Returns None, leaving the cursor and memory untouched, when
        :meth:`alloc_many` cannot place the batch.
        """
        num = self.machine.num_nodes
        preferred = (self._rr_cursor + np.arange(count, dtype=np.int64)) % num
        mfns = self.alloc_many(preferred)
        if mfns is not None:
            self._rr_cursor = (self._rr_cursor + count) % num
        return mfns

    def free(self, mfn: int) -> None:
        """Return a frame to its node."""
        self.machine.memory.free_frames(mfn, 1)

    def _try_node(self, node: int) -> Optional[int]:
        if (
            self.machine.memory.free_frames_on(node)
            <= self.reserve_per_node
        ):
            return None
        return self.machine.memory.alloc_frames(node, 1)
