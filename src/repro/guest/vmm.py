"""Guest virtual memory: VMAs, lazy allocation, guest page faults.

Linux allocates memory lazily (paper section 3.1): creating a virtual
address space maps nothing; the first access of a thread to a page takes a
*guest* page fault, and only then does the kernel pick a physical page.
In native mode "physical" means a machine frame chosen by the Linux NUMA
policy; in a VM it is a guest-physical page from the topology-oblivious
allocator — NUMA placement then happens (or not) a level below, in the
hypervisor.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import GuestFaultError
from repro.guest.process import Thread

#: Picks the backing page for a faulting virtual page:
#: (vpfn, faulting thread) -> physical/machine frame number.
BackingFn = Callable[[int, Thread], int]


@dataclass
class Vma:
    """One virtual memory area (a contiguous mapping).

    Attributes:
        name: label (the workload's segment name).
        start_vpfn: first virtual page.
        num_pages: length in pages.
    """

    name: str
    start_vpfn: int
    num_pages: int

    @property
    def end_vpfn(self) -> int:
        return self.start_vpfn + self.num_pages

    def __contains__(self, vpfn: int) -> bool:
        return self.start_vpfn <= vpfn < self.end_vpfn


class GuestAddressSpace:
    """A process's page table plus its VMAs.

    Args:
        backing: resolves a guest fault to a backing frame — wired to the
            NUMA policy in native mode, to the oblivious guest allocator
            in a VM.
        release: returns a frame on unmap.
    """

    def __init__(self, backing: BackingFn, release: Callable[[int], None]):
        self._backing = backing
        self._release = release
        # mmap hands out increasing starts, so appending keeps both lists
        # sorted by start for the bisect in touch().
        self._vmas: List[Vma] = []
        self._starts: List[int] = []
        self._table: Dict[int, int] = {}
        self._next_vpfn = 0x1000  # leave a guard hole at 0
        self.guest_faults = 0

    # ------------------------------------------------------------------
    # VMAs

    def mmap(self, name: str, num_pages: int) -> Vma:
        """Create an (unpopulated) VMA — nothing is allocated yet."""
        if num_pages < 1:
            raise GuestFaultError("mmap of zero pages")
        vma = Vma(name=name, start_vpfn=self._next_vpfn, num_pages=num_pages)
        self._next_vpfn = vma.end_vpfn + 16  # guard gap
        self._vmas.append(vma)
        self._starts.append(vma.start_vpfn)
        return vma

    def munmap(self, vma: Vma) -> int:
        """Destroy a VMA, releasing every populated page. Returns count."""
        released = 0
        for vpfn in range(vma.start_vpfn, vma.end_vpfn):
            if self.unmap_page(vpfn):
                released += 1
        index = self._vmas.index(vma)
        del self._vmas[index]
        del self._starts[index]
        return released

    @property
    def vmas(self) -> List[Vma]:
        return list(self._vmas)

    # ------------------------------------------------------------------
    # Faulting and translation

    def touch(self, vpfn: int, thread: Thread) -> int:
        """Access ``vpfn``; fault in a page on first access.

        Returns the backing frame number.
        """
        frame = self._table.get(vpfn)
        if frame is not None:
            return frame
        index = bisect_right(self._starts, vpfn) - 1
        if index < 0 or vpfn not in self._vmas[index]:
            raise GuestFaultError(f"segfault: vpfn {vpfn:#x} is unmapped")
        self.guest_faults += 1
        frame = self._backing(vpfn, thread)
        self._table[vpfn] = frame
        return frame

    def map_many(self, vpfns: List[int], frames: List[int]) -> None:
        """Install a whole batch of fault resolutions at once.

        Equivalent to ``len(vpfns)`` faulting :meth:`touch` calls whose
        backing returned ``frames`` (int lists); the caller (the batch
        init path) guarantees every vpfn is unmapped and inside a VMA.
        """
        self.guest_faults += len(vpfns)
        self._table.update(zip(vpfns, frames))

    def translate(self, vpfn: int) -> Optional[int]:
        """Current mapping of ``vpfn`` (None if not yet touched)."""
        return self._table.get(vpfn)

    def unmap_page(self, vpfn: int) -> bool:
        """Unmap one page, releasing its frame; True if it was mapped."""
        frame = self._table.pop(vpfn, None)
        if frame is None:
            return False
        self._release(frame)
        return True

    @property
    def resident_pages(self) -> int:
        """Pages currently backed by a frame."""
        return len(self._table)
