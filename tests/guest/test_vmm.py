"""Guest virtual memory: VMAs, lazy allocation, faults."""

import pytest

from repro.errors import GuestFaultError
from repro.guest.process import Process, Thread
from repro.guest.vmm import GuestAddressSpace


@pytest.fixture
def aspace():
    frames = iter(range(1000, 2000))
    released = []
    space = GuestAddressSpace(
        backing=lambda vpfn, thread: next(frames),
        release=released.append,
    )
    space.released = released
    return space


@pytest.fixture
def thread():
    return Thread(tid=0, vcpu_id=0)


class TestVma:
    def test_mmap_allocates_nothing(self, aspace):
        vma = aspace.mmap("heap", 10)
        assert vma.num_pages == 10
        assert aspace.resident_pages == 0

    def test_vmas_do_not_overlap(self, aspace):
        a = aspace.mmap("a", 10)
        b = aspace.mmap("b", 10)
        assert a.end_vpfn <= b.start_vpfn

    def test_zero_pages_rejected(self, aspace):
        with pytest.raises(GuestFaultError):
            aspace.mmap("x", 0)

    def test_contains(self, aspace):
        vma = aspace.mmap("x", 4)
        assert vma.start_vpfn in vma
        assert vma.end_vpfn not in vma


class TestTouch:
    def test_first_touch_faults(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        frame = aspace.touch(vma.start_vpfn, thread)
        assert frame == 1000
        assert aspace.guest_faults == 1
        assert aspace.resident_pages == 1

    def test_second_touch_is_free(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        first = aspace.touch(vma.start_vpfn, thread)
        second = aspace.touch(vma.start_vpfn, thread)
        assert first == second
        assert aspace.guest_faults == 1

    def test_unmapped_address_segfaults(self, aspace, thread):
        with pytest.raises(GuestFaultError, match="segfault"):
            aspace.touch(5, thread)

    def test_translate_before_touch_is_none(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        assert aspace.translate(vma.start_vpfn) is None


class TestUnmap:
    def test_unmap_releases_frame(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        frame = aspace.touch(vma.start_vpfn, thread)
        assert aspace.unmap_page(vma.start_vpfn)
        assert aspace.released == [frame]
        assert aspace.translate(vma.start_vpfn) is None

    def test_unmap_untouched_is_noop(self, aspace):
        vma = aspace.mmap("heap", 4)
        assert not aspace.unmap_page(vma.start_vpfn)

    def test_munmap_releases_all_touched(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        aspace.touch(vma.start_vpfn, thread)
        aspace.touch(vma.start_vpfn + 2, thread)
        assert aspace.munmap(vma) == 2
        assert vma not in aspace.vmas
        with pytest.raises(GuestFaultError):
            aspace.touch(vma.start_vpfn, thread)

    def test_retouch_after_unmap_faults_again(self, aspace, thread):
        vma = aspace.mmap("heap", 4)
        aspace.touch(vma.start_vpfn, thread)
        aspace.unmap_page(vma.start_vpfn)
        frame = aspace.touch(vma.start_vpfn, thread)
        assert frame == 1001
        assert aspace.guest_faults == 2


class TestVmaLookup:
    """touch() finds the VMA by bisecting the sorted VMA starts."""

    def test_guard_gap_segfaults(self, aspace, thread):
        a = aspace.mmap("a", 4)
        b = aspace.mmap("b", 4)
        assert a.end_vpfn < b.start_vpfn
        for vpfn in (a.start_vpfn - 1, a.end_vpfn, b.start_vpfn - 1, b.end_vpfn):
            with pytest.raises(GuestFaultError, match="segfault"):
                aspace.touch(vpfn, thread)
        assert aspace.guest_faults == 0

    def test_every_page_of_neighbouring_vmas_resolves(self, aspace, thread):
        vmas = [aspace.mmap(f"v{i}", i + 1) for i in range(6)]
        for vma in vmas:
            for vpfn in range(vma.start_vpfn, vma.end_vpfn):
                aspace.touch(vpfn, thread)
        assert aspace.guest_faults == sum(v.num_pages for v in vmas)

    def test_munmap_middle_vma_keeps_neighbours(self, aspace, thread):
        a = aspace.mmap("a", 4)
        b = aspace.mmap("b", 4)
        c = aspace.mmap("c", 4)
        aspace.munmap(b)
        for vpfn in (b.start_vpfn, b.start_vpfn + 2, b.end_vpfn - 1):
            with pytest.raises(GuestFaultError, match="segfault"):
                aspace.touch(vpfn, thread)
        aspace.touch(a.end_vpfn - 1, thread)
        aspace.touch(c.start_vpfn, thread)
        assert aspace.vmas == [a, c]
        d = aspace.mmap("d", 2)
        aspace.touch(d.start_vpfn, thread)
        assert aspace.vmas == [a, c, d]


class TestProcess:
    def test_spawn_threads(self, aspace):
        proc = Process("app", aspace)
        t0 = proc.spawn_thread(vcpu_id=0)
        t1 = proc.spawn_thread(vcpu_id=1)
        assert proc.num_threads == 2
        assert proc.master is t0
        assert t1.tid == 1

    def test_master_requires_threads(self, aspace):
        proc = Process("app", aspace)
        with pytest.raises(RuntimeError):
            _ = proc.master
