"""Placement views and their synchronisation with the p2m table."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.hypervisor.p2m import P2MTable
from repro.sim.placement import PlacementTracker, SegmentPlacement


class TestSegmentPlacement:
    def test_place_and_counts(self):
        p = SegmentPlacement(num_pages=10, num_nodes=4)
        p.place(0, 2)
        p.place(1, 2)
        p.place(2, 3)
        assert p.counts.tolist() == [0, 0, 2, 1]
        assert p.mapped_pages == 3
        assert p.node_of(0) == 2
        assert p.node_of(5) is None

    def test_replace_moves_count(self):
        p = SegmentPlacement(10, 4)
        p.place(0, 1)
        p.place(0, 3)
        assert p.counts.tolist() == [0, 0, 0, 1]

    def test_release(self):
        p = SegmentPlacement(10, 4)
        p.place(0, 1)
        p.release(0)
        assert p.mapped_pages == 0
        p.release(0)  # idempotent
        assert p.mapped_pages == 0

    def test_distribution_uniform(self):
        p = SegmentPlacement(4, 4)
        p.place(0, 0)
        p.place(1, 0)
        p.place(2, 1)
        p.place(3, 2)
        dist = p.distribution()
        assert dist.tolist() == [0.5, 0.25, 0.25, 0.0]

    def test_distribution_with_hot_page(self):
        p = SegmentPlacement(3, 4)
        p.place(0, 2)  # hot page
        p.place(1, 0)
        p.place(2, 1)
        dist = p.distribution(hot_weight=0.7)
        assert dist[2] == pytest.approx(0.7 + 0.3 / 3)
        assert dist.sum() == pytest.approx(1.0)

    def test_empty_distribution(self):
        p = SegmentPlacement(4, 4)
        assert p.distribution().sum() == 0.0

    def test_zero_pages_rejected(self):
        with pytest.raises(ReproError):
            SegmentPlacement(0, 4)


class TestTrackerWithP2M:
    def test_tracker_follows_p2m_lifecycle(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: mfn // 100)
        p2m = P2MTable(domain_id=1)
        p2m.observer = tracker
        placement = SegmentPlacement(4, 4)
        tracker.track(10, placement, 0)
        tracker.track(11, placement, 1)

        p2m.set_entry(10, 250)  # node 2
        p2m.set_entry(11, 50)  # node 0
        assert placement.node_of(0) == 2
        assert placement.node_of(1) == 0

        p2m.invalidate(10)
        assert placement.node_of(0) is None

        p2m.set_entry(11, 350)  # migrate-like remap to node 3
        assert placement.node_of(1) == 3

    def test_untracked_pages_ignored(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: 0)
        p2m = P2MTable(domain_id=1)
        p2m.observer = tracker
        p2m.set_entry(99, 1)  # no tracked segment: must not raise

    def test_untrack_stops_updates(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: 1)
        p2m = P2MTable(domain_id=1)
        p2m.observer = tracker
        placement = SegmentPlacement(4, 4)
        tracker.track(10, placement, 0)
        p2m.set_entry(10, 0)
        tracker.untrack(10)
        p2m.invalidate(10)
        assert placement.node_of(0) == 1  # stale by design after untrack

    def test_migration_remap_updates_view(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: mfn // 100)
        p2m = P2MTable(domain_id=1)
        p2m.observer = tracker
        placement = SegmentPlacement(4, 4)
        tracker.track(5, placement, 2)
        p2m.set_entry(5, 100)
        p2m.write_protect(5)
        p2m.remap(5, 300)
        assert placement.node_of(2) == 3

    def test_verify_against(self):
        placement = SegmentPlacement(3, 4)
        placement.place(0, 1)
        placement.place(1, 2)
        truth = {0: 1, 1: 2, 2: None}
        assert placement.verify_against(truth.get)
        truth[1] = 3
        assert not placement.verify_against(truth.get)


class TestLinuxHooks:
    def test_pages_placed_matches_page_placed(self):
        """Range keys, dict-tracked keys and untracked keys end as the
        scalar hook leaves them."""
        sides = []
        for batch in (True, False):
            tracker = PlacementTracker(node_of_frame=lambda mfn: 0)
            ranged = SegmentPlacement(4, 4)
            single = SegmentPlacement(2, 4)
            tracker.track_range(100, 4, ranged, 0)
            keys = np.array([101, 103, 500, 100], dtype=np.int64)
            nodes = np.array([2, 3, 1, 0], dtype=np.int64)
            if batch:
                tracker.pages_placed(keys, nodes)
            else:
                for key, node in zip(keys.tolist(), nodes.tolist()):
                    tracker.page_placed(key, node)
            tracker.track(200, single, 1)
            if batch:
                tracker.pages_placed(np.array([200, 102]), np.array([3, 1]))
            else:
                tracker.page_placed(200, 3)
                tracker.page_placed(102, 1)
            sides.append(
                [
                    (p.nodes.tolist(), p.counts.tolist(), p.version)
                    for p in (ranged, single)
                ]
            )
        assert sides[0] == sides[1]
        assert sides[0][0][0] == [0, 2, 1, 3]


def _scan(tracker, key):
    """The linear lookup the bisected one replaces: dict first, then
    tombstones, then the first registered range containing ``key``."""
    hit = tracker._pages.get(key)
    if hit is not None:
        return hit
    if key in tracker._dead:
        return None
    for start, count, placement, idx0 in tracker._ranges:
        if start <= key < start + count:
            return (placement, idx0 + (key - start))
    return None


class TestRangeLookup:
    def test_bisected_lookup_matches_the_scan_for_every_key(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: 0)
        a, b, c, d = (SegmentPlacement(8, 4) for _ in range(4))
        # Registered out of key order, with gaps between every pair and
        # one range starting mid-placement (idx0 > 0).
        tracker.track_range(300, 5, c, 0)
        tracker.track_range(100, 8, a, 0)
        tracker.track_range(500, 3, d, 2)
        tracker.track_range(200, 6, b, 1)
        assert [r[0] for r in tracker._ranges] == [100, 200, 300, 500]
        tracker.untrack(103)  # tombstone inside a range
        tracker.untrack(502)  # tombstone at a range's last key
        single = SegmentPlacement(2, 4)
        tracker.track(204, single, 1)  # dict key inside a range
        tracker.track(103, single, 0)  # re-tracked after its tombstone
        tracker.track(400, single, 0)  # dict key in a gap
        for key in range(0, 600):
            assert tracker.tracked(key) == _scan(tracker, key), key
        assert tracker.tracked(99) is None  # before the first range
        assert tracker.tracked(503) is None  # after the last
        assert tracker.tracked(108) is None  # in a gap
        assert tracker.tracked(100) == (a, 0)
        assert tracker.tracked(107) == (a, 7)
        assert tracker.tracked(103) == (single, 0)
        assert tracker.tracked(204) == (single, 1)
        assert tracker.tracked(205) == (b, 6)
        assert tracker.tracked(500) == (d, 2)
        assert tracker.tracked(502) is None
        tracker.untrack(204)
        assert tracker.tracked(204) is None

    @pytest.mark.parametrize("start,count", [(100, 1), (96, 5), (107, 10), (90, 30)])
    def test_overlapping_range_rejected(self, start, count):
        tracker = PlacementTracker(node_of_frame=lambda mfn: 0)
        tracker.track_range(100, 8, SegmentPlacement(8, 4), 0)
        with pytest.raises(ReproError, match="overlaps"):
            tracker.track_range(start, count, SegmentPlacement(count, 4), 0)
        assert len(tracker._ranges) == 1

    def test_adjacent_ranges_accepted(self):
        tracker = PlacementTracker(node_of_frame=lambda mfn: 0)
        low, high = SegmentPlacement(4, 4), SegmentPlacement(4, 4)
        tracker.track_range(104, 4, high, 0)
        tracker.track_range(100, 4, low, 0)
        assert tracker.tracked(103) == (low, 3)
        assert tracker.tracked(104) == (high, 0)
