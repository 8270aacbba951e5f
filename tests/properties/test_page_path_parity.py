"""Array-backed page path vs the scalar oracle: observational equality.

The dict-of-objects :class:`~tests.oracles.DictP2MTable` and the
loop bodies it carries *define* the page-path semantics; these tests feed
random operation sequences — scalar and batch, valid and invalid — to
both backends and require identical observable state, return values and
errors throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.page_queue import PageOp, PartitionedPageQueue
from repro.errors import P2MError
from repro.hypervisor.p2m import P2MTable
from repro.sim.placement import PlacementTracker, SegmentPlacement
from tests.oracles import DictP2MTable

PAGES = 24
MFNS = 64
NODES = 4


def snapshot(table):
    """Everything a client can observe about a p2m table."""
    entries = {}
    for gpfn in range(PAGES):
        entry = table.lookup(gpfn)
        if entry is not None:
            entries[gpfn] = (entry.mfn, entry.valid, entry.writable)
    return {
        "entries": entries,
        "num_entries": table.num_entries,
        "num_valid": table.num_valid,
        "valid": sorted((g, e.mfn) for g, e in table.valid_entries()),
        "invalidations": table.invalidations,
        "migrations": table.migrations,
    }


def apply_op(table, op):
    """Run one operation; returns (result, error message or None)."""
    kind = op[0]
    try:
        if kind == "set":
            return table.set_entry(op[1], op[2]), None
        if kind == "invalidate":
            return table.invalidate(op[1]), None
        if kind == "remove":
            return table.remove(op[1]), None
        if kind == "protect":
            return table.write_protect(op[1]), None
        if kind == "remap":
            return table.remap(op[1], op[2]), None
        if kind == "unprotect":
            return table.unprotect(op[1]), None
        if kind == "set_many":
            return table.set_entries(np.asarray(op[1]), np.asarray(op[2])), None
        if kind == "invalidate_many":
            sel, mfns = table.invalidate_many(np.asarray(op[1]))
            return (sel.tolist(), mfns.tolist()), None
        if kind == "remove_many":
            return table.remove_many(np.asarray(op[1])).tolist(), None
        if kind == "translate_many":
            return table.translate_many(np.asarray(op[1])).tolist(), None
        if kind == "mfns_if_valid":
            return table.mfns_if_valid(np.asarray(op[1])).tolist(), None
        if kind == "nodes_of":
            return table.nodes_of(np.asarray(op[1])).tolist(), None
        raise AssertionError(f"unknown op {kind}")
    except P2MError as exc:
        return None, str(exc)


gpfns_st = st.integers(min_value=0, max_value=PAGES - 1)
mfns_st = st.integers(min_value=0, max_value=MFNS - 1)
gpfn_arrays = st.lists(gpfns_st, min_size=0, max_size=8)

op_st = st.one_of(
    st.tuples(st.just("set"), gpfns_st, mfns_st),
    st.tuples(st.just("invalidate"), gpfns_st),
    st.tuples(st.just("remove"), gpfns_st),
    st.tuples(st.just("protect"), gpfns_st),
    st.tuples(st.just("remap"), gpfns_st, mfns_st),
    st.tuples(st.just("unprotect"), gpfns_st),
    st.lists(st.tuples(gpfns_st, mfns_st), min_size=0, max_size=8).map(
        lambda pairs: (
            "set_many",
            [g for g, _ in pairs],
            [m for _, m in pairs],
        )
    ),
    st.tuples(st.just("invalidate_many"), gpfn_arrays),
    st.tuples(st.just("remove_many"), gpfn_arrays),
    st.tuples(st.just("translate_many"), gpfn_arrays),
    st.tuples(st.just("mfns_if_valid"), gpfn_arrays),
    st.tuples(st.just("nodes_of"), gpfn_arrays),
)


class TestP2MParity:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(op_st, min_size=1, max_size=50))
    def test_random_op_sequences(self, ops):
        """Same ops, same results, same errors, same state — every step."""
        array = P2MTable(domain_id=1, capacity=4)
        oracle = DictP2MTable(domain_id=1, capacity=4)
        array.frames_per_node = oracle.frames_per_node = MFNS // NODES
        for op in ops:
            got = apply_op(array, op)
            want = apply_op(oracle, op)
            assert got == want, f"divergence on {op}: {got} != {want}"
            assert snapshot(array) == snapshot(oracle), f"state after {op}"

    def test_repeated_gpfns_take_the_loop_meaning(self):
        """A batch repeating a gpfn: the last set_entries write wins, the
        first invalidate/remove hit counts — as in the oracle's loops."""
        ops = [
            ("set_many", [1, 2, 1, 3], [5, 6, 7, 8]),
            ("invalidate_many", [2, 1, 2, 1]),
            ("set_many", [1, 2, 2], [9, 10, 11]),
            ("remove_many", [3, 2, 3, 2, 4]),
        ]
        array = P2MTable(domain_id=1, capacity=4)
        oracle = DictP2MTable(domain_id=1, capacity=4)
        for op in ops:
            assert apply_op(array, op) == apply_op(oracle, op), op
            assert snapshot(array) == snapshot(oracle), op

    def test_set_entries_all_or_nothing(self):
        """A negative mfn anywhere in a batch mutates neither backend."""
        for table in (P2MTable(1), DictP2MTable(1)):
            table.set_entry(0, 5)
            with pytest.raises(P2MError):
                table.set_entries([1, 2], [7, -1])
            # The array backend validates up front; the loop oracle stops
            # at the bad element. Both leave gpfn 1 unmapped-or-mapped —
            # the observable contract is only that gpfn 0 is untouched
            # and the bad element is not applied.
            assert table.lookup(0).mfn == 5
            assert not table.is_valid(2)

    def test_translate_many_raises_like_scalar(self):
        array, oracle = P2MTable(1), DictP2MTable(1)
        for table in (array, oracle):
            table.set_entry(0, 3)
        got = apply_op(array, ("translate_many", [0, 1]))
        want = apply_op(oracle, ("translate_many", [0, 1]))
        assert got == want
        assert got[1] is not None  # both raised


class TestSanitizerDelegation:
    """With a sanitizer attached the batch paths hand the whole batch to
    one sanitizer hook: the trap carries the scalar loop's message for
    the first bad element, and nothing of the batch lands."""

    def _armed(self, cls):
        from repro.lint.sanitizer import P2MSanitizer

        table = cls(domain_id=1)
        sanitizer = P2MSanitizer()
        sanitizer.frames_allocated(0, MFNS)
        table.sanitizer = sanitizer
        return table

    def test_double_map_trap_parity(self):
        results = []
        for cls in (P2MTable, DictP2MTable):
            table = self._armed(cls)
            table.set_entry(0, 7)
            try:
                table.set_entries([1, 2, 3], [8, 7, 9])
                results.append(None)
            except Exception as exc:
                results.append(str(exc))
            assert not table.is_valid(3)
            if cls is P2MTable:
                # The batch trapped before any element landed, and the
                # shadow state did not record the first element's frame:
                # another gpfn can still map it.
                assert not table.is_valid(1)
                assert table.num_valid == 1
                table.set_entry(5, 8)
            else:
                # The loop oracle trapped on the second element, after
                # the first landed.
                assert table.is_valid(1)
        assert results[0] == results[1]
        assert results[0] is not None


class TestRngStreamEquality:
    def test_array_draw_matches_sequential_draws(self):
        """`rng.integers(n, size=k)` consumes the stream exactly like k
        scalar draws — the invariant the Carrefour interleave batch path
        and the placement paths rely on."""
        a = np.random.default_rng(1234)
        b = np.random.default_rng(1234)
        for n, k in ((3, 7), (5, 1), (7, 64)):
            batch_draw = a.integers(n, size=k).tolist()
            scalar_draw = [int(b.integers(n)) for _ in range(k)]
            assert batch_draw == scalar_draw


class CaptureFlush:
    def __init__(self):
        self.batches = []

    def __call__(self, events):
        self.batches.append([(e.op, e.gpfn) for e in events])


class TestQueueParity:
    @settings(max_examples=60, deadline=None)
    @given(
        gpfns=st.lists(
            st.integers(min_value=0, max_value=255), min_size=0, max_size=80
        ),
        batch_size=st.integers(min_value=1, max_value=9),
        partitions=st.sampled_from([1, 4]),
    )
    def test_record_many_equals_record_loop(self, gpfns, batch_size, partitions):
        """Same flushes in the same order with the same stats, whether the
        events arrive one by one or as one array."""

        def build():
            capture = CaptureFlush()
            queue = PartitionedPageQueue(
                capture,
                flush_cost_fn=lambda n: 1e-6 * n,
                batch_size=batch_size,
                num_partitions=partitions,
            )
            return capture, queue

        scalar_capture, scalar_queue = build()
        for gpfn in gpfns:
            scalar_queue.record(PageOp.ALLOC, gpfn)
        vec_capture, vec_queue = build()
        vec_queue.record_many(PageOp.ALLOC, np.asarray(gpfns, dtype=np.int64))

        assert vec_capture.batches == scalar_capture.batches
        assert vec_queue.pending() == scalar_queue.pending()
        for field in (
            "events",
            "flushes",
            "lock_acquisitions",
            "append_hold_seconds",
            "flush_hold_seconds",
        ):
            assert getattr(vec_queue.stats, field) == getattr(
                scalar_queue.stats, field
            ), field

        scalar_queue.flush_all()
        vec_queue.flush_all()
        assert vec_capture.batches == scalar_capture.batches


class TestPlacementParity:
    @settings(max_examples=60, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=PAGES - 1),
                st.integers(min_value=0, max_value=NODES - 1),
            ),
            min_size=0,
            max_size=30,
        )
    )
    def test_place_many_equals_place_loop(self, moves):
        # place_many requires duplicate-free indices: keep last write per
        # index, which is what a scalar loop over the dedup'd list does.
        dedup = dict(moves)
        idxs = np.fromiter(dedup.keys(), dtype=np.int64, count=len(dedup))
        nodes = np.fromiter(dedup.values(), dtype=np.int64, count=len(dedup))

        scalar = SegmentPlacement(PAGES, NODES)
        for idx, node in dedup.items():
            scalar.place(idx, node)
        vectorized = SegmentPlacement(PAGES, NODES)
        vectorized.place_many(idxs, nodes)

        assert vectorized.counts.tolist() == scalar.counts.tolist()
        assert vectorized.version == scalar.version
        for idx in range(PAGES):
            assert vectorized.node_of(idx) == scalar.node_of(idx)

        scalar.release_many(idxs)
        for idx in range(PAGES):
            assert scalar.node_of(idx) is None

    def test_tracker_range_hooks_match_scalar_hooks(self):
        """Batch observer callbacks over a tracked range reproduce the
        per-entry scalar callbacks exactly."""
        rng = np.random.default_rng(7)
        gpfns = np.arange(100, 100 + PAGES, dtype=np.int64)
        mfns = rng.integers(0, MFNS, size=PAGES)

        def build(use_range):
            placement = SegmentPlacement(PAGES, NODES)
            tracker = PlacementTracker(
                node_of_frame=lambda mfn: mfn % NODES,
                nodes_of_frames=lambda arr: np.asarray(arr) % NODES,
            )
            if use_range:
                tracker.track_range(100, PAGES, placement, 0)
            else:
                for i in range(PAGES):
                    tracker.track(100 + i, placement, i)
            return placement, tracker

        scalar_placement, scalar_tracker = build(use_range=False)
        for gpfn, mfn in zip(gpfns.tolist(), mfns.tolist()):
            scalar_tracker.entry_set(gpfn, mfn)
        range_placement, range_tracker = build(use_range=True)
        range_tracker.entries_set(gpfns, mfns)

        assert range_placement.counts.tolist() == scalar_placement.counts.tolist()
        assert range_placement.version == scalar_placement.version

        scalar_tracker.entries_invalidated(gpfns[: PAGES // 2])
        range_tracker.entries_invalidated(gpfns[: PAGES // 2])
        assert range_placement.counts.tolist() == scalar_placement.counts.tolist()
        assert range_placement.version == scalar_placement.version
        for idx in range(PAGES):
            assert range_placement.node_of(idx) == scalar_placement.node_of(idx)
