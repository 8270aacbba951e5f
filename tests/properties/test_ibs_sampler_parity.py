"""Columnar IBS sampler vs the per-sample oracle.

``AppRun._sample_hot_pages`` builds one :class:`HotPageBatch` with array
ops and draws every burst source and private page index with a single
``rng.integers(0, highs)``. The per-sample walk in :mod:`tests.oracles`
(``scalar_sample_hot_pages``) defines what it must produce: the same
rows in the same order and the generator left in the same state.
Hypothesis varies the per-node operation counts (zero, skewed, tiny),
finished threads, threads without a private segment, unmapped keys,
segment sizes on both sides of the sample counts, and bursts forced on
and off.
"""

import copy
import dataclasses
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.sim.instance import (
    SAMPLES_PRIVATE_PER_THREAD,
    SAMPLES_SHARED,
    AppRun,
    RuntimeSegment,
    ThreadCtx,
)
from repro.workloads.app import SegmentDef
from repro.workloads.suite import get_app
from tests.oracles import scalar_sample_hot_pages

DOMAIN_ID = 3


def make_run(
    num_nodes,
    shared_pages,
    private_pages,
    finished,
    burst_noise,
    unmapped,
    seed,
):
    """An AppRun over hand-sized segments.

    ``private_pages[tid]`` is thread ``tid``'s private segment size
    (None: no private segment); ``unmapped`` is the fraction of keys
    left at -1.
    """
    app = dataclasses.replace(get_app("streamcluster"), burst_noise=burst_noise)
    shared_spec, private_spec = app.segments()
    segments = [
        RuntimeSegment(SegmentDef(spec=shared_spec, num_pages=pages), num_nodes)
        for pages in shared_pages
    ]
    segments += [
        RuntimeSegment(
            SegmentDef(spec=private_spec, num_pages=pages, owner_tid=tid),
            num_nodes,
        )
        for tid, pages in enumerate(private_pages)
        if pages is not None
    ]
    keys_rng = np.random.default_rng(seed)
    next_key = 0
    for seg in segments:
        seg.keys[:] = np.arange(next_key, next_key + seg.num_pages)
        next_key += seg.num_pages
        seg.keys[keys_rng.random(seg.num_pages) < unmapped] = -1
    threads = [
        ThreadCtx(
            tid=tid,
            node=tid % num_nodes,
            cpu_share=1.0,
            finish_time=1.0 if done else None,
        )
        for tid, done in enumerate(finished)
    ]
    return AppRun(
        app=app,
        op_model=None,
        segments=segments,
        threads=threads,
        context=SimpleNamespace(domain_id=DOMAIN_ID),
        config=SimConfig(),
        rng=np.random.default_rng(seed + 1),
    )


def assert_parity(run, ops_by_node):
    """Batch rows == oracle samples, in order; same final RNG state."""
    start = copy.deepcopy(run.rng.bit_generator.state)
    want = scalar_sample_hot_pages(run, ops_by_node)
    want_state = run.rng.bit_generator.state
    run.rng.bit_generator.state = start
    got = run._sample_hot_pages(ops_by_node)
    assert run.rng.bit_generator.state == want_state
    assert len(got) == len(want)
    assert got.accesses.shape == (len(want), len(ops_by_node))
    assert got.pages.tolist() == [s.page for s in want]
    assert got.domains.tolist() == [s.domain_id for s in want]
    assert [tuple(row) for row in got.accesses.tolist()] == [
        s.node_accesses for s in want
    ]
    assert got.write_fraction.tolist() == [s.write_fraction for s in want]
    return got


@st.composite
def ops_vectors(draw, num_nodes):
    kind = draw(st.sampled_from(["zero", "uniform", "skewed", "tiny", "random"]))
    if kind == "zero":
        return np.zeros(num_nodes)
    if kind == "uniform":
        return np.full(num_nodes, draw(st.sampled_from([1.0, 1e3, 1e7])))
    if kind == "skewed":
        ops = np.zeros(num_nodes)
        ops[draw(st.integers(0, num_nodes - 1))] = 1e9
        ops[draw(st.integers(0, num_nodes - 1))] += 3.0
        return ops
    if kind == "tiny":
        return np.full(num_nodes, 0.25)
    return np.array(
        draw(st.lists(
            st.floats(0.0, 1e8, allow_nan=False),
            min_size=num_nodes, max_size=num_nodes,
        ))
    )


@st.composite
def worlds(draw):
    num_nodes = draw(st.sampled_from([2, 4, 8]))
    num_threads = draw(st.integers(1, 40))
    shared_pages = draw(st.lists(
        st.sampled_from([1, 2, 7, SAMPLES_SHARED, SAMPLES_SHARED + 1, 2000]),
        max_size=2,
    ))
    private_pages = draw(st.lists(
        st.one_of(
            st.none(),
            st.integers(1, 2 * SAMPLES_PRIVATE_PER_THREAD),
            st.just(5000),
        ),
        min_size=num_threads, max_size=num_threads,
    ))
    finished = draw(st.lists(
        st.booleans(), min_size=num_threads, max_size=num_threads,
    ))
    run = make_run(
        num_nodes,
        shared_pages,
        private_pages,
        finished,
        burst_noise=draw(st.sampled_from([0.0, 0.5, 1.0])),
        unmapped=draw(st.sampled_from([0.0, 0.3, 1.0])),
        seed=draw(st.integers(0, 2**31)),
    )
    return run, draw(ops_vectors(num_nodes))


class TestSamplerParity:
    @settings(max_examples=200, deadline=None)
    @given(worlds())
    def test_random_worlds(self, world):
        run, ops_by_node = world
        assert_parity(run, ops_by_node)

    @settings(max_examples=25, deadline=None)
    @given(worlds())
    def test_consecutive_epochs_share_the_stream(self, world):
        run, ops_by_node = world
        for _ in range(3):
            assert_parity(run, ops_by_node)

    def test_burst_forced_on_and_off(self):
        for burst_noise in (0.0, 1.0):
            run = make_run(
                8, [SAMPLES_SHARED * 2], [6] * 32, [False] * 32,
                burst_noise=burst_noise, unmapped=0.0, seed=11,
            )
            got = assert_parity(run, np.full(8, 1e6))
            # Rows: the shared segment's SAMPLES_SHARED, then 4 per thread.
            tids = np.repeat(np.arange(32), SAMPLES_PRIVATE_PER_THREAD)
            sources = got.accesses[SAMPLES_SHARED:].argmax(axis=1)
            # Every private sample comes from its owner's node, except a
            # burst's remote threads (32 // 16 of them).
            remote = set(tids[sources != tids % 8].tolist())
            assert len(remote) <= (2 if burst_noise else 0)

    def test_zero_count_fallback_row(self):
        # 0.25 ops per node round to zero accesses on every shared page:
        # each row falls back to one access on the busiest node.
        run = make_run(
            4, [50], [3, 3], [False, False],
            burst_noise=0.0, unmapped=0.0, seed=5,
        )
        got = assert_parity(run, np.array([0.25, 0.25, 0.5, 0.0]))
        shared = got.accesses[:50]  # every page of the shared segment
        assert (shared.sum(axis=1) == 1).all()
        assert (shared[:, 2] == 1).all()

    def test_unmapped_and_finished_are_skipped(self):
        run = make_run(
            4, [100], [8, None, 8, 8], [False, False, True, False],
            burst_noise=0.0, unmapped=0.5, seed=9,
        )
        got = assert_parity(run, np.full(4, 1e5))
        assert (got.pages >= 0).all()
        assert (got.domains == DOMAIN_ID).all()

    def test_no_segments_gives_empty_batch(self):
        run = make_run(
            4, [], [None, None], [False, False],
            burst_noise=1.0, unmapped=0.0, seed=2,
        )
        got = assert_parity(run, np.full(4, 1e5))
        assert len(got) == 0
        assert got.accesses.shape == (0, 4)


class TestNumpyStreamIdentity:
    """The single draw relies on ``Generator.integers`` consuming PCG64
    exactly alike for one array-valued ``high`` and for the sequential
    scalar and ``size=k`` calls it replaces. A NumPy release that breaks
    this fails here by name (and the sampler parity above with it)."""

    def test_array_high_matches_sequential_draws(self):
        layouts = [
            # (burst source over num_nodes?, private segment size)
            [(False, 5), (True, 5), (False, 1), (True, 3)],
            [(True, 1000), (False, 7), (False, 2)],
            # Ranges just above a power of two reject often in Lemire's
            # method, so these exercise the retry path.
            [(False, 2**31 + 1), (True, 3 * 2**30), (False, 2**30 + 1)],
            [(False, 1)] * 4,
        ]
        num_nodes = 8
        for seed in range(40):
            for layout in layouts:
                sequential = np.random.default_rng(seed)
                want = []
                highs = []
                for bursting, pages in layout:
                    count = min(SAMPLES_PRIVATE_PER_THREAD, pages)
                    if bursting:
                        want.append(int(sequential.integers(num_nodes)))
                        highs.append(num_nodes)
                    want.extend(
                        sequential.integers(0, pages, size=count).tolist()
                    )
                    highs.extend([pages] * count)
                single = np.random.default_rng(seed)
                got = single.integers(0, np.array(highs, dtype=np.int64))
                assert got.tolist() == want
                assert single.bit_generator.state == sequential.bit_generator.state
