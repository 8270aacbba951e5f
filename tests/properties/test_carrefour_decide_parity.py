"""Mask-based Carrefour decide vs the scalar per-sample oracle.

``UserComponent.decide`` selects pages with array masks over the whole
hot-page sample (``carrefour.heuristics.*_candidates``). The per-sample
heuristic walk in :mod:`tests.oracles` defines what it must produce:
the same decisions in the same order, the same budget consumption and
cross-heuristic dedup, and the same interleave draws from the RNG.
Hypothesis feeds both sides random samples with unmapped and duplicate
pages, budgets on both sides of the candidate count, and every
combination of enabled heuristics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.carrefour.engine import CarrefourConfig, UserComponent
from repro.carrefour.metrics import CarrefourMetrics
from repro.hardware.counters import HotPageSample
from tests.oracles import scalar_decide

NODES = 4
PAGES = 12


def mask_decide(config, rng, metrics, hot_pages, nodes_of_page):
    """The production decide, given an array placement over the map."""

    def placement(pages):
        return np.asarray(
            [nodes_of_page.get(int(p), -1) for p in pages], dtype=np.int64
        )

    return UserComponent(config, rng).decide(metrics, hot_pages, placement)


def scalar_placement(nodes_of_page):
    def placement(page):
        node = nodes_of_page.get(page, -1)
        return None if node < 0 else node

    return placement


samples = st.lists(
    st.builds(
        HotPageSample,
        page=st.integers(0, PAGES - 1),
        domain_id=st.integers(0, 2),
        node_accesses=st.tuples(*[st.integers(0, 40)] * NODES),
        write_fraction=st.sampled_from([0.0, 0.02, 0.05, 0.06, 0.5]),
    ),
    max_size=40,
)
# -1 marks an unmapped page (None from the scalar placement).
placements = st.dictionaries(
    st.integers(0, PAGES - 1), st.integers(-1, NODES - 1), max_size=PAGES
)
node_sets = st.lists(st.integers(0, NODES - 1), unique=True, max_size=NODES).map(
    tuple
)


@st.composite
def metrics_st(draw, all_enabled=False):
    if all_enabled:
        rate, imbalance, local = 1.0e9, 0.5, 0.5
    else:
        rate = draw(st.sampled_from([1.0e6, 1.0e9]))
        imbalance = draw(st.sampled_from([0.1, 0.5]))
        local = draw(st.sampled_from([0.5, 0.95]))
    return CarrefourMetrics(
        access_rate_per_s=rate,
        imbalance=imbalance,
        local_fraction=local,
        max_link_rho=draw(st.sampled_from([0.1, 0.6])),
        node_loads=(1.0,) * NODES,
        overloaded_nodes=draw(node_sets),
        underloaded_nodes=draw(node_sets),
    )


configs = st.builds(
    CarrefourConfig,
    migration_budget=st.integers(0, 48),
    enable_replication=st.booleans(),
    single_node_share=st.sampled_from([0.5, 0.9]),
)


def assert_parity(config, metrics, hot, nodes_of_page, seed):
    mask_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    got = mask_decide(config, mask_rng, metrics, hot, nodes_of_page)
    want = scalar_decide(
        config, scalar_rng, metrics, hot, scalar_placement(nodes_of_page)
    )
    assert got.decisions == want.decisions
    assert (
        got.interleave_enabled,
        got.migration_enabled,
        got.replication_enabled,
    ) == (
        want.interleave_enabled,
        want.migration_enabled,
        want.replication_enabled,
    )
    assert mask_rng.bit_generator.state == scalar_rng.bit_generator.state


class TestDecideParity:
    @settings(max_examples=300, deadline=None)
    @given(configs, metrics_st(), samples, placements, st.integers(0, 2**32 - 1))
    def test_random_metrics(self, config, metrics, hot, nodes_of_page, seed):
        assert_parity(config, metrics, hot, nodes_of_page, seed)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 48),
        st.sampled_from([0.5, 0.9]),
        metrics_st(all_enabled=True),
        samples,
        placements,
        st.integers(0, 2**32 - 1),
    )
    def test_all_heuristics_enabled(
        self, budget, share, metrics, hot, nodes_of_page, seed
    ):
        config = CarrefourConfig(
            migration_budget=budget,
            enable_replication=True,
            single_node_share=share,
        )
        assert_parity(config, metrics, hot, nodes_of_page, seed)

    def test_budget_exhausted_by_replication_then_interleave(self):
        # Every page is a replication, migration and interleave candidate;
        # duplicates, an unmapped page and a budget cut mid-interleave.
        hot = [
            HotPageSample(page, 1, (30, 1, 0, 0), 0.0)
            for page in (0, 1, 1, 2, 3, 4, 5, 5, 6)
        ]
        nodes_of_page = {0: 2, 1: 2, 2: -1, 3: 2, 4: 3, 5: 2, 6: 3}
        metrics = CarrefourMetrics(1.0e9, 0.5, 0.5, 0.6, (1.0,) * NODES, (2, 3), (0, 1))
        for budget in range(0, 14):
            config = CarrefourConfig(migration_budget=budget, enable_replication=True)
            assert_parity(config, metrics, hot, nodes_of_page, 7)
        config = CarrefourConfig(migration_budget=20)
        assert_parity(config, metrics, hot, nodes_of_page, 7)

    def test_no_samples_draws_nothing(self):
        metrics = CarrefourMetrics(1.0e9, 0.5, 0.5, 0.6, (1.0,) * NODES, (2,), (0,))
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        result = mask_decide(CarrefourConfig(), rng, metrics, [], {})
        assert result.decisions == []
        assert result.interleave_enabled and result.migration_enabled
        assert rng.bit_generator.state == before
