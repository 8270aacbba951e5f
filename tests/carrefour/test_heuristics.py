"""Carrefour's per-page heuristics, as defined by the scalar oracle.

The production decide path (mask form) is held to these definitions by
``tests/properties/test_carrefour_decide_parity.py``.
"""

import numpy as np

from repro.carrefour.heuristics import Action
from tests.oracles import (
    HotPageSample,
    interleave_decisions,
    migration_decisions,
    replication_decisions,
)


def sample(page, accesses, write_fraction=0.0):
    return HotPageSample(
        page=page, domain_id=1, node_accesses=tuple(accesses),
        write_fraction=write_fraction,
    )


class TestMigration:
    def test_single_remote_accessor_migrates(self):
        pages = {10: 0}
        hot = [sample(10, (0, 100, 0, 0))]
        decisions = migration_decisions(hot, pages.get, budget=10)
        assert len(decisions) == 1
        assert decisions[0].action is Action.MIGRATE
        assert decisions[0].dst_node == 1

    def test_already_local_not_migrated(self):
        hot = [sample(10, (0, 100, 0, 0))]
        decisions = migration_decisions(hot, {10: 1}.get, budget=10)
        assert decisions == []

    def test_shared_page_not_migrated(self):
        hot = [sample(10, (50, 50, 0, 0))]
        decisions = migration_decisions(hot, {10: 2}.get, budget=10)
        assert decisions == []

    def test_dominance_threshold(self):
        hot = [sample(10, (8, 92, 0, 0))]
        assert migration_decisions(hot, {10: 0}.get, 10, single_node_share=0.9)
        assert not migration_decisions(hot, {10: 0}.get, 10, single_node_share=0.95)

    def test_budget_respected(self):
        hot = [sample(i, (0, 100, 0, 0)) for i in range(20)]
        placement = {i: 0 for i in range(20)}
        decisions = migration_decisions(hot, placement.get, budget=5)
        assert len(decisions) == 5

    def test_unmapped_page_skipped(self):
        hot = [sample(10, (0, 100, 0, 0))]
        assert migration_decisions(hot, lambda p: None, budget=10) == []


class TestInterleave:
    def test_moves_from_overloaded_to_underloaded(self):
        rng = np.random.default_rng(1)
        hot = [sample(i, (100, 0, 0, 0)) for i in range(10)]
        placement = {i: 0 for i in range(10)}
        decisions = interleave_decisions(
            hot, placement.get, overloaded=[0], underloaded=[2, 3],
            budget=10, rng=rng,
        )
        assert len(decisions) == 10
        assert all(d.action is Action.INTERLEAVE for d in decisions)
        assert {d.dst_node for d in decisions} <= {2, 3}

    def test_pages_on_ok_nodes_untouched(self):
        rng = np.random.default_rng(1)
        hot = [sample(1, (100, 0, 0, 0))]
        decisions = interleave_decisions(
            hot, {1: 1}.get, overloaded=[0], underloaded=[2],
            budget=10, rng=rng,
        )
        assert decisions == []

    def test_no_targets_no_decisions(self):
        rng = np.random.default_rng(1)
        hot = [sample(1, (100, 0, 0, 0))]
        assert (
            interleave_decisions(hot, {1: 0}.get, [0], [], 10, rng) == []
        )


class TestReplication:
    def test_read_only_shared_pages_selected(self):
        hot = [sample(1, (50, 50, 0, 0), write_fraction=0.0)]
        decisions = replication_decisions(hot, {1: 0}.get, budget=10)
        assert len(decisions) == 1
        assert decisions[0].action is Action.REPLICATE

    def test_written_pages_excluded(self):
        hot = [sample(1, (50, 50, 0, 0), write_fraction=0.5)]
        assert replication_decisions(hot, {1: 0}.get, budget=10) == []

    def test_single_node_pages_excluded(self):
        hot = [sample(1, (100, 0, 0, 0), write_fraction=0.0)]
        assert replication_decisions(hot, {1: 0}.get, budget=10) == []
