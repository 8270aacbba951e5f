"""Cache hierarchy hit model."""

import pytest

from repro.hardware.cache import CacheHierarchy
from repro.hardware.presets import amd48_caches


@pytest.fixture
def caches():
    return amd48_caches()


class TestHitProfile:
    def test_tiny_working_set_is_l1_resident(self, caches):
        profile = caches.hit_profile(16 * 1024)
        assert profile.level_fractions[0] == pytest.approx(1.0)
        assert profile.memory_fraction == pytest.approx(0.0)

    def test_fractions_sum_to_one(self, caches):
        for ws in (1 << 12, 1 << 16, 1 << 20, 1 << 24, 1 << 30):
            profile = caches.hit_profile(ws)
            total = sum(profile.level_fractions) + profile.memory_fraction
            assert total == pytest.approx(1.0)

    def test_memory_fraction_monotone_in_working_set(self, caches):
        fractions = [
            caches.hit_profile(ws).memory_fraction
            for ws in (1 << 16, 1 << 20, 1 << 24, 1 << 28)
        ]
        assert fractions == sorted(fractions)

    def test_l3_contention_reduces_hits(self, caches):
        ws = 4 << 20  # comparable to L3
        contended = caches.hit_profile(ws, l3_contended=True)
        alone = caches.hit_profile(ws, l3_contended=False)
        assert contended.memory_fraction >= alone.memory_fraction


class TestAverageCycles:
    def test_cache_resident_cost_is_l1(self, caches):
        cycles = caches.average_access_cycles(1024, memory_cycles=156.0)
        assert cycles == pytest.approx(5.0)

    def test_large_ws_approaches_memory_latency(self, caches):
        cycles = caches.average_access_cycles(1 << 34, memory_cycles=156.0)
        assert cycles > 100.0

    def test_monotone_in_memory_latency(self, caches):
        ws = 1 << 26
        fast = caches.average_access_cycles(ws, memory_cycles=156.0)
        slow = caches.average_access_cycles(ws, memory_cycles=697.0)
        assert slow > fast


class TestConstruction:
    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(levels=())

    def test_amd48_latencies(self, caches):
        by_name = {l.name: l.latency_cycles for l in caches.levels}
        assert by_name == {"L1": 5.0, "L2": 16.0, "L3": 48.0}
