"""Repeated-run averaging (the paper's 6-run protocol)."""

import pytest

from repro.core.policies.base import PolicyName, PolicySpec
from repro.sim.engine import run_app
from repro.sim.environment import VmSpec, XenEnvironment
from repro.sim.results import RunResult
from repro.sim.stats import run_repeated
from repro.workloads.suite import get_app

from tests.conftest import fast_app


def fake_run(seconds):
    return RunResult(
        app="x", environment="e", policy="p",
        completion_seconds=seconds, epochs=1,
    )


class TestAggregation:
    def test_mean_and_std(self):
        values = iter([10.0, 20.0, 30.0])
        result = run_repeated(lambda cfg: fake_run(next(values)), repeats=3)
        assert result.mean_seconds == pytest.approx(20.0)
        assert result.std_seconds == pytest.approx(8.1649, rel=1e-3)
        assert result.cv == pytest.approx(0.4082, rel=1e-3)

    def test_seeds_differ_per_repeat(self):
        seeds = []
        run_repeated(
            lambda cfg: (seeds.append(cfg.rng_seed), fake_run(1.0))[1],
            repeats=4,
        )
        assert len(set(seeds)) == 4

    def test_representative_is_closest_to_mean(self):
        values = iter([10.0, 19.0, 40.0])
        result = run_repeated(lambda cfg: fake_run(next(values)), repeats=3)
        assert result.representative.completion_seconds == 19.0

    def test_needs_a_repeat(self):
        with pytest.raises(ValueError):
            run_repeated(lambda cfg: fake_run(1.0), repeats=0)


class TestEndToEnd:
    def test_carrefour_noise_is_small_but_nonzero(self):
        """Seeded repeats wiggle (Carrefour randomness) but stay tight."""
        app = fast_app(get_app("bt.C"), baseline_seconds=4.0)
        spec = VmSpec(
            app=app, policy=PolicySpec(PolicyName.ROUND_4K, carrefour=True)
        )
        result = run_repeated(
            lambda cfg: run_app(XenEnvironment(config=cfg), spec),
            repeats=3,
        )
        assert result.mean_seconds > 0
        assert result.cv < 0.1
