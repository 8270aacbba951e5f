"""A whole world on the array-backed p2m vs the dict-of-entries oracle."""

from repro.config import SimConfig
from repro.core.policies.base import PolicyName, PolicySpec
from repro.hardware.presets import small_machine
from repro.hypervisor import domain as domain_module
from repro.sim.engine import run_world
from repro.sim.environment import VmSpec, XenEnvironment
from repro.workloads.suite import get_app
from tests.conftest import fast_app
from tests.oracles import DictP2MTable


def _small_world(config):
    """2 nodes x 2 CPUs with 16 GiB per node, one round-4K swaptions VM."""
    env = XenEnvironment(
        config=config,
        machine_factory=lambda: small_machine(
            num_nodes=2, cpus_per_node=2, frames_per_node=16384, config=config
        ),
    )
    spec = VmSpec(
        app=fast_app(get_app("swaptions"), baseline_seconds=8.0),
        policy=PolicySpec(PolicyName.ROUND_4K),
    )
    return env.setup([spec])


class TestScalarOracleEquivalence:
    def test_small_world_matches_dict_backend(self, monkeypatch):
        """One full world simulated on the array-backed p2m and on the
        dict-of-entries oracle table: identical results (the report-level
        byte-identity check in miniature)."""
        config = SimConfig()
        vec = run_world(_small_world(config))
        with monkeypatch.context() as patch:
            patch.setattr(domain_module, "P2MTable", DictP2MTable)
            world = _small_world(config)
            assert all(
                isinstance(run.context.domain.p2m, DictP2MTable)
                for run in world.runs
            )
            scalar = run_world(world)
        assert [r.completion_seconds for r in vec] == [
            r.completion_seconds for r in scalar
        ]
        assert [r.epochs for r in vec] == [r.epochs for r in scalar]
