"""The per-stepper solve memo: hits, what forces a miss, frozen replays.

``EpochStepper.step`` replays a remembered fixed point when an epoch's
exact solver input (carried latencies, runs, destination arrays, CPU
budgets, per-operation terms) repeats. Parity of memoized runs against
forced misses is the hypothesis suite
``tests/properties/test_solve_memo_parity.py``.
"""

import numpy as np
import pytest

from repro.hardware.machine import Machine
from repro.sim import engine
from repro.sim.engine import SOLVE_MEMO_SIZE, EpochStepper, run_world
from repro.sim.environment import LinuxEnvironment
from repro.sim.instance import AppRun
from repro.workloads.suite import get_app

from tests.conftest import fast_app


def _steady_world():
    """cg.C under round-4K: no dynamic policy, placement never moves."""
    app = fast_app(get_app("cg.C"), baseline_seconds=6.0)
    return LinuxEnvironment(policy="round-4k").setup([app])


def _stepper():
    stepper = EpochStepper(_steady_world())
    stepper.initialize()
    return stepper


@pytest.fixture
def solves(monkeypatch):
    """Counts :meth:`EpochStepper._fixed_point` runs (memo misses)."""
    count = {"n": 0}
    original = EpochStepper._fixed_point

    def counted(self, latm, inputs):
        count["n"] += 1
        return original(self, latm, inputs)

    monkeypatch.setattr(EpochStepper, "_fixed_point", counted)
    return count


def _step_from(stepper, latm, epoch_index):
    """Rewind the carried latencies to ``latm`` and step once."""
    stepper.latm = latm
    assert stepper.step(epoch_index * stepper.epoch_seconds)


class TestHits:
    def test_steady_world_solves_fewer_times_than_it_has_epochs(self, solves):
        result = run_world(_steady_world())[0]
        assert 0 < solves["n"] < result.epochs

    def test_same_state_replays_without_solving(self, solves):
        stepper = _stepper()
        start = stepper.latm
        _step_from(stepper, start, 0)
        solved = stepper.latm
        _step_from(stepper, start, 1)
        assert solves["n"] == 1
        assert stepper.latm is solved

    def test_memo_keeps_the_most_recent_solves(self):
        stepper = _stepper()
        now = 0.0
        for _ in range(3 * SOLVE_MEMO_SIZE):
            stepper.step(now)
            now += stepper.epoch_seconds
            assert len(stepper._memo) <= SOLVE_MEMO_SIZE
        stepper.finish(now)
        assert not stepper._memo


class TestMisses:
    def test_changed_latencies_miss(self, solves):
        stepper = _stepper()
        stepper.step(0.0)
        first = stepper.latm
        stepper.step(stepper.epoch_seconds)
        assert not np.array_equal(stepper.latm, first)
        assert solves["n"] == 2

    def test_changed_pending_policy_cost_misses(self, solves):
        stepper = _stepper()
        start = stepper.latm
        _step_from(stepper, start, 0)
        stepper.world.runs[0].pending_policy_cost = 1e-3
        _step_from(stepper, start, 1)
        assert solves["n"] == 2

    def test_new_placement_misses(self, solves):
        stepper = _stepper()
        run = stepper.world.runs[0]
        start = stepper.latm
        _step_from(stepper, start, 0)
        D_before = run.destination_matrix(stepper.num_nodes)[0]
        seg = run.shared_segments[0]
        node = seg.placement.node_of(0)
        seg.placement.place(0, (node + 1) % stepper.num_nodes)
        assert run.destination_matrix(stepper.num_nodes)[0] is not D_before
        _step_from(stepper, start, 1)
        assert solves["n"] == 2

    def test_bound_zero_never_replays(self, solves, monkeypatch):
        monkeypatch.setattr(engine, "SOLVE_MEMO_SIZE", 0)
        stepper = _stepper()
        start = stepper.latm
        _step_from(stepper, start, 0)
        _step_from(stepper, start, 1)
        assert solves["n"] == 2


class TestFrozenReplay:
    def test_replayed_arrays_are_read_only(self, solves, monkeypatch):
        seen = {}
        build = AppRun.build_observation
        commit = AppRun.commit_work

        def capture_observation(self, **kwargs):
            seen.update(kwargs)
            return build(self, **kwargs)

        def capture_ops(self, ops, *args):
            seen["ops"] = ops
            return commit(self, ops, *args)

        monkeypatch.setattr(AppRun, "build_observation", capture_observation)
        monkeypatch.setattr(AppRun, "commit_work", capture_ops)
        record = Machine.record_node_traffic

        def capture_total(self, matrix):
            seen["total"] = matrix
            return record(self, matrix)

        monkeypatch.setattr(Machine, "record_node_traffic", capture_total)
        stepper = _stepper()
        start = stepper.latm
        _step_from(stepper, start, 0)
        _step_from(stepper, start, 1)
        assert solves["n"] == 1
        replayed = [
            seen["access_matrix"],
            seen["controller_rho"],
            seen["ops_by_node"],
            seen["ops"],
            seen["total"],
            stepper.latm,
        ]
        for array in replayed:
            with pytest.raises(ValueError):
                array[0] = 1.0
