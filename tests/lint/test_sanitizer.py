"""The runtime P2M sanitizer catches every dynamic protocol violation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.interface import InternalInterface
from repro.core.policies.base import PolicyName, PolicySpec
from repro.errors import SanitizerError
from repro.hardware.memory import MachineMemory
from repro.hardware.presets import small_machine
from repro.hypervisor.allocator import XenHeapAllocator
from repro.hypervisor.p2m import P2MTable
from repro.hypervisor.xen import Hypervisor
from repro.lint import sanitizer as p2m_sanitizer
from repro.lint.sanitizer import P2MSanitizer
from repro.sim.engine import run_world
from repro.sim.environment import VmSpec, XenEnvironment, _XenContext
from repro.workloads.suite import get_app
from tests.conftest import fast_app


def _world():
    sanitizer = P2MSanitizer()
    memory = MachineMemory(num_nodes=2, frames_per_node=64, controller_gib_s=10.0)
    memory.sanitizer = sanitizer
    p2m_a, p2m_b = P2MTable(1), P2MTable(2)
    p2m_a.sanitizer = sanitizer
    p2m_b.sanitizer = sanitizer
    return sanitizer, memory, p2m_a, p2m_b


@pytest.fixture
def world():
    """A sanitized two-node memory + two p2m tables, wired by hand."""
    return _world()


class TestDoubleMap:
    def test_same_frame_two_domains(self, world):
        _, memory, p2m_a, p2m_b = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        with pytest.raises(SanitizerError, match="double map"):
            p2m_b.set_entry(0, mfn)

    def test_same_frame_two_gpfns(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        with pytest.raises(SanitizerError, match="double map"):
            p2m_a.set_entry(1, mfn)

    def test_idempotent_set_entry_allowed(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        p2m_a.set_entry(0, mfn)

    def test_overwrite_leaks_old_frame(self, world):
        _, memory, p2m_a, _ = world
        first, second = memory.alloc_frames(0), memory.alloc_frames(0)
        p2m_a.set_entry(0, first)
        with pytest.raises(SanitizerError, match="leak"):
            p2m_a.set_entry(0, second)


class TestFrameLifetime:
    def test_map_of_freed_frame(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        memory.free_frames(mfn, 1)
        with pytest.raises(SanitizerError, match="not allocated"):
            p2m_a.set_entry(0, mfn)

    def test_map_of_never_allocated_frame(self, world):
        _, _, p2m_a, _ = world
        with pytest.raises(SanitizerError, match="not allocated"):
            p2m_a.set_entry(0, 7)

    def test_free_of_mapped_frame(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        with pytest.raises(SanitizerError, match="still mapped"):
            memory.free_frames(mfn, 1)

    def test_invalidate_then_free_is_legal(self, world):
        _, memory, p2m_a, _ = world
        mfn = memory.alloc_frames(0)
        p2m_a.set_entry(0, mfn)
        assert p2m_a.invalidate(0) == mfn
        memory.free_frames(mfn, 1)


class TestMigrationOrdering:
    def _mapped(self, memory, p2m, gpfn=0, node=0):
        mfn = memory.alloc_frames(node)
        p2m.set_entry(gpfn, mfn)
        return mfn

    def test_legit_migration_passes(self, world):
        _, memory, p2m_a, _ = world
        old = self._mapped(memory, p2m_a)
        new = memory.alloc_frames(1)
        p2m_a.write_protect(0)
        assert p2m_a.remap(0, new) == old
        memory.free_frames(old, 1)

    def test_remap_without_write_protect(self, world):
        _, memory, p2m_a, _ = world
        self._mapped(memory, p2m_a)
        new = memory.alloc_frames(1)
        # Simulate a buggy migration that skips write_protect by flipping
        # the bit directly (so the p2m's own precondition check passes).
        p2m_a.lookup(0).writable = False
        with pytest.raises(SanitizerError, match="out-of-order"):
            p2m_a.remap(0, new)

    def test_double_write_protect(self, world):
        _, memory, p2m_a, _ = world
        self._mapped(memory, p2m_a)
        p2m_a.write_protect(0)
        with pytest.raises(SanitizerError, match="already in flight"):
            p2m_a.write_protect(0)

    def test_set_entry_during_migration(self, world):
        _, memory, p2m_a, _ = world
        mfn = self._mapped(memory, p2m_a)
        p2m_a.write_protect(0)
        with pytest.raises(SanitizerError, match="in-flight migration"):
            p2m_a.set_entry(0, mfn)

    def test_unprotect_aborts_migration(self, world):
        _, memory, p2m_a, _ = world
        mfn = self._mapped(memory, p2m_a)
        p2m_a.write_protect(0)
        p2m_a.unprotect(0)
        p2m_a.set_entry(0, mfn)  # entry usable again

    def test_unprotect_without_protect(self, world):
        _, memory, p2m_a, _ = world
        self._mapped(memory, p2m_a)
        with pytest.raises(SanitizerError, match="never write-protected"):
            p2m_a.unprotect(0)

    def test_remap_onto_foreign_frame(self, world):
        _, memory, p2m_a, p2m_b = world
        self._mapped(memory, p2m_a, gpfn=0)
        theirs = self._mapped(memory, p2m_b, gpfn=0, node=1)
        p2m_a.write_protect(0)
        with pytest.raises(SanitizerError, match="double map"):
            p2m_a.remap(0, theirs)


class TestHypervisorIntegration:
    def test_hypervisor_gets_sanitizer_from_global_enable(self, hypervisor):
        # tests/conftest.py arms the sanitizer for the whole suite.
        assert hypervisor.sanitizer is not None
        assert hypervisor.machine.memory.sanitizer is hypervisor.sanitizer
        assert hypervisor.dom0.p2m.sanitizer is hypervisor.sanitizer

    def test_config_flag_enables_without_global(self, monkeypatch):
        from repro.lint import sanitizer as mod

        monkeypatch.setattr(mod._MODE, "enabled", False)
        config = SimConfig(sanitize_p2m=True)
        hyp = Hypervisor(small_machine(config=config))
        assert hyp.sanitizer is not None
        monkeypatch.setattr(mod._MODE, "enabled", False)
        hyp_off = Hypervisor(small_machine())
        assert hyp_off.sanitizer is None

    def test_interface_migration_passes_sanitized(self, hypervisor):
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        target = 0 if hypervisor.internal.node_of_gpfn(domain, 3) else 1
        assert hypervisor.internal.migrate_page(domain, 3, target)
        assert hypervisor.internal.node_of_gpfn(domain, 3) == target

    def test_broken_migration_ordering_trapped(self, hypervisor):
        """Regression: a remap that skips write_protect must raise."""
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        entry = domain.p2m.lookup(3)
        src = hypervisor.machine.node_of_frame(entry.mfn)
        new_mfn = hypervisor.machine.memory.alloc_frames((src + 1) % 4, 1)
        entry.writable = False  # buggy code path: protocol step skipped
        with pytest.raises(SanitizerError, match="out-of-order"):
            domain.p2m.remap(3, new_mfn)

    def test_forged_write_protection_fault_trapped(self, hypervisor):
        """Regression: accounting a write fault against an entry the
        migration protocol never write-protected must raise.

        The fault handler's own precondition (entry not writable) is
        satisfied here because the bit was flipped straight through the
        entry view — only the sanitizer's protocol shadow catches it.
        """
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        domain.p2m.lookup(3).writable = False  # forged, not write_protect()
        with pytest.raises(SanitizerError, match="no migration in flight"):
            hypervisor.fault_handler.on_write_protected(domain, 3)

    def test_genuine_write_protection_fault_passes(self, hypervisor):
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        domain.p2m.write_protect(3)
        hypervisor.fault_handler.on_write_protected(domain, 3)
        assert hypervisor.fault_handler.stats.write_protection_faults == 1

    def test_domain_teardown_is_clean(self, hypervisor):
        domain = hypervisor.create_domain("vm", num_vcpus=1, memory_pages=16)
        hypervisor.destroy_domain(domain)  # remove-then-free must not trap


def _shadow(sanitizer):
    return (
        dict(sanitizer._owners),
        dict(sanitizer._backing),
        set(sanitizer._allocated),
        set(sanitizer._protected),
    )


def _state(world):
    """The shadow maps, the heap extents and both p2m tables' arrays and
    counters."""
    sanitizer, memory, *tables = world
    heap = [
        (list(ext._starts), list(ext._lengths), ext.free_frames)
        for ext in memory._extents.values()
    ]
    p2ms = [
        (
            t._mfn.tolist(), t._flags.tolist(), t._node.tolist(),
            t.num_entries, t.num_valid, t.invalidations, t.migrations,
        )
        for t in tables
    ]
    return _shadow(sanitizer), heap, p2ms


def _mapped_world():
    """``world`` plus six frames on node 0, two mapped at domain 1."""
    world = _world()
    frames = world[1].alloc_singles(0, 6).tolist()
    world[2].set_entries([0, 1], [frames[3], frames[4]])
    return world, frames


def _loop(method, *columns):
    for args in zip(*columns):
        method(*args)


#: Violation class -> (extra setup, scalar loop, batch call), each taking
#: ``(world, frames)``. The scalar loop is the per-element definition of
#: the batch call.
BATCH_TRAPS = {
    "double_map_across_batches": (
        None,
        lambda w, f: _loop(w[3].set_entry, [0, 1], [f[0], f[3]]),
        lambda w, f: w[3].set_entries([0, 1], [f[0], f[3]]),
    ),
    "double_map_within_batch": (
        None,
        lambda w, f: _loop(w[2].set_entry, [2, 3], [f[0], f[0]]),
        lambda w, f: w[2].set_entries([2, 3], [f[0], f[0]]),
    ),
    "overwrite_within_batch": (
        None,
        lambda w, f: _loop(w[2].set_entry, [2, 2], [f[0], f[1]]),
        lambda w, f: w[2].set_entries([2, 2], [f[0], f[1]]),
    ),
    "map_of_freed_frame": (
        lambda w, f: w[1].free_frames_many([f[5]]),
        lambda w, f: _loop(w[2].set_entry, [2, 3], [f[0], f[5]]),
        lambda w, f: w[2].set_entries([2, 3], [f[0], f[5]]),
    ),
    "map_of_never_allocated_frame": (
        None,
        lambda w, f: _loop(w[2].set_entry, [2, 3], [f[0], 100]),
        lambda w, f: w[2].set_entries([2, 3], [f[0], 100]),
    ),
    "free_of_mapped_frame": (
        None,
        lambda w, f: _loop(w[1].free_frames, [f[0], f[4]], [1, 1]),
        lambda w, f: w[1].free_frames_many([f[4], f[0]]),
    ),
    "double_write_protect_within_batch": (
        None,
        lambda w, f: _loop(w[2].write_protect, [0, 1, 0]),
        lambda w, f: w[2].write_protect_many([0, 1, 0]),
    ),
    "unprotect_of_unprotected_entry": (
        lambda w, f: w[2].write_protect(0),
        lambda w, f: _loop(w[2].unprotect, [0, 1]),
        lambda w, f: w[2].unprotect_many([0, 1]),
    ),
    "unprotect_twice_within_batch": (
        lambda w, f: w[2].write_protect(0),
        lambda w, f: _loop(w[2].unprotect, [0, 0]),
        lambda w, f: w[2].unprotect_many([0, 0]),
    ),
    "set_entries_during_migration": (
        lambda w, f: w[2].write_protect(1),
        lambda w, f: _loop(w[2].set_entry, [2, 1], [f[0], f[4]]),
        lambda w, f: w[2].set_entries([2, 1], [f[0], f[4]]),
    ),
}


class TestBatchHooks:
    @pytest.mark.parametrize("case", sorted(BATCH_TRAPS))
    def test_batch_trap_has_scalar_message_and_changes_nothing(self, case):
        setup, scalar, batch = BATCH_TRAPS[case]
        worlds = []
        for _ in range(2):
            world, frames = _mapped_world()
            if setup is not None:
                setup(world, frames)
            worlds.append((world, frames))
        with pytest.raises(SanitizerError) as want:
            scalar(*worlds[0])
        world, frames = worlds[1]
        before = _state(world)
        with pytest.raises(SanitizerError) as got:
            batch(world, frames)
        assert str(got.value) == str(want.value)
        assert _state(world) == before

    def test_clean_batches_record_like_scalar_hooks(self):
        batch_world, frames = _mapped_world()
        loop_world, _ = _mapped_world()
        for (sanitizer, memory, p2m_a, _), use_batch in (
            (batch_world, True), (loop_world, False)
        ):
            gpfns, mfns = [2, 3, 2], [frames[0], frames[1], frames[0]]
            if use_batch:
                p2m_a.set_entries(gpfns, mfns)
                p2m_a.write_protect_many([2, 3])
                p2m_a.unprotect_many([3])
                p2m_a.invalidate_many([2, 0, 2])
                memory.free_frames_many([frames[0], frames[3]])
            else:
                _loop(p2m_a.set_entry, gpfns, mfns)
                _loop(p2m_a.write_protect, [2, 3])
                p2m_a.unprotect(3)
                _loop(p2m_a.invalidate, [2, 0, 2])
                _loop(memory.free_frames, [frames[0], frames[3]], [1, 1])
        assert _state(batch_world) == _state(loop_world)


_gpfn = st.integers(min_value=0, max_value=5)
_mfn = st.integers(min_value=0, max_value=7)
_domain = st.integers(min_value=1, max_value=2)
_hook_op = st.one_of(
    st.tuples(st.just("alloc"), st.lists(_mfn, max_size=4)),
    st.tuples(st.just("free"), st.lists(_mfn, max_size=4)),
    st.tuples(
        st.just("set"), _domain,
        st.lists(st.tuples(_gpfn, _mfn), max_size=4),
    ),
    st.tuples(st.just("invalidate"), _domain, st.lists(_gpfn, max_size=4)),
    st.tuples(st.just("protect"), _domain, st.lists(_gpfn, max_size=4)),
    st.tuples(st.just("unprotect"), _domain, st.lists(_gpfn, max_size=4)),
)


def _apply_batch(sanitizer, op):
    kind = op[0]
    if kind == "alloc":
        sanitizer.frames_allocated_many(op[1])
    elif kind == "free":
        sanitizer.frames_freed_many(op[1])
    elif kind == "set":
        sanitizer.entries_set(
            op[1], [g for g, _ in op[2]], [m for _, m in op[2]]
        )
    elif kind == "invalidate":
        sanitizer.entries_invalidated(op[1], op[2])
    elif kind == "protect":
        sanitizer.entries_write_protected(op[1], op[2])
    else:
        sanitizer.entries_unprotected(op[1], op[2])


def _apply_scalar(sanitizer, op):
    kind = op[0]
    if kind == "alloc":
        _loop(sanitizer.frames_allocated, op[1], [1] * len(op[1]))
    elif kind == "free":
        _loop(sanitizer.frames_freed, op[1], [1] * len(op[1]))
    elif kind == "set":
        for gpfn, mfn in op[2]:
            sanitizer.entry_set(op[1], gpfn, mfn)
    else:
        hook = {
            "invalidate": sanitizer.entry_invalidated,
            "protect": sanitizer.entry_write_protected,
            "unprotect": sanitizer.entry_unprotected,
        }[kind]
        for gpfn in op[2]:
            hook(op[1], gpfn)


class TestBatchHookProperty:
    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(_hook_op, min_size=1, max_size=25))
    def test_batch_hooks_accept_what_scalar_loops_accept(self, ops):
        """Same verdict and first message as the scalar-hook loop; the
        same shadow state after every clean batch."""
        batch, loop = P2MSanitizer(), P2MSanitizer()
        for sanitizer in (batch, loop):
            sanitizer.frames_allocated(0, 6)  # frames 6 and 7 stay free
        for op in ops:
            before = _shadow(batch)
            errors = []
            for sanitizer, apply in ((batch, _apply_batch), (loop, _apply_scalar)):
                try:
                    apply(sanitizer, op)
                    errors.append(None)
                except SanitizerError as exc:
                    errors.append(str(exc))
            assert errors[0] == errors[1], op
            if errors[0] is not None:
                # The batch recorded nothing; the loop recorded the prefix
                # before the bad element, so the two shadows part here.
                assert _shadow(batch) == before
                return
            assert _shadow(batch) == _shadow(loop), op

def _first_touch_world():
    """A 2-node Xen+ world with one churning first-touch VM."""
    config = SimConfig(page_scale=4096)
    env = XenEnvironment(
        config=config,
        machine_factory=lambda: small_machine(
            num_nodes=2, cpus_per_node=2, frames_per_node=4096, config=config
        ),
    )
    spec = VmSpec(
        app=fast_app(get_app("wrmem"), baseline_seconds=2.0),
        policy=PolicySpec(PolicyName.FIRST_TOUCH),
    )
    return env.setup([spec])


class TestArmedBatchPath:
    def test_first_touch_world_takes_the_batch_path_armed(self, monkeypatch):
        """Armed, the world initialises and releases through the batch
        page operations, with the results of the disarmed run."""
        calls = dict.fromkeys(
            ("touch_true", "alloc_pages_on", "invalidate_many", "free_pages",
             "invalidate_page"),
            0,
        )

        def spy(cls, name, key=None):
            orig = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                out = orig(self, *args, **kwargs)
                if key is None:
                    calls[name] += 1
                elif out:
                    calls[key] += 1
                return out

            monkeypatch.setattr(cls, name, wrapper)

        spy(_XenContext, "touch_segment", key="touch_true")
        spy(XenHeapAllocator, "alloc_pages_on")
        spy(P2MTable, "invalidate_many")
        spy(XenHeapAllocator, "free_pages")
        spy(InternalInterface, "invalidate_page")

        world = _first_touch_world()
        assert world.runs[0].context.hypervisor.sanitizer is not None
        armed = run_world(world)
        assert calls["touch_true"] > 0
        assert calls["alloc_pages_on"] > 0
        assert calls["invalidate_many"] > 0
        assert calls["free_pages"] > 0
        assert calls["invalidate_page"] == 0

        monkeypatch.setattr(p2m_sanitizer._MODE, "enabled", False)
        world = _first_touch_world()
        assert world.runs[0].context.hypervisor.sanitizer is None
        assert run_world(world) == armed
