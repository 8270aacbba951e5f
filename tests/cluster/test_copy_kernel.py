"""The live-migration dirty-round copy kernel: batched vs per-page.

One transfer replays a full pre-copy: round 1 protects and copies every
resident page, each later round re-copies a seeded dirty set, and every
round releases its protections afterwards — the ``write_protect_many`` /
``copy_stamps_from`` / ``unprotect_many`` sequence
:class:`repro.cluster.LiveMigration` issues per epoch. The per-page
spelling issues identical rounds as protect / one-page stamp copy /
unprotect loops. Each spelling transfers into its own destination domain
and the two images must come out identical. Domains are built bare (no
hypervisor, no sanitizer) so the batch entry points stay on their
vectorized paths.
"""

import timeit

import numpy as np

from repro.config import SimConfig
from repro.hypervisor.domain import Domain


def _domain(domain_id, name, pages):
    return Domain(
        domain_id=domain_id,
        name=name,
        num_vcpus=1,
        memory_pages=pages,
        home_nodes=(0,),
    )


def copy_rounds(config, repeat, pages, rounds, dirty_pages=512):
    """Time both spellings of one transfer; returns their figures."""
    source = _domain(1, "copy-src", pages)
    gpfns = np.arange(pages, dtype=np.int64)
    source.p2m.set_entries(gpfns, gpfns)
    for gpfn in gpfns.tolist():
        source.write_stamp(gpfn, gpfn + 1)
    rng = np.random.default_rng(config.rng_seed)
    dirty = min(dirty_pages, pages)
    round_sets = [gpfns] + [
        np.sort(rng.choice(pages, size=dirty, replace=False)).astype(np.int64)
        for _ in range(max(0, rounds - 1))
    ]
    dest_batched = _domain(2, "copy-dst-batched", pages)
    dest_scalar = _domain(3, "copy-dst-scalar", pages)
    p2m = source.p2m

    def batched():
        for pending in round_sets:
            p2m.write_protect_many(pending)
            dest_batched.copy_stamps_from(source, pending)
            p2m.unprotect_many(pending)

    def scalar():
        for pending in round_sets:
            for gpfn in pending.tolist():
                p2m.write_protect(gpfn)
                dest_scalar.write_stamp(gpfn, int(source.read_stamps([gpfn])[0]))
                p2m.unprotect(gpfn)

    batched_s = min(timeit.Timer(batched).repeat(repeat=max(1, repeat), number=1))
    scalar_s = min(timeit.Timer(scalar).repeat(repeat=max(1, repeat), number=1))
    return {
        "rounds": float(len(round_sets)),
        "pages_per_transfer": float(sum(s.size for s in round_sets)),
        "speedup": scalar_s / batched_s if batched_s else float("inf"),
        "results_match": float(
            np.array_equal(
                dest_batched.image_snapshot(), dest_scalar.image_snapshot()
            )
        ),
    }


class TestMigrationMicrobench:
    def test_batched_rounds_match_scalar_and_are_faster(self):
        """Both spellings must transfer an identical image, and the
        batched one must actually be the fast path (generous margin for
        noisy CI hosts)."""
        stats = copy_rounds(
            SimConfig(), repeat=3, pages=1024, rounds=4, dirty_pages=128
        )
        assert stats["results_match"] == 1.0
        assert stats["rounds"] == 4.0
        assert stats["pages_per_transfer"] == 1024.0 + 3 * 128.0
        assert stats["speedup"] >= 2.0

    def test_round_structure_seeded(self):
        """The dirty sets come from the config seed, so two transfers do
        byte-for-byte the same work."""
        a = copy_rounds(SimConfig(), repeat=1, pages=256, rounds=3)
        b = copy_rounds(SimConfig(), repeat=1, pages=256, rounds=3)
        assert a["pages_per_transfer"] == b["pages_per_transfer"]
        assert a["results_match"] == b["results_match"] == 1.0
