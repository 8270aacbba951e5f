"""Scalar reference implementations the production paths are checked against.

Each production fast path in ``repro`` replaced a plain loop; the loops
are kept here, verbatim, as the oracles the parity tests drive:

* the original O(n^2) per-(src, dst) congestion-solver loops that
  :class:`repro.sim.engine.CongestionSolver` replaced with matrix
  products (``tests/sim/test_engine_vectorized.py``);
* the original dict-of-:class:`P2MEntry` page table
  (:class:`DictP2MTable`), whose loop-based batch methods *define* the
  semantics of the array-backed :class:`repro.hypervisor.p2m.P2MTable`
  (``tests/properties/test_page_path_parity.py``);
* the per-sample Carrefour heuristics (:func:`migration_decisions`,
  :func:`interleave_decisions`, :func:`replication_decisions`) that the
  mask-based ``UserComponent.decide`` reproduces decision for decision
  (``tests/properties/test_carrefour_decide_parity.py``);
* the per-sample IBS sampler (:func:`scalar_sample_hot_pages`, one
  :class:`HotPageSample` object per sampled page) whose rows and RNG
  stream the columnar ``AppRun._sample_hot_pages`` reproduces
  (``tests/properties/test_ibs_sampler_parity.py``).

Do not optimise them: their value is being slow and obviously correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.carrefour.engine import CarrefourConfig, IterationResult
from repro.carrefour.heuristics import Action, PageDecision
from repro.carrefour.metrics import CarrefourMetrics
from repro.errors import P2MError
from repro.hardware.counters import CACHE_LINE_BYTES, HotPageBatch
from repro.hypervisor.p2m import P2MEntry
from repro.sim.engine import CongestionSolver
from repro.sim.instance import (
    SAMPLES_PRIVATE_PER_THREAD,
    SAMPLES_SHARED,
    AppRun,
)

#: Returns the node currently backing a page (None if unmapped).
PlacementFn = Callable[[int], Optional[int]]


def loop_congestion(
    solver: CongestionSolver, matrix: np.ndarray, seconds: float
) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`CongestionSolver.congestion` as the original Python loop."""
    col_bytes = matrix.sum(axis=0) * CACHE_LINE_BYTES
    rho_c = col_bytes / (solver.controller_bw * seconds)
    link_bytes = np.zeros(len(solver.link_bw))
    for s in range(solver.num_nodes):
        for d in range(solver.num_nodes):
            if s == d:
                continue
            traffic = matrix[s, d] * CACHE_LINE_BYTES
            if traffic == 0:
                continue
            for li in solver.route_links[(s, d)]:
                link_bytes[li] += traffic
    rho_l = link_bytes / (solver.link_bw * seconds)
    return rho_c, rho_l


def loop_latency_matrix(
    solver: CongestionSolver, rho_c: np.ndarray, rho_l: np.ndarray
) -> np.ndarray:
    """:meth:`CongestionSolver.latency_matrix` as the original loop."""
    model = solver.machine.latency
    burst = solver.machine.config.traffic_burstiness
    n = solver.num_nodes
    out = np.zeros((n, n))
    for s in range(n):
        for d in range(n):
            route = solver.route_links[(s, d)]
            link_rho = max((rho_l[li] for li in route), default=0.0)
            cycles = model.memory_latency_cycles(
                int(solver.hops[s, d]),
                float(rho_c[d]) * burst,
                float(link_rho) * burst,
            )
            out[s, d] = model.cycles_to_seconds(cycles)
    return out


# ----------------------------------------------------------------------
# The scalar page path

_GpfnArray = Union[Sequence[int], np.ndarray]


class DictP2MTable:
    """The original dict-of-objects p2m, kept as the page-path oracle.

    Method-for-method the implementation the array-backed
    :class:`repro.hypervisor.p2m.P2MTable` replaced, plus loop-based
    ``set_entries``/``invalidate_many``/``translate_many`` that *define*
    the semantics the vectorized versions must reproduce.
    """

    def __init__(self, domain_id: int, capacity: int = 1024):
        self.domain_id = domain_id
        del capacity  # the dict backend has no arrays to pre-size
        self._entries: Dict[int, P2MEntry] = {}
        self.faults_taken = 0
        self.invalidations = 0
        self.migrations = 0
        self.observer: Optional[object] = None
        self.sanitizer: Optional[object] = None
        self.frames_per_node: Optional[int] = None

    # ------------------------------------------------------------- scalar

    def set_entry(self, gpfn: int, mfn: int, writable: bool = True) -> None:
        if gpfn < 0 or mfn < 0:
            raise P2MError("frame numbers must be non-negative")
        if self.sanitizer is not None:
            self.sanitizer.entry_set(self.domain_id, gpfn, mfn)
        self._entries[gpfn] = P2MEntry(mfn=mfn, valid=True, writable=writable)
        if self.observer is not None:
            self.observer.entry_set(gpfn, mfn)

    def invalidate(self, gpfn: int) -> Optional[int]:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            return None
        entry.valid = False
        self.invalidations += 1
        mfn, entry.mfn = entry.mfn, -1
        if self.sanitizer is not None:
            self.sanitizer.entry_invalidated(self.domain_id, gpfn)
        if self.observer is not None:
            self.observer.entry_invalidated(gpfn)
        return mfn

    def remove(self, gpfn: int) -> Optional[int]:
        entry = self._entries.pop(gpfn, None)
        if entry is None or not entry.valid:
            return None
        if self.sanitizer is not None:
            self.sanitizer.entry_invalidated(self.domain_id, gpfn)
        if self.observer is not None:
            self.observer.entry_invalidated(gpfn)
        return entry.mfn

    def lookup(self, gpfn: int) -> Optional[P2MEntry]:
        return self._entries.get(gpfn)

    def translate(self, gpfn: int) -> int:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            raise P2MError(f"invalid p2m entry for gpfn {gpfn:#x}")
        return entry.mfn

    def mfn_if_valid(self, gpfn: int) -> int:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            return -1
        return entry.mfn

    def is_valid(self, gpfn: int) -> bool:
        entry = self._entries.get(gpfn)
        return entry is not None and entry.valid

    def write_protect(self, gpfn: int) -> None:
        entry = self._require_valid(gpfn)
        if self.sanitizer is not None:
            self.sanitizer.entry_write_protected(self.domain_id, gpfn)
        entry.writable = False

    def remap(self, gpfn: int, new_mfn: int) -> int:
        entry = self._require_valid(gpfn)
        if entry.writable:
            raise P2MError("remap requires a write-protected entry")
        if self.sanitizer is not None:
            self.sanitizer.entry_remapped(self.domain_id, gpfn, entry.mfn, new_mfn)
        old = entry.mfn
        entry.mfn = new_mfn
        entry.writable = True
        self.migrations += 1
        if self.observer is not None:
            self.observer.entry_set(gpfn, new_mfn)
        return old

    def unprotect(self, gpfn: int) -> None:
        entry = self._require_valid(gpfn)
        if self.sanitizer is not None:
            self.sanitizer.entry_unprotected(self.domain_id, gpfn)
        entry.writable = True

    def valid_entries(self) -> Iterator[Tuple[int, P2MEntry]]:
        return ((g, e) for g, e in self._entries.items() if e.valid)

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def num_valid(self) -> int:
        return sum(1 for e in self._entries.values() if e.valid)

    def _require_valid(self, gpfn: int) -> P2MEntry:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            raise P2MError(f"gpfn {gpfn:#x} has no valid entry")
        return entry

    # ------------------------------------------------------------- batch
    # Loop definitions of the batch API: what the vectorized versions
    # must be observationally equal to.

    def set_entries(
        self, gpfns: _GpfnArray, mfns: _GpfnArray, writable: bool = True
    ) -> None:
        gpfns = np.asarray(gpfns, dtype=np.int64)
        mfns = np.asarray(mfns, dtype=np.int64)
        if gpfns.shape != mfns.shape:
            raise P2MError("set_entries needs matching gpfn/mfn arrays")
        for gpfn, mfn in zip(gpfns.tolist(), mfns.tolist()):
            self.set_entry(gpfn, mfn, writable)

    def invalidate_many(
        self, gpfns: _GpfnArray
    ) -> Tuple[np.ndarray, np.ndarray]:
        hit_gpfns, hit_mfns = [], []
        for gpfn in np.asarray(gpfns, dtype=np.int64).tolist():
            mfn = self.invalidate(gpfn)
            if mfn is not None:
                hit_gpfns.append(gpfn)
                hit_mfns.append(mfn)
        return (
            np.asarray(hit_gpfns, dtype=np.int64),
            np.asarray(hit_mfns, dtype=np.int64),
        )

    def translate_many(self, gpfns: _GpfnArray) -> np.ndarray:
        gpfns = np.asarray(gpfns, dtype=np.int64)
        return np.asarray(
            [self.translate(g) for g in gpfns.tolist()], dtype=np.int64
        )

    def remove_many(self, gpfns: _GpfnArray) -> np.ndarray:
        mfns = [
            mfn
            for mfn in (
                self.remove(g)
                for g in np.asarray(gpfns, dtype=np.int64).tolist()
            )
            if mfn is not None
        ]
        return np.asarray(mfns, dtype=np.int64)

    def mfns_if_valid(self, gpfns: _GpfnArray) -> np.ndarray:
        return np.asarray(
            [
                self.mfn_if_valid(g)
                for g in np.asarray(gpfns, dtype=np.int64).tolist()
            ],
            dtype=np.int64,
        )

    def nodes_of(self, gpfns: _GpfnArray) -> np.ndarray:
        if self.frames_per_node is None:
            raise P2MError("nodes_of requires frames_per_node to be set")
        nodes = []
        for gpfn in np.asarray(gpfns, dtype=np.int64).tolist():
            mfn = self.mfn_if_valid(gpfn)
            nodes.append(-1 if mfn < 0 else mfn // self.frames_per_node)
        return np.asarray(nodes, dtype=np.int32)


# ----------------------------------------------------------------------
# The per-sample IBS sampler


@dataclass(frozen=True)
class HotPageSample:
    """Sampled access profile of one (guest-physical) page.

    Attributes:
        page: page identifier (gpfn for hypervisor Carrefour, vpfn in Linux).
        domain_id: owning domain (or 0 in native mode).
        node_accesses: per-node access counts observed for the page.
        write_fraction: fraction of sampled accesses that were writes.
    """

    page: int
    domain_id: int
    node_accesses: Tuple[int, ...]
    write_fraction: float = 0.0

    @property
    def total(self) -> int:
        return int(sum(self.node_accesses))

    @property
    def dominant_node(self) -> int:
        return int(np.argmax(self.node_accesses))


def batch_of(hot_pages: Sequence[HotPageSample], num_nodes: int) -> HotPageBatch:
    """The columnar batch holding ``hot_pages`` row for row."""
    if not hot_pages:
        return HotPageBatch.empty(num_nodes)
    return HotPageBatch(
        pages=[s.page for s in hot_pages],
        domains=[s.domain_id for s in hot_pages],
        accesses=[s.node_accesses for s in hot_pages],
        write_fraction=[s.write_fraction for s in hot_pages],
    )


def scalar_sample_hot_pages(
    run: AppRun, ops_by_node: np.ndarray
) -> List[HotPageSample]:
    """Per-page samples as IBS would report them.

    Shared pages: sources follow the per-node operation counts; the
    hottest pages are sampled deterministically, the uniform tail at
    random. Private pages: the owner is the only source — except
    during a *burst*, when a remote node transiently hammers them
    (the behaviour that misleads Carrefour on "low" applications).
    """
    samples: List[HotPageSample] = []
    share = run.app.master_share
    total_shared_ops = float(ops_by_node.sum()) * share
    domain_id = run.context.domain_id
    num_nodes = len(ops_by_node)
    src_dist = ops_by_node / max(ops_by_node.sum(), 1.0)
    for seg in run.shared_segments:
        weights = seg.page_weights
        count = min(SAMPLES_SHARED, seg.num_pages)
        hot_n = min(count // 2, seg.num_pages)
        indices = list(range(hot_n))
        if seg.num_pages > hot_n:
            extra = run.rng.integers(
                hot_n, seg.num_pages, size=count - hot_n
            )
            indices.extend(int(i) for i in extra)
        for idx in indices:
            key = int(seg.keys[idx])
            if key < 0:
                continue
            page_ops = total_shared_ops * float(weights[idx])
            counts = np.maximum(
                0, np.round(src_dist * page_ops)
            ).astype(np.int64)
            if counts.sum() == 0:
                counts[int(np.argmax(src_dist))] = max(1, int(page_ops))
            samples.append(
                HotPageSample(
                    page=key,
                    domain_id=domain_id,
                    node_accesses=tuple(int(c) for c in counts),
                    write_fraction=seg.definition.spec.write_fraction,
                )
            )
    # Private segments: owner-only sources, plus transient bursts.
    burst = run.rng.random() < run.app.burst_noise
    burst_tids = set()
    if burst:
        k = max(1, run.num_threads // 16)
        burst_tids = set(
            int(t) for t in run.rng.choice(run.num_threads, size=k, replace=False)
        )
    for t in run.threads:
        if t.finished:
            continue
        seg = run.private_by_tid.get(t.tid)
        if seg is None:
            continue
        per_page_ops = (
            float(ops_by_node.sum())
            * (1.0 - share)
            / max(1, run.num_threads)
            / seg.num_pages
        )
        source = t.node
        if t.tid in burst_tids:
            source = int(run.rng.integers(num_nodes))
        count = min(SAMPLES_PRIVATE_PER_THREAD, seg.num_pages)
        for idx in run.rng.integers(0, seg.num_pages, size=count):
            key = int(seg.keys[int(idx)])
            if key < 0:
                continue
            counts = [0] * num_nodes
            counts[source] = max(1, int(per_page_ops))
            samples.append(
                HotPageSample(
                    page=key,
                    domain_id=domain_id,
                    node_accesses=tuple(counts),
                    write_fraction=0.5,
                )
            )
    return samples


# ----------------------------------------------------------------------
# The scalar Carrefour heuristics


def migration_decisions(
    hot_pages: Sequence[HotPageSample],
    placement: PlacementFn,
    budget: int,
    single_node_share: float = 0.9,
) -> List[PageDecision]:
    """Migrate pages remotely accessed by (essentially) a single node.

    A page qualifies when one node performs at least ``single_node_share``
    of its accesses and the page does not already live there.
    """
    decisions: List[PageDecision] = []
    for sample in hot_pages:
        if len(decisions) >= budget:
            break
        total = sample.total
        if total == 0:
            continue
        dominant = sample.dominant_node
        if sample.node_accesses[dominant] < single_node_share * total:
            continue
        current = placement(sample.page)
        if current is None or current == dominant:
            continue
        decisions.append(
            PageDecision(sample.page, sample.domain_id, Action.MIGRATE, dominant)
        )
    return decisions


def interleave_decisions(
    hot_pages: Sequence[HotPageSample],
    placement: PlacementFn,
    overloaded: Sequence[int],
    underloaded: Sequence[int],
    budget: int,
    rng: np.random.Generator,
) -> List[PageDecision]:
    """Randomly spread hot pages from overloaded to underloaded nodes."""
    if not overloaded or not underloaded:
        return []
    overloaded_set = set(overloaded)
    targets = list(underloaded)
    decisions: List[PageDecision] = []
    for sample in hot_pages:
        if len(decisions) >= budget:
            break
        current = placement(sample.page)
        if current is None or current not in overloaded_set:
            continue
        dst = int(targets[rng.integers(len(targets))])
        decisions.append(
            PageDecision(sample.page, sample.domain_id, Action.INTERLEAVE, dst)
        )
    return decisions


def replication_decisions(
    hot_pages: Sequence[HotPageSample],
    placement: PlacementFn,
    budget: int,
    max_write_fraction: float = 0.05,
    min_sharer_nodes: int = 2,
) -> List[PageDecision]:
    """Replicate hot, (almost) read-only pages shared by several nodes.

    Kept for completeness and for the ablation benchmark; the engine
    disables it by default, like the paper's Xen port.
    """
    decisions: List[PageDecision] = []
    for sample in hot_pages:
        if len(decisions) >= budget:
            break
        if sample.write_fraction > max_write_fraction:
            continue
        sharer_nodes = sum(1 for c in sample.node_accesses if c > 0)
        if sharer_nodes < min_sharer_nodes:
            continue
        current = placement(sample.page)
        if current is None:
            continue
        decisions.append(
            PageDecision(sample.page, sample.domain_id, Action.REPLICATE, current)
        )
    return decisions


def scalar_decide(
    config: CarrefourConfig,
    rng: np.random.Generator,
    metrics: CarrefourMetrics,
    hot_pages: Sequence[HotPageSample],
    placement: PlacementFn,
) -> IterationResult:
    """``UserComponent.decide`` as the original per-sample walk.

    Heuristics are chosen from the global metrics exactly as in the
    engine, then the scalar heuristics above pick pages one sample at a
    time, with the shared budget and first-decision-wins dedup.
    """
    result = IterationResult(metrics=metrics)
    if metrics.access_rate_per_s < config.min_access_rate_per_s:
        return result

    result.interleave_enabled = metrics.imbalance > config.imbalance_threshold
    congested = (
        metrics.max_link_rho > config.link_rho_threshold
        or metrics.local_fraction < config.locality_threshold
    )
    result.migration_enabled = congested
    result.replication_enabled = congested and config.enable_replication

    budget = config.migration_budget
    decided_pages = set()

    def remaining() -> int:
        return budget - len(result.decisions)

    if result.replication_enabled and remaining() > 0:
        for decision in replication_decisions(hot_pages, placement, remaining()):
            result.decisions.append(decision)
            decided_pages.add(decision.page)

    if result.migration_enabled and remaining() > 0:
        for decision in migration_decisions(
            hot_pages,
            placement,
            remaining(),
            config.single_node_share,
        ):
            if decision.page not in decided_pages:
                result.decisions.append(decision)
                decided_pages.add(decision.page)

    if result.interleave_enabled and remaining() > 0:
        candidates = [s for s in hot_pages if s.page not in decided_pages]
        for decision in interleave_decisions(
            candidates,
            placement,
            metrics.overloaded_nodes,
            metrics.underloaded_nodes,
            remaining(),
            rng,
        ):
            result.decisions.append(decision)
            decided_pages.add(decision.page)
    return result
