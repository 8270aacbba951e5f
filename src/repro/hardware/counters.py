"""Hardware performance counters and hot-page sampling.

Real Carrefour consumes AMD Instruction-Based Sampling: per-node memory
access counts, interconnect link utilisation, and a sampled stream of hot
physical pages annotated with which nodes access them. The simulated
counters expose the same information, computed exactly per epoch and
optionally thinned by a sampling rate (IBS samples a small fraction of
instructions; exact counts thinned stochastically are a faithful stand-in).

The paper notes (Table 1 footnote) that Carrefour monopolises the counter
registers, which is why Table 1 only reports first-touch/round-4K runs; we
model that exclusivity with an ``owner`` claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Bytes transferred per memory access (one cache line).
CACHE_LINE_BYTES = 64


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


class PerfCounters:
    """Per-epoch access matrix plus cumulative history.

    ``matrix[src, dst]`` counts memory accesses issued by CPUs of node
    ``src`` to frames of node ``dst`` in the current epoch.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.matrix = np.zeros((num_nodes, num_nodes), dtype=np.float64)
        self.epoch_history: List[np.ndarray] = []
        self._owner: Optional[str] = None

    # ------------------------------------------------------------------
    # Exclusivity (Carrefour uses all counter registers)

    def claim(self, owner: str) -> None:
        """Reserve the counter registers for ``owner``.

        Raises:
            RuntimeError: if another owner already holds them.
        """
        if self._owner is not None and self._owner != owner:
            raise RuntimeError(
                f"performance counters already claimed by {self._owner!r}"
            )
        self._owner = owner

    def release(self, owner: str) -> None:
        """Release a previous claim."""
        if self._owner == owner:
            self._owner = None

    @property
    def owner(self) -> Optional[str]:
        return self._owner

    # ------------------------------------------------------------------
    # Recording

    def record(self, src_node: int, dst_node: int, count: float) -> None:
        """Account ``count`` accesses from ``src_node`` to ``dst_node``."""
        self.matrix[src_node, dst_node] += count

    def record_matrix(self, matrix: np.ndarray) -> None:
        """Accumulate a whole per-epoch access matrix (engine hot path)."""
        self.matrix += matrix

    def end_epoch(self) -> np.ndarray:
        """Archive and reset the per-epoch matrix; returns the snapshot.

        The returned array *is* the archived history entry, frozen
        (``setflags(write=False)``): a caller writing through the alias
        would silently rewrite :attr:`epoch_history`.
        """
        snapshot = self.matrix.copy()
        snapshot.setflags(write=False)
        self.epoch_history.append(snapshot)
        self.matrix = np.zeros_like(self.matrix)
        return snapshot

    # ------------------------------------------------------------------
    # Derived metrics

    def node_access_counts(self, matrix: Optional[np.ndarray] = None) -> np.ndarray:
        """Accesses served by each node's memory (column sums)."""
        m = self.matrix if matrix is None else matrix
        return m.sum(axis=0)

    def local_access_fraction(self, matrix: Optional[np.ndarray] = None) -> float:
        """Fraction of accesses that were node-local."""
        m = self.matrix if matrix is None else matrix
        total = m.sum()
        if total == 0:
            return 1.0
        return float(np.trace(m) / total)

    def imbalance(self, matrix: Optional[np.ndarray] = None) -> float:
        """Relative standard deviation of per-node access counts.

        This is the paper's Table 1 "load imbalance" metric: the standard
        deviation around the average number of accesses per node, relative
        to that average (reported as a percentage by the analysis layer).
        """
        counts = self.node_access_counts(matrix)
        mean = counts.mean()
        if mean == 0:
            return 0.0
        return float(counts.std() / mean)


def sample_hot_pages(
    page_profiles: Sequence[HotPageSample],
    sampling_rate: float,
    rng: np.random.Generator,
    max_samples: Optional[int] = None,
) -> List[HotPageSample]:
    """Thin exact page access profiles the way IBS sampling would.

    Each page's per-node counts are binomially subsampled at
    ``sampling_rate``; pages whose sampled total is zero disappear (cold
    pages are invisible to IBS). Results are sorted hottest-first.

    Args:
        page_profiles: exact access profiles from the simulation engine.
        sampling_rate: probability that one access produces a sample.
        rng: random generator (deterministic runs use a seeded one).
        max_samples: optional cap on the number of pages returned.
    """
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling_rate must be in (0, 1]")
    sampled: List[HotPageSample] = []
    for profile in page_profiles:
        counts = np.asarray(profile.node_accesses, dtype=np.int64)
        if sampling_rate >= 1.0:
            thinned = counts
        else:
            thinned = rng.binomial(counts, sampling_rate)
        total = int(thinned.sum())
        if total == 0:
            continue
        sampled.append(
            HotPageSample(
                page=profile.page,
                domain_id=profile.domain_id,
                node_accesses=tuple(int(c) for c in thinned),
                write_fraction=profile.write_fraction,
            )
        )
    sampled.sort(key=lambda s: s.total, reverse=True)
    if max_samples is not None:
        sampled = sampled[:max_samples]
    return sampled
