"""Hardware performance counters and hot-page sampling.

Real Carrefour consumes AMD Instruction-Based Sampling: per-node memory
access counts, interconnect link utilisation, and a sampled stream of hot
physical pages annotated with which nodes access them. The simulated
counters expose the same information: the access matrix is exact per
epoch, and :class:`HotPageBatch` carries the sampled pages as columns
(built by the simulation's IBS sampler, ``AppRun._sample_hot_pages``).

The paper notes (Table 1 footnote) that Carrefour monopolises the counter
registers, which is why Table 1 only reports first-touch/round-4K runs; we
model that exclusivity with an ``owner`` claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np

#: Bytes transferred per memory access (one cache line).
CACHE_LINE_BYTES = 64


@dataclass(frozen=True, eq=False)
class HotPageBatch:
    """One epoch's IBS hot-page samples as columns, one row per sample.

    Attributes:
        pages: page identifiers (gpfns for hypervisor Carrefour, vpfns in
            Linux), int64.
        domains: owning domain per sample (0 in native mode), int64.
        accesses: ``(k, num_nodes)`` int64 per-node access counts.
        write_fraction: fraction of sampled accesses that were writes,
            float64.

    The columns are write-protected: the batch is shared by the policy
    callback and the engine's archived observation, so the arrays handed
    in are frozen in place (``setflags(write=False)``).
    """

    pages: np.ndarray
    domains: np.ndarray
    accesses: np.ndarray
    write_fraction: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("pages", np.int64),
            ("domains", np.int64),
            ("accesses", np.int64),
            ("write_fraction", np.float64),
        ):
            column = np.asarray(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.pages)

    @classmethod
    @lru_cache(maxsize=None)
    def empty(cls, num_nodes: int = 0) -> "HotPageBatch":
        """A batch without samples over ``num_nodes`` nodes.

        Every observation of a static policy carries one, so the
        (immutable) batch is built once per node count and shared.
        """
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty((0, num_nodes), dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )


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

