"""Carrefour's three per-page heuristics (paper section 3.4).

* **interleave**: when memory controllers are overloaded, randomly migrate
  hot pages from overloaded nodes to underloaded nodes;
* **migration**: when the interconnect saturates, migrate hot pages that
  are remotely accessed by a *single* node to that node;
* **replication**: replicate hot read-only pages accessed by several
  nodes. The paper implements but *discards* this heuristic in the Xen
  port (marginal gains, deep memory-manager changes), so our engine ships
  it disabled by default.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.hardware.counters import HotPageSample


class Action(enum.Enum):
    """What to do with one hot page."""

    MIGRATE = "migrate"
    INTERLEAVE = "interleave"
    REPLICATE = "replicate"


@dataclass(frozen=True)
class PageDecision:
    """One decision of the user component.

    Attributes:
        page: the page (gpfn in hypervisor mode, vpfn in Linux mode).
        domain_id: owning domain.
        action: which heuristic fired.
        dst_node: target node (meaningless for REPLICATE).
    """

    page: int
    domain_id: int
    action: Action
    dst_node: int


#: Maps a page array to the node backing each page (-1 where unmapped).
PlacementFn = Callable[[np.ndarray], np.ndarray]


def sample_arrays(hot_pages: Sequence[HotPageSample]):
    """Columnar arrays over a hot-page sample list.

    The decide path works on these instead of per-sample attribute
    access: returns ``(pages, domains, accesses, write_fraction)``
    where ``accesses`` is the (num_samples, num_nodes) count matrix.
    """
    n = len(hot_pages)
    pages = np.fromiter((s.page for s in hot_pages), dtype=np.int64, count=n)
    domains = np.fromiter(
        (s.domain_id for s in hot_pages), dtype=np.int64, count=n
    )
    accesses = np.array([s.node_accesses for s in hot_pages], dtype=np.int64)
    write_fraction = np.fromiter(
        (s.write_fraction for s in hot_pages), dtype=np.float64, count=n
    )
    return pages, domains, accesses, write_fraction


def migration_candidates(
    accesses: np.ndarray, nodes: np.ndarray, single_node_share: float
):
    """Samples the migration heuristic may move, and where to.

    Returns ``(mask, dominant)``: which samples qualify (their dominant
    node holds at least ``single_node_share`` of the accesses and the
    page is mapped elsewhere), and each sample's dominant node.
    """
    totals = accesses.sum(axis=1)
    dominant = np.argmax(accesses, axis=1)
    dom_counts = accesses[np.arange(accesses.shape[0]), dominant]
    mask = (
        (totals > 0)
        & (dom_counts >= single_node_share * totals)
        & (nodes >= 0)
        & (nodes != dominant)
    )
    return mask, dominant


def interleave_candidates(
    nodes: np.ndarray, overloaded: Sequence[int]
) -> np.ndarray:
    """Samples the interleave heuristic may move: mapped on an
    overloaded node."""
    return (nodes >= 0) & np.isin(
        nodes, np.asarray(list(overloaded), dtype=np.int64)
    )


def replication_candidates(
    accesses: np.ndarray,
    write_fraction: np.ndarray,
    nodes: np.ndarray,
    max_write_fraction: float = 0.05,
    min_sharer_nodes: int = 2,
) -> np.ndarray:
    """Samples the replication heuristic may copy: mapped, (almost)
    read-only and accessed from at least ``min_sharer_nodes`` nodes.

    Kept for completeness and for the ablation benchmark; the engine
    disables replication by default, like the paper's Xen port.
    """
    sharers = (accesses > 0).sum(axis=1)
    return (
        (write_fraction <= max_write_fraction)
        & (sharers >= min_sharer_nodes)
        & (nodes >= 0)
    )
