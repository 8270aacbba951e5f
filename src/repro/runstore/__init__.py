"""Persistent, content-addressed storage for simulation runs.

A run store maps a :meth:`~repro.sim.runspec.RunRequest.cache_key` to the
list of :class:`~repro.sim.results.RunResult` the engine produced for that
request (one per VM). Two backends:

* :class:`~repro.runstore.memory.MemoryRunStore` — a per-process dict;
* :class:`~repro.runstore.disk.DiskRunStore` — one JSON file per key
  under a ``.runstore/`` directory, surviving across processes and
  invalidated wholesale when :data:`repro.sim.engine.ENGINE_VERSION`
  bumps.

Both backends count hits and misses so the pipeline CLI can surface cache
effectiveness (the Figure 6 <- Figure 2 and Figure 10 <- Figure 7 run
sharing is visible as hits).
"""

from repro.runstore.base import RunStore, StoreStats
from repro.runstore.disk import DiskRunStore
from repro.runstore.memory import MemoryRunStore


def open_store(spec=None) -> RunStore:
    """Open a store from a CLI-style spec.

    ``None``, ``""`` or ``"memory"`` give a fresh in-memory store; any
    other string is a directory path for an on-disk store.
    """
    if spec is None or spec == "" or spec == "memory":
        return MemoryRunStore()
    return DiskRunStore(spec)


__all__ = [
    "RunStore",
    "StoreStats",
    "MemoryRunStore",
    "DiskRunStore",
    "open_store",
]
