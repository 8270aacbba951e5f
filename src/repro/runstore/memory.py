"""The in-process run store: a dict keyed by request cache hash."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.runstore.base import RunStore
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest


class MemoryRunStore(RunStore):
    """Dict-backed store; returns the stored objects themselves.

    ``data`` is a plain public dict so callers (tests checking which runs
    two scenarios share) can inspect the key set; ``clear()`` empties it
    *in place*, so a held reference stays live.
    """

    def __init__(self) -> None:
        super().__init__()
        self.data: Dict[str, List[RunResult]] = {}

    def _load(self, key: str) -> Optional[List[RunResult]]:
        return self.data.get(key)

    def _save(self, key: str, results: List[RunResult], request: Optional[RunRequest]) -> None:
        self.data[key] = results

    def __len__(self) -> int:
        return len(self.data)

    def clear(self) -> None:
        self.data.clear()
        self.reset_counters()
