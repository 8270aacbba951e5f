"""The benchmark's workloads and the store-resolution pass it times.

A pass resolves a workload's scenario set the way
``python -m repro.experiments run <names> --store DIR`` does: one
:class:`~repro.runner.Runner` with ``jobs=1`` over ``open_store(DIR)``,
one ``resolve`` of every declared request, then each scenario's
``assemble``. A *cold* pass starts from an empty directory, so every
request misses, executes and is written; a *warm* pass opens a fresh
store and runner on a directory a cold pass filled, so every request
hits.

Why these workloads (see README.md for the measured layer shares):

* ``static`` -- Figure 1: native Linux first-touch and stock Xen
  round-1G, no dynamic policy. Stresses the guest fault path, the
  solver and the engine loop; IBS sampling and Carrefour never run.
* ``carrefour`` -- Figure 7 (Xen+ round-1G, first-touch +/- Carrefour,
  round-4K +/- Carrefour). IBS sampling, Carrefour decide/apply, page
  migration, the pv page-event queue and hypervisor faults dominate;
  cg.C is the paper's headline application.
* ``batched`` -- the union of both request sets through the multi-run
  engine (``batch_worlds=16``), the only workload where
  :mod:`repro.core.multirun` runs. Its store must equal the serial one
  byte for byte.

The application lists are small subsets of the paper's (all 29 apps for
Figure 1) so that one cold pass takes one to two seconds and a run holds
dozens of them; each subset keeps its workload's property.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.experiments import common
from repro.runner import Runner
from repro.runstore import open_store
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest

#: Figure 1 subset, one application per suite (PARSEC, NPB, Metis,
#: graph analytics, YCSB). wc and bfs bring the guest fault path to
#: about a third of the traced time, as in the full figure.
STATIC_APPS: Tuple[str, ...] = ("streamcluster", "cg.C", "wc", "bfs", "cassandra")

#: Figure 7 subset: cg.C, the paper's headline (about 6x faster with
#: first-touch than round-1G), and streamcluster, an MCS-lock application.
CARREFOUR_APPS: Tuple[str, ...] = ("cg.C", "streamcluster")


@dataclass(frozen=True)
class Workload:
    """A scenario set resolved through one runner configuration.

    Attributes:
        name: workload name given on the command line.
        scenarios: ``(scenario module, applications)`` pairs, resolved
            together in one ``Runner.resolve`` call.
        batch_worlds: the runner's multi-run group size (1 = serial).
    """

    name: str
    scenarios: Tuple[Tuple[str, Tuple[str, ...]], ...]
    batch_worlds: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("static", (("fig1", STATIC_APPS),), 1),
        Workload("carrefour", (("fig7", CARREFOUR_APPS),), 1),
        Workload("batched", (("fig1", STATIC_APPS), ("fig7", CARREFOUR_APPS)), 16),
    )
}


def seed_config(seed: int) -> SimConfig:
    """The request-construction config a benchmark seed stands for."""
    return SimConfig(rng_seed=seed)


def declare(workload: Workload, seed: int) -> List[Tuple[object, Tuple[str, ...], List[RunRequest]]]:
    """``(scenario module, apps, requests)`` for every scenario of ``workload``."""
    declared = []
    with common.configured(seed_config(seed)):
        for module_name, apps in workload.scenarios:
            module = importlib.import_module(f"repro.experiments.{module_name}")
            declared.append((module, apps, module.required_runs(list(apps))))
    return declared


@dataclass
class PassResult:
    """One timed resolution of a workload.

    Attributes:
        seconds: host wall time from opening the store to the last
            ``assemble`` returning.
        results: run results by request cache key.
        assembled: each scenario's assembled result (None if it failed).
        attempted: requests resolved (declared, before dedup).
        failed: requests of scenarios that raised.
        executed: requests the runner executed (store misses).
    """

    seconds: float
    results: Dict[str, List[RunResult]]
    assembled: List[object]
    attempted: int
    failed: int
    executed: int

    def epochs(self) -> int:
        """Simulated run-epochs across every distinct request."""
        return sum(r.epochs for runs in self.results.values() for r in runs)


def resolve_pass(
    workload: Workload,
    seed: int,
    declared: Sequence[Tuple[object, Tuple[str, ...], List[RunRequest]]],
    store_dir: Path,
    batch_worlds: Optional[int] = None,
) -> PassResult:
    """Resolve ``declared`` through a fresh runner over ``store_dir``.

    A raise inside ``resolve`` fails every request; a raise inside one
    scenario's ``assemble`` fails that scenario's requests. Tracebacks go
    to stderr.
    """
    requests = [req for _m, _a, reqs in declared for req in reqs]
    results: Dict[str, List[RunResult]] = {}
    assembled: List[object] = [None] * len(declared)
    failed = 0
    with common.configured(seed_config(seed)):
        start = perf_counter()
        runner = Runner(
            store=open_store(str(store_dir)),
            jobs=1,
            batch_worlds=workload.batch_worlds if batch_worlds is None else batch_worlds,
        )
        try:
            resolved = runner.resolve(requests)
        except Exception:  # a failed request is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            resolved = None
            failed = len(requests)
        if resolved is not None:
            for i, (module, apps, reqs) in enumerate(declared):
                try:
                    assembled[i] = module.assemble(resolved, apps=list(apps))
                except Exception:  # a failed scenario is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    failed += len(reqs)
        seconds = perf_counter() - start
    if resolved is not None:
        for req in requests:
            results[req.cache_key()] = resolved.get(req)
    return PassResult(
        seconds, results, assembled, len(requests), failed, runner.stats.executed
    )


def store_digest(*store_dirs: Path) -> str:
    """SHA-256 over the sorted entries (name and bytes) of the stores.

    Several directories are merged first, so the digest of the serial
    ``static`` and ``carrefour`` stores together equals the digest of
    the ``batched`` store when their entries agree byte for byte.
    """
    entries: Dict[str, bytes] = {}
    for store_dir in store_dirs:
        for path in Path(store_dir).glob("*.json"):
            entries[path.name] = path.read_bytes()
    digest = hashlib.sha256()
    for name in sorted(entries):
        digest.update(name.encode())
        digest.update(b"\0")
        digest.update(entries[name])
        digest.update(b"\0")
    return digest.hexdigest()


def same_results(a: PassResult, b: PassResult) -> bool:
    """Whether two passes returned equal runs and equal assembled figures."""
    return a.results == b.results and a.assembled == b.assembled
