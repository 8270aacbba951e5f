"""Self-test of the benchmark's correctness checks and exact counts.

Usage (from the repository root)::

    python3 e2ebench/selftest.py                  # check; exit 1 on failure
    python3 e2ebench/selftest.py --write-digests  # rewrite digests.json

It checks that:

* each workload's cold store matches the digest committed in
  ``digests.json`` for every committed seed, and the ``batched`` store
  equals the ``static`` and ``carrefour`` stores merged, byte for byte;
* two traced runs of the same seed give identical counts and ratios,
  leave no wrapper installed, and write the untraced run's store;
* the multi-run layer works only on ``batched`` and IBS samples are
  taken only where a dynamic policy runs;
* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints.

``--write-digests`` is for a change that alters simulated results on
purpose; such a change must say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import run  # sets the BLAS thread count and sys.path before numpy loads
import layers
from workloads import WORKLOADS, declare, resolve_pass, same_results, store_digest

#: The default seed and one held-out seed.
DIGEST_SEEDS = (42, 7)


def cold_stores(seed: int, workdir: Path) -> Dict[str, Path]:
    """One untraced cold pass of every workload into its own directory."""
    stores = {}
    for name, workload in WORKLOADS.items():
        stores[name] = workdir / f"{name}-{seed}"
        resolve_pass(workload, seed, declare(workload, seed), stores[name])
    return stores


def traced_metrics(name: str, seed: int, workdir: Path, failures: List[str]) -> Dict[str, float]:
    workload = WORKLOADS[name]
    declared = declare(workload, seed)
    store = Path(tempfile.mkdtemp(prefix=f"traced-{name}-", dir=workdir))
    tracer = layers.LayerTracer()
    with tracer:
        cold = resolve_pass(workload, seed, declared, store)
        warm = resolve_pass(workload, seed, declared, store)
    left = tracer.leftover_wrappers()
    if left:
        failures.append(f"{name}: wrappers left installed: {left}")
    if not same_results(cold, warm):
        failures.append(f"{name}: traced warm pass differs from the cold pass")
    metrics = layers.layer_metrics(*tracer.take())
    metrics["store_digest"] = store_digest(store)
    shutil.rmtree(store)
    return metrics


def check_benchmark_json(failures: List[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if end_to_end != dict(run.END_TO_END):
        failures.append(f"BENCHMARK.json end_to_end {end_to_end} != run.py {dict(run.END_TO_END)}")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: unit for name, unit, _b, _v in layers.LAYER_METRICS}
    printed[run.TRACE_OVERHEAD[0]] = run.TRACE_OVERHEAD[1]
    if per_layer != printed:
        failures.append("BENCHMARK.json per_layer differs from layers.LAYER_METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main(argv: List[str]) -> int:
    write = argv == ["--write-digests"]
    if argv and not write:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures: List[str] = []
    run.OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        committed = json.loads(run.DIGESTS_FILE.read_text())
        digests: Dict[str, Dict[str, str]] = {}
        for seed in DIGEST_SEEDS:
            stores = cold_stores(seed, workdir)
            digests[str(seed)] = {name: store_digest(path) for name, path in stores.items()}
            union = store_digest(stores["static"], stores["carrefour"])
            if digests[str(seed)]["batched"] != union:
                failures.append(f"seed {seed}: batched store != static + carrefour stores")
            if not write and committed.get(str(seed)) != digests[str(seed)]:
                failures.append(
                    f"seed {seed}: digests {digests[str(seed)]} != committed {committed.get(str(seed))}"
                )
        if write:
            run.write_json(run.DIGESTS_FILE, digests)
            print(f"wrote {run.DIGESTS_FILE}")

        seed = DIGEST_SEEDS[0]
        for name in WORKLOADS:
            first = traced_metrics(name, seed, workdir, failures)
            second = traced_metrics(name, seed, workdir, failures)
            for metric, unit, _better, _value in layers.LAYER_METRICS:
                if unit != "s" and first[metric] != second[metric]:
                    failures.append(
                        f"{name}: {metric} not exact: {first[metric]} then {second[metric]}"
                    )
            if first["store_digest"] != digests[str(seed)][name]:
                failures.append(f"{name}: traced store differs from the untraced store")
            batched = name == "batched"
            for metric in ("multirun.run_worlds.self_s", "multirun.run_worlds.worlds_per_call"):
                if (first[metric] > 0) != batched:
                    failures.append(f"{name}: {metric} = {first[metric]}")
            samples = first["instance.build_observation.samples"]
            if (samples > 0) != (name != "static"):
                failures.append(f"{name}: instance.build_observation.samples = {samples}")
            print(f"{name}: traced twice, counts compared")
        check_benchmark_json(failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
