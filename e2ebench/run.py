"""End-to-end scenario benchmark: cold and warm run-store resolution.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload static --seed 42 --seconds 40 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it under the layer tracer (``layers.py``)
and prints the per-layer metrics. Either way the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, a result
file with the host context is written under ``e2ebench/out/``, and the
exit code is 1 when a correctness check failed. See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the solver's matrices are tiny, and idle BLAS workers
# spinning on a shared host only add noise. Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import mean, median
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import summary  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    PassResult,
    Workload,
    declare,
    resolve_pass,
    same_results,
    store_digest,
)

#: Committed store digests: ``{seed: {workload: sha256}}``.
DIGESTS_FILE = HERE / "digests.json"

#: Untraced runs repeat, until ``--seconds`` is spent and at least
#: ``MIN_COLD_PASSES`` times, one cold pass followed by ``WARM_PER_COLD``
#: warm passes over the store it filled, with the calibration kernel
#: before and after the cold pass and after each warm pass.
#: ``SETUP_PROBES`` set-up probes (a fresh interpreter, timed until its
#: store is open and its requests declared) are spread evenly over the
#: same window.
MIN_COLD_PASSES = 3
WARM_PER_COLD = 5
SETUP_PROBES = 10
#: Traced runs: at least this many (untraced cold, traced cold + warm)
#: pairs, so every count is seen twice.
MIN_TRACED_PAIRS = 2

END_TO_END = (
    ("cold_s", "s"),
    ("warm_s", "s"),
    ("epochs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Reported and written to the result file, but not gated: it is 0
#: whenever the program is correct, and gated metrics must be non-zero.
ERROR_RATE = ("error_rate", "ratio")
TRACE_OVERHEAD = ("trace_overhead", "ratio")


# ----------------------------------------------------------------------
# Host-speed calibration

#: The calibration kernel's time on the reference host (2-vCPU Xeon,
#: 2.0 GHz, uncontended). Timings are reported in reference-host seconds.
CALIB_REF_S = 0.035


def calibration_kernel() -> float:
    """Seconds taken by a fixed interpreter-and-memory workload.

    It builds and probes a 100k-entry dict and makes small NumPy calls,
    the mix the simulator spends its time in. On a shared host a
    neighbour slows this kernel and the simulator together, by up to 2x
    for phases of seconds to minutes, so a run's mean kernel time
    measures how contended that run was.
    """
    start = perf_counter()
    table = {i: (i * 7919) % 100_003 for i in range(100_000)}
    key, acc = 1, 0
    for _ in range(100_000):
        key = table[key % 100_000]
        acc += key
    row = np.zeros(8)
    for i in range(2_000):
        np.add.at(row, i % 8, 1.0)
    return perf_counter() - start


def trimmed_mean(samples: Sequence[float]) -> float:
    """Mean of the samples without the slowest tenth (GC pauses, stalls)."""
    kept = sorted(samples)[: len(samples) - len(samples) // 10]
    return mean(kept)


def normalised(samples: Sequence[float], calib: Sequence[float]) -> float:
    """``samples`` rescaled from this run's host speed to the reference
    host's: ``trimmed_mean(samples) * CALIB_REF_S / trimmed_mean(calib)``.

    The kernel runs interleaved with the passes, so both means cover the
    same mix of slow and fast host phases. Medians would not: a 10 ms
    warm pass falls wholly inside one phase, so its median jumps between
    the fast and the slow band from run to run.
    """
    return trimmed_mean(samples) * CALIB_REF_S / trimmed_mean(calib)


# ----------------------------------------------------------------------
# Host context


def host_context(seed: int, calib: Sequence[float]) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "calib_s": trimmed_mean(calib),
    }


# ----------------------------------------------------------------------
# Checks


class Checks:
    """Correctness failures seen during one benchmark run."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def expected_digest(workload: Workload, seed: int) -> Optional[str]:
    committed = json.loads(DIGESTS_FILE.read_text())
    return committed.get(str(seed), {}).get(workload.name)


def check_cold(
    checks: Checks,
    workload: Workload,
    cold: PassResult,
    digest: str,
    reference: Optional[str],
    expected: Optional[str],
) -> None:
    """A cold pass executed every distinct request and wrote the right store."""
    checks.expect(cold.failed == 0, f"cold pass: {cold.failed} requests failed")
    checks.expect(
        cold.executed == len(cold.results),
        f"cold pass executed {cold.executed} of {len(cold.results)} requests",
    )
    if reference is not None:
        checks.expect(digest == reference, f"store digest {digest} != reference {reference}")
    if expected is not None:
        checks.expect(
            digest == expected,
            f"store digest {digest} != committed {expected} for {workload.name}",
        )


def check_warm(checks: Checks, warm: PassResult, cold: PassResult) -> None:
    """A warm pass hit every request and returned the cold pass's results."""
    checks.expect(warm.failed == 0, f"warm pass: {warm.failed} requests failed")
    checks.expect(warm.executed == 0, f"warm pass executed {warm.executed} requests")
    checks.expect(same_results(warm, cold), "warm pass results differ from the cold pass")


def serial_reference(workload: Workload, seed: int, declared, workdir: Path) -> Optional[str]:
    """The serial store digest a batched workload must reproduce."""
    if workload.batch_worlds == 1:
        return None
    store = workdir / "serial-reference"
    resolve_pass(workload, seed, declared, store, batch_worlds=1)
    digest = store_digest(store)
    shutil.rmtree(store)
    return digest


# ----------------------------------------------------------------------
# Set-up probes


def probe_setup(workload: Workload, seed: int, workdir: Path) -> float:
    """Seconds from launching a fresh interpreter until its store is open
    and its requests are declared (it reports ``ready`` and exits)."""
    store = Path(tempfile.mkdtemp(prefix="probe-", dir=workdir))
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload.name, "--seed", str(seed), "--store", str(store),
    ]
    start = perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    shutil.rmtree(store, ignore_errors=True)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def setup_probe_main(workload: Workload, seed: int, store: Path) -> int:
    from repro.runstore import open_store

    open_store(str(store))
    declare(workload, seed)
    print("ready", flush=True)
    return 0


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics


def measure(workload: Workload, seed: int, seconds: float, workdir: Path, checks: Checks):
    declared = declare(workload, seed)
    expected = expected_digest(workload, seed)
    setup: List[float] = []
    cold_times: List[float] = []
    warm_times: List[float] = []
    calib: List[float] = []
    attempted = failed = 0
    epochs = 0
    digests = set()
    start = perf_counter()
    reference = serial_reference(workload, seed, declared, workdir)
    while True:
        began = perf_counter()
        if len(setup) < SETUP_PROBES and began - start >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe_setup(workload, seed, workdir))
        store = workdir / f"pass-{len(cold_times)}"
        calib.append(calibration_kernel())
        cold = resolve_pass(workload, seed, declared, store)
        calib.append(calibration_kernel())
        digest = store_digest(store)
        digests.add(digest)
        check_cold(checks, workload, cold, digest, reference, expected)
        cold_times.append(cold.seconds)
        epochs = cold.epochs()
        attempted += cold.attempted
        failed += cold.failed
        for _ in range(WARM_PER_COLD):
            warm = resolve_pass(workload, seed, declared, store)
            calib.append(calibration_kernel())
            check_warm(checks, warm, cold)
            warm_times.append(warm.seconds)
            attempted += warm.attempted
            failed += warm.failed
        shutil.rmtree(store)
        now = perf_counter()
        if len(cold_times) >= MIN_COLD_PASSES and now + (now - began) > start + seconds:
            break
    checks.expect(len(digests) == 1, f"cold passes wrote {len(digests)} different stores")
    cold_s = normalised(cold_times, calib)
    metrics = {
        "cold_s": cold_s,
        "warm_s": normalised(warm_times, calib),
        "epochs_per_s": epochs / cold_s,
        "setup_s": normalised(setup, calib),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"cold_s": cold_times, "warm_s": warm_times, "setup_s": setup, "calib_s": calib}
    return metrics, samples, attempted, failed, digests.pop()


# ----------------------------------------------------------------------
# Traced run: per-layer metrics


def measure_traced(workload: Workload, seed: int, seconds: float, workdir: Path, checks: Checks):
    declared = declare(workload, seed)
    expected = expected_digest(workload, seed)
    plain_times: List[float] = []
    traced_times: List[float] = []
    per_pair: List[Dict[str, float]] = []
    calib: List[float] = []
    exported: Optional[list] = None
    attempted = failed = 0
    start = perf_counter()
    reference = serial_reference(workload, seed, declared, workdir)
    while True:
        began = perf_counter()
        calib.append(calibration_kernel())
        pair = len(per_pair)
        plain_store = workdir / f"plain-{pair}"
        traced_store = workdir / f"traced-{pair}"
        tracer = layers.LayerTracer()

        def traced_passes():
            with tracer:
                with tracer.root("bench.cold_pass"):
                    cold = resolve_pass(workload, seed, declared, traced_store)
                with tracer.root("bench.warm_pass"):
                    warm = resolve_pass(workload, seed, declared, traced_store)
            return cold, warm

        # Alternate which side runs first, so warm-up and drift fall on
        # both sides of the overhead ratio.
        if pair % 2 == 0:
            plain = resolve_pass(workload, seed, declared, plain_store)
            cold, warm = traced_passes()
        else:
            cold, warm = traced_passes()
            plain = resolve_pass(workload, seed, declared, plain_store)
        plain_digest = store_digest(plain_store)
        check_cold(checks, workload, plain, plain_digest, reference, expected)
        shutil.rmtree(plain_store)
        left = tracer.leftover_wrappers()
        checks.expect(not left, f"wrappers left installed: {left}")
        traced_digest = store_digest(traced_store)
        shutil.rmtree(traced_store)
        checks.expect(
            traced_digest == plain_digest,
            f"traced store {traced_digest} != untraced store {plain_digest}",
        )
        check_cold(checks, workload, cold, traced_digest, reference, expected)
        check_warm(checks, warm, cold)
        checks.expect(same_results(cold, plain), "traced results differ from untraced")
        spans, extra = tracer.take()
        if exported is None:
            exported = spans
        per_pair.append(layers.layer_metrics(spans, extra))
        plain_times.append(plain.seconds)
        traced_times.append(cold.seconds)
        attempted += plain.attempted + cold.attempted + warm.attempted
        failed += plain.failed + cold.failed + warm.failed
        now = perf_counter()
        if len(per_pair) >= MIN_TRACED_PAIRS and now + (now - began) > start + seconds:
            break

    metrics: Dict[str, float] = {}
    for name, unit, _better, _value in layers.LAYER_METRICS:
        values = [pair[name] for pair in per_pair]
        if unit == "s":
            metrics[name] = median(values)
        else:
            checks.expect(
                len(set(values)) == 1, f"{name} differs between traced passes: {values}"
            )
            metrics[name] = values[0]
    metrics[TRACE_OVERHEAD[0]] = trimmed_mean(traced_times) / trimmed_mean(plain_times)
    return metrics, exported, calib, attempted, failed


# ----------------------------------------------------------------------
# Output


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe_main(workload, args.seed, args.store)

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    checks = Checks()
    try:
        if args.trace:
            metrics, spans, calib, attempted, failed = measure_traced(
                workload, args.seed, args.seconds, workdir, checks
            )
            host = host_context(args.seed, calib)
            units = {name: unit for name, unit, _b, _v in layers.LAYER_METRICS}
            units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
            span_file = OUT / f"spans-{workload.name}.json"
            write_json(span_file, summary.export(spans, workload.name, host))
            print(summary.format_table(spans))
            print(f"spans written to {span_file.relative_to(ROOT)}")
            samples: Dict[str, List[float]] = {}
            digest = None
        else:
            metrics, samples, attempted, failed, digest = measure(
                workload, args.seed, args.seconds, workdir, checks
            )
            host = host_context(args.seed, samples["calib_s"])
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not checks.ok:
        failed = attempted
        for failure in checks.failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
    error_rate = failed / attempted
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for name, unit in units.items():
        line = f"  {name:40s} {metrics[name]:.6g} {unit}"
        if name in samples:
            values = samples[name]
            line += (
                f"  (raw wall time over {len(values)} samples: mean {mean(values):.6g},"
                f" min {min(values):.6g}, median {median(values):.6g}, max {max(values):.6g})"
            )
        print(line)
    print(f"  {ERROR_RATE[0]:40s} {error_rate:.6g} {ERROR_RATE[1]}  ({failed} of {attempted} requests)")

    result = {
        "correct": checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    record = dict(result, workload=workload.name, trace=args.trace, host=host)
    record["metrics"] = dict(result["metrics"])
    record["metrics"][ERROR_RATE[0]] = {"value": error_rate, "unit": ERROR_RATE[1]}
    record.update(failures=checks.failures, store_digest=digest, samples=samples)
    write_json(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
