"""Performance-benchmark harness for the simulation engine.

``python -m repro.perfbench --label pr`` times :func:`repro.sim.engine.
run_world` on the world presets (2/4/8 nodes, 1-2 VMs, plus the
page-heavy ``xlarge``), the batched vs per-page live-migration copy and
the multi-run engine vs a serial sweep, and writes ``BENCH_<label>.json``
(median, IQR, epochs/s per world). The committed reference lives at
``benchmarks/perf/baseline.json``. End-to-end scenario timing is the
job of ``e2ebench/``.

Timing goes through the stdlib :mod:`timeit` module; every stochastic
input is seeded from :class:`repro.config.SimConfig` (RPR002: no wall
clock, no unseeded randomness).
"""

from repro.perfbench.bench import bench_world, run_benchmarks
from repro.perfbench.worlds import WORLD_PRESETS, build_world

__all__ = [
    "WORLD_PRESETS",
    "bench_world",
    "build_world",
    "run_benchmarks",
]
