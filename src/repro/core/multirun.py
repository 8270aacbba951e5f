"""Multi-run batched engine: N independent worlds as one numpy program.

PRs 2 and 4 vectorized *inside* one run (the congestion solver, the page
path); a parameter sweep still executed its hundreds of ``RunRequest``s
one world at a time, paying the per-epoch numpy dispatch cost once per
world. This module amortizes it across worlds: a group of requests with
a compatible topology/config signature is built into K live worlds whose
fixed-point solve advances in one structure-of-arrays program —

* per-thread inputs of every active run are flattened into one
  ``(T_total,)`` / ``(T_total, n)`` family of arrays;
* per-run access matrices land in one ``np.add.at`` scatter over a
  ``(R_total, n, n)`` stack, world totals in a ``(W, n, n)`` stack;
* one :meth:`~repro.sim.engine.CongestionSolver.solve_many` call turns
  the stack into per-world utilisations and latency matrices (the
  latency model broadcasts over the world axis; the topology constants —
  hops, route matrix, link bandwidths — are shared by the whole group);
* each world keeps its own exact-fixed-point early exit: a converged
  world's latency matrix is masked out of the damped update (which would
  be the identity on it anyway — an exact fixed point reproduces itself,
  the same argument :data:`~repro.sim.engine.SOLVER_EPSILON` makes for
  the scalar early exit), and the loop stops once every world converged.

Everything per-world stays per-world: commit, observations, policies,
churn, hardware counters and teardown run per run in the scalar order,
so results are **bit-identical** to serial execution — the parity tests
(tests/core, tests/properties) and the store digests of e2ebench's
``batched`` workload hold the line.

Fallback rules (a request executes through plain
:func:`~repro.runner.exec.execute_request` instead of a group) —

* ``cluster`` requests: one world per host, driven in lockstep by the
  cluster scheduler; there is no single world to stack.
* ``config.sanitize_p2m`` requests: the sanitizer is a check knob
  excluded from cache keys; runs that arm it per request stay on the
  scalar path so a trapped violation surfaces with an uncluttered
  single-world stack.
* an active observability session: trace events are ordered by one
  simulated clock per world — interleaving K worlds would reorder them,
  so tracing keeps the serial path (the experiment CLI already forces
  ``--jobs 1`` under ``--trace`` for the same reason).
* a group (or chunk) of one: nothing to batch.

Worlds that end (all runs finished, or the epoch cap) are masked out of
the group at their exact scalar exit time and finalized with the same
``finish(now)`` the scalar driver would have called.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import MultiRunError
from repro.hardware.machine import record_node_traffic_many
from repro.runner.exec import build_world, execute_request
from repro.sim.engine import (
    DEFAULT_MAX_EPOCHS,
    SOLVER_DAMPING,
    SOLVER_EPSILON,
    SOLVER_ITERATIONS,
    CongestionSolver,
    EpochStepper,
    _migrations_of,
    run_world,
)
from repro.sim.environment import World
from repro.sim.instance import AppRun
from repro.sim.results import EpochRecord, RunResult
from repro.sim.runspec import RunRequest


# ----------------------------------------------------------------------
# Grouping

def group_signature(request: RunRequest) -> Optional[str]:
    """The compatibility key of a request, or None when it cannot batch.

    Requests with equal signatures build worlds on the same machine
    preset with the same epoch length and model knobs, so their solver
    constants can be shared. ``rng_seed`` is deliberately excluded — it
    seeds per-world state but never the topology — which is what lets a
    seed sweep batch into one group. Cluster and ``sanitize_p2m``
    requests return None (see the module docstring's fallback rules).
    """
    if request.environment not in ("linux", "xen"):
        return None
    if request.config.sanitize_p2m:
        return None
    config = dict(request.config.result_fields())
    config.pop("rng_seed", None)
    return json.dumps(
        {
            "environment": request.environment,
            "features": request.features,
            "unbatched_hypercalls": request.unbatched_hypercalls,
            "config": config,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


@dataclass
class BatchOutcome:
    """What :func:`execute_batch` did.

    Attributes:
        results: one result list per request, in request order —
            element-wise identical to mapping ``execute_request``.
        batched_runs: requests executed inside SoA groups.
        fallback_runs: requests executed per request (incompatible,
            ungroupable, or left alone in their chunk).
    """

    results: List[List[RunResult]]
    batched_runs: int
    fallback_runs: int


def _chunks(indices: List[int], size: int) -> Iterator[List[int]]:
    for start in range(0, len(indices), size):
        yield indices[start : start + size]


def execute_batch(
    requests: Sequence[RunRequest], batch_worlds: int
) -> BatchOutcome:
    """Execute ``requests``, grouping compatible ones K worlds at a time.

    The results (and therefore the store entries the runner writes) are
    byte-identical to executing each request alone; only the wall clock
    differs. Requests that cannot batch fall back to
    :func:`~repro.runner.exec.execute_request` — execution order across
    requests is irrelevant because request execution is pure.
    """
    batch_worlds = max(1, int(batch_worlds))
    results: List[Optional[List[RunResult]]] = [None] * len(requests)
    groups: dict = {}
    fallback: List[int] = []
    can_batch = batch_worlds > 1 and not obs.enabled()
    for i, request in enumerate(requests):
        signature = group_signature(request) if can_batch else None
        if signature is None:
            fallback.append(i)
        else:
            groups.setdefault(signature, []).append(i)
    for i in fallback:
        results[i] = execute_request(requests[i])
    batched = 0
    for indices in groups.values():
        for chunk in _chunks(indices, batch_worlds):
            if len(chunk) == 1:
                results[chunk[0]] = execute_request(requests[chunk[0]])
                continue
            worlds = [build_world(requests[i]) for i in chunk]
            for i, produced in zip(chunk, run_worlds(worlds)):
                results[i] = produced
            batched += len(chunk)
    return BatchOutcome(
        results=list(results),  # type: ignore[arg-type]
        batched_runs=batched,
        fallback_runs=len(requests) - batched,
    )


# ----------------------------------------------------------------------
# The structure-of-arrays group driver

@dataclass
class _Lane:
    """One live world's slot in the current group epoch."""

    __slots__ = ("pos", "stepper", "active_runs", "dests")

    pos: int
    stepper: EpochStepper
    active_runs: List[AppRun]
    dests: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


class _Flat:
    """Per-thread inputs of every active run, flattened run-major."""

    __slots__ = (
        "D", "src", "active", "shares", "cpu", "tlb", "io",
        "one_minus_sync", "churn", "pending", "avail", "t_run", "t_world",
        "thread_bounds", "run_passes", "num_runs",
    )


def _gather_key(lanes: List[_Lane]) -> Tuple:
    """Identity of everything :func:`_gather` reads, cheap to rebuild.

    Steady-state epochs reuse the previous epoch's flattened arrays: the
    key pins the lane partition (which worlds, in which order), each
    run's cached destination arrays (``id`` — the dest memo hands out a
    *new* frozen array whenever placements or threads changed), the
    pending policy cost, and the CPU-share epoch of the run's scheduler
    (shares can only change when a runqueue does, which bumps
    ``Scheduler.version``; native-Linux runs have no scheduler and fixed
    shares). Every other gathered input is immutable after world build.
    """
    sig: List[Tuple] = []
    for lane in lanes:
        sig.append((id(lane.stepper),))
        for run, dests in zip(lane.active_runs, lane.dests):
            sched = getattr(
                getattr(run.context, "hypervisor", None), "scheduler", None
            )
            sig.append((
                id(run),
                id(dests[0]),
                run.pending_policy_cost,
                id(sched),
                getattr(sched, "version", 0),
            ))
    return tuple(sig)


def _check_compatible(worlds: Sequence[World]) -> None:
    ref = worlds[0]
    ref_topo = ref.machine.topology
    ref_route = ref_topo.route_link_matrix()
    ref_bw = [link.bandwidth_gib_s for link in ref_topo.links]
    for world in worlds[1:]:
        topo = world.machine.topology
        if (
            world.epoch_seconds != ref.epoch_seconds
            or world.machine.num_nodes != ref.machine.num_nodes
            or world.machine.config.traffic_burstiness
            != ref.machine.config.traffic_burstiness
            or topo.memory_controller_gib_s != ref_topo.memory_controller_gib_s
            or [link.bandwidth_gib_s for link in topo.links] != ref_bw
            or not np.array_equal(topo.route_link_matrix(), ref_route)
        ):
            raise MultiRunError(
                f"worlds {ref.label!r} and {world.label!r} are not "
                f"group-compatible (topology/epoch/model mismatch); "
                f"group by repro.core.multirun.group_signature first"
            )


def _gather(lanes: List[_Lane], epoch_seconds: float) -> _Flat:
    """Flatten the group's active runs into structure-of-arrays form.

    Scalar per-run values (op cost, sync fraction, pending policy cost)
    are broadcast to per-thread arrays with ``np.repeat``; using them
    elementwise performs the same float operation the scalar engine's
    scalar-with-array broadcasting does, so nothing changes bitwise.
    The per-thread time budget (``avail``) never depends on the latency
    matrix, so it is folded in here — evaluated once per gather, with
    the same two expressions the scalar engine evaluates per epoch.
    """
    D_parts: List[np.ndarray] = []
    src_parts: List[np.ndarray] = []
    active_parts: List[np.ndarray] = []
    shares_parts: List[np.ndarray] = []
    counts: List[int] = []
    run_world_idx: List[int] = []
    cpu: List[float] = []
    tlb: List[float] = []
    io: List[float] = []
    one_minus_sync: List[float] = []
    churn: List[float] = []
    pending: List[float] = []
    for lane in lanes:
        for run, (D, src, active) in zip(lane.active_runs, lane.dests):
            ctx = run.context
            D_parts.append(D)
            src_parts.append(src)
            active_parts.append(active)
            shares_parts.append(np.array([t.cpu_share for t in run.threads]))
            counts.append(len(run.threads))
            run_world_idx.append(lane.pos)
            cpu.append(run.op_model.cpu_seconds)
            tlb.append(getattr(ctx, "tlb_seconds_per_op", 0.0))
            io.append(ctx.io_seconds_per_op)
            one_minus_sync.append(1.0 - ctx.sync_fraction)
            churn.append(ctx.churn_slowdown)
            pending.append(run.pending_policy_cost)
    flat = _Flat()
    counts_arr = np.array(counts)
    flat.num_runs = len(counts)
    flat.D = np.concatenate(D_parts, axis=0)
    flat.src = np.concatenate(src_parts)
    flat.active = np.concatenate(active_parts)
    flat.shares = np.concatenate(shares_parts)
    flat.cpu = np.repeat(np.array(cpu), counts_arr)
    flat.tlb = np.repeat(np.array(tlb), counts_arr)
    flat.io = np.repeat(np.array(io), counts_arr)
    flat.one_minus_sync = np.repeat(np.array(one_minus_sync), counts_arr)
    flat.churn = np.repeat(np.array(churn), counts_arr)
    flat.pending = np.repeat(np.array(pending), counts_arr)
    flat.t_run = np.repeat(np.arange(flat.num_runs), counts_arr)
    flat.t_world = np.repeat(np.array(run_world_idx), counts_arr)
    flat.thread_bounds = [0] + np.cumsum(counts_arr).tolist()
    # Pass k of _world_totals adds the k-th run of every world that has
    # one: (world indices, run indices), each world at most once.
    per_world = np.array([len(lane.active_runs) for lane in lanes])
    first = np.cumsum(per_world) - per_world
    flat.run_passes = [
        (np.nonzero(per_world > k)[0], first[per_world > k] + k)
        for k in range(int(per_world.max()))
    ]
    avail = epoch_seconds * flat.shares * flat.one_minus_sync / flat.churn
    flat.avail = np.maximum(0.0, avail - flat.pending)
    return flat


def _world_totals(
    run_mats: np.ndarray, flat: _Flat, num_worlds: int, n: int
) -> np.ndarray:
    """Per-world access totals from the per-run stack.

    Single-run worlds (the common sweep shape) alias their run matrix
    directly: the scalar engine's ``zeros + matrix`` accumulation is
    bit-identical to the matrix itself because traffic contributions are
    never ``-0.0``. Multi-run worlds accumulate their run matrices in
    run order — the scalar loop's exact summation order — one pass per
    run position, each pass adding to every world that has a run there.
    """
    if flat.num_runs == num_worlds:
        return run_mats
    totals = np.zeros((num_worlds, n, n))
    for worlds, runs in flat.run_passes:
        totals[worlds] += run_mats[runs]
    return totals


def _step_lanes(
    lanes: List[_Lane],
    solver: CongestionSolver,
    epoch_seconds: float,
    now: float,
    solver_epsilon: Optional[float],
    gather_cache: dict,
) -> None:
    """Advance every lane's world by one epoch, solved as one batch.

    ``gather_cache`` is the driver's single-slot memo, mutated in place
    here: steady-state epochs (same lanes, same destination arrays,
    same pending costs and CPU shares — see :func:`_gather_key`) reuse
    the previous epoch's flattened arrays instead of re-gathering.
    """
    n = solver.num_nodes
    num_worlds = len(lanes)
    key = _gather_key(lanes)
    if gather_cache.get("key") == key:
        flat = gather_cache["flat"]
    else:
        flat = _gather(lanes, epoch_seconds)
        gather_cache["key"] = key
        gather_cache["flat"] = flat
    latm = np.stack([lane.stepper.latm for lane in lanes])
    unconverged = np.ones(num_worlds, dtype=bool)
    avail = flat.avail
    ops_flat = totals = rho_c = rho_l = None
    run_mats = np.zeros((flat.num_runs, n, n))
    first_pass = True
    for _ in range(SOLVER_ITERATIONS):
        lat_rows = latm[flat.t_world, flat.src]
        mem_s = (flat.D * lat_rows).sum(axis=1)
        time_per_op = flat.cpu + mem_s + flat.tlb + flat.io
        ops_flat = np.where(flat.active, avail / time_per_op, 0.0)
        if first_pass:
            first_pass = False
        else:
            run_mats.fill(0.0)
        np.add.at(run_mats, (flat.t_run, flat.src), flat.D * ops_flat[:, None])
        totals = _world_totals(run_mats, flat, num_worlds, n)
        rho_c, rho_l, lat_new = solver.solve_many(totals, epoch_seconds)
        damped = SOLVER_DAMPING * latm + (1.0 - SOLVER_DAMPING) * lat_new
        diff = np.abs(damped - latm).reshape(num_worlds, -1).max(axis=1)
        # Early-exit masking: a converged world's matrix is frozen. The
        # damped update would reproduce it bit-for-bit anyway (an exact
        # fixed point reproduces itself), so masking only saves work and
        # keeps per-world results identical to the scalar early exit.
        if unconverged.all():
            latm = damped
        else:
            latm = np.where(unconverged[:, None, None], damped, latm)
        if solver_epsilon is not None:
            unconverged &= diff > solver_epsilon
            if not unconverged.any():
                break

    # ---- commit per run, in scalar order, with batched per-run math
    run_mats.setflags(write=False)
    rho_c.setflags(write=False)
    run_rho_l = solver.congestion_many(run_mats, epoch_seconds)[1]
    ops_by_node = np.zeros((flat.num_runs, n))
    np.add.at(ops_by_node, (flat.t_run, flat.src), ops_flat)
    # The per-run EpochRecord metrics are reductions over each run's
    # matrix slice; computing them over the stack reduces the same
    # contiguous elements with the same accumulation order as the scalar
    # EpochObservation properties, so every float matches (ops_done stays
    # a per-slice ``.sum()`` below: reduceat's sequential accumulation
    # differs from ndarray.sum's pairwise blocking past 8 threads):
    #   local_fraction— trace / total, 1.0 on a zero matrix
    #   imbalance     — std / mean of column sums, 0.0 on zero mean
    #   max_link_rho  — order-free max reduction
    acc_total = run_mats.sum(axis=(1, 2))
    traces = np.trace(run_mats, axis1=1, axis2=2)
    local_frac = np.where(
        acc_total == 0.0,
        1.0,
        traces / np.where(acc_total == 0.0, 1.0, acc_total),
    )
    counts = run_mats.sum(axis=1)
    counts_mean = counts.mean(axis=1)
    imbalance = np.where(
        counts_mean == 0.0,
        0.0,
        counts.std(axis=1) / np.where(counts_mean == 0.0, 1.0, counts_mean),
    )
    if run_rho_l.shape[1]:
        max_run_rho_l = run_rho_l.max(axis=1)
    else:
        max_run_rho_l = np.zeros(flat.num_runs)
    world_max_rho_l = rho_l.max(axis=1) if rho_l.shape[1] else np.zeros(num_worlds)
    # Python floats once per epoch: tolist() yields the exact doubles
    # float(arr[r]) would, without a numpy scalar per run.
    imbalance = imbalance.tolist()
    max_run_rho_l = max_run_rho_l.tolist()
    local_frac = local_frac.tolist()
    world_max_rho_l = world_max_rho_l.tolist()
    bounds = flat.thread_bounds
    r = 0
    for lane in lanes:
        stepper = lane.stepper
        epoch = stepper.epoch
        world_rho_c = rho_c[lane.pos]
        world_max = world_max_rho_l[lane.pos]
        for run in lane.active_runs:
            ops = ops_flat[bounds[r] : bounds[r + 1]]
            run.commit_work(ops, now, epoch_seconds)
            observation = run.build_observation(
                access_matrix=run_mats[r],
                controller_rho=world_rho_c,
                max_link_rho=world_max,
                epoch_seconds=epoch_seconds,
                ops_by_node=ops_by_node[r],
            )
            cost = run.context.policy_on_epoch(run, observation)
            run.pending_policy_cost = cost
            migrations = 0
            if run.context.policy_is_dynamic:
                migrations = _migrations_of(run)
            run.records.append(
                EpochRecord(
                    epoch=epoch,
                    ops_done=float(ops.sum()),
                    imbalance=imbalance[r],
                    max_link_rho=max_run_rho_l[r],
                    local_fraction=local_frac[r],
                    policy_cost_seconds=cost,
                    migrations=migrations,
                )
            )
            run.churn_step()
            r += 1
    # Hardware accounting is per-world state: batching it after every
    # lane's runs committed keeps each world's ordering (policies ran,
    # then traffic recorded, then the epoch archived) while paying the
    # numpy overhead once for the whole group.
    record_node_traffic_many(
        [lane.stepper.machine for lane in lanes], totals
    )
    for lane in lanes:
        stepper = lane.stepper
        stepper.machine.end_epoch()
        stepper.latm = latm[lane.pos]
        stepper.epoch = stepper.epoch + 1


def run_worlds(
    worlds: Sequence[World],
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> List[List[RunResult]]:
    """Simulate compatible worlds together; one result list per world.

    Bit-identical to calling :func:`~repro.sim.engine.run_world` on each
    world alone. Falls back to exactly that under an active
    observability session (per-world trace/metric ordering), or for a
    single world.
    """
    worlds = list(worlds)
    if not worlds:
        return []
    if obs.enabled() or len(worlds) == 1:
        return [
            run_world(w, max_epochs=max_epochs, solver_epsilon=solver_epsilon)
            for w in worlds
        ]
    _check_compatible(worlds)
    steppers = [
        EpochStepper(world, solver_epsilon=solver_epsilon) for world in worlds
    ]
    for stepper in steppers:
        stepper.initialize()
    solver = steppers[0].solver
    epoch_seconds = worlds[0].epoch_seconds
    results: List[Optional[List[RunResult]]] = [None] * len(worlds)
    live = list(range(len(worlds)))
    gather_cache: dict = {}
    now = 0.0
    while live:
        lanes: List[_Lane] = []
        still: List[int] = []
        for index in live:
            stepper = steppers[index]
            if stepper.epoch >= max_epochs:
                results[index] = stepper.finish(now)
                continue
            # Scalar order: hooks fire before the active-runs check, and
            # a world with nothing to run exits *without* consuming the
            # epoch — finish() sees the same clock the scalar loop would.
            for hook in stepper.world.epoch_hooks.get(stepper.epoch, ()):
                hook(stepper.world)
            active = [run for run in stepper.world.runs if not run.finished]
            if not active:
                results[index] = stepper.finish(now)
                continue
            lanes.append(
                _Lane(
                    pos=len(lanes),
                    stepper=stepper,
                    active_runs=active,
                    dests=[
                        run.destination_matrix(solver.num_nodes)
                        for run in active
                    ],
                )
            )
            still.append(index)
        if not lanes:
            break
        _step_lanes(
            lanes, solver, epoch_seconds, now, solver_epsilon, gather_cache
        )
        now += epoch_seconds
        live = still
    return results  # type: ignore[return-value]
