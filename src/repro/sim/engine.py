"""The epoch-based simulation engine.

Each epoch:

1. every active thread's operation rate is solved together with the
   machine congestion it creates (a short fixed-point iteration:
   operation rates -> access matrix -> controller/link utilisation ->
   memory latencies -> operation rates);
2. work is committed per thread, with interpolated finish times;
3. the traffic is recorded on the hardware counters, per-application
   metrics (imbalance, interconnect load — the Table 1 definitions) are
   archived;
4. dynamic policies receive their counter observation and may migrate
   pages (whose cost is charged to the next epoch);
5. a mechanical sample of the page churn runs through the real
   allocator/queue/fault machinery.

Completion time of an application is its initialisation time plus the
(interpolated) instant its slowest thread reaches the work target.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.hardware.counters import CACHE_LINE_BYTES
from repro.hardware.machine import Machine
from repro.sim.instance import AppRun
from repro.sim.results import EpochRecord, RunResult
from repro.sim.environment import Environment, World

#: Fixed-point iterations per epoch (rates vs congestion). The queueing
#: curve is steep past the knee, so the solver needs a few damped rounds.
SOLVER_ITERATIONS = 8
#: Damping of the latency update between iterations (avoids oscillation
#: around the saturation knee).
SOLVER_DAMPING = 0.5
#: Early-exit threshold for the fixed-point solve: remaining iterations
#: are skipped once the damped latency matrix moves by at most this much
#: (max |delta|, seconds) between rounds. The default 0.0 skips only on an
#: *exact* fixed point — an exact fixed point reproduces itself, so the
#: skipped iterations could not have changed anything and results stay
#: bit-for-bit identical to the full 8 rounds.
SOLVER_EPSILON = 0.0
#: Default epoch cap (a run 15x slower than nominal still completes).
DEFAULT_MAX_EPOCHS = 800
#: Distinct fixed-point solves each :class:`EpochStepper` remembers. The
#: damped iteration often settles into a short floating-point cycle
#: instead of an exact fixed point, so a world's exact solver state
#: recurs; every measured repeat lies 1 or 3 epochs back.
SOLVE_MEMO_SIZE = 4

#: Version stamp of the engine's *numerical behaviour*. Bump it whenever a
#: change makes previously simulated results stale (solver changes, cost
#: model recalibration, workload model edits): persistent run stores
#: (:mod:`repro.runstore`) compare this against the version recorded on
#: disk and drop every stored run on a mismatch.
ENGINE_VERSION = "3"


class CongestionSolver:
    """Turns an access matrix into per-(src, dst) memory latencies.

    The hot path is fully vectorized: a dense link-routing matrix
    ``R[(src, dst), link]`` (exported by the topology) turns
    :meth:`congestion` into two matrix products, and the ndarray-aware
    latency model turns :meth:`latency_matrix` into one broadcast
    expression. ``route_links`` lists the same routes as link indices:
    the latency kernel gathers over it, and the loop oracle in the tests
    iterates it.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        n = machine.num_nodes
        topo = machine.topology
        self.num_nodes = n
        self.hops = np.array(
            [[topo.hops(s, d) for d in range(n)] for s in range(n)]
        )
        links = list(topo.links)
        self._link_index = {l.key: i for i, l in enumerate(links)}
        self.link_bw = np.array([l.bandwidth_gib_s * (1 << 30) for l in links])
        self.controller_bw = topo.memory_controller_gib_s * (1 << 30)
        self.route_links: Dict[Tuple[int, int], List[int]] = {}
        for s in range(n):
            for d in range(n):
                self.route_links[(s, d)] = [
                    self._link_index[l.key] for l in topo.route(s, d)
                ]
        #: R[src * n + dst, link] == 1.0 iff the link lies on route
        #: (src, dst); link order matches ``link_bw``.
        self.route_matrix = topo.route_link_matrix()
        # ``route_links`` as a (n², k) gather table (row src * n + dst)
        # for the latency kernel's per-route max, short routes padded
        # with the index of a 0.0 slot the kernel appends to ``rho_l``. A
        # local access has no link and reads only the pad; k >= 1 keeps
        # even a link-free machine's table non-empty.
        routes = [self.route_links[(s, d)] for s in range(n) for d in range(n)]
        width = max([1] + [len(r) for r in routes])
        pad = len(links)
        self._route_gather = np.array(
            [r + [pad] * (width - len(r)) for r in routes], dtype=np.intp
        ).reshape(n * n, width)
        self._zero_latm: Optional[np.ndarray] = None
        # Hop-dependent latency-model terms are constant per topology:
        # precompute them once so the batched per-iteration path skips
        # the table lookups (identical arrays, so identical bits).
        model = machine.latency
        self._lat_base, self._lat_coeff = model.hop_coefficients(self.hops)
        self._hops_zero = self.hops == 0

    def congestion(self, matrix: np.ndarray, seconds: float) -> Tuple[np.ndarray, np.ndarray]:
        """Controller and link utilisations for ``matrix`` over ``seconds``."""
        col_bytes = matrix.sum(axis=0) * CACHE_LINE_BYTES
        rho_c = col_bytes / (self.controller_bw * seconds)
        link_bytes = (matrix.reshape(-1) * CACHE_LINE_BYTES) @ self.route_matrix
        rho_l = link_bytes / (self.link_bw * seconds)
        return rho_c, rho_l

    def congestion_many(
        self, stacked: np.ndarray, seconds: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`congestion` over a ``(W, n, n)`` stack of access matrices.

        Per-world results are bit-identical to calling :meth:`congestion`
        on each slice: the column reduction runs over the same length-n
        axis with the same (sequential) accumulation order, and the
        link-routing product is issued per world on a contiguous copy of
        the slice — the exact vector-matrix call shape of the scalar
        path, so the BLAS kernel (and its summation order) is the same.
        """
        col_bytes = stacked.sum(axis=1) * CACHE_LINE_BYTES
        rho_c = col_bytes / (self.controller_bw * seconds)
        worlds = stacked.shape[0]
        # One elementwise multiply for the whole stack (same bits as
        # multiplying each slice), then the scalar path's exact
        # vector-matrix call per world on a contiguous row.
        flat_bytes = stacked.reshape(worlds, -1) * CACHE_LINE_BYTES
        link_bytes = np.empty((worlds, len(self.link_bw)))
        for w in range(worlds):
            link_bytes[w] = flat_bytes[w] @ self.route_matrix
        rho_l = link_bytes / (self.link_bw * seconds)
        return rho_c, rho_l

    def latency_matrix_many(
        self, rho_c: np.ndarray, rho_l: np.ndarray
    ) -> np.ndarray:
        """:meth:`latency_matrix` over per-world ``(W, n)`` / ``(W, links)``.

        Both methods evaluate the same kernel (:meth:`_latencies`) over a
        leading world axis, so per-world results are bit-identical to the
        single-world path.
        """
        return self._latencies(rho_c, rho_l)

    def solve_many(
        self, stacked: np.ndarray, seconds: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batched congestion + latency pass over stacked worlds.

        Returns ``(rho_c, rho_l, latm)`` with a leading world axis each —
        the per-iteration work of the multi-run fixed point
        (:mod:`repro.core.multirun`) as one numpy program.
        """
        rho_c, rho_l = self.congestion_many(stacked, seconds)
        return rho_c, rho_l, self.latency_matrix_many(rho_c, rho_l)

    def latency_matrix(
        self, rho_c: np.ndarray, rho_l: np.ndarray
    ) -> np.ndarray:
        """Per-(src, dst) access latency in *seconds* under congestion.

        Utilisations are scaled by the configured traffic burstiness: the
        queueing happens at the traffic peaks, not at the epoch average.

        The zero-congestion matrix (the idle machine, requested at every
        engine start-up) is memoized and returned *read-only* — a caller
        mutating the shared memo would silently corrupt every later
        epoch's solver start state, so NumPy now enforces what the old
        docstring only asked for.
        """
        if not rho_c.any() and not rho_l.any():
            if self._zero_latm is None:
                memo = self._latencies(rho_c[np.newaxis], rho_l[np.newaxis])[0]
                memo.setflags(write=False)
                self._zero_latm = memo
            return self._zero_latm
        return self._latencies(rho_c[np.newaxis], rho_l[np.newaxis])[0]

    def _latencies(self, rho_c: np.ndarray, rho_l: np.ndarray) -> np.ndarray:
        """The latency kernel over ``(W, n)`` / ``(W, links)`` inputs.

        The body inlines :meth:`LatencyModel.memory_latency_cycles` with
        the hop tables precomputed at solver construction: every float
        operation (and its order) matches the model methods exactly. The
        model is elementwise over broadcast inputs, so the world axis
        changes which elements are computed together but not any
        individual float operation. This is the innermost line of both
        fixed points, called up to ``SOLVER_ITERATIONS`` times per epoch.
        """
        model = self.machine.latency
        burst = self.machine.config.traffic_burstiness
        n = self.num_nodes
        worlds = rho_c.shape[0]
        # Max utilisation along each route. Utilisations are >= 0, so
        # the 0.0 pad never wins over a real link, and a local access
        # reduces to 0.0 exactly as the loop's default did.
        padded = np.concatenate((rho_l, np.zeros((worlds, 1))), axis=1)
        route_rho = padded[:, self._route_gather].max(axis=2).reshape(
            worlds, n, n
        )
        rho_cb = rho_c[:, np.newaxis, :] * burst
        congestion = np.where(
            self._hops_zero, rho_cb, np.maximum(rho_cb, route_rho * burst)
        )
        # queueing(), with the knee constants folded (same formulas on
        # the same scalars yield the same floats every call).
        cap = model.rho_cap
        rho = np.maximum(congestion, 0.0)
        clamped = np.minimum(rho, cap)
        q = np.where(
            rho <= cap,
            clamped / (1.0 - clamped),
            cap / (1.0 - cap) + (1.0 / (1.0 - cap) ** 2) * (rho - cap),
        )
        cycles = self._lat_base + self._lat_coeff * q
        return cycles / (model.freq_ghz * 1e9)


def _per_run_matrix(
    D: np.ndarray, src: np.ndarray, ops: np.ndarray, num_nodes: int
) -> np.ndarray:
    matrix = np.zeros((num_nodes, num_nodes))
    np.add.at(matrix, src, D * ops[:, None])
    return matrix


def _frozen(array: np.ndarray) -> np.ndarray:
    """Return ``array``, mutated in place by ``setflags(write=False)``."""
    array.setflags(write=False)
    return array


#: One active run's solver input: ``(run, D, src, active, avail, cpu_s,
#: tlb_s, io_s)``.
_RunInput = Tuple[AppRun, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                  float, float, float]


class _RunOutcome(NamedTuple):
    """What the commit phase consumes of one run's solved epoch."""

    ops: np.ndarray
    matrix: np.ndarray
    max_link_rho: float
    ops_by_node: np.ndarray


class _Solve(NamedTuple):
    """One epoch's fixed point, every array frozen so a replay can hand
    the same objects out again.

    ``inputs`` keeps the solved runs and their destination arrays alive:
    the memo key names them by ``id``, which stays unique only while the
    objects do.
    """

    inputs: List[_RunInput]
    latm: np.ndarray
    runs: List[_RunOutcome]
    total: np.ndarray
    rho_c: np.ndarray
    max_link_rho: float
    iterations: int
    delta: float


def _memo_key(latm: np.ndarray, inputs: List[_RunInput]) -> Hashable:
    """Everything :meth:`EpochStepper._fixed_point` reads, as a dict key.

    Runs and their destination arrays are named by ``id``: the memo entry
    holds them (:attr:`_Solve.inputs`), so an id in a stored key cannot
    be recycled, and ``AppRun.destination_matrix`` hands out new frozen
    arrays whenever placement or threads change. The arrays the stepper
    builds each epoch go in by value; ``avail`` already folds in CPU
    shares, sync, churn and the pending policy cost. The per-operation
    floats compare with ``==``, which equates ``0.0`` and ``-0.0`` —
    harmless, as they are only ever added to a non-negative memory time.
    """
    return (
        latm.tobytes(),
        tuple(
            (id(run), id(D), id(src), id(active), avail.tobytes(),
             cpu_s, tlb_s, io_s)
            for run, D, src, active, avail, cpu_s, tlb_s, io_s in inputs
        ),
    )


class EpochStepper:
    """Per-world engine state, advanced one epoch at a time.

    The engine loop used to live entirely inside :func:`run_world`, with
    the machine, solver and latency state as locals — which made a world
    an implicit singleton of its invocation. The stepper holds exactly
    that state per *instance*, so several worlds (one per cluster host)
    can advance in lockstep on one shared simulated clock while
    :func:`run_world` stays the single-host driver with bit-identical
    results.

    Usage: construct, :meth:`initialize`, then call :meth:`step` with the
    current simulated time until it returns False (no active runs) or an
    external epoch cap is reached, and collect results via :meth:`finish`.
    """

    def __init__(
        self,
        world: World,
        solver_epsilon: Optional[float] = SOLVER_EPSILON,
    ):
        self.world = world
        self.machine = world.machine
        self.solver = CongestionSolver(self.machine)
        self.num_nodes = self.machine.num_nodes
        self.epoch_seconds = world.epoch_seconds
        self.solver_epsilon = solver_epsilon
        # Observability: metric cells registered with the active session
        # (no session: cells are created but never collected) and trace
        # emission guarded by one boolean so the disabled path costs
        # nothing. All trace timestamps come from the simulated clock —
        # never the wall clock — so identical requests yield
        # byte-identical traces.
        reg = obs.registry()
        self.tracer = obs.tracer()
        self._trace_on = self.tracer.enabled
        if reg.enabled:
            self._epoch_cells = (
                reg.counter("engine.epochs", world=world.label),
                reg.histogram("engine.solver_iterations", world=world.label),
            )
        else:
            self._epoch_cells = None
        self.epoch = 0
        self._latm: Optional[np.ndarray] = None
        #: The :data:`SOLVE_MEMO_SIZE` most recently used solves, keyed by
        #: :func:`_memo_key`. Only :meth:`step` consults it: the
        #: multi-run driver solves its lanes itself.
        self._memo: "OrderedDict[Hashable, _Solve]" = OrderedDict()

    @property
    def latm(self) -> Optional[np.ndarray]:
        """The damped latency matrix carried across epochs.

        This is the solver state a batched driver
        (:mod:`repro.core.multirun`) stacks across worlds and writes back
        after each group epoch; ``None`` until :meth:`initialize` ran.
        """
        return self._latm

    @latm.setter
    def latm(self, value: np.ndarray) -> None:
        """Adopt ``value`` as the carried matrix; ``value`` is mutated in
        place by ``setflags(write=False)``. The getter hands out the
        stored array itself, and a caller scribbling on it would corrupt
        the next epoch's solver start state (the PR 5 latency-memo bug
        class), so the stepper freezes what it adopts."""
        value.setflags(write=False)
        self._latm = value

    def initialize(self) -> None:
        """First-touch every run's pages and seed the idle latency matrix."""
        for run in self.world.runs:
            run.initialize()
        self._latm = self.solver.latency_matrix(
            np.zeros(self.num_nodes), np.zeros(len(self.solver.link_bw))
        )

    def has_active_runs(self) -> bool:
        """Whether any run still needs epochs (migrations can add some)."""
        return any(not r.finished for r in self.world.runs)

    def idle_step(self, now: float) -> None:
        """Advance the clock on a world with nothing to run.

        Cluster lockstep uses this to keep an evacuated (or not yet
        populated) host's epoch counter aligned with its peers, so a run
        migrating onto it continues with coherent epoch numbering.
        """
        self.machine.end_epoch()
        self.epoch += 1

    def step(self, now: float) -> bool:
        """Simulate one epoch starting at ``now``.

        Returns False — without consuming an epoch — when no run is
        active (the single-host loop breaks; a cluster may instead keep
        the host idling). The caller advances its clock by
        :attr:`epoch_seconds` after every True return.

        Builds the epoch's solver inputs, recalls or solves their fixed
        point (:meth:`_fixed_point`; up to :data:`SOLVE_MEMO_SIZE`
        recent solves are replayed when the exact input repeats), then
        commits the outcome run by run.
        """
        world = self.world
        machine = self.machine
        n = self.num_nodes
        epoch_seconds = self.epoch_seconds
        tracer = self.tracer
        trace_on = self._trace_on
        epoch = self.epoch
        latm = self._latm

        tracer.set_time(now)
        for hook in world.epoch_hooks.get(epoch, ()):
            hook(world)
        active_runs = [r for r in world.runs if not r.finished]
        if not active_runs:
            return False
        # ---- fixed point: rates vs congestion
        # Only the latencies move while the solver iterates. Each run's
        # destination matrix (cached by the run across epochs while churn
        # leaves placement untouched), CPU budget and per-operation
        # cpu/tlb/io terms are computed once per epoch.
        inputs: List[_RunInput] = []
        for run in active_runs:
            D, src, active = run.destination_matrix(n)
            ctx = run.context
            shares = np.array([t.cpu_share for t in run.threads])
            avail = (
                epoch_seconds
                * shares
                * (1.0 - ctx.sync_fraction)
                / ctx.churn_slowdown
            )
            # Dynamic-policy overhead from the previous epoch stalls the
            # domain.
            avail = np.maximum(0.0, avail - run.pending_policy_cost)
            inputs.append((
                run, D, src, active, avail, run.op_model.cpu_seconds,
                getattr(ctx, "tlb_seconds_per_op", 0.0), ctx.io_seconds_per_op,
            ))
        # Recall or solve: the fixed point is a pure function of the
        # carried latencies and these inputs, so a remembered solve of
        # the same key is exactly what iterating again would produce.
        key = _memo_key(latm, inputs)
        solve = self._recall(key)
        if solve is None:
            solve = self._fixed_point(latm, inputs)
            self._remember(key, solve)
        self._latm = solve.latm
        if self._epoch_cells is not None:
            self._epoch_cells[0].inc()
            self._epoch_cells[1].observe(solve.iterations)
        if trace_on:
            tracer.span(
                "epoch.solve",
                epoch_seconds,
                cat="engine",
                epoch=epoch,
                iterations=solve.iterations,
                early_exit_delta=solve.delta,
                active_runs=len(active_runs),
            )

        # ---- commit work, record traffic and metrics
        # The solve's arrays are frozen: one rho_c array is shared by
        # every run's observation this epoch (and by every replay of the
        # solve), and EpochRecord reads observation.imbalance *after* the
        # policy callback ran, so policy code cannot (even accidentally)
        # mutate a sibling's view or its own archived metrics.
        for run, out in zip(active_runs, solve.runs):
            ops = out.ops
            run.commit_work(ops, now, epoch_seconds)
            # The record archives the run's own link *contribution*
            # (out.max_link_rho); the observation instead carries the
            # world-total utilisations — the congestion the run
            # *experiences* — because that is what hardware counters
            # show a per-domain policy.
            observation = run.build_observation(
                access_matrix=out.matrix,
                controller_rho=solve.rho_c,
                max_link_rho=solve.max_link_rho,
                epoch_seconds=epoch_seconds,
                ops_by_node=out.ops_by_node,
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
                    imbalance=observation.imbalance,
                    max_link_rho=out.max_link_rho,
                    local_fraction=observation.local_fraction,
                    policy_cost_seconds=cost,
                    migrations=migrations,
                )
            )
            if trace_on:
                tracer.instant(
                    "run.commit",
                    cat="engine",
                    app=run.app.name,
                    policy=run.context.policy_label,
                    epoch=epoch,
                    ops=float(ops.sum()),
                    policy_cost_seconds=cost,
                    migrations=migrations,
                )
            run.churn_step()
        machine.record_node_traffic(solve.total)
        machine.end_epoch()
        self.epoch = epoch + 1
        return True

    def _recall(self, key: Hashable) -> Optional[_Solve]:
        """The remembered solve for ``key`` (now the most recent), if any."""
        solve = self._memo.get(key)
        if solve is not None:
            self._memo.move_to_end(key)
        return solve

    def _remember(self, key: Hashable, solve: _Solve) -> None:
        """Store ``solve``, evicting the least recently used beyond
        :data:`SOLVE_MEMO_SIZE`."""
        self._memo[key] = solve
        if len(self._memo) > SOLVE_MEMO_SIZE:
            self._memo.popitem(last=False)

    def _fixed_point(
        self, latm: np.ndarray, inputs: List[_RunInput]
    ) -> _Solve:
        """Solve one epoch's rates-vs-congestion fixed point from ``latm``.

        Damped iteration (:data:`SOLVER_ITERATIONS` rounds at most, early
        exit per :attr:`solver_epsilon`), then each run's commit-phase
        terms from the final iteration's matrices. It reads nothing but
        its arguments and the stepper's constants, which is what lets
        :meth:`step` replay a remembered result.
        """
        solver = self.solver
        n = self.num_nodes
        epoch_seconds = self.epoch_seconds
        per_run: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        total = np.zeros((n, n))
        rho_c = np.zeros(n)
        rho_l = np.zeros(len(solver.link_bw))
        iterations = 0
        delta = 0.0
        for _ in range(SOLVER_ITERATIONS):
            total = np.zeros((n, n))
            per_run = []
            for run, D, src, active, avail, cpu_s, tlb_s, io_s in inputs:
                # Operations each thread completes under these latencies.
                mem_s = (D * latm[src]).sum(axis=1)
                time_per_op = cpu_s + mem_s + tlb_s + io_s
                ops = np.where(active, avail / time_per_op, 0.0)
                matrix = _per_run_matrix(D, src, ops, n)
                total += matrix
                per_run.append((src, ops, matrix))
            rho_c, rho_l = solver.congestion(total, epoch_seconds)
            new_latm = (
                SOLVER_DAMPING * latm
                + (1.0 - SOLVER_DAMPING) * solver.latency_matrix(rho_c, rho_l)
            )
            delta = float(np.abs(new_latm - latm).max()) if latm.size else 0.0
            latm = new_latm
            iterations += 1
            if self.solver_epsilon is not None and delta <= self.solver_epsilon:
                break
        # The final iteration's per-run matrices and their sum are the
        # epoch's traffic.
        runs = []
        for src, ops, matrix in per_run:
            run_rho_l = solver.congestion(matrix, epoch_seconds)[1]
            ops_by_node = np.zeros(n)
            np.add.at(ops_by_node, src, ops)
            runs.append(_RunOutcome(
                ops=_frozen(ops),
                matrix=_frozen(matrix),
                max_link_rho=float(run_rho_l.max()) if len(run_rho_l) else 0.0,
                ops_by_node=_frozen(ops_by_node),
            ))
        return _Solve(
            inputs=inputs,
            latm=_frozen(latm),
            runs=runs,
            total=_frozen(total),
            rho_c=_frozen(rho_c),
            max_link_rho=float(rho_l.max()) if len(rho_l) else 0.0,
            iterations=iterations,
            delta=delta,
        )

    def finish(self, now: float) -> List[RunResult]:
        """Assemble one result per run and tear the world down."""
        world = self.world
        epoch = self.epoch
        tracer = self.tracer
        trace_on = self._trace_on
        results: List[RunResult] = []
        self._memo.clear()
        tracer.set_time(now)
        for run in world.runs:
            # Truncation is per run identity, not per application name:
            # the paper's 2-VM setups run the same app twice, and one VM
            # timing out must not mark its twin truncated.
            run_truncated = not run.finished
            if run.finished:
                finish = max(t.finish_time for t in run.threads)
            else:
                finish = now
            completion = run.init_seconds + finish
            stats = {
                "init_seconds": run.init_seconds,
                "truncated": 1.0 if run_truncated else 0.0,
                "sync_fraction": run.context.sync_fraction,
                "churn_slowdown": run.context.churn_slowdown,
                "io_seconds_per_op": run.context.io_seconds_per_op,
            }
            # The transient observability snapshot of the run's context
            # (fault/queue/p2m/policy counters). Excluded from equality
            # and serialization, so stored results and reports are
            # unchanged.
            snapshot = getattr(run.context, "metrics_snapshot", None)
            metrics = snapshot() if snapshot is not None else {}
            if trace_on:
                tracer.instant(
                    "run.result",
                    cat="engine",
                    app=run.app.name,
                    policy=run.context.policy_label,
                    completion_seconds=completion,
                    epochs=epoch,
                    truncated=run_truncated,
                )
            results.append(
                RunResult(
                    app=run.app.name,
                    environment=world.label,
                    policy=run.context.policy_label,
                    completion_seconds=completion,
                    epochs=epoch,
                    records=run.records,
                    stats=stats,
                    metrics=metrics,
                )
            )
        world.teardown()
        return results


def run_world(
    world: World,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> List[RunResult]:
    """Simulate a world to completion; returns one result per app run.

    Args:
        max_epochs: epoch cap; runs still unfinished at the cap are marked
            truncated (per run — two runs of the same application are
            tracked independently).
        solver_epsilon: early-exit threshold for the per-epoch fixed-point
            solve (see :data:`SOLVER_EPSILON`). ``None`` disables the
            early exit and always runs all :data:`SOLVER_ITERATIONS`.
    """
    stepper = EpochStepper(world, solver_epsilon=solver_epsilon)
    stepper.initialize()
    now = 0.0
    while stepper.epoch < max_epochs:
        if not stepper.step(now):
            break
        now += stepper.epoch_seconds
    return stepper.finish(now)


def _migrations_of(run: AppRun) -> int:
    """Pages the dynamic policy moved in its last iteration."""
    context = run.context
    policy = getattr(context, "domain", None)
    if policy is not None:  # Xen mode
        numa_policy = context.domain.numa_policy
        engine = getattr(numa_policy, "engine", None)
    else:  # Linux mode
        engine = getattr(context.numa_mode, "engine", None)
    if engine is None or not engine.history:
        return 0
    return engine.history[-1].applied


def run_apps(
    env: Environment,
    specs: Sequence,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> List[RunResult]:
    """Set up ``env`` with ``specs`` and simulate to completion."""
    world = env.setup(specs)
    return run_world(world, max_epochs=max_epochs, solver_epsilon=solver_epsilon)


def run_app(
    env: Environment,
    spec,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> RunResult:
    """Single-application convenience wrapper."""
    return run_apps(
        env, [spec], max_epochs=max_epochs, solver_epsilon=solver_epsilon
    )[0]
