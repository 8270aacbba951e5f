"""In-memory span recording around the simulator's layer boundaries.

The benchmark never edits the program: :class:`LayerTracer` replaces the
public functions named in :data:`TARGETS` with timing wrappers while it is
installed, and puts the originals back on :meth:`LayerTracer.uninstall`.
Each wrapped call becomes one span ``[name, start, end, parent, tag]``:
``parent`` is the index of the enclosing span (``-1`` for a root) and
``tag`` is the request cache key (or ``batch-<n>`` for a multi-run group)
the call ran for. A layer's self time is its spans' duration minus the
time covered by their direct child spans.

Functions imported by name into another module are patched at the
binding the caller uses (``repro.core.multirun.run_worlds``, for
instance); methods are patched on the class that defines them, before
any world is built, so bound methods captured at construction (the
pv queue's flush callback, Carrefour's command channel) are wrapped too.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


def _returned_len(counter: str, attr: str) -> Callable[[Any, tuple], Dict[str, int]]:
    def count(out: Any, args: tuple) -> Dict[str, int]:
        return {counter: len(getattr(out, attr))}

    return count


#: (owner, attribute, span name, counter function). The owner is
#: ``module`` or ``module:Class``. The counter function maps a call's
#: return value and positional arguments (``self`` first, for methods)
#: to amounts added to the span name's counters.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.runner.runner:ResultSet", "resolve", "runner.resolve", None),
    ("repro.runstore.base:RunStore", "put", "runstore.put", None),
    (
        "repro.runstore.base:RunStore", "get", "runstore.get",
        lambda out, args: {"hits": int(out is not None)},
    ),
    ("repro.experiments.fig1", "assemble", "experiments.assemble", None),
    ("repro.experiments.fig7", "assemble", "experiments.assemble", None),
    ("repro.sim.environment:LinuxEnvironment", "setup", "environment.setup", None),
    ("repro.sim.environment:XenEnvironment", "setup", "environment.setup", None),
    (
        "repro.sim.environment:_PolicyContext", "policy_on_epoch",
        "environment.policy_on_epoch", None,
    ),
    ("repro.sim.engine:EpochStepper", "initialize", "engine.initialize", None),
    ("repro.sim.engine:EpochStepper", "step", "engine.step", None),
    ("repro.sim.engine:CongestionSolver", "congestion", "engine.solve", None),
    ("repro.sim.engine:CongestionSolver", "latency_matrix", "engine.solve", None),
    ("repro.sim.engine:CongestionSolver", "congestion_many", "engine.solve", None),
    (
        "repro.sim.engine:CongestionSolver", "latency_matrix_many",
        "engine.solve", None,
    ),
    (
        "repro.core.multirun", "run_worlds", "multirun.run_worlds",
        lambda out, args: {"worlds": len(args[0])},
    ),
    (
        "repro.sim.instance:AppRun", "build_observation",
        "instance.build_observation", _returned_len("samples", "hot_pages"),
    ),
    ("repro.sim.instance:AppRun", "churn_step", "instance.churn_step", None),
    (
        "repro.sim.instance:AppRun", "destination_matrix",
        "instance.destination_matrix", None,
    ),
    ("repro.sim.instance:AppRun", "commit_work", "instance.commit_work", None),
    ("repro.guest.vmm:GuestAddressSpace", "touch", "vmm.touch", None),
    (
        "repro.core.page_queue:PartitionedPageQueue", "record",
        "page_queue.record", None,
    ),
    (
        "repro.core.page_queue:PartitionedPageQueue", "record_many",
        "page_queue.record", None,
    ),
    (
        "repro.core.interface:ExternalInterface", "flush_page_events",
        "interface.flush_page_events", None,
    ),
    ("repro.hypervisor.faults:FaultHandler", "on_access", "faults.on_access", None),
    (
        "repro.hypervisor.faults:FaultHandler", "handle_faults",
        "faults.handle_faults", None,
    ),
    (
        "repro.hypervisor.allocator:XenHeapAllocator", "populate_round_1g",
        "allocator.populate", None,
    ),
    (
        "repro.hypervisor.allocator:XenHeapAllocator", "populate_round_4k",
        "allocator.populate", None,
    ),
    (
        "repro.hypervisor.allocator:XenHeapAllocator", "populate_empty",
        "allocator.populate", None,
    ),
    (
        "repro.carrefour.engine:UserComponent", "decide", "carrefour.decide",
        _returned_len("decisions", "decisions"),
    ),
    (
        "repro.carrefour.engine:SystemComponent", "apply", "carrefour.apply",
        lambda out, args: {"applied": int(out), "commands": len(args[1])},
    ),
    (
        "repro.core.interface:InternalInterface", "migrate_page",
        "interface.migrate_page", lambda out, args: {"succeeded": int(bool(out))},
    ),
    (
        "repro.hardware.machine:Machine", "record_node_traffic",
        "machine.record_node_traffic", None,
    ),
    (
        "repro.core.multirun", "record_node_traffic_many",
        "machine.record_node_traffic", None,
    ),
)

#: Bindings that only set the span tag (no span of their own): each
#: call runs one request, whose cache key tags the spans inside it.
TAG_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.runner.runner", "execute_request"),
    ("repro.core.multirun", "execute_request"),
    ("repro.core.multirun", "build_world"),
)


def _resolve_owner(spec: str) -> Any:
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerTracer:
    """Records spans around :data:`TARGETS` while installed.

    Attributes:
        spans: ``[name, start, end, parent, tag]`` lists in call order.
        extra: per-span-name counters (samples, decisions, hits, ...).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.extra: Dict[str, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._tag: Optional[str] = None
        self._groups = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner_spec, attr, name, count_fn in TARGETS:
            self._patch(owner_spec, attr, self._span_wrapper(name, count_fn))
        for owner_spec, attr in TAG_TARGETS:
            self._patch(owner_spec, attr, self._tag_wrapper)

    def _patch(self, owner_spec: str, attr: str, make: Callable) -> None:
        owner = _resolve_owner(owner_spec)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @staticmethod
    def leftover_wrappers() -> List[str]:
        """Targets whose current binding is still a tracer wrapper."""
        left = []
        bindings = [(o, a) for o, a, _n, _c in TARGETS] + list(TAG_TARGETS)
        for owner_spec, attr in bindings:
            current = _resolve_owner(owner_spec).__dict__[attr]
            if getattr(current, "__e2ebench_wrapper__", False):
                left.append(f"{owner_spec}.{attr}")
        return left

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Recording

    def _span_wrapper(self, name: str, count_fn: Optional[Callable]) -> Callable:
        stack = self._stack
        is_group = name == "multirun.run_worlds"

        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                spans = self.spans
                index = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._tag]
                spans.append(span)
                stack.append(index)
                saved_tag = self._tag
                if is_group:
                    self._groups += 1
                    self._tag = span[4] = f"batch-{self._groups}"
                start = perf_counter()
                try:
                    out = original(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    span[1] = start
                    stack.pop()
                    self._tag = saved_tag
                if count_fn is not None:
                    totals = self.extra.setdefault(name, {})
                    for counter, amount in count_fn(out, args).items():
                        totals[counter] = totals.get(counter, 0) + amount
                return out

            wrapper.__e2ebench_wrapper__ = True  # type: ignore[attr-defined]
            return wrapper

        return make

    def _tag_wrapper(self, original: Callable) -> Callable:
        def wrapper(request: Any, *args: Any, **kwargs: Any) -> Any:
            saved_tag = self._tag
            self._tag = request.cache_key()
            try:
                return original(request, *args, **kwargs)
            finally:
                self._tag = saved_tag

        wrapper.__e2ebench_wrapper__ = True  # type: ignore[attr-defined]
        return wrapper

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A harness span (one per timed pass) every layer span nests in."""
        index = len(self.spans)
        span = [name, perf_counter(), 0.0, -1, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span[2] = perf_counter()

    def take(self) -> Tuple[List[list], Dict[str, Dict[str, int]]]:
        """Hand over the recorded spans and counters, and start afresh."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, extra = self.spans, self.extra
        self.spans = []
        self.extra = {}
        self._groups = 0
        return spans, extra


# ----------------------------------------------------------------------
# Aggregation


def self_times(spans: Sequence[list]) -> Dict[str, Tuple[float, int]]:
    """``{span name: (self seconds, calls)}`` over ``spans``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _tag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Tuple[float, int]] = {}
    for (name, start, end, _parent, _tag), covered in zip(spans, child_time):
        self_s, calls = out.get(name, (0.0, 0))
        out[name] = (self_s + (end - start - covered), calls + 1)
    return out


#: Per-layer metrics: (metric name, unit, better, value from the
#: aggregate). ``agg`` maps a span name to ``(self_s, calls)`` and
#: ``extra`` to its counters. Ratios of a layer that never ran are 0.
def _self(name: str) -> Callable:
    return lambda agg, extra: agg.get(name, (0.0, 0))[0]


def _calls(name: str) -> Callable:
    return lambda agg, extra: agg.get(name, (0.0, 0))[1]


def _extra(name: str, counter: str) -> Callable:
    return lambda agg, extra: extra.get(name, {}).get(counter, 0)


def _extra_ratio(name: str, counter: str, base: Optional[str] = None) -> Callable:
    """``counter`` over the span's ``base`` counter, or over its calls."""

    def value(agg: dict, extra: dict) -> float:
        counters = extra.get(name, {})
        num = counters.get(counter, 0)
        den = agg.get(name, (0.0, 0))[1] if base is None else counters.get(base, 0)
        return num / den if den else 0.0

    return value


LAYER_METRICS: Tuple[Tuple[str, str, str, Callable], ...] = (
    ("runner.resolve.self_s", "s", "lower", _self("runner.resolve")),
    ("runstore.put.self_s", "s", "lower", _self("runstore.put")),
    ("runstore.put.calls", "count", "lower", _calls("runstore.put")),
    ("runstore.get.self_s", "s", "lower", _self("runstore.get")),
    ("runstore.get.hit_ratio", "ratio", "higher", _extra_ratio("runstore.get", "hits")),
    ("experiments.assemble.self_s", "s", "lower", _self("experiments.assemble")),
    ("environment.setup.self_s", "s", "lower", _self("environment.setup")),
    ("environment.setup.calls", "count", "lower", _calls("environment.setup")),
    (
        "environment.policy_on_epoch.self_s", "s", "lower",
        _self("environment.policy_on_epoch"),
    ),
    ("engine.initialize.self_s", "s", "lower", _self("engine.initialize")),
    ("engine.step.self_s", "s", "lower", _self("engine.step")),
    ("engine.step.calls", "count", "lower", _calls("engine.step")),
    ("engine.solve.self_s", "s", "lower", _self("engine.solve")),
    ("engine.solve.calls", "count", "lower", _calls("engine.solve")),
    ("multirun.run_worlds.self_s", "s", "lower", _self("multirun.run_worlds")),
    (
        "multirun.run_worlds.worlds_per_call", "worlds/call", "higher",
        _extra_ratio("multirun.run_worlds", "worlds"),
    ),
    (
        "instance.build_observation.self_s", "s", "lower",
        _self("instance.build_observation"),
    ),
    (
        "instance.build_observation.samples", "count", "lower",
        _extra("instance.build_observation", "samples"),
    ),
    ("instance.churn_step.self_s", "s", "lower", _self("instance.churn_step")),
    (
        "instance.destination_matrix.self_s", "s", "lower",
        _self("instance.destination_matrix"),
    ),
    ("instance.commit_work.self_s", "s", "lower", _self("instance.commit_work")),
    ("vmm.touch.self_s", "s", "lower", _self("vmm.touch")),
    ("vmm.touch.calls", "count", "lower", _calls("vmm.touch")),
    ("page_queue.record.calls", "count", "lower", _calls("page_queue.record")),
    (
        "interface.flush_page_events.self_s", "s", "lower",
        _self("interface.flush_page_events"),
    ),
    (
        "interface.flush_page_events.calls", "count", "lower",
        _calls("interface.flush_page_events"),
    ),
    ("faults.on_access.self_s", "s", "lower", _self("faults.on_access")),
    ("faults.on_access.calls", "count", "lower", _calls("faults.on_access")),
    ("faults.handle_faults.self_s", "s", "lower", _self("faults.handle_faults")),
    ("allocator.populate.self_s", "s", "lower", _self("allocator.populate")),
    ("carrefour.decide.self_s", "s", "lower", _self("carrefour.decide")),
    (
        "carrefour.decide.decisions", "count", "lower",
        _extra("carrefour.decide", "decisions"),
    ),
    ("carrefour.apply.self_s", "s", "lower", _self("carrefour.apply")),
    (
        "carrefour.apply.applied_ratio", "ratio", "higher",
        _extra_ratio("carrefour.apply", "applied", "commands"),
    ),
    ("interface.migrate_page.self_s", "s", "lower", _self("interface.migrate_page")),
    ("interface.migrate_page.calls", "count", "lower", _calls("interface.migrate_page")),
    (
        "interface.migrate_page.success_ratio", "ratio", "higher",
        _extra_ratio("interface.migrate_page", "succeeded"),
    ),
    (
        "machine.record_node_traffic.self_s", "s", "lower",
        _self("machine.record_node_traffic"),
    ),
)


def layer_metrics(spans: Sequence[list], extra: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced pass set."""
    agg = self_times(spans)
    return {name: value(agg, extra) for name, _unit, _better, value in LAYER_METRICS}
