"""Exception hierarchy shared by all subsystems."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class TopologyError(ReproError):
    """The NUMA topology is malformed (disconnected, bad ids, ...)."""


class OutOfMemoryError(ReproError):
    """A machine node or guest allocator ran out of frames."""


class P2MError(ReproError):
    """Invalid operation on the hypervisor page table."""


class DomainError(ReproError):
    """A domain was configured with invalid parameters."""


class SanitizerError(ReproError):
    """The runtime P2M sanitizer caught a protocol violation.

    Raised when instrumented hypervisor state is manipulated outside the
    paper's invariants: double-mapping a machine frame, mapping a freed
    frame, or running the migration protocol (write-protect -> copy ->
    remap, section 4.1) out of order.
    """


class HypercallError(ReproError):
    """A hypercall was malformed or rejected by the hypervisor."""


class GuestFaultError(ReproError):
    """A guest access could not be resolved (bad virtual address, ...)."""


class IommuFault(ReproError):
    """A DMA translation hit an invalid hypervisor page table entry.

    The hardware reports this *asynchronously* (paper section 4.4.1), which
    is why first-touch cannot be combined with the IOMMU: by the time the
    hypervisor learns about the fault, the guest has already failed the I/O.
    """

    def __init__(self, gpfn: int, message: str = ""):
        self.gpfn = gpfn
        super().__init__(message or f"IOMMU translation fault on guest pfn {gpfn:#x}")


class PolicyError(ReproError):
    """Invalid NUMA policy selection or configuration."""


class SchedulerError(ReproError):
    """Invalid vCPU placement or pinning request."""


class WorkloadError(ReproError):
    """Unknown application or invalid workload parameters."""


class RunSpecError(ReproError):
    """A declarative run request is malformed.

    Raised when a :class:`repro.sim.runspec.RunRequest` names an unknown
    environment or policy, combines options the evaluation never runs
    (Carrefour on round-1G, MCS locks in a domU request), or cannot be
    reconstructed from its serialized form.
    """


class MultiRunError(ReproError):
    """A batched multi-run group was built from incompatible worlds.

    The structure-of-arrays driver (:mod:`repro.core.multirun`) shares
    one set of topology constants across every world of a group; worlds
    with different node counts, link layouts, epoch lengths or latency
    parameters cannot be stacked and must execute per request instead.
    """


class ObsError(ReproError):
    """Invalid use of the observability layer.

    Raised on nested :func:`repro.obs.session` activations and on trace
    files that do not conform to the trace schema when a CLI command
    requires one.
    """


class ExperimentError(ReproError):
    """An experiment was invoked with arguments it does not support.

    The scenario registry uses this to keep experiment signatures honest:
    a scenario that does not run per-application sweeps (Figure 5, the
    microbenchmarks) rejects an ``apps`` restriction instead of silently
    ignoring it."""

