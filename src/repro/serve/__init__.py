"""SpMV-as-a-service: the robust long-lived query engine.

This package turns the batch pipeline into a serving layer for many
matrices and many tenants, built so that overload and injected faults
degrade service predictably instead of corrupting it:

* :class:`Deadline` — a monotonic per-request time budget, threaded
  through guard retry/backoff so recovery never blows the caller's
  budget;
* :class:`PlanRegistry` — hot compiled/tuned plans under an LRU byte
  budget, warmed from the :class:`~repro.pipeline.cache.ArtifactCache`
  and :mod:`repro.tune` records, safe to evict or heal while requests
  execute;
* :class:`AdmissionController` — bounded per-plan queues with load
  shedding (structured ``queue_full`` / ``overload`` / ``deadline``
  reasons) and round-robin fairness;
* :class:`DegradationLadder` — tuned → auto → narrow-batch → naive,
  hysteretic, every transition a structured
  :class:`~repro.resilience.guard.ResilienceEvent`;
* :class:`SpmvServer` — worker threads executing coalesced batches
  through each matrix's guard; never returns an unverified result;
* :func:`run_load` — seeded mixed-tenant traffic with verifiable
  probe vectors (the substrate of the chaos-under-load campaign in
  :mod:`repro.resilience.chaos`).

See ``docs/SERVE.md``.
"""

from repro.serve.admission import (
    SHED_BAD_REQUEST,
    SHED_CLOSED,
    SHED_DEADLINE,
    SHED_OVERLOAD,
    SHED_QUEUE_FULL,
    AdmissionConfig,
    AdmissionController,
    RequestShed,
)
from repro.serve.deadline import Deadline, DeadlineExceeded
from repro.serve.degrade import LEVELS, DegradationLadder, ServiceLevel
from repro.serve.loadgen import (
    LoadRecord,
    LoadReport,
    TenantSpec,
    make_probes,
    run_load,
    tenant_probes,
)
from repro.serve.registry import (
    SERVE_GUARD,
    Lease,
    PlanEntry,
    PlanRegistry,
    UnknownMatrixError,
)
from repro.serve.server import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    ServeRequest,
    ServeResponse,
    SpmvServer,
    serve_matrices,
)

__all__ = [
    "LEVELS",
    "SERVE_GUARD",
    "SHED_BAD_REQUEST",
    "SHED_CLOSED",
    "SHED_DEADLINE",
    "SHED_OVERLOAD",
    "SHED_QUEUE_FULL",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "AdmissionConfig",
    "AdmissionController",
    "Deadline",
    "DeadlineExceeded",
    "DegradationLadder",
    "Lease",
    "LoadRecord",
    "LoadReport",
    "PlanEntry",
    "PlanRegistry",
    "RequestShed",
    "ServeRequest",
    "ServeResponse",
    "ServiceLevel",
    "SpmvServer",
    "TenantSpec",
    "UnknownMatrixError",
    "make_probes",
    "run_load",
    "serve_matrices",
    "tenant_probes",
]
