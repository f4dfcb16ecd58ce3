"""The long-lived SpMV query engine.

:class:`SpmvServer` composes the serving stack: a
:class:`~repro.serve.registry.PlanRegistry` of hot plans, an
:class:`~repro.serve.admission.AdmissionController` at the door, a
:class:`~repro.serve.degrade.DegradationLadder` reacting to queue
pressure, and a pool of plain worker threads executing through each
matrix's :class:`~repro.resilience.guard.ExecutionGuard`.

Correctness contract
--------------------
Every result returned with status ``ok`` went through the guarded
engine (plan validation, sampled oracle, verified naive fallback) or
the naive reference kernel itself — the server never returns an
unverified result.  A request whose deadline expires before its
result is ready is **shed** (status ``shed``, reason ``deadline``),
never answered late with data the caller can no longer trust the
provenance of; a fault the guard cannot recover from within the
deadline surfaces as status ``failed`` with the detection detail.

Input contract
--------------
``x`` must be a 1-D array of the matrix's column count with a real
integer or floating dtype.  A request that breaks the contract is
shed at :meth:`SpmvServer.submit` with reason ``bad_request`` — never
queued, so it can neither poison a coalesced batch nor be coerced
into a wrong ``ok`` (a complex ``x`` is refused, not truncated to its
real part).  Should a batch still fail for one member, its members
are re-run one by one so only that member fails.

Batching
--------
Workers coalesce queued same-plan requests up to the current service
level's batch window and execute them as one
:meth:`~repro.resilience.guard.ExecutionGuard.spmv_batch` call, which
is bitwise identical to per-request execution — batching is a
throughput knob, not a semantics knob.  Per-entry execution is
serialized (kernels parallelize internally across shards); worker
concurrency comes from running *different* plans side by side.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.resilience.guard import IntegrityError
from repro.serve.admission import (
    SHED_DEADLINE,
    AdmissionConfig,
    AdmissionController,
    RequestShed,
)
from repro.serve.deadline import Deadline
from repro.serve.degrade import DegradationLadder, ServiceLevel
from repro.serve.registry import PlanRegistry, UnknownMatrixError

from concurrent.futures import Future

STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_FAILED = "failed"


@dataclasses.dataclass
class ServeRequest:
    """One admitted (or about-to-be-admitted) query."""

    rid: int
    plan: str
    x: np.ndarray
    deadline: Optional[Deadline]
    tenant: str
    future: Any
    t_submit: float


@dataclasses.dataclass(frozen=True)
class ServeResponse:
    """The outcome of one query."""

    rid: int
    plan: str
    tenant: str
    #: ``ok`` / ``shed`` / ``failed``.
    status: str
    y: Optional[np.ndarray]
    #: Shed reason or failure detail; empty on ``ok``.
    detail: str
    #: Service-level name the request executed under.
    level: str
    #: Number of requests coalesced into the executing batch.
    batched: int
    latency_s: float

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class SpmvServer:
    """Admission → ladder → registry → guarded execution.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.PlanRegistry` to serve from
        (matrices are registered on it, before or after start).
    admission:
        :class:`~repro.serve.admission.AdmissionConfig` bounds.
    ladder:
        A :class:`~repro.serve.degrade.DegradationLadder`; defaults to
        one sharing the registry's resilience log.
    workers:
        Worker thread count.  Per-plan execution is serialized, so
        more workers than concurrently-queried matrices buys nothing.
    """

    def __init__(self, registry: PlanRegistry,
                 admission: Optional[AdmissionConfig] = None,
                 ladder: Optional[DegradationLadder] = None,
                 workers: int = 2):
        self.registry = registry
        self.log = registry.log
        self.admission = AdmissionController(admission)
        self.ladder = ladder or DegradationLadder(log=self.log)
        self.n_workers = max(1, int(workers))
        self._threads: List[threading.Thread] = []
        self._running = False
        self._lock = threading.Lock()
        self._rid = 0
        self._exec_locks: Dict[str, threading.Lock] = {}
        self.completed: Dict[str, int] = {
            STATUS_OK: 0, STATUS_SHED: 0, STATUS_FAILED: 0,
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "SpmvServer":
        """Warm the registry and spawn the worker pool."""
        with self._lock:
            if self._running:
                return self
            self._running = True
        self.registry.warmup()
        for idx in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"spmv-serve-{idx}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop admitting, drain the queue, join the workers."""
        with self._lock:
            self._running = False
        self.admission.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "SpmvServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- client surface -------------------------------------------------

    def submit(self, plan: str, x: np.ndarray,
               deadline: Optional[Deadline] = None,
               tenant: str = "") -> Any:
        """Enqueue one query; returns a ``Future[ServeResponse]``.

        A request refused admission — for load reasons or for an
        ``x`` that breaks the input contract — resolves its future
        immediately with a ``shed`` response; ``submit`` itself never
        raises.
        """
        with self._lock:
            self._rid += 1
            rid = self._rid
        request = ServeRequest(
            rid=rid, plan=str(plan), x=np.asarray(x),
            deadline=deadline, tenant=str(tenant),
            future=Future(), t_submit=time.monotonic(),
        )
        try:
            self.admission.submit(
                request,
                problem=self._input_problem(request.plan, request.x),
            )
        except RequestShed as shed:
            self._resolve(request, STATUS_SHED, None,
                          detail=f"{shed.reason}: {shed.detail}",
                          level=self.ladder.level.name, batched=0)
        return request.future

    def _input_problem(self, plan: str, x: np.ndarray) -> str:
        """Why ``x`` breaks the input contract (``""`` when it holds).

        An unregistered ``plan`` skips the length check; the request
        then fails at execution with the registry's own error.
        """
        if x.dtype.kind not in "iuf":
            return (f"x dtype {x.dtype} is not a real integer or "
                    "floating type")
        if x.ndim != 1:
            return f"x must be 1-D, got shape {x.shape}"
        ncols = self.registry.ncols(plan)
        if ncols is not None and x.shape[0] != ncols:
            return (f"x has length {x.shape[0]} but matrix {plan!r} "
                    f"has {ncols} columns")
        return ""

    def query(self, plan: str, x: np.ndarray,
              deadline: Optional[Deadline] = None,
              tenant: str = "") -> ServeResponse:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(plan, x, deadline=deadline,
                           tenant=tenant).result()

    # -- observability --------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """JSON-ready snapshot across the whole serving stack."""
        with self._lock:
            completed = dict(self.completed)
        return {
            "running": self._running,
            "workers": self.n_workers,
            "completed": completed,
            "registry": self.registry.stats(),
            "admission": self.admission.stats(),
            "ladder": self.ladder.stats(),
            "resilience": self.log.counts(),
        }

    def health(self) -> Dict[str, Any]:
        """Terse liveness view: status, rung, queue depth."""
        level = self.ladder.level
        return {
            "status": "ok" if level.name == "tuned" else "degraded",
            "running": self._running,
            "level": level.name,
            "queued": self.admission.depth(),
            "pressure": round(self.admission.pressure(), 4),
            "hot_bytes": self.registry.hot_bytes(),
        }

    # -- worker side ----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            request = self.admission.take(timeout=0.05)
            if request is None:
                if not self._running:
                    return
                continue
            level = self.ladder.observe(self.admission.pressure())
            batch = [request]
            if level.batch_window > 1:
                batch += self.admission.drain_matching(
                    request.plan, level.batch_window - 1
                )
            try:
                self._execute_batch(batch, level)
            except Exception as exc:  # noqa: BLE001 - worker firewall
                # A worker must never die with futures pending; an
                # unanticipated error fails the batch explicitly.
                for req in batch:
                    if not req.future.done():
                        self._resolve(
                            req, STATUS_FAILED, None,
                            detail=f"worker error: "
                                   f"{type(exc).__name__}: {exc}",
                            level=level.name, batched=len(batch),
                        )

    def _execute_batch(self, batch: List[ServeRequest],
                       level: ServiceLevel) -> None:
        live = self._drop_expired(batch, level)
        if not live:
            return
        name = live[0].plan
        try:
            lease = self.registry.acquire(name)
        except (UnknownMatrixError, IntegrityError) as exc:
            for req in live:
                self._resolve(req, STATUS_FAILED, None,
                              detail=str(exc), level=level.name,
                              batched=len(live))
            return
        try:
            self._run_lease(lease, live, level)
        finally:
            self.registry.release(lease)

    def _run_lease(self, lease: Any, live: List[ServeRequest],
                   level: ServiceLevel) -> None:
        deadline = self._tightest_deadline(live)
        exec_lock = self._exec_lock(live[0].plan)
        try:
            with exec_lock:
                if level.naive:
                    ys = self._run_naive(lease, live)
                else:
                    ys = self._run_guarded(lease, live, level, deadline)
        except IntegrityError as exc:
            ys = [exc] * len(live)
        # Results are verified, but a request whose deadline lapsed
        # during execution is shed rather than answered late.
        for req, y in zip(live, ys):
            if isinstance(y, Exception):
                detail = (f"integrity: {y}"
                          if isinstance(y, IntegrityError)
                          else f"{type(y).__name__}: {y}")
                self._resolve(req, STATUS_FAILED, None, detail=detail,
                              level=level.name, batched=len(live))
            elif req.deadline is not None and req.deadline.expired:
                self._resolve(req, STATUS_SHED, None,
                              detail=f"{SHED_DEADLINE}: result ready "
                                     "after deadline",
                              level=level.name, batched=len(live))
            else:
                self._resolve(req, STATUS_OK, y, detail="",
                              level=level.name, batched=len(live))

    @staticmethod
    def _run_naive(lease: Any,
                   live: List[ServeRequest]) -> List[np.ndarray]:
        """The ladder's last rung: the naive reference kernel.

        Naive execution bypasses the guard, so the one thing it cannot
        survive silently is a corrupted stream — re-pin the digest
        against the guard's trusted pin first and refuse to answer on
        a mismatch.  (The digest walk costs the same order as the
        naive kernel itself, so this rung stays verified without
        changing its complexity.)
        """
        from repro.exec.plan import stream_digest

        if stream_digest(lease.spasm) != lease.guard.expected_digest:
            raise IntegrityError(
                "stream digest changed since the guard pinned it; "
                "refusing to serve naive results from an untrusted "
                "stream"
            )
        return [lease.spasm.spmv_naive(req.x) for req in live]

    def _run_guarded(self, lease: Any, live: List[ServeRequest],
                     level: ServiceLevel,
                     deadline: Optional[Deadline]) -> List[Any]:
        """Dispatch through the guard at the requested service level.

        Returns one result per request: its output, or the exception
        that failed it.  A batch that raises anything but
        :class:`IntegrityError` (a property of the matrix, not of one
        request) is re-run member by member, so one bad request
        cannot fail the others.  The tuned backend pin is honoured
        only on the ``tuned`` rung; the pin toggle is safe because
        the caller holds the plan's execution lock.
        """
        guard = lease.guard
        tuned = lease.tuned if level.use_tuned else None
        jobs = tuned.jobs if tuned is not None else None
        pinned = guard.backend
        guard.backend = tuned.backend if tuned is not None else None
        try:
            if len(live) > 1:
                try:
                    xs = np.stack([req.x for req in live])
                    ys = guard.spmv_batch(xs, jobs=jobs,
                                          deadline=deadline)
                    return [ys[i] for i in range(len(live))]
                except IntegrityError:
                    raise
                except Exception:  # noqa: BLE001 - isolate below
                    pass
            return [self._run_one(guard, req.x, jobs, deadline)
                    for req in live]
        finally:
            guard.backend = pinned

    @staticmethod
    def _run_one(guard: Any, x: np.ndarray, jobs: Optional[int],
                 deadline: Optional[Deadline]) -> Any:
        """One request through the guard; an exception is its result."""
        try:
            return guard.spmv(x, jobs=jobs, deadline=deadline)
        except Exception as exc:  # noqa: BLE001 - fails this one only
            return exc

    # -- helpers --------------------------------------------------------

    def _drop_expired(self, batch: List[ServeRequest],
                      level: ServiceLevel) -> List[ServeRequest]:
        live = []
        for req in batch:
            if req.deadline is not None and req.deadline.expired:
                self.admission.shed[SHED_DEADLINE] += 1
                self._resolve(req, STATUS_SHED, None,
                              detail=f"{SHED_DEADLINE}: expired while "
                                     "queued",
                              level=level.name, batched=0)
            else:
                live.append(req)
        return live

    @staticmethod
    def _tightest_deadline(live: List[ServeRequest]
                           ) -> Optional[Deadline]:
        tightest: Optional[Deadline] = None
        for req in live:
            if req.deadline is None:
                continue
            if (tightest is None
                    or req.deadline.remaining() < tightest.remaining()):
                tightest = req.deadline
        return tightest

    def _exec_lock(self, name: str) -> threading.Lock:
        with self._lock:
            lock = self._exec_locks.get(name)
            if lock is None:
                lock = self._exec_locks[name] = threading.Lock()
            return lock

    def _resolve(self, request: ServeRequest, status: str,
                 y: Optional[np.ndarray], detail: str, level: str,
                 batched: int) -> None:
        response = ServeResponse(
            rid=request.rid, plan=request.plan, tenant=request.tenant,
            status=status, y=y, detail=detail, level=level,
            batched=batched,
            latency_s=time.monotonic() - request.t_submit,
        )
        with self._lock:
            self.completed[status] = self.completed.get(status, 0) + 1
        request.future.set_result(response)


def serve_matrices(matrices: Dict[str, Any], cache: Any = None,
                   byte_budget: Optional[int] = None,
                   admission: Optional[AdmissionConfig] = None,
                   workers: int = 2, seed: int = 0,
                   start: bool = True) -> SpmvServer:
    """Build a server over named COO matrices (the one-call setup).

    ``matrices`` maps registry names to
    :class:`~repro.core.io.COOMatrix` instances; each is compiled
    through the cached pipeline, tuned records are picked up from
    ``cache`` when present, and the server is started unless
    ``start=False``.
    """
    registry = PlanRegistry(cache=cache, byte_budget=byte_budget,
                            seed=seed)
    for name, coo in matrices.items():
        registry.register(name, coo=coo)
    server = SpmvServer(registry, admission=admission, workers=workers)
    return server.start() if start else server
