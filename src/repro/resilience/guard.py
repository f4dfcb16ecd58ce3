"""Guarded plan execution: detect, contain, recover — never corrupt.

:class:`ExecutionGuard` wraps a matrix's compiled-plan execution with
the integrity machinery the fast paths otherwise lack:

* **digest pinning** — the stream digest is recorded when the guard is
  created (the moment the artifact is trusted); any later corruption
  of the position words or values re-keys the stream and is caught
  before dispatch.  Unrecoverable by construction — the naive engine
  would chew the same corrupt stream — so it raises
  :class:`IntegrityError` rather than "recovering" to a wrong answer.
* **plan validation** — every newly acquired plan is checked with
  :meth:`~repro.exec.plan.ExecutionPlan.validate` (structural
  invariants + build-time checksum) before its arrays are dispatched.
* **sampled divergence guard** — every ``check_interval``-th call, a
  small random row block of the output is cross-checked against
  reference slices captured through the naive expansion path
  (:class:`RowOracle`).
* **retry with rebuild** — a plan that fails validation or execution
  is dropped (and its persisted artifact quarantined through the
  cache's own machinery), rebuilt from the stream, and retried up to
  ``max_attempts`` times with doubling ``backoff_s`` sleeps in
  between — every sleep clipped by the ``max_retry_wall_s`` cap and
  the caller's per-request deadline (see :class:`_RetryBudget`), so
  retries can never blow a request budget.
* **automatic fallback** — when the plan engine cannot produce a
  trustworthy answer, execution falls back to
  :meth:`~repro.core.format.SpasmMatrix.spmv_naive`.

Every incident is appended to a :class:`ResilienceLog` as a structured
:class:`ResilienceEvent`; the clean path costs one identity check plus
the amortized sampled cross-check (``guard.overhead_us`` in the traced
``spmvbench`` run).
"""

from __future__ import annotations

import collections
import dataclasses
import math
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np


class IntegrityError(RuntimeError):
    """Detected corruption with no trusted engine left to fall back to.

    Carries the :class:`ResilienceEvent` records accumulated on the
    failing call path on ``.events``.
    """

    def __init__(self, message: str,
                 events: Optional[List["ResilienceEvent"]] = None):
        super().__init__(message)
        self.events: List[ResilienceEvent] = list(events or [])


@dataclasses.dataclass(frozen=True)
class ResilienceEvent:
    """One guard incident.

    Attributes
    ----------
    kind:
        ``detect`` (corruption found), ``rebuild`` (plan recompiled),
        ``retry`` (execution re-attempted), ``fallback`` (switched to
        the naive engine), ``quarantine`` (cache entry pulled),
        ``deadline`` (retry budget exhausted before recovery
        completed), ``degrade``/``restore`` (serving-layer ladder
        transitions), ``evict`` (plan registry pressure eviction).
    surface:
        The layer involved: ``stream``, ``plan``, ``worker``,
        ``output`` or ``cache``.
    detail:
        Human-readable description.
    action:
        What the guard did about it (``rebuild``, ``retry``,
        ``fallback``, ``raise``, ``none``).
    attempt:
        1-based acquisition attempt the event occurred on.
    backend:
        Name of the kernel backend involved (``""`` when the incident
        precedes backend resolution, e.g. stream/plan surfaces).
    """

    kind: str
    surface: str
    detail: str
    action: str = "none"
    attempt: int = 0
    backend: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def render(self) -> str:
        suffix = f" (attempt {self.attempt})" if self.attempt else ""
        via = f" [{self.backend}]" if self.backend else ""
        return (f"{self.kind:10s} {self.surface:7s} -> "
                f"{self.action}{suffix}{via}: {self.detail}")


class ResilienceLog:
    """Bounded, thread-safe log of guard incidents.

    Keeps the latest :attr:`CAPACITY` events in a ring plus running
    per-kind counters, so a long-lived server sharing one log stays
    fixed in memory while :meth:`counts` stays exact over its whole
    lifetime at O(kinds) per call.
    """

    #: Events retained by the ring.
    CAPACITY = 4096

    def __init__(self) -> None:
        self._ring: Deque[ResilienceEvent] = collections.deque(
            maxlen=self.CAPACITY
        )
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, event: ResilienceEvent) -> ResilienceEvent:
        with self._lock:
            self._ring.append(event)
            self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
        return event

    @property
    def events(self) -> List[ResilienceEvent]:
        """Snapshot of the retained events, oldest first."""
        with self._lock:
            return list(self._ring)

    def counts(self) -> Dict[str, int]:
        """Event tally by kind, over every event ever recorded."""
        with self._lock:
            return dict(self._counts)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [event.to_dict() for event in self.events]

    def render(self) -> str:
        return "\n".join(event.render() for event in self.events)

    def __len__(self) -> int:
        return len(self._ring)


@dataclasses.dataclass(frozen=True)
class GuardConfig:
    """Knobs of the guarded execution layer.

    The defaults keep the clean path lean; the fault campaign's
    :data:`~repro.resilience.chaos.CHAOS_GUARD` tightens every interval
    to 1 so each injected fault is confronted on the very next call.
    """

    #: Validate a newly acquired plan before its first dispatch.
    validate_plan: bool = True
    #: Additionally run the symbolic proof obligations of
    #: :mod:`repro.analyze` (segment coverage, shard disjointness,
    #: index-width, backend capability) on a newly acquired plan; a
    #: refuted obligation is treated like a failed validation
    #: (detect -> rebuild).  Off by default: strictly stronger than
    #: ``validate_plan`` but several times the acquisition cost.
    static_analysis: bool = False
    #: Re-pin the stream digest every N-th call (0 = only at guard
    #: creation and on rebuilds; digesting the stream is O(stream)).
    repin_interval: int = 0
    #: Re-run full plan validation (checksum recompute) every N-th
    #: call (0 = only on acquisition).
    revalidate_interval: int = 0
    #: Cross-check sampled rows against the naive oracle every N-th
    #: call (0 = off).
    check_interval: int = 16
    #: Rows sampled by the divergence guard.
    check_rows: int = 4
    #: Plan acquisitions attempted before falling back to naive.
    max_attempts: int = 2
    #: Sleep between rebuild attempts (bounded backoff, doubling).
    backoff_s: float = 0.0
    #: Hard cap on the total wall time a single call may spend in
    #: retry/backoff before giving up on the plan engine (the doubling
    #: backoff is clipped so the sum of sleeps never exceeds this).
    #: ``0`` disables the cap.  A per-request deadline passed to the
    #: call tightens this further.
    max_retry_wall_s: float = 30.0
    #: Allow the naive fallback (disabling it proves detection alone
    #: would catch everything).
    fallback: bool = True


class _RetryBudget:
    """Wall-clock and deadline aware backoff for one guarded call.

    Replaces the old unconditional ``sleep(backoff); backoff *= 2``
    loop: every sleep is clipped to both the guard's
    :attr:`GuardConfig.max_retry_wall_s` cap and the request's own
    deadline (any object exposing ``remaining() -> float``), so a
    retry ladder can never blow a request budget.  ``exhausted``
    flips once no retry time remains — the caller stops re-attempting
    and moves straight to its terminal action (fallback or raise).
    """

    def __init__(self, backoff_s: float, wall_s: float,
                 deadline: Any = None):
        self.backoff_s = float(backoff_s)
        self.wall_s = float(wall_s) if wall_s else 0.0
        self.deadline = deadline
        self._start = time.monotonic()

    def remaining(self) -> float:
        """Retry seconds left under the cap and the deadline."""
        left = math.inf
        if self.wall_s > 0:
            left = self.wall_s - (time.monotonic() - self._start)
        if self.deadline is not None:
            left = min(left, float(self.deadline.remaining()))
        return left

    @property
    def exhausted(self) -> bool:
        """Whether any retry time remains."""
        return self.remaining() <= 0.0

    def sleep(self) -> float:
        """One clipped backoff sleep; doubles for the next attempt.

        Returns the time actually slept (0.0 when no backoff is
        configured or no budget remains).
        """
        if self.backoff_s <= 0:
            return 0.0
        nap = min(self.backoff_s, max(self.remaining(), 0.0))
        self.backoff_s *= 2
        if nap > 0 and math.isfinite(nap):
            time.sleep(nap)
            return nap
        return 0.0


class RowOracle:
    """Reference slices for a sampled row block, built the naive way.

    Built once per guard from the stream's expansion — the same path
    :meth:`~repro.core.format.SpasmMatrix.spmv_naive` executes — and
    therefore independent of every plan array.  ``mismatches`` checks
    a computed output vector against ``sum(vals * x[cols])`` per
    sampled row.
    """

    def __init__(self, rows: np.ndarray,
                 slices: List[Tuple[np.ndarray, np.ndarray]]):
        self.rows = rows
        self.slices = slices

    @classmethod
    def build(cls, spasm: Any, rows: np.ndarray) -> "RowOracle":
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        rows = rows[(rows >= 0) & (rows < spasm.shape[0])]
        exp_rows, exp_cols, exp_vals = spasm._expand()
        keep = exp_vals != 0.0
        exp_rows = exp_rows[keep]
        exp_cols = exp_cols[keep]
        exp_vals = exp_vals[keep]
        slices = []
        for row in rows:
            sel = exp_rows == row
            slices.append((exp_cols[sel], exp_vals[sel]))
        return cls(rows=rows, slices=slices)

    def mismatches(self, x: np.ndarray,
                   y: np.ndarray) -> List[int]:
        """Sampled rows where ``y`` diverges from the reference."""
        bad: List[int] = []
        for row, (cols, vals) in zip(self.rows, self.slices):
            expected = float(np.dot(vals, x[cols]))
            if not np.isclose(y[row], expected,
                              rtol=1e-9, atol=1e-12):
                bad.append(int(row))
        return bad


class ExecutionGuard:
    """Guarded SpMV execution for one encoded matrix.

    Parameters
    ----------
    spasm:
        The :class:`~repro.core.format.SpasmMatrix` to execute.  The
        stream digest is pinned **now** — the guard treats the stream
        as trusted at construction time.
    config:
        :class:`GuardConfig` knobs (defaults are production-lean).
    cache:
        Optional :class:`~repro.pipeline.cache.ArtifactCache` used for
        plan persistence; corrupt entries quarantine themselves on
        load.
    log:
        Optional shared :class:`ResilienceLog`; a fresh one is created
        otherwise (exposed as :attr:`log`).
    seed:
        Seed of the divergence guard's row sampler.
    backend:
        Kernel backend every guarded dispatch runs on (``None``
        negotiates per plan); incidents on the worker/output surfaces
        name the resolved backend in their events.
    """

    def __init__(self, spasm: Any,
                 config: Optional[GuardConfig] = None,
                 cache: Any = None,
                 log: Optional[ResilienceLog] = None,
                 seed: int = 0,
                 backend: Optional[str] = None):
        from repro.exec.plan import stream_digest

        self.spasm = spasm
        self.config = config or GuardConfig()
        self.cache = cache
        self.log = log if log is not None else ResilienceLog()
        self.backend = backend
        self.expected_digest = stream_digest(spasm)
        self._rng = np.random.default_rng(seed)
        self._oracle: Optional[RowOracle] = None
        self._plan: Any = None
        self._calls = 0

    # -- internals -----------------------------------------------------

    def _due(self, interval: int) -> bool:
        return bool(interval) and self._calls % interval == 0

    def _engine_name(self, plan: Any, op: str) -> str:
        """Name of the backend a dispatch resolved (for event labels).

        Falls back to the configured name when resolution itself fails
        — the event should still say which engine was being asked for.
        """
        from repro.exec.backends import resolve_backend

        try:
            return resolve_backend(self.backend, plan=plan, op=op).name
        except Exception:
            return str(self.backend or "auto")

    def _oracle_rows(self) -> np.ndarray:
        nrows = int(self.spasm.shape[0])
        n = min(self.config.check_rows, nrows)
        return self._rng.choice(nrows, size=n, replace=False)

    def _invalidate(self) -> None:
        """Drop every cached plan so the next acquisition rebuilds."""
        self._plan = None
        self.spasm._plan = None

    def _acquire(self, attempt: int) -> Any:
        """A validated plan for the pinned stream, or ``None``.

        Detection events are logged here; the caller decides between
        rebuild, fallback and raise.
        """
        plan = self._plan
        fresh = plan is None
        try:
            if fresh:
                plan = self.spasm.plan(cache=self.cache)
            elif self._due(self.config.repin_interval):
                # Re-acquire through the matrix: recomputes the stream
                # digest and rebuilds the plan if the stream changed.
                plan = self.spasm.plan(cache=self.cache)
                fresh = plan is not self._plan
        except IntegrityError:
            raise
        except Exception as exc:
            # A stream the compiler cannot even decode: unrecoverable.
            self.log.record(ResilienceEvent(
                kind="detect", surface="stream", action="raise",
                attempt=attempt,
                detail=f"plan compilation failed: "
                       f"{type(exc).__name__}: {exc}",
            ))
            raise IntegrityError(
                f"encoded stream cannot be compiled: {exc}",
                events=self.log.events,
            ) from exc
        if plan.digest != self.expected_digest:
            self.log.record(ResilienceEvent(
                kind="detect", surface="stream", action="raise",
                attempt=attempt,
                detail=(
                    "stream digest changed after pinning "
                    f"({plan.digest[:12]}... != "
                    f"{self.expected_digest[:12]}...)"
                ),
            ))
            raise IntegrityError(
                "encoded stream corrupted after the guard pinned it: "
                "no engine can produce a trustworthy result",
                events=self.log.events,
            )
        revalidate = (
            (fresh and self.config.validate_plan)
            or self._due(self.config.revalidate_interval)
        )
        if revalidate:
            problems = plan.validate()
            if problems:
                self.log.record(ResilienceEvent(
                    kind="detect", surface="plan", action="rebuild",
                    attempt=attempt, detail="; ".join(problems),
                ))
                self._invalidate()
                return None
        if fresh and self.config.static_analysis:
            from repro.analyze.symbolic import analyze_plan

            report = analyze_plan(
                plan, spasm=self.spasm, backend=self.backend
            )
            if report.refuted:
                self.log.record(ResilienceEvent(
                    kind="detect", surface="plan", action="rebuild",
                    attempt=attempt,
                    detail="; ".join(
                        o.render() for o in report.refuted
                    ),
                ))
                self._invalidate()
                return None
        self._plan = plan
        return plan

    def _checked_output(self, plan: Any, x: np.ndarray,
                        jobs: Optional[int], attempt: int,
                        ) -> Optional[np.ndarray]:
        """Run the plan and cross-check sampled rows; ``None`` on a
        divergence (the plan is dropped for rebuild)."""
        out = plan.spmv(x, jobs=jobs, backend=self.backend)
        if self._due(self.config.check_interval):
            if self._oracle is None:
                self._oracle = RowOracle.build(
                    self.spasm, self._oracle_rows()
                )
            bad = self._oracle.mismatches(x, out)
            if bad:
                self.log.record(ResilienceEvent(
                    kind="detect", surface="output", action="rebuild",
                    attempt=attempt,
                    backend=self._engine_name(plan, "spmv"),
                    detail=(
                        f"sampled rows {bad} diverge from the naive "
                        "oracle"
                    ),
                ))
                self._invalidate()
                return None
        return out

    def _add_y(self, out: np.ndarray,
               y: Optional[np.ndarray]) -> np.ndarray:
        if y is None:
            return out
        y = np.asarray(y, dtype=np.float64)
        if y.shape != out.shape:
            raise ValueError(
                f"y of shape {y.shape} incompatible with "
                f"{self.spasm.shape}"
            )
        return out + y

    # -- public API ----------------------------------------------------

    def spmv(self, x: np.ndarray, y: Optional[np.ndarray] = None,
             jobs: Optional[int] = None,
             deadline: Any = None) -> np.ndarray:
        """Guarded ``y = A @ x + y``.

        Semantics match :meth:`ExecutionPlan.spmv` exactly on the
        clean path (bitwise, including sharding determinism; dispatch
        runs on the guard's configured ``backend``).  On a detected
        fault the call recovers through rebuild/retry, then the naive
        engine; it raises :class:`IntegrityError` only when the pinned
        stream itself is corrupt.  ``deadline`` (any object with
        ``remaining() -> float``, e.g.
        :class:`repro.serve.Deadline`) clips every retry sleep and
        short-circuits remaining attempts once the budget is gone —
        recovery then jumps straight to the terminal action.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.spasm.shape[1],):
            raise ValueError(
                f"x of shape {x.shape} incompatible with "
                f"{self.spasm.shape}"
            )
        self._calls += 1
        budget = _RetryBudget(self.config.backoff_s,
                              self.config.max_retry_wall_s, deadline)
        for attempt in range(1, self.config.max_attempts + 1):
            if attempt > 1:
                if budget.exhausted:
                    self.log.record(ResilienceEvent(
                        kind="deadline", surface="plan",
                        action="fallback", attempt=attempt,
                        detail="retry budget exhausted before "
                               "recovery completed",
                    ))
                    break
                self.log.record(ResilienceEvent(
                    kind="rebuild", surface="plan", action="retry",
                    attempt=attempt,
                    detail="recompiling the plan from the stream",
                ))
                budget.sleep()
            plan = self._acquire(attempt)
            if plan is None:
                continue
            try:
                out = self._checked_output(plan, x, jobs, attempt)
            except IntegrityError:
                raise
            except Exception as exc:
                self.log.record(ResilienceEvent(
                    kind="detect", surface="worker", action="retry",
                    attempt=attempt,
                    backend=self._engine_name(plan, "spmv"),
                    detail=f"{type(exc).__name__}: {exc}",
                ))
                continue
            if out is not None:
                return self._add_y(out, y)
        # Out of attempts: the plan engine cannot be trusted.
        if not self.config.fallback:
            self.log.record(ResilienceEvent(
                kind="detect", surface="plan", action="raise",
                backend=str(self.backend or "auto"),
                detail="plan engine exhausted attempts, fallback "
                       "disabled",
            ))
            raise IntegrityError(
                "plan engine failed every attempt and fallback is "
                "disabled",
                events=self.log.events,
            )
        self.log.record(ResilienceEvent(
            kind="fallback", surface="plan", action="fallback",
            backend=str(self.backend or "auto"),
            detail=(
                f"plan engine failed {self.config.max_attempts} "
                "attempts; executing through spmv_naive"
            ),
        ))
        return self.spasm.spmv_naive(x, y)

    def spmm(self, x_block: np.ndarray,
             y_block: Optional[np.ndarray] = None,
             jobs: Optional[int] = None,
             deadline: Any = None) -> np.ndarray:
        """Guarded multi-vector execution (validation + fallback).

        The per-row divergence oracle applies to SpMV only; SpMM gets
        plan validation, worker containment and the naive fallback.
        ``deadline`` short-circuits remaining attempts as in
        :meth:`spmv`.
        """
        self._calls += 1
        budget = _RetryBudget(self.config.backoff_s,
                              self.config.max_retry_wall_s, deadline)
        for attempt in range(1, self.config.max_attempts + 1):
            if attempt > 1:
                if budget.exhausted:
                    self.log.record(ResilienceEvent(
                        kind="deadline", surface="plan",
                        action="fallback", attempt=attempt,
                        detail="retry budget exhausted before "
                               "recovery completed",
                    ))
                    break
                budget.sleep()
            plan = self._acquire(attempt)
            if plan is None:
                continue
            try:
                return plan.spmm(x_block, y_block=y_block, jobs=jobs,
                                 backend=self.backend)
            except IntegrityError:
                raise
            except ValueError:
                raise  # caller error (shape), not a fault
            except Exception as exc:
                self.log.record(ResilienceEvent(
                    kind="detect", surface="worker", action="retry",
                    attempt=attempt,
                    backend=self._engine_name(plan, "spmm"),
                    detail=f"{type(exc).__name__}: {exc}",
                ))
                self._invalidate()
        if not self.config.fallback:
            raise IntegrityError(
                "plan engine failed every attempt and fallback is "
                "disabled",
                events=self.log.events,
            )
        self.log.record(ResilienceEvent(
            kind="fallback", surface="plan", action="fallback",
            backend=str(self.backend or "auto"),
            detail="executing SpMM through spmm_naive",
        ))
        return self.spasm.spmm_naive(x_block, y_block)

    def spmv_batch(self, xs: np.ndarray,
                   jobs: Optional[int] = None,
                   deadline: Any = None) -> np.ndarray:
        """Guarded batched SpMV: one ``(n_queries, ncols)`` row per query.

        Executes through :meth:`ExecutionPlan.spmv_batch` (blocked
        SpMM), so the clean path is bitwise-identical to stacking
        guarded :meth:`spmv` calls.  The sampled divergence oracle
        cross-checks the first query of the batch when due; recovery
        follows the same rebuild/retry/fallback ladder as
        :meth:`spmv`, with retries clipped by ``deadline``.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.spasm.shape[1]:
            raise ValueError(
                f"xs of shape {xs.shape} incompatible with "
                f"{self.spasm.shape}; expected (n_queries, "
                f"{self.spasm.shape[1]})"
            )
        self._calls += 1
        budget = _RetryBudget(self.config.backoff_s,
                              self.config.max_retry_wall_s, deadline)
        for attempt in range(1, self.config.max_attempts + 1):
            if attempt > 1:
                if budget.exhausted:
                    self.log.record(ResilienceEvent(
                        kind="deadline", surface="plan",
                        action="fallback", attempt=attempt,
                        detail="retry budget exhausted before "
                               "recovery completed",
                    ))
                    break
                self.log.record(ResilienceEvent(
                    kind="rebuild", surface="plan", action="retry",
                    attempt=attempt,
                    detail="recompiling the plan from the stream",
                ))
                budget.sleep()
            plan = self._acquire(attempt)
            if plan is None:
                continue
            try:
                out = plan.spmv_batch(xs, jobs=jobs,
                                      backend=self.backend)
            except IntegrityError:
                raise
            except ValueError:
                raise  # caller error (shape), not a fault
            except Exception as exc:
                self.log.record(ResilienceEvent(
                    kind="detect", surface="worker", action="retry",
                    attempt=attempt,
                    backend=self._engine_name(plan, "spmv_batch"),
                    detail=f"{type(exc).__name__}: {exc}",
                ))
                self._invalidate()
                continue
            if xs.shape[0] and self._due(self.config.check_interval):
                if self._oracle is None:
                    self._oracle = RowOracle.build(
                        self.spasm, self._oracle_rows()
                    )
                bad = self._oracle.mismatches(xs[0], out[0])
                if bad:
                    self.log.record(ResilienceEvent(
                        kind="detect", surface="output",
                        action="rebuild", attempt=attempt,
                        backend=self._engine_name(plan, "spmv_batch"),
                        detail=(
                            f"sampled rows {bad} of batch query 0 "
                            "diverge from the naive oracle"
                        ),
                    ))
                    self._invalidate()
                    continue
            return out
        if not self.config.fallback:
            self.log.record(ResilienceEvent(
                kind="detect", surface="plan", action="raise",
                backend=str(self.backend or "auto"),
                detail="plan engine exhausted attempts, fallback "
                       "disabled",
            ))
            raise IntegrityError(
                "plan engine failed every attempt and fallback is "
                "disabled",
                events=self.log.events,
            )
        self.log.record(ResilienceEvent(
            kind="fallback", surface="plan", action="fallback",
            backend=str(self.backend or "auto"),
            detail=(
                f"plan engine failed {self.config.max_attempts} "
                "attempts; executing the batch through spmv_naive"
            ),
        ))
        if xs.shape[0] == 0:
            return np.zeros((0, self.spasm.shape[0]), dtype=np.float64)
        return np.stack(
            [self.spasm.spmv_naive(x) for x in xs]
        )


def guarded_spmv(spasm: Any, x: np.ndarray,
                 y: Optional[np.ndarray] = None,
                 jobs: Optional[int] = None,
                 config: Optional[GuardConfig] = None,
                 cache: Any = None,
                 log: Optional[ResilienceLog] = None,
                 backend: Optional[str] = None) -> np.ndarray:
    """One-shot guarded SpMV (constructs a transient guard).

    Hot loops should hold an :class:`ExecutionGuard` instead — the
    guard's pinning and oracle construction amortize across calls.
    """
    return ExecutionGuard(
        spasm, config=config, cache=cache, log=log, backend=backend
    ).spmv(x, y=y, jobs=jobs)
