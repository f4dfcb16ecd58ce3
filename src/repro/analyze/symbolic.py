"""Symbolic safety proofs for compiled execution plans.

The compiled fast path dispatches with **no per-slot checks at all**:
the gather/segment-reduce kernels and scipy's unchecked C CSR routines
trust the plan arrays completely, and the compact int32 layout makes
index overflow a real hazard class.  This module is the static
counterpart of that trust — an abstract-interpretation pass over the
plan arrays that, without executing a single SpMV, *proves* (or
refutes, with a pinpointed witness) the five obligations every
dispatch relies on:

``index_width``
    Every index the kernels ever materialize — gather indices into
    ``x``, segment rows, cumulative slot offsets up to ``n_slots`` —
    is representable in the chosen index dtype, with in-range values.
    The proof carries a **certified symbolic bound** ("this layout is
    safe up to N slots / rows / columns"), so
    :func:`repro.exec.plan.index_dtype_for` decisions are certified
    rather than heuristic; :func:`certify_index_width` is pure symbolic
    arithmetic over extents and is usable without allocating any array.
``coverage``
    The reduceat/bincount segmentation writes each output row exactly
    once: the segment pointers partition the slot stream with no gaps
    or overlaps, segment rows are strictly increasing and in range,
    and rows without a segment are written exactly once by the
    zero-initialization of the output buffer.
``shards``
    Row-block shard grids have provably disjoint write sets for every
    worker count: the partition covers all segments exactly once and
    consecutive shards' row intervals never intersect, so
    ``spmv(jobs=N)`` bitwise-determinism is a theorem, not a test
    observation.
``image``
    Packed HBM memory-image offsets stay inside their channel
    regions: every channel's byte length equals the exact footprint
    the descriptor tables imply, so the round-robin cursors of
    :func:`repro.hw.memory_image.unpack_images` can never read past a
    region, and the descriptor totals account for every group.
``backend``
    Every op the plan can be asked to run (``spmv``/``spmm``/
    ``spmv_batch``) resolves to a registered, available kernel backend
    whose declared :meth:`~repro.exec.backends.base.ExecutionBackend.
    capabilities` cover the plan's stored layout — a dispatch outside
    a backend's capability envelope is refuted before any kernel would
    silently mis-execute, with a witness naming the backend and the
    offending dtype/op.

Refuted obligations surface as ``analyze.*`` diagnostics through
:mod:`repro.verify.analyze_rules`; :func:`analyze_plan` is the direct
entry point and :func:`analyze_program` the whole-artifact one.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Obligation verdicts.
PROVED = "proved"
REFUTED = "refuted"
SKIPPED = "skipped"

#: The five obligation classes, report order.
OBLIGATION_IDS = (
    "index_width", "coverage", "shards", "image", "backend",
)

#: Default worker counts the shard obligation quantifies over (the
#: plan's own auto pick is always added).
DEFAULT_JOBS_GRID = (1, 2, 3, 4, 7, 8, 16)


@dataclasses.dataclass(frozen=True)
class IndexWidthCertificate:
    """The symbolic outcome of the index-width proof.

    Pure arithmetic over extents — no arrays are touched — so
    certificates for ``_INT32_MAX``-adjacent synthetic plans cost
    nothing to derive (the boundary tests construct them directly).

    Attributes
    ----------
    dtype:
        The index dtype under certification (``"int32"``/``"int64"``).
    capacity:
        Largest value the dtype represents.
    extent:
        The plan's governing extent: ``max(nrows, ncols, n_slots)``
        (``seg_starts`` holds offsets up to ``n_slots``, so the slot
        count competes with the shape).
    safe:
        Whether every derivable index fits the dtype.
    headroom:
        ``capacity - extent`` (negative exactly when unsafe).
    compact_sufficient:
        Whether the compact int32 layout would already suffice — by
        construction this flips exactly where
        :func:`repro.exec.plan.index_dtype_for` flips.
    """

    dtype: str
    capacity: int
    extent: int
    safe: bool
    headroom: int
    compact_sufficient: bool

    def bound(self) -> str:
        """Human rendering of the certified bound."""
        return (
            f"{self.dtype} layout certified for extents up to "
            f"{self.capacity} (plan extent {self.extent}, headroom "
            f"{self.headroom})"
        )


def certify_index_width(shape: Tuple[int, int], n_slots: int,
                        dtype: Any) -> IndexWidthCertificate:
    """Symbolically certify an index layout for the given extents.

    ``shape``/``n_slots`` describe the plan abstractly; no arrays are
    required, so boundary cases near ``2**31 - 1`` can be certified
    without allocating anything.  The verdict flips exactly where
    :func:`repro.exec.plan.index_dtype_for` switches to int64.
    """
    dt = np.dtype(dtype)
    if dt.kind != "i":
        raise ValueError(f"not an index dtype: {dt}")
    capacity = int(np.iinfo(dt).max)
    extent = max(int(shape[0]), int(shape[1]), int(n_slots))
    int32_capacity = int(np.iinfo(np.int32).max)
    return IndexWidthCertificate(
        dtype=dt.name,
        capacity=capacity,
        extent=extent,
        safe=extent <= capacity,
        headroom=capacity - extent,
        compact_sufficient=extent <= int32_capacity,
    )


@dataclasses.dataclass(frozen=True)
class Obligation:
    """One proof obligation's verdict.

    Attributes
    ----------
    obligation_id:
        One of :data:`OBLIGATION_IDS`.
    status:
        :data:`PROVED`, :data:`REFUTED` or :data:`SKIPPED` (the
        required artifact was not in scope).
    statement:
        What was proved — or, when refuted, the violated property with
        a pinpointed witness (array, position, value).
    bound:
        The certified symbolic bound, when the proof derives one.
    details:
        Machine-readable payload (extents, witnesses, grids).
    """

    obligation_id: str
    status: str
    statement: str
    bound: Optional[str] = None
    details: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict view."""
        payload: Dict[str, Any] = {
            "obligation": self.obligation_id,
            "status": self.status,
            "statement": self.statement,
        }
        if self.bound is not None:
            payload["bound"] = self.bound
        if self.details:
            payload["details"] = dict(self.details)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Obligation":
        """Inverse of :meth:`as_dict` (cache re-materialization)."""
        return cls(
            obligation_id=str(payload["obligation"]),
            status=str(payload["status"]),
            statement=str(payload["statement"]),
            bound=(str(payload["bound"])
                   if payload.get("bound") is not None else None),
            details=dict(payload.get("details", {})),
        )

    def render(self) -> str:
        """One-line human rendering."""
        line = (
            f"{self.status.upper():7s} {self.obligation_id}: "
            f"{self.statement}"
        )
        if self.bound:
            line += f" [{self.bound}]"
        return line


@dataclasses.dataclass
class AnalysisReport:
    """Outcome of one symbolic analysis pass."""

    obligations: List[Obligation] = dataclasses.field(
        default_factory=list
    )
    matrix: Optional[str] = None

    @property
    def proved(self) -> List[Obligation]:
        return [o for o in self.obligations if o.proved]

    @property
    def refuted(self) -> List[Obligation]:
        return [o for o in self.obligations if o.refuted]

    @property
    def ok(self) -> bool:
        """True when no obligation was refuted."""
        return not self.refuted

    def obligation(self, obligation_id: str) -> Obligation:
        """The verdict for one obligation class."""
        for o in self.obligations:
            if o.obligation_id == obligation_id:
                return o
        raise KeyError(obligation_id)

    def summary(self) -> str:
        skipped = [
            o for o in self.obligations if o.status == SKIPPED
        ]
        parts = [
            f"{len(self.proved)} proved",
            f"{len(self.refuted)} refuted",
        ]
        if skipped:
            parts.append(f"{len(skipped)} skipped")
        label = f" for {self.matrix}" if self.matrix else ""
        return (
            f"{len(self.obligations)} obligations{label}: "
            + ", ".join(parts)
        )

    def render(self) -> str:
        lines = [o.render() for o in self.obligations]
        lines.append(self.summary())
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "matrix": self.matrix,
            "ok": self.ok,
            "proved": len(self.proved),
            "refuted": len(self.refuted),
            "obligations": [o.as_dict() for o in self.obligations],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AnalysisReport":
        return cls(
            obligations=[
                Obligation.from_dict(o)
                for o in payload.get("obligations", [])
            ],
            matrix=payload.get("matrix"),
        )


def _first_violation(mask: np.ndarray) -> int:
    """Index of the first True entry of a violation mask."""
    return int(np.flatnonzero(mask)[0])


# ---------------------------------------------------------------------
# obligation (a): index-width safety
# ---------------------------------------------------------------------

def check_index_width(plan: Any) -> Obligation:
    """Prove every derivable index is representable and in range.

    Two layers: the *symbolic* layer certifies the layout from extents
    alone (:func:`certify_index_width` — the bound that makes
    ``index_dtype_for`` decisions certified), and the *concrete* layer
    checks the actual arrays against the ranges the symbolic layer
    assumed (gather indices inside ``[0, ncols)``, a single index
    dtype across all three index arrays).
    """
    oid = "index_width"
    if plan.cols.dtype != plan.seg_starts.dtype or (
        plan.cols.dtype != plan.seg_rows.dtype
    ):
        return Obligation(
            oid, REFUTED,
            f"index arrays disagree on width: cols={plan.cols.dtype.name}, "
            f"seg_starts={plan.seg_starts.dtype.name}, "
            f"seg_rows={plan.seg_rows.dtype.name}",
            details={"witness": "dtype"},
        )
    try:
        cert = certify_index_width(
            plan.shape, plan.n_slots, plan.cols.dtype
        )
    except ValueError:
        return Obligation(
            oid, REFUTED,
            f"{plan.cols.dtype.name} is not an index dtype",
            details={"witness": "dtype"},
        )
    if not cert.safe:
        return Obligation(
            oid, REFUTED,
            f"{cert.dtype} cannot address this plan: extent "
            f"{cert.extent} exceeds capacity {cert.capacity} "
            f"(overflow by {-cert.headroom})",
            bound=cert.bound(),
            details={"capacity": cert.capacity, "extent": cert.extent},
        )
    if plan.n_slots:
        cols = plan.cols
        bad = (cols < 0) | (cols >= plan.shape[1])
        if bad.any():
            i = _first_violation(bad)
            return Obligation(
                oid, REFUTED,
                f"gather index cols[{i}] = {int(cols[i])} outside "
                f"[0, {plan.shape[1]}): the unchecked gather would "
                "read out of bounds",
                bound=cert.bound(),
                details={"witness": f"cols[{i}]",
                         "value": int(cols[i])},
            )
    return Obligation(
        oid, PROVED,
        f"every gather/scatter index and segment offset fits "
        f"{cert.dtype} and stays in range",
        bound=cert.bound(),
        details={
            "capacity": cert.capacity,
            "extent": cert.extent,
            "headroom": cert.headroom,
            "compact_sufficient": cert.compact_sufficient,
        },
    )


# ---------------------------------------------------------------------
# obligation (b): segment coverage
# ---------------------------------------------------------------------

def check_segment_coverage(plan: Any) -> Obligation:
    """Prove the segmentation writes each output row exactly once.

    The kernels zero-initialize the output and then write exactly one
    reduced value per segment, so write-exactly-once is equivalent to:
    segment pointers partition ``[0, n_slots)`` (start at 0, strictly
    increase, never pass the stream) and segment rows are strictly
    increasing inside ``[0, nrows)`` (each row owns at most one
    segment).  Rows without a segment keep their initialization write.
    """
    oid = "coverage"
    nrows = int(plan.shape[0])
    n_slots = plan.n_slots
    n_segments = plan.n_segments
    if n_segments == 0:
        if n_slots == 0:
            return Obligation(
                oid, PROVED,
                f"empty plan: all {nrows} output rows are written "
                "exactly once by zero-initialization",
            )
        return Obligation(
            oid, REFUTED,
            f"{n_slots} slots but no segment to reduce them into "
            "(the whole stream would be dropped)",
            details={"witness": "seg_starts"},
        )
    starts = plan.seg_starts
    rows = plan.seg_rows
    if starts.shape != rows.shape:
        return Obligation(
            oid, REFUTED,
            f"seg_starts/seg_rows shape mismatch: {starts.shape} vs "
            f"{rows.shape}",
            details={"witness": "shape"},
        )
    if int(starts[0]) != 0:
        return Obligation(
            oid, REFUTED,
            f"seg_starts[0] = {int(starts[0])}: slots before the "
            "first segment would never be reduced (gap)",
            details={"witness": "seg_starts[0]"},
        )
    gaps = np.diff(starts) <= 0
    if gaps.any():
        i = _first_violation(gaps)
        return Obligation(
            oid, REFUTED,
            f"seg_starts[{i + 1}] = {int(starts[i + 1])} does not "
            f"advance past seg_starts[{i}] = {int(starts[i])}: "
            "segments overlap or run empty",
            details={"witness": f"seg_starts[{i + 1}]"},
        )
    if int(starts[-1]) >= n_slots:
        return Obligation(
            oid, REFUTED,
            f"seg_starts[{n_segments - 1}] = {int(starts[-1])} points "
            f"past the {n_slots}-slot stream",
            details={"witness": f"seg_starts[{n_segments - 1}]"},
        )
    dup = np.diff(rows) <= 0
    if dup.any():
        i = _first_violation(dup)
        return Obligation(
            oid, REFUTED,
            f"seg_rows[{i + 1}] = {int(rows[i + 1])} does not exceed "
            f"seg_rows[{i}] = {int(rows[i])}: a row would be written "
            "twice (or rows out of order)",
            details={"witness": f"seg_rows[{i + 1}]"},
        )
    if int(rows[0]) < 0 or int(rows[-1]) >= nrows:
        witness = 0 if int(rows[0]) < 0 else n_segments - 1
        return Obligation(
            oid, REFUTED,
            f"seg_rows[{witness}] = {int(rows[witness])} outside "
            f"[0, {nrows}): the scatter would write out of bounds",
            details={"witness": f"seg_rows[{witness}]"},
        )
    return Obligation(
        oid, PROVED,
        f"{n_segments} segments partition all {n_slots} slots with no "
        f"gaps or overlaps; each of the {nrows} output rows is "
        f"written exactly once ({nrows - n_segments} by "
        "zero-initialization)",
        details={"segments": n_segments, "slots": n_slots},
    )


# ---------------------------------------------------------------------
# obligation (c): shard race-freedom
# ---------------------------------------------------------------------

def _jobs_grid(plan: Any,
               jobs_grid: Optional[Sequence[int]]) -> List[int]:
    grid = set(DEFAULT_JOBS_GRID if jobs_grid is None else jobs_grid)
    grid.add(int(plan._auto_jobs()))
    return sorted(j for j in grid if j >= 1)


def check_shard_disjointness(
    plan: Any, jobs_grid: Optional[Sequence[int]] = None,
) -> Obligation:
    """Prove row-block shards have disjoint write sets for all grids.

    Quantifies over every worker count in ``jobs_grid`` (plus the
    plan's own auto heuristic pick): the shard bounds must partition
    the segment range exactly, and the row intervals
    ``[seg_rows[lo], seg_rows[hi-1] + 1)`` written by consecutive
    shards must never intersect.  Under a proved ``coverage``
    obligation the second property follows from strict monotonicity of
    ``seg_rows`` — the check still evaluates it concretely so a
    corrupted plan refutes with the exact shard pair.
    """
    oid = "shards"
    grid = _jobs_grid(plan, jobs_grid)
    n_segments = plan.n_segments
    for jobs in grid:
        bounds = plan.shard_bounds(jobs)
        if bounds[0][0] != 0 or bounds[-1][1] != n_segments:
            return Obligation(
                oid, REFUTED,
                f"jobs={jobs}: shard grid {bounds[0][0]}.."
                f"{bounds[-1][1]} does not cover all {n_segments} "
                "segments",
                details={"jobs": jobs},
            )
        for i in range(1, len(bounds)):
            if bounds[i][0] != bounds[i - 1][1]:
                return Obligation(
                    oid, REFUTED,
                    f"jobs={jobs}: shard {i} starts at segment "
                    f"{bounds[i][0]} but shard {i - 1} ended at "
                    f"{bounds[i - 1][1]} (gap or overlap)",
                    details={"jobs": jobs, "shard": i},
                )
        rows = plan.seg_rows
        for i in range(1, len(bounds)):
            lo_prev, hi_prev = bounds[i - 1]
            lo, __ = bounds[i]
            if hi_prev == lo_prev or lo == bounds[i][1]:
                continue  # empty shard writes nothing
            r1_prev = int(rows[hi_prev - 1]) + 1
            r0 = int(rows[lo])
            if r0 < r1_prev:
                return Obligation(
                    oid, REFUTED,
                    f"jobs={jobs}: shard {i - 1} writes rows up to "
                    f"{r1_prev - 1} while shard {i} starts at row "
                    f"{r0} — overlapping write sets race",
                    details={"jobs": jobs, "shard": i,
                             "rows": [r1_prev - 1, r0]},
                )
    return Obligation(
        oid, PROVED,
        f"shard write sets are pairwise disjoint row intervals for "
        f"every jobs in {{{', '.join(map(str, grid))}}}: "
        "jobs=N bitwise determinism is structural",
        details={"jobs_grid": grid},
    )


# ---------------------------------------------------------------------
# obligation (d): memory-image bounds
# ---------------------------------------------------------------------

def check_image_bounds(image: Optional[Any], k: int = 4,
                       spasm: Optional[Any] = None) -> Obligation:
    """Prove packed-image offsets stay inside their channel regions.

    From the descriptor tables alone the exact footprint of every
    channel is derivable: a value channel holds ``k`` float32 words
    per group of its PEs, a position channel holds every
    ``POSITION_CHANNELS_PER_GROUP``-th 32-bit position word of its PE
    group.  Equality of derived footprint and actual region length
    proves the pack cursors never left a region and the unpack
    cursors never will; with the source ``spasm`` in scope the
    descriptor totals are additionally tied to the stream's group
    count.
    """
    oid = "image"
    if image is None:
        return Obligation(
            oid, SKIPPED,
            "no memory image in scope (pack one to prove region "
            "bounds)",
        )
    from repro.hw.configs import (
        PES_PER_GROUP,
        PES_PER_VALUE_CHANNEL,
        POSITION_CHANNELS_PER_GROUP,
    )

    config = image.config
    groups_per_pe = [
        sum(int(n) for __, __, n in descriptor)
        for descriptor in image.descriptors
    ]
    if len(groups_per_pe) != config.num_pes:
        return Obligation(
            oid, REFUTED,
            f"descriptor table covers {len(groups_per_pe)} PEs, "
            f"hardware has {config.num_pes}",
            details={"witness": "descriptors"},
        )
    if spasm is not None:
        total = sum(groups_per_pe)
        if total != int(spasm.n_groups):
            return Obligation(
                oid, REFUTED,
                f"descriptors account for {total} groups, the stream "
                f"stores {int(spasm.n_groups)} — load units would "
                "walk off (or stop short of) the stream",
                details={"witness": "descriptors",
                         "descriptor_groups": total,
                         "stream_groups": int(spasm.n_groups)},
            )
    checked = 0
    for g in range(config.num_pe_groups):
        base = g * PES_PER_GROUP
        for v in range(PES_PER_GROUP // PES_PER_VALUE_CHANNEL):
            pes = [
                base + v * PES_PER_VALUE_CHANNEL + i
                for i in range(PES_PER_VALUE_CHANNEL)
            ]
            name = f"g{g}.value{v}"
            expected = sum(groups_per_pe[pe] for pe in pes) * k * 4
            actual = len(image.value_images.get(name, b""))
            checked += 1
            if actual != expected:
                return Obligation(
                    oid, REFUTED,
                    f"value region {name} holds {actual} bytes, "
                    f"descriptors imply exactly {expected}: "
                    "interleave cursors would cross the region "
                    "boundary",
                    details={"witness": name, "actual": actual,
                             "expected": expected},
                )
        group_words = sum(
            groups_per_pe[pe]
            for pe in range(base, base + PES_PER_GROUP)
        )
        for p in range(POSITION_CHANNELS_PER_GROUP):
            name = f"g{g}.pos{p}"
            share = (
                group_words + POSITION_CHANNELS_PER_GROUP - 1 - p
            ) // POSITION_CHANNELS_PER_GROUP
            expected = share * 4
            actual = len(image.position_images.get(name, b""))
            checked += 1
            if actual != expected:
                return Obligation(
                    oid, REFUTED,
                    f"position region {name} holds {actual} bytes, "
                    f"the round-robin split implies exactly "
                    f"{expected}: unpack cursors would run past the "
                    "region",
                    details={"witness": name, "actual": actual,
                             "expected": expected},
                )
    return Obligation(
        oid, PROVED,
        f"all {checked} channel regions match their derived "
        f"footprints exactly; descriptor totals account for every "
        "group — no cursor can leave its region",
        details={"regions": checked,
                 "total_bytes": int(image.total_bytes)},
    )


# ---------------------------------------------------------------------
# obligation (e): backend capability
# ---------------------------------------------------------------------

def check_backend_capability(plan: Any,
                             backend: Optional[str] = None,
                             ) -> Obligation:
    """Prove every dispatchable op resolves inside a capable backend.

    Resolves ``backend`` (``None`` = the same auto-negotiation the
    dispatch layer runs) against the plan for each op a caller can
    request.  A dispatch that would land on a backend whose
    :meth:`~repro.exec.backends.base.ExecutionBackend.capabilities`
    exclude the plan's stored dtypes — or on an unregistered or
    unavailable engine — refutes the obligation with a witness naming
    the backend and the offending dtype/op; the proof names the
    resolved engine per op.
    """
    oid = "backend"
    from repro.exec.backends import (
        BackendCapabilityError,
        BackendUnavailable,
        resolve_backend,
    )

    resolved: Dict[str, str] = {}
    for op in ("spmv", "spmm", "spmv_batch"):
        try:
            engine = resolve_backend(backend, plan=plan, op=op)
        except (KeyError, BackendUnavailable,
                BackendCapabilityError) as exc:
            return Obligation(
                oid, REFUTED,
                f"op {op} on a {plan.cols.dtype.name}/"
                f"{plan.vals.dtype.name} plan has no capable "
                f"backend dispatch: {exc}",
                details={
                    "witness": {
                        "op": op,
                        "backend": str(backend or "auto"),
                        "index_dtype": plan.cols.dtype.name,
                        "value_dtype": plan.vals.dtype.name,
                    },
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
        resolved[op] = engine.name
    return Obligation(
        oid, PROVED,
        "every op resolves to an available backend whose declared "
        "capabilities cover the plan layout ("
        + ", ".join(f"{op}->{name}" for op, name in resolved.items())
        + ")",
        details={"resolved": resolved,
                 "requested": str(backend or "auto")},
    )


# ---------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------

def analyze_plan(plan: Any,
                 spasm: Optional[Any] = None,
                 image: Optional[Any] = None,
                 jobs_grid: Optional[Sequence[int]] = None,
                 matrix: Optional[str] = None,
                 backend: Optional[str] = None) -> AnalysisReport:
    """Run every obligation checker over one compiled plan.

    ``spasm`` ties the image descriptors to the stream's group count;
    ``image`` enables the memory-image bounds proof (skipped
    otherwise); ``backend`` pins the engine the backend-capability
    obligation quantifies over (``None`` = auto-negotiation).  Nothing
    is executed — the pass only inspects arrays, capability tables and
    symbolic bounds.
    """
    k = int(getattr(spasm, "k", 4) or 4)
    obligations = [
        check_index_width(plan),
        check_segment_coverage(plan),
        check_shard_disjointness(plan, jobs_grid=jobs_grid),
        check_image_bounds(image, k=k, spasm=spasm),
        check_backend_capability(plan, backend=backend),
    ]
    return AnalysisReport(obligations=obligations, matrix=matrix)


def analyze_program(program: Any,
                    with_image: bool = True,
                    jobs_grid: Optional[Sequence[int]] = None,
                    matrix: Optional[str] = None,
                    backend: Optional[str] = None) -> AnalysisReport:
    """Analyze a compiled :class:`~repro.core.framework.SpasmProgram`.

    Builds (or adopts) the program's execution plan, packs the HBM
    memory images for the selected hardware configuration when
    ``with_image`` and discharges all five obligation classes.
    """
    spasm = program.spasm
    plan = program.plan if program.plan is not None else spasm.plan()
    image = None
    if with_image:
        from repro.hw.memory_image import pack_images

        image = pack_images(spasm, program.hw_config)
    return analyze_plan(
        plan, spasm=spasm, image=image, jobs_grid=jobs_grid,
        matrix=matrix, backend=backend,
    )


def analysis_reports_to_json(
    reports: Iterable[AnalysisReport],
) -> Dict[str, Any]:
    """Aggregate per-matrix reports into one JSON payload."""
    items = [r.as_dict() for r in reports]
    return {
        "ok": all(item["ok"] for item in items),
        "matrices": len(items),
        "refuted": sum(item["refuted"] for item in items),
        "reports": items,
    }
