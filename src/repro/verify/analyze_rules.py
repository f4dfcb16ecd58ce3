"""Symbolic proof obligations surfaced as verify rules.

:mod:`repro.analyze.symbolic` proves five safety obligations over a
compiled :class:`~repro.exec.plan.ExecutionPlan` by abstract
interpretation — no SpMV is executed.  These rules adapt each
obligation to the :mod:`repro.verify` rule framework so refuted proofs
flow through the same :class:`~repro.verify.diagnostics.Report`
plumbing (CLI, ``--json``, pipeline passes, guard) as every other
invariant.  A proved obligation yields no diagnostics; a refuted one
yields an ERROR carrying the pinpointed witness in its details.

The obligations also run standalone — with richer PROVED/SKIPPED
reporting and certified bounds — via
:func:`repro.analyze.analyze_plan` and ``python -m repro analyze``.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.verify.diagnostics import Diagnostic
from repro.verify.rules import (
    KIND_ANALYZE,
    Rule,
    VerifyContext,
    register,
)


class _ObligationRule(Rule):
    """Adapter: run one symbolic checker, report refutations."""

    kinds = (KIND_ANALYZE,)
    requires = ("plan",)

    def obligation(self, ctx: VerifyContext) -> Any:
        raise NotImplementedError

    def check(self, ctx: VerifyContext) -> Iterator[Diagnostic]:
        from repro.analyze.symbolic import REFUTED

        obligation = self.obligation(ctx)
        if obligation.status != REFUTED:
            return
        yield self.diag(
            f"refuted {obligation.obligation_id}: "
            f"{obligation.statement}",
            **dict(obligation.details),
        )


@register
class AnalyzeIndexWidth(_ObligationRule):
    rule_id = "analyze.index_width"
    title = ("symbolic proof: every gather/scatter index fits the "
             "chosen dtype, with a certified extent bound")
    paper = "software step ⑥ (compact plan layouts)"

    def obligation(self, ctx: VerifyContext) -> Any:
        from repro.analyze.symbolic import check_index_width

        return check_index_width(ctx.plan)


@register
class AnalyzeCoverage(_ObligationRule):
    rule_id = "analyze.coverage"
    title = ("symbolic proof: the segmentation writes each output row "
             "exactly once (no gaps, no overlaps)")
    paper = "software step ⑥ (segmented accumulation)"

    def obligation(self, ctx: VerifyContext) -> Any:
        from repro.analyze.symbolic import check_segment_coverage

        return check_segment_coverage(ctx.plan)


@register
class AnalyzeShards(_ObligationRule):
    rule_id = "analyze.shards"
    title = ("symbolic proof: sharded write sets are pairwise "
             "disjoint for the whole jobs grid (determinism theorem)")
    paper = "software step ⑥ (sharded dispatch)"

    def obligation(self, ctx: VerifyContext) -> Any:
        from repro.analyze.symbolic import check_shard_disjointness

        return check_shard_disjointness(ctx.plan)


@register
class AnalyzeImage(_ObligationRule):
    rule_id = "analyze.image"
    title = ("symbolic proof: packed memory-image offsets stay inside "
             "their channel regions")
    paper = "hardware memory map (HBM channel packing)"
    requires = ("image",)

    def obligation(self, ctx: VerifyContext) -> Any:
        from repro.analyze.symbolic import check_image_bounds

        k = ctx.spasm.k if ctx.spasm is not None else 4
        return check_image_bounds(
            ctx.image, k=k, spasm=ctx.spasm
        )


@register
class AnalyzeBackend(_ObligationRule):
    rule_id = "analyze.backend"
    title = ("symbolic proof: every dispatchable op resolves inside "
             "a registered backend's declared capability envelope")
    paper = "software step ⑥ (pluggable kernel backends)"

    def obligation(self, ctx: VerifyContext) -> Any:
        from repro.analyze.symbolic import check_backend_capability

        return check_backend_capability(ctx.plan)
