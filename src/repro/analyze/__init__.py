"""Static analysis of compiled artifacts and of the code base itself.

``repro.analyze`` has two pillars:

* **Symbolic plan analysis** (:mod:`repro.analyze.symbolic`) — an
  abstract-interpretation pass over compiled
  :class:`~repro.exec.plan.ExecutionPlan` artifacts that, without
  executing a single SpMV, proves or refutes the five safety
  obligations the unchecked fast-path kernels rely on: index-width
  safety (with a certified symbolic bound), segment coverage
  (write-exactly-once), shard race-freedom, memory-image bounds, and
  backend-capability coverage
  (every dispatchable op resolves inside a registered backend's
  declared capability envelope).  Refuted obligations surface as
  ``analyze.*`` diagnostics through :mod:`repro.verify`.
* **Codebase lint** (:mod:`repro.analyze.lints`) — a custom AST
  checker enforcing the repository's determinism/safety discipline
  (no unseeded randomness, no clocks in kernel bodies, no silent
  dtype upcasts on hot paths, one shared pool, no bare ``except``,
  no raw kernel access outside the plan module, no dead public API),
  burned down against a checked-in baseline.

Quick use::

    from repro.analyze import analyze_plan, self_lint
    report = analyze_plan(plan, spasm=spasm, image=image)
    assert report.ok, report.render()
    findings = self_lint()

or from the command line::

    python -m repro analyze              # prove the synth suite
    python -m repro analyze --self       # lint src/repro
"""

from repro.analyze.symbolic import (
    PROVED,
    REFUTED,
    SKIPPED,
    AnalysisReport,
    IndexWidthCertificate,
    Obligation,
    OBLIGATION_IDS,
    analyze_plan,
    analyze_program,
    certify_index_width,
    check_backend_capability,
    check_image_bounds,
    check_index_width,
    check_segment_coverage,
    check_shard_disjointness,
)
from repro.analyze.lints import (
    LINT_IDS,
    LintFinding,
    baseline_path,
    diff_baseline,
    lint_paths,
    lint_source,
    load_baseline,
    self_lint,
    write_baseline,
)

__all__ = [
    "PROVED",
    "REFUTED",
    "SKIPPED",
    "AnalysisReport",
    "IndexWidthCertificate",
    "Obligation",
    "OBLIGATION_IDS",
    "analyze_plan",
    "analyze_program",
    "certify_index_width",
    "check_backend_capability",
    "check_image_bounds",
    "check_index_width",
    "check_segment_coverage",
    "check_shard_disjointness",
    "LINT_IDS",
    "LintFinding",
    "baseline_path",
    "diff_baseline",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "self_lint",
    "write_baseline",
]
