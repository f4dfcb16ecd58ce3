"""Command-line interface.

::

    python -m repro suite                     # list the Table II workloads
    python -m repro analyze tmt_sym           # pattern histogram + spy plot
    python -m repro analyze --scale 0.2       # symbolic plan proofs, suite
    python -m repro analyze --self            # codebase determinism lint
    python -m repro compile matrix.mtx        # full SPASM pipeline report
    python -m repro storage c-73              # Figure 11 format comparison
    python -m repro compare raefsky3          # throughput vs baselines
    python -m repro verify matrix.spasm.npz   # static invariant check
    python -m repro run tmt_sym --engine plan # timed numeric SpMV runs
    python -m repro backends                  # kernel-backend registry

A positional ``matrix`` argument is either a Table II workload name or
a path to a Matrix Market ``.mtx`` file; ``--scale`` grows/shrinks the
synthetic workloads.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.frequency import top_pattern_report
from repro.analysis.report import format_table
from repro.analysis.spy import spy_with_border
from repro.analysis.storage_compare import spasm_storage_bytes
from repro.baselines import (
    CuSparseRTX3090Model,
    HiSparseModel,
    SERPENS_A16,
    SERPENS_A24,
    SpasmModel,
)
from repro.core import SpasmCompiler, analyze_local_patterns
from repro.matrix import read_matrix_market, storage_report
from repro.matrix.coo import COOMatrix
from repro.synth import WORKLOAD_SUITE, load_workload, workload_names


def load_matrix(spec: str, scale: float) -> COOMatrix:
    """Resolve a matrix argument: workload name or .mtx path."""
    if spec.endswith(".mtx"):
        return read_matrix_market(spec)
    return load_workload(spec, scale=scale)


def cmd_suite(args) -> int:
    rows = [
        [
            s.name, s.domain, f"{s.paper_nnz:.2e}",
            f"{s.paper_density:.2e}", s.pattern_kind,
        ]
        for s in WORKLOAD_SUITE
    ]
    print(format_table(
        ["name", "domain", "paper nnz", "paper density", "pattern kind"],
        rows,
        title="Table II workload suite",
    ))
    return 0


def cmd_analyze(args) -> int:
    """Pattern analysis, symbolic plan proofs, or the self-lint.

    Three modes share the subcommand:

    * ``analyze MATRIX`` — the classic local-pattern histogram report.
    * ``analyze [MATRIX] --proofs`` (or no matrix at all) — compile
      the matrix (default: every synth-suite workload) and prove the
      five plan safety obligations symbolically; any refuted
      obligation exits 1.
    * ``analyze --self`` — run the AST determinism/safety lint over
      ``src/repro`` against the checked-in baseline; any *new*
      finding exits 1.
    """
    if args.self_lint:
        return _analyze_self(args)
    if args.matrix is None or args.proofs:
        return _analyze_proofs(args)
    coo = load_matrix(args.matrix, args.scale)
    print(f"{args.matrix}: shape={coo.shape}, nnz={coo.nnz}, "
          f"density={coo.density:.3e}")
    if not args.no_spy:
        print(spy_with_border(coo))
    histogram = analyze_local_patterns(coo, k=args.pattern_size)
    print()
    print(top_pattern_report(args.matrix, histogram, n=args.top))
    return 0


def _analyze_proofs(args) -> int:
    """Prove the five plan obligations over one or all workloads."""
    import json

    from repro.analyze import analyze_program
    from repro.analyze.symbolic import analysis_reports_to_json

    names = (
        [args.matrix] if args.matrix is not None else workload_names()
    )
    compiler = SpasmCompiler(
        cache_dir=getattr(args, "cache_dir", None),
        jobs=max(1, getattr(args, "jobs", 1)),
        build_plan=True,
    )
    reports = []
    for name in names:
        coo = load_matrix(name, args.scale)
        program = compiler.compile(coo)
        report = analyze_program(program, matrix=name)
        reports.append(report)
        if not args.json:
            print(report.render())
            print()
    payload = analysis_reports_to_json(reports)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        refuted = payload["refuted"]
        verdict = (
            "all proof obligations hold" if payload["ok"]
            else f"{refuted} obligation(s) REFUTED"
        )
        print(f"{len(reports)} matrix(es) analyzed: {verdict}")
    return 0 if payload["ok"] else 1


def _analyze_self(args) -> int:
    """Lint ``src/repro`` against the checked-in baseline."""
    import json

    from repro.analyze import (
        diff_baseline,
        load_baseline,
        self_lint,
        write_baseline,
    )

    findings = self_lint()
    if args.write_baseline:
        path = write_baseline(findings)
        print(f"wrote baseline of {len(findings)} finding(s) to {path}")
        return 0
    baseline = load_baseline()
    new, fixed = diff_baseline(findings, baseline)
    if args.json:
        print(json.dumps({
            "ok": not new,
            "findings": len(findings),
            "baselined": len(findings) - len(new),
            "new": [f.as_dict() for f in new],
            "fixed_baseline_keys": fixed,
        }, indent=2))
    else:
        for finding in new:
            print(finding.render())
        if fixed:
            print(f"note: {len(fixed)} baseline finding(s) no longer "
                  "present — shrink the baseline "
                  "(analyze --self --write-baseline):")
            for key in fixed:
                print(f"  {key}")
        print(f"self-lint: {len(findings)} finding(s), "
              f"{len(findings) - len(new)} baselined, {len(new)} new")
    return 1 if new else 0


def make_compiler(args) -> SpasmCompiler:
    """A compiler configured from the shared pipeline CLI flags.

    ``--jobs 0`` (execution auto-sharding) maps to a serial schedule
    sweep — the sweep has no auto heuristic of its own.
    """
    return SpasmCompiler(
        cache_dir=getattr(args, "cache_dir", None),
        jobs=max(1, getattr(args, "jobs", 1)),
        verify=getattr(args, "verify", False),
    )


def write_trace(args, program) -> None:
    """Honor ``--trace FILE``: dump the per-stage trace as JSON."""
    trace_path = getattr(args, "trace", None)
    if trace_path and program.trace is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(program.trace.to_json() + "\n")


def cmd_compile(args) -> int:
    import json

    coo = load_matrix(args.matrix, args.scale)
    program = make_compiler(args).compile(coo)
    breakdown = program.estimate()
    write_trace(args, program)
    if args.json:
        report = program.report
        payload = {
            "matrix": args.matrix,
            "shape": list(coo.shape),
            "nnz": coo.nnz,
            "portfolio": program.portfolio.name,
            "tile_size": program.tile_size,
            "hardware": program.hw_config.name,
            "groups": program.spasm.n_groups,
            "padding_rate": program.spasm.padding_rate,
            "bytes_per_nnz": program.spasm.bytes_per_nnz(),
            "est_cycles": breakdown.total_cycles,
            "bottleneck": breakdown.bottleneck,
            "est_gflops": program.estimated_gflops(),
            "report_ms": {
                "analysis": report.analysis_ms,
                "selection": report.selection_ms,
                "decomposition": report.decomposition_ms,
                "schedule": report.schedule_ms,
                "total": report.total_ms,
            },
            "trace": program.trace.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"matrix:        {args.matrix} shape={coo.shape} nnz={coo.nnz}")
    print(f"portfolio:     {program.portfolio.name} "
          f"({program.portfolio.description})")
    print(f"tile size:     {program.tile_size}")
    print(f"hardware:      {program.hw_config.describe()}")
    print(f"groups:        {program.spasm.n_groups} "
          f"(padding rate {program.spasm.padding_rate:.2%})")
    print(f"storage:       {program.spasm.bytes_per_nnz():.2f} bytes/nnz")
    print(f"est. cycles:   {breakdown.total_cycles:.0f} "
          f"(bottleneck: {breakdown.bottleneck})")
    print(f"est. speed:    {program.estimated_gflops():.2f} GFLOP/s")
    print("preprocessing: "
          f"analysis {program.report.analysis_ms:.1f} ms, "
          f"selection {program.report.selection_ms:.1f} ms, "
          f"decomposition {program.report.decomposition_ms:.1f} ms, "
          f"schedule {program.report.schedule_ms:.1f} ms")
    if args.cache_dir:
        hits = ", ".join(
            f"{event.name}={event.cache}" for event in program.trace
        )
        print(f"cache:         {hits}")
    return 0


def cmd_storage(args) -> int:
    coo = load_matrix(args.matrix, args.scale)
    spasm_bytes = spasm_storage_bytes(coo)
    report = storage_report(coo, args.matrix, spasm_bytes=spasm_bytes)
    rows = [
        [fmt, report.bytes_by_format[fmt], report.improvement(fmt)]
        for fmt in report.formats
    ]
    print(format_table(
        ["format", "bytes", "improvement vs COO"],
        rows,
        title=f"Storage cost of {args.matrix}",
    ))
    return 0


def cmd_compare(args) -> int:
    coo = load_matrix(args.matrix, args.scale)
    spasm = SpasmModel()
    baselines = [
        HiSparseModel(), SERPENS_A16(), SERPENS_A24(),
        CuSparseRTX3090Model(),
    ]
    spasm_gflops = spasm.gflops(coo)
    rows = [["SPASM", spasm_gflops, 1.0]]
    for model in baselines:
        gflops = model.gflops(coo)
        rows.append([model.name, gflops, spasm_gflops / gflops])
    print(format_table(
        ["platform", "GFLOP/s", "SPASM speedup"],
        rows,
        title=f"Modeled SpMV throughput on {args.matrix}",
    ))
    return 0


def cmd_encode(args) -> int:
    """Compile a matrix and persist the SPASM encoding."""
    from repro.core import save_spasm

    coo = load_matrix(args.matrix, args.scale)
    program = make_compiler(args).compile(coo)
    write_trace(args, program)
    save_spasm(args.output, program.spasm)
    print(f"encoded {args.matrix}: {program.portfolio.name}, "
          f"tile={program.tile_size}, "
          f"{program.spasm.storage_bytes()} bytes, "
          f"padding {program.spasm.padding_rate:.1%}")
    print(f"wrote {args.output} "
          f"(recommended hardware: {program.hw_config.name})")
    return 0


def cmd_spmv(args) -> int:
    """Run one SpMV from a persisted encoding."""
    import numpy as np

    from repro.core import load_spasm
    from repro.hw import DEFAULT_CONFIGS, SpasmAccelerator

    spasm = load_spasm(args.encoding)
    rng = np.random.default_rng(args.seed)
    x = rng.random(spasm.shape[1])
    config = next(
        c for c in DEFAULT_CONFIGS if c.name == args.hardware
    )
    result = SpasmAccelerator(config).run(spasm, x, engine="fast")
    reference = spasm.spmv(x)
    ok = np.allclose(result.y, reference)
    print(f"{args.encoding}: shape={spasm.shape}, "
          f"groups={spasm.n_groups}")
    print(f"simulated on {config.name}: {result.cycles:.0f} cycles, "
          f"{result.gflops:.2f} GFLOP/s, bottleneck {result.bottleneck}")
    print(f"verification vs format semantics: "
          f"{'exact' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_run(args) -> int:
    """Numerically execute timed SpMV iterations on a matrix.

    ``--engine naive`` re-expands the stream every call (the reference
    execution); ``--engine plan`` compiles the
    :class:`~repro.exec.plan.ExecutionPlan` once and runs the cached
    compact-layout kernel, sharded over ``--jobs`` threads (``0`` =
    the plan's own nnz heuristic) on the kernel backend named by
    ``--backend`` (default ``auto`` negotiates; see
    ``python -m repro backends``).  ``--batch N`` times N queries per
    call through the blocked SpMM engine and reports queries/s.
    Float64 engines are checked **bitwise** against the naive
    reference before timing; ``--precision float32`` opts into the
    compact value layout and is checked to tolerance instead.  Any
    divergence exits 1.
    """
    import json
    import time

    import numpy as np

    coo = load_matrix(args.matrix, args.scale)
    reorder = None
    if args.reorder:
        from repro.core.reorder import best_reordering, reorder_gain

        reorder = best_reordering(coo)
        gain = reorder_gain(coo, reorder)
        coo = reorder.matrix
    # --jobs 0 selects the plan's automatic shard heuristic.
    jobs = args.jobs if args.jobs > 0 else None
    # --backend auto negotiates per plan layout (the default policy).
    backend = (
        None if getattr(args, "backend", "auto") == "auto"
        else args.backend
    )

    if args.precision == "float32" and args.engine != "plan":
        print("error: --precision float32 requires --engine plan "
              "(the guarded and naive engines are float64-exact)",
              file=sys.stderr)
        return 1
    if backend is not None and args.engine == "naive":
        print("error: --backend requires --engine plan or guarded "
              "(the naive engine has no kernel backend)",
              file=sys.stderr)
        return 1
    if args.tuned and args.engine != "plan":
        print("error: --tuned requires --engine plan (the tuned "
              "executor replaces the plan dispatch path)",
              file=sys.stderr)
        return 1
    if args.tuned and (backend is not None
                       or args.precision != "float64"):
        print("error: --tuned conflicts with --backend/--precision "
              "(the persisted record decides both)",
              file=sys.stderr)
        return 1

    tuned_result = None
    executor = None
    if args.tuned:
        from repro.pipeline.cache import ArtifactCache
        from repro.tune import tune_matrix

        tune_cache = (
            ArtifactCache(args.cache_dir) if args.cache_dir else None
        )
        tuned_result = tune_matrix(coo, cache=tune_cache,
                                   seed=args.seed)
        compiler = make_compiler(args)
        compiler.tuned = tuned_result.config
    else:
        compiler = make_compiler(args)
    program = compiler.compile(coo)
    spasm = program.spasm
    write_trace(args, program)
    rng = np.random.default_rng(args.seed)
    x = rng.random(spasm.shape[1])

    precision = args.precision
    if args.tuned:
        tuned_cfg = tuned_result.config
        executor = spasm.apply_tuned(tuned_cfg)
        plan = executor.plan
        precision = tuned_cfg.precision
        jobs = executor.jobs
    elif precision == "float32":
        from repro.exec.plan import ExecutionPlan

        plan = ExecutionPlan.build(spasm, precision="float32")
    else:
        plan = spasm.plan()

    reference = spasm.spmv_naive(x)
    if executor is not None:
        got = executor.spmv(x)
    else:
        got = plan.spmv(x, jobs=jobs, backend=backend)
    if precision == "float32":
        agree = bool(np.allclose(got, reference,
                                 rtol=1e-5, atol=1e-8))
        check_note = "within float32 tolerance of naive"
    else:
        agree = bool(np.array_equal(got, reference))
        check_note = "bitwise equal to naive"
    if not agree:
        print("error: plan and naive engines diverge",
              file=sys.stderr)
        return 1

    guard = None
    if args.engine == "guarded":
        from repro.resilience import ExecutionGuard

        guard = ExecutionGuard(spasm, seed=args.seed, backend=backend)

    if args.batch > 0:
        xs = np.ascontiguousarray(
            rng.random((args.batch, spasm.shape[1]))
        )
        batch_ref = np.stack([spasm.spmv_naive(row) for row in xs])
        if executor is not None:
            def step():
                return executor.spmv_batch(xs)
        elif args.engine == "plan":
            def step():
                return plan.spmv_batch(xs, jobs=jobs, backend=backend)
        elif args.engine == "guarded":
            def step():
                return guard.spmv_batch(xs, jobs=jobs)
        else:
            def step():
                return np.stack(
                    [spasm.spmv_naive(row) for row in xs]
                )
        got_batch = step()
        if precision == "float32":
            batch_ok = bool(np.allclose(got_batch, batch_ref,
                                        rtol=1e-5, atol=1e-8))
        else:
            batch_ok = bool(np.array_equal(got_batch, batch_ref))
        if not batch_ok:
            print("error: batched and per-query engines diverge",
                  file=sys.stderr)
            return 1
    elif executor is not None:
        def step():
            return executor.spmv(x)
    elif args.engine == "plan":
        def step():
            return plan.spmv(x, jobs=jobs, backend=backend)
    elif args.engine == "guarded":
        def step():
            return guard.spmv(x, jobs=jobs)
    else:
        def step():
            return spasm.spmv_naive(x)

    times = []
    for __ in range(args.repeat):
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
    best = min(times)
    flops = 2 * spasm.source_nnz + spasm.shape[0]

    # The fully resolved configuration, auditable from scripts: what
    # actually executed after every auto heuristic and tuning record
    # had its say.
    if args.engine == "naive":
        backend_name = None
        layout = "float64"
        jobs_eff = 1
    else:
        from repro.exec import resolve_backend

        if executor is not None:
            backend_name = executor.backend_name
            jobs_eff = executor.jobs
        else:
            backend_name = resolve_backend(backend, plan=plan,
                                           op="spmv").name
            jobs_eff = jobs if jobs is not None else plan._auto_jobs()
        layout = f"{plan.cols.dtype.name}/{plan.vals.dtype.name}"
    resolved = {
        "engine": args.engine,
        "backend": backend_name,
        "backend_pinned": backend is not None,
        "layout": layout,
        "jobs": int(jobs_eff),
        "jobs_auto": jobs is None,
        "portfolio": program.portfolio.name,
        "tile_size": program.tile_size,
        "precision": precision,
        "tuned": bool(args.tuned),
    }

    if args.json:
        payload = {
            "matrix": args.matrix,
            "shape": list(spasm.shape),
            "nnz": spasm.source_nnz,
            "resolved": resolved,
            "timing": {
                "best_ms": best * 1e3,
                "repeat": args.repeat,
                "gflops": (args.batch or 1) * flops / best / 1e9,
            },
            "check": {"agree": True, "note": check_note},
        }
        if args.batch > 0:
            payload["timing"]["batch_queries"] = args.batch
            payload["timing"]["qps"] = args.batch / best
        if reorder is not None:
            payload["reorder"] = gain
        if tuned_result is not None:
            payload["tuned"] = tuned_result.config.as_dict()
            payload["tuned_cache_hit"] = tuned_result.cache_hit
        if guard is not None:
            payload["guard_incidents"] = len(guard.log)
        print(json.dumps(payload, indent=2))
        return 0

    jobs_note = (f"auto({jobs_eff})" if jobs is None and not args.tuned
                 else str(jobs_eff))
    print(f"matrix:   {args.matrix} shape={spasm.shape} "
          f"nnz={spasm.source_nnz}")
    if args.engine == "naive":
        print(f"engine:   {args.engine} (jobs={jobs_note})")
    else:
        note = "negotiated" if backend is None else "explicit"
        if args.tuned:
            note = "tuned"
        print(f"engine:   {args.engine} (jobs={jobs_note}, "
              f"backend={backend_name}, {note})")
    if args.tuned:
        cfg = tuned_result.config
        source = "cache" if tuned_result.cache_hit else "fresh search"
        print(f"tuned:    {cfg.layout} portfolio={cfg.portfolio} "
              f"tile={cfg.tile_size} batch_block="
              f"{cfg.batch_block or 'auto'} ({source}, recorded "
              f"{cfg.speedup:.2f}x over default)")
    if reorder is not None:
        print(f"reorder:  {gain['before_bytes_per_nnz']:.2f} -> "
              f"{gain['after_bytes_per_nnz']:.2f} bytes/nnz "
              f"({gain['gain']:.2f}x storage gain; outputs are in "
              "the reordered index space)")
    if args.engine in ("plan", "guarded"):
        print(f"plan:     {plan.describe()} "
              f"(built in {plan.build_ms:.1f} ms)")
    if args.batch > 0:
        qps = args.batch / best
        print(f"timing:   best {best * 1e3:.3f} ms of {args.repeat} "
              f"runs for {args.batch} queries "
              f"({qps:.1f} queries/s, "
              f"{args.batch * flops / best / 1e9:.2f} GFLOP/s)")
    else:
        print(f"timing:   best {best * 1e3:.3f} ms of {args.repeat} "
              f"runs ({flops / best / 1e9:.2f} GFLOP/s)")
    print(f"check:    plan vs naive engines agree ({check_note})")
    if guard is not None:
        incidents = len(guard.log)
        print(f"guard:    {incidents} incident(s) logged")
        if incidents:
            print(guard.log.render())
    return 0


def cmd_tune(args) -> int:
    import json

    from repro.pipeline.cache import ArtifactCache
    from repro.tune import tune_matrix

    coo = load_matrix(args.matrix, args.scale)
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    emit = None if args.json else print
    result = tune_matrix(coo, cache=cache, budget=args.budget,
                         force=args.force, repeats=args.repeat,
                         batch_queries=args.batch, seed=args.seed,
                         allow_float32=args.allow_float32, log=emit)
    cfg = result.config
    if args.json:
        payload = {
            "matrix": args.matrix,
            "shape": list(coo.shape),
            "nnz": coo.nnz,
            "persisted": cache is not None,
            **result.as_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    if cache is None:
        source = "not persisted (no --cache-dir)"
    elif result.cache_hit:
        source = "cache hit (use --force to re-search)"
    else:
        source = f"stored in {args.cache_dir}"
    pruned = cfg.candidates_total - cfg.candidates_measured
    print(f"matrix:     {args.matrix} shape={coo.shape} "
          f"nnz={coo.nnz}")
    print(f"record:     {source}")
    print(f"structure:  portfolio={cfg.portfolio} "
          f"tile={cfg.tile_size} "
          f"(bitwise-safe: {cfg.structure_bitwise})")
    print(f"execution:  layout={cfg.layout} backend={cfg.backend} "
          f"jobs={cfg.jobs} "
          f"batch_block={cfg.batch_block or 'auto'}")
    print(f"spmv:       tuned {cfg.spmv_ms:.4f} ms vs default "
          f"{cfg.default_spmv_ms:.4f} ms ({cfg.speedup:.2f}x)")
    print(f"batch:      tuned {cfg.batch_qps:.0f} q/s vs default "
          f"{cfg.default_batch_qps:.0f} q/s")
    print(f"search:     measured {cfg.candidates_measured} of "
          f"{cfg.candidates_total} candidates (model pruned "
          f"{pruned}; {result.wall_ms:.0f} ms wall)")
    return 0


def cmd_backends(args) -> int:
    """List the registered kernel backends and their capabilities.

    One row per backend in negotiation order (priority descending):
    availability (with the missing requirement when soft-unavailable)
    and the declared capability envelope — which index/value dtype
    layouts and which of the three ops (``spmv``/``spmm``/
    ``spmv_batch``) each backend claims.  ``auto`` dispatch picks the
    first *available* backend in this order whose envelope covers the
    plan's layout, so the table is the negotiation policy, printed.
    """
    import json

    from repro.exec import available_backends, registered_backends

    engines = registered_backends()
    ready = {engine.name for engine in available_backends()}
    if args.json:
        payload = []
        for engine in engines:
            caps = engine.capabilities()
            payload.append({
                "name": engine.name,
                "priority": engine.priority,
                "available": engine.name in ready,
                "requires": engine.requires(),
                "capabilities": caps.as_dict(),
            })
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for engine in engines:
        caps = engine.capabilities()
        if engine.name in ready:
            status = "available"
        else:
            status = f"unavailable (needs {engine.requires()})"
        layouts = ", ".join(
            f"{idx}x{val}"
            for idx in caps.index_dtypes for val in caps.value_dtypes
        )
        rows.append([
            engine.name, engine.priority, status,
            layouts, ", ".join(caps.ops),
        ])
    print(format_table(
        ["backend", "priority", "status", "index x value dtypes",
         "ops"],
        rows,
        title="Registered kernel backends (auto negotiates top-down)",
    ))
    return 0


def cmd_verify(args) -> int:
    """Statically verify a SPASM artifact without simulating it."""
    from repro.verify import verify_memory_image, verify_spasm

    if args.artifact.endswith(".npz"):
        from repro.core import load_spasm

        spasm = load_spasm(args.artifact)
        source = None
    else:
        # Workload name or .mtx path: encode on the fly and keep the
        # source so decode equivalence (fmt.roundtrip) is checked too.
        source = load_matrix(args.artifact, args.scale)
        spasm = SpasmCompiler().compile(source).spasm
    report = verify_spasm(spasm, source=source)
    if args.hardware:
        from repro.hw import DEFAULT_CONFIGS
        from repro.hw.memory_image import pack_images

        config = next(
            c for c in DEFAULT_CONFIGS if c.name == args.hardware
        )
        image = pack_images(spasm, config)
        report.extend(verify_memory_image(image, spasm=spasm))
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    failed = bool(report.errors) or (
        args.strict and bool(report.warnings)
    )
    return 1 if failed else 0


def _serve_setup(workloads: str, scale: float, cache_dir,
                 byte_budget_mb, seed: int, admission=None,
                 workers: int = 2):
    """Unstarted server + probe dims for the serve/query commands."""
    from repro.pipeline.cache import ArtifactCache
    from repro.serve import serve_matrices
    from repro.synth import load_workload

    cache = ArtifactCache(cache_dir) if cache_dir else None
    budget = (int(byte_budget_mb * (1 << 20))
              if byte_budget_mb else None)
    matrices = {}
    for item in workloads.split(","):
        name, _, item_scale = item.strip().partition(":")
        eff_scale = float(item_scale) if item_scale else scale
        matrices[f"{name}@{eff_scale:g}"] = load_workload(
            name, eff_scale
        )
    server = serve_matrices(
        matrices, cache=cache, byte_budget=budget,
        admission=admission, workers=workers, seed=seed, start=False,
    )
    ncols = {
        plan_name: int(coo.shape[1])
        for plan_name, coo in matrices.items()
    }
    return server, ncols


def cmd_serve(args) -> int:
    """Stand up the SpMV server and drive seeded mixed-tenant load.

    There is no network listener — the server is the in-process query
    engine of :mod:`repro.serve`; this command exercises it end to
    end (admission, batching, degradation ladder, per-request
    deadlines) and reports sustained QPS, latency percentiles and the
    full health/stats snapshot.  A ``failed`` response exits 1.
    """
    import json

    from repro.serve import (
        AdmissionConfig,
        TenantSpec,
        run_load,
        tenant_probes,
    )

    server, ncols = _serve_setup(
        args.workloads, args.scale, args.cache_dir,
        args.plan_budget_mb, args.seed,
        admission=AdmissionConfig(max_queue_per_plan=args.queue,
                                  max_total=args.max_queued),
        workers=args.workers,
    )
    tenants = [
        TenantSpec(name=f"tenant-{idx}", plan=plan_name,
                   deadline_ms=args.deadline_ms, n_probes=4)
        for idx, plan_name in enumerate(sorted(ncols))
    ]
    with server:
        probes = tenant_probes(tenants, ncols, args.seed)
        report = run_load(server, tenants, probes, args.requests,
                          seed=args.seed + 1)
        stats = server.stats()
        health = server.health()
    summary = report.summary()
    if args.json:
        print(json.dumps(
            {"load": summary, "health": health, "stats": stats},
            indent=2, sort_keys=True,
        ))
    else:
        lat = summary["latency_ms"]
        print(f"served {summary['requests']} requests over "
              f"{len(tenants)} tenants: {summary['counts']}")
        print(f"  qps={summary['qps']:.1f}  p50={lat['p50']:.2f} ms  "
              f"p95={lat['p95']:.2f} ms  p99={lat['p99']:.2f} ms")
        print(f"  health: {health}")
        print(f"  registry: hot_bytes={stats['registry']['hot_bytes']}"
              f" evicted={stats['registry']['evicted_total']}"
              f"  shed={stats['admission']['shed']}")
    return 1 if summary["counts"].get("failed") else 0


def cmd_query(args) -> int:
    """One guarded query through the serving engine.

    Compiles (or cache-loads) the workload, serves a single seeded
    probe vector under the optional deadline, and prints the response
    status, latency and output checksum.  Non-``ok`` responses exit 1.
    """
    import hashlib
    import json

    import numpy as np

    from repro.serve import Deadline

    server, ncols = _serve_setup(
        args.workload, args.scale, args.cache_dir, None, args.seed,
        workers=1,
    )
    (plan_name,) = ncols
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(ncols[plan_name])
    deadline = (Deadline.after_ms(args.deadline_ms)
                if args.deadline_ms is not None else None)
    with server:
        response = server.query(plan_name, x, deadline=deadline)
    payload = {
        "plan": plan_name,
        "status": response.status,
        "level": response.level,
        "latency_ms": response.latency_s * 1e3,
        "detail": response.detail,
    }
    if response.ok:
        payload["l2_norm"] = float(np.linalg.norm(response.y))
        payload["sha256"] = hashlib.sha256(
            response.y.tobytes()
        ).hexdigest()[:16]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        line = (f"{plan_name}: {response.status} "
                f"(level={response.level}, "
                f"{payload['latency_ms']:.2f} ms)")
        if response.ok:
            line += (f" l2={payload['l2_norm']:.6g} "
                     f"sha256={payload['sha256']}")
        else:
            line += f" -- {response.detail}"
        print(line)
    return 0 if response.ok else 1


def cmd_chaos(args) -> int:
    """Seeded fault campaign against a live server (gate: 0 escapes).

    Runs a :mod:`repro.resilience.chaos` preset: a live
    :class:`~repro.serve.SpmvServer` under load (``smoke``/``full``)
    or at zero load (``isolated-*``, one request per wave), with
    stream/value/plan/backend/cache/worker/image/malformed faults
    injected wave by wave and every response audited bitwise against
    pristine references.  Any escaped fault exits 1.
    """
    import json

    from repro.resilience import (
        render_chaos_report,
        run_chaos_campaign,
        write_report,
    )

    def progress(line):
        if not args.quiet:
            print(f"  .. {line}", file=sys.stderr)

    report = run_chaos_campaign(
        preset=args.preset, seed=args.seed,
        cache_dir=args.cache_dir, progress=progress,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_chaos_report(report))
    if args.out:
        write_report(report, args.out)
        print(f"wrote chaos report to {args.out}", file=sys.stderr)
    if not report["zero_escapes"]:
        print(
            f"error: {len(report['chaos']['escapes'])} fault(s) "
            "escaped the live serving layer (wrong ok responses or "
            "poisoned requests)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_reproduce(args) -> int:
    """Regenerate the headline evaluation tables in one pass."""
    import pathlib

    from repro.analysis.metrics import (
        bandwidth_efficiency_table,
        energy_table,
        render_throughput,
        throughput_table,
    )
    from repro.analysis.storage_compare import (
        render_storage_comparison,
        suite_storage_reports,
    )
    from repro.synth import load_suite

    names = args.matrices.split(",") if args.matrices else None
    matrices = [
        (spec.name, coo)
        for spec, coo in load_suite(scale=args.scale, names=names)
    ]
    spasm = SpasmModel(cache_dir=args.cache_dir, jobs=args.jobs)
    baselines = [
        HiSparseModel(), SERPENS_A16(), SERPENS_A24(),
        CuSparseRTX3090Model(),
    ]
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sections = {}
    sections["storage"] = render_storage_comparison(
        suite_storage_reports(matrices)
    )
    throughput = throughput_table(matrices, spasm, baselines)
    sections["throughput"] = render_throughput(
        throughput, [m.name for m in baselines]
    )
    be = bandwidth_efficiency_table(matrices, spasm, baselines)
    be_lines = ["Bandwidth efficiency (min / geomean / max):"]
    for name, s in be["summary"].items():
        be_lines.append(
            f"  vs {name:<12s} {s['min']:.2f}x / {s['geomean']:.2f}x / "
            f"{s['max']:.2f}x"
        )
    sections["bandwidth_efficiency"] = "\n".join(be_lines)
    energy = energy_table(matrices, spasm, baselines)
    sections["energy"] = format_table(
        ["platform", "power (W)", "geomean GFLOP/s", "(GFLOP/s)/W"],
        [
            [r["name"], r["power_w"], r["gflops"], r["efficiency"]]
            for r in energy
        ],
        title="Power and energy efficiency",
    )

    for name, text in sections.items():
        (out_dir / f"{name}.txt").write_text(text + "\n",
                                             encoding="utf-8")
        print(text)
        print()
    print(f"wrote {len(sections)} reports to {out_dir}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPASM SpMV acceleration framework (HPCA 2025 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("suite", help="list the Table II workload suite")

    def add_matrix_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "matrix",
            help=f"workload name ({', '.join(workload_names()[:3])}, ...)"
                 " or a .mtx file path",
        )
        p.add_argument("--scale", type=float, default=1.0,
                       help="synthetic workload scale factor")
        return p

    def add_pipeline_flags(p):
        p.add_argument("--cache-dir", default=None,
                       help="content-addressed artifact cache directory "
                            "(recompiles of unchanged workloads are "
                            "served from disk)")
        p.add_argument("--jobs", type=int, default=1,
                       help="threads for the schedule sweep "
                            "(deterministic; default 1); for 'run' "
                            "also the execution shard count, where 0 "
                            "selects the plan's nnz auto-heuristic")
        return p

    analyze = sub.add_parser(
        "analyze",
        help="local pattern analysis, symbolic plan safety proofs, "
             "or the codebase self-lint",
    )
    analyze.add_argument(
        "matrix", nargs="?", default=None,
        help=f"workload name ({', '.join(workload_names()[:3])}, ...)"
             " or a .mtx file path; omit to prove the whole synth "
             "suite",
    )
    analyze.add_argument("--scale", type=float, default=1.0,
                         help="synthetic workload scale factor")
    analyze.add_argument("--top", type=int, default=8,
                         help="patterns to display")
    analyze.add_argument("--pattern-size", type=int, default=4,
                         help="local pattern size k")
    analyze.add_argument("--no-spy", action="store_true",
                         help="skip the spy plot")
    analyze.add_argument("--proofs", action="store_true",
                         help="prove the five plan safety obligations "
                              "(index width, coverage, shards, image, "
                              "backend) symbolically instead "
                              "of the pattern report; a refuted "
                              "obligation exits 1")
    analyze.add_argument("--self", dest="self_lint",
                         action="store_true",
                         help="run the AST determinism/safety lint "
                              "over src/repro against the checked-in "
                              "baseline; a new finding exits 1")
    analyze.add_argument("--write-baseline", action="store_true",
                         help="with --self: rewrite the baseline to "
                              "the current findings")
    analyze.add_argument("--json", action="store_true",
                         help="emit the proof or lint report as JSON")
    add_pipeline_flags(analyze)

    compile_p = add_matrix_command(
        "compile", "run the full SPASM pipeline"
    )
    add_pipeline_flags(compile_p)
    compile_p.add_argument("--json", action="store_true",
                           help="emit the full result (per-stage trace "
                                "included) as JSON")
    compile_p.add_argument("--trace", default=None, metavar="FILE",
                           help="write the per-stage pipeline trace to "
                                "FILE as JSON")
    compile_p.add_argument("--verify", action="store_true",
                           help="mount the static verifier as a final "
                                "pipeline pass")
    add_matrix_command("storage", "compare storage formats")
    add_matrix_command("compare", "compare modeled platforms")

    encode = add_matrix_command(
        "encode", "compile and persist a SPASM encoding"
    )
    add_pipeline_flags(encode)
    encode.add_argument("--trace", default=None, metavar="FILE",
                        help="write the per-stage pipeline trace to "
                             "FILE as JSON")
    encode.add_argument("--verify", action="store_true",
                        help="mount the static verifier as a final "
                             "pipeline pass")
    encode.add_argument("-o", "--output", default="matrix.spasm.npz",
                        help="output .npz path")

    run = add_matrix_command(
        "run", "timed numeric SpMV runs through a chosen engine"
    )
    add_pipeline_flags(run)
    run.add_argument("--engine", default="plan",
                     choices=["naive", "plan", "guarded"],
                     help="'naive' re-expands the stream per call; "
                          "'plan' runs the compiled execution plan "
                          "(default); 'guarded' adds the resilience "
                          "guard (integrity checks + fallback)")
    run.add_argument("--repeat", type=int, default=5,
                     help="timed iterations (the best is reported)")
    run.add_argument("--batch", type=int, default=0,
                     help="queries per call: 0 runs single-vector "
                          "SpMV (default); N>0 times N queries per "
                          "call through the blocked SpMM engine and "
                          "reports queries/s")
    run.add_argument("--precision", default="float64",
                     choices=["float64", "float32"],
                     help="plan value precision: float64 is bitwise-"
                          "checked against the naive engine "
                          "(default); float32 opts into the compact "
                          "layout, checked to tolerance")
    run.add_argument("--backend", default="auto",
                     help="kernel backend for the plan/guarded "
                          "engines: 'auto' negotiates from the "
                          "registry (default); or a registered name "
                          "(see 'python -m repro backends')")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the random x vector")
    run.add_argument("--reorder", action="store_true",
                     help="apply the best structural reordering "
                          "(identity / block-signature / degree sort) "
                          "before compiling and report the storage "
                          "gain")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="write the per-stage pipeline trace to FILE "
                          "as JSON")
    run.add_argument("--tuned", action="store_true",
                     help="execute through a per-matrix tuned "
                          "configuration: loaded from --cache-dir "
                          "when a record exists, searched on the "
                          "fly otherwise (see 'python -m repro tune')")
    run.add_argument("--json", action="store_true",
                     help="emit one JSON payload with the timing and "
                          "a 'resolved' object echoing the fully "
                          "resolved configuration (backend, layout, "
                          "jobs, portfolio)")

    tune = add_matrix_command(
        "tune", "search the per-matrix knob space and persist the "
                "winning configuration"
    )
    tune.add_argument("--cache-dir", default=None,
                      help="artifact cache directory; the winning "
                           "record is persisted here keyed on the "
                           "matrix content digest (omit to search "
                           "without persisting)")
    tune.add_argument("--budget", type=int, default=12,
                      help="maximum measured candidates after the "
                           "analytic-model pruning pass (default 12)")
    tune.add_argument("--force", action="store_true",
                      help="re-search even when a valid cached record "
                           "exists, and overwrite it")
    tune.add_argument("--json", action="store_true",
                      help="emit the tuning record and trial log as "
                           "JSON")
    tune.add_argument("--repeat", type=int, default=3,
                      help="best-of-N repeats per measured candidate")
    tune.add_argument("--batch", type=int, default=8,
                      help="queries per call when timing the batch "
                           "block-width knob")
    tune.add_argument("--seed", type=int, default=0,
                      help="seed for the probe vectors")
    tune.add_argument("--allow-float32", action="store_true",
                      help="let the search consider the float32 value "
                           "layout (tolerance-checked, not bitwise)")

    backends = sub.add_parser(
        "backends",
        help="list the registered kernel backends, their availability "
             "and capability envelopes",
    )
    backends.add_argument("--json", action="store_true",
                          help="emit the backend table as JSON")

    spmv = sub.add_parser(
        "spmv", help="run one simulated SpMV from a saved encoding"
    )
    spmv.add_argument("encoding", help="path to a .npz from 'encode'")
    spmv.add_argument("--hardware", default="SPASM_4_1",
                      choices=["SPASM_4_1", "SPASM_3_4", "SPASM_3_2"])
    spmv.add_argument("--seed", type=int, default=0,
                      help="seed for the random x vector")

    verify = sub.add_parser(
        "verify",
        help="statically check a SPASM artifact against the format, "
             "opcode and memory-image invariants",
    )
    verify.add_argument(
        "artifact",
        help="a .npz encoding from 'encode', a workload name, or a "
             ".mtx path (the latter two are encoded on the fly and "
             "additionally checked for decode equivalence)",
    )
    verify.add_argument("--scale", type=float, default=1.0,
                        help="synthetic workload scale factor")
    verify.add_argument("--hardware", default=None,
                        choices=["SPASM_4_1", "SPASM_3_4", "SPASM_3_2"],
                        help="also pack and verify the HBM memory "
                             "images for this bitstream")
    verify.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    verify.add_argument("--strict", action="store_true",
                        help="treat warnings as errors in the exit "
                             "code")

    serve = sub.add_parser(
        "serve",
        help="stand up the in-process SpMV server and drive seeded "
             "mixed-tenant load through it",
    )
    serve.add_argument(
        "--workloads", default="tmt_sym,mip1",
        help="comma-separated workload names, each optionally "
             "'name:scale' (default scale from --scale)",
    )
    serve.add_argument("--scale", type=float, default=0.5,
                       help="default synthetic workload scale")
    serve.add_argument("--requests", type=int, default=200,
                       help="load-generator request count")
    serve.add_argument("--workers", type=int, default=2,
                       help="server worker threads")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline for every tenant")
    serve.add_argument("--queue", type=int, default=64,
                       help="per-plan admission queue bound")
    serve.add_argument("--max-queued", type=int, default=256,
                       help="global admission queue bound")
    serve.add_argument("--plan-budget-mb", type=float, default=None,
                       help="registry hot-plan byte budget (LRU "
                            "eviction above it)")
    serve.add_argument("--cache-dir", default=None,
                       help="artifact cache (plan artifacts + tuned "
                            "records warm from here)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for probes and tenant traffic")
    serve.add_argument("--json", action="store_true",
                       help="emit load/health/stats as JSON")

    query = sub.add_parser(
        "query",
        help="run one guarded query through the serving engine",
    )
    query.add_argument("workload",
                       help="workload name, optionally 'name:scale'")
    query.add_argument("--scale", type=float, default=0.5,
                       help="synthetic workload scale")
    query.add_argument("--seed", type=int, default=0,
                       help="seed for the probe vector")
    query.add_argument("--deadline-ms", type=float, default=None,
                       help="request deadline; an expired request is "
                            "shed, never answered late")
    query.add_argument("--cache-dir", default=None,
                       help="artifact cache for plan/tuned warmup")
    query.add_argument("--json", action="store_true",
                       help="emit the response as JSON")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault campaign against a live server, under "
             "load or at zero load (an escaped fault exits 1)",
    )
    chaos.add_argument("--preset", default="smoke",
                       choices=["smoke", "full", "isolated-smoke",
                                "isolated-full"],
                       help="smoke/full: under load; isolated-smoke/"
                            "isolated-full: zero load, one request "
                            "per wave")
    chaos.add_argument("--seed", type=int, default=0,
                       help="master seed; the campaign is a pure "
                            "function of it")
    chaos.add_argument("--cache-dir", default=None,
                       help="cache directory to corrupt (default: a "
                            "throwaway temp dir)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full report as JSON on stdout")
    chaos.add_argument("--out", default=None, metavar="FILE",
                       help="also write the JSON report to FILE")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress per-wave progress lines")

    reproduce = sub.add_parser(
        "reproduce",
        help="regenerate the headline evaluation tables in one pass",
    )
    reproduce.add_argument("--out", default="reproduction",
                           help="output directory for the reports")
    reproduce.add_argument("--scale", type=float, default=1.0,
                           help="synthetic workload scale factor")
    reproduce.add_argument(
        "--matrices", default=None,
        help="comma-separated workload subset (default: all 20)",
    )
    add_pipeline_flags(reproduce)
    return parser


COMMANDS = {
    "suite": cmd_suite,
    "analyze": cmd_analyze,
    "compile": cmd_compile,
    "storage": cmd_storage,
    "compare": cmd_compare,
    "encode": cmd_encode,
    "run": cmd_run,
    "tune": cmd_tune,
    "backends": cmd_backends,
    "spmv": cmd_spmv,
    "verify": cmd_verify,
    "serve": cmd_serve,
    "query": cmd_query,
    "chaos": cmd_chaos,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Every anticipated failure (unknown workload, unreadable file,
    malformed artifact, invariant violation) exits 1 with the message
    on stderr; nothing is swallowed into a 0 exit.
    """
    import zipfile

    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (OSError, KeyError, ValueError,
            zipfile.BadZipFile) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
