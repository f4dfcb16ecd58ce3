"""Extension: the robust serving layer under load and under chaos.

Two phases, one report (``BENCH_serve.json`` at the repo root):

* **serving** — a :class:`~repro.serve.SpmvServer` with the
  production guard config (:data:`repro.serve.SERVE_GUARD`) over
  three Table II matrices, driven by seeded mixed-tenant traffic
  (one latency tenant with per-request deadlines, one batch tenant).
  Records sustained QPS and p50/p95/p99; every response is audited
  bitwise against pristine references.
* **chaos** — the under-load ``smoke`` preset of the
  :mod:`repro.resilience.chaos` campaign engine: the same serving
  stack hardened to :data:`~repro.resilience.chaos.CHAOS_GUARD`, with
  one wave per fault surface (stream/value/plan/backend/cache/worker/
  image/malformed) fired at the live server between bursts.  Its
  report carries clean-phase and chaos-phase percentiles measured
  under the *same* guard config, so the clean-vs-chaos comparison
  isolates the faults themselves.

Gates (CI fails on any):

* zero escaped faults (an ``ok`` response with a wrong result, or a
  well-formed request poisoned by a malformed neighbour);
* zero ``failed`` responses in the clean serving phase;
* every non-``ok`` clean response is a deadline shed, never an
  unverified answer;
* chaos p99 within ``P99_CHAOS_FACTOR`` of the campaign's own clean
  p99 (plus an absolute grace floor, since these are millisecond-
  scale measurements on shared CI hardware).
"""

import json
import pathlib

import numpy as np

from benchmarks.conftest import bench_scale, publish
from repro.analysis.report import format_table
from repro.resilience import run_chaos_campaign
from repro.serve import (
    AdmissionConfig,
    PlanRegistry,
    SpmvServer,
    TenantSpec,
    run_load,
    tenant_probes,
)
from repro.synth import load_workload

RESULT_JSON = pathlib.Path(__file__).parent.parent / "BENCH_serve.json"

#: (workload, base scale) for the serving phase.
MATRICES = (
    ("tmt_sym", 1.0),
    ("mip1", 0.5),
    ("Goodwin_054", 0.5),
)
SERVE_REQUESTS = 400
SERVE_WORKERS = 2
LATENCY_DEADLINE_MS = 500.0

#: Chaos p99 may exceed the campaign's clean p99 by this factor ...
P99_CHAOS_FACTOR = 10.0
#: ... plus this absolute grace (ms) for sub-millisecond baselines.
P99_GRACE_MS = 25.0


def serving_phase(scale):
    """Clean-path serving: QPS/latency plus a bitwise audit."""
    registry = PlanRegistry(seed=11)
    ncols = {}
    pristine = {}
    for workload, base in MATRICES:
        name = f"{workload}@{base * scale:g}"
        coo = load_workload(workload, base * scale)
        entry = registry.register(name, coo=coo)
        ncols[name] = int(entry.spasm.shape[1])
        pristine[name] = entry.spasm
    names = sorted(ncols)
    tenants = [
        TenantSpec(name="latency", plan=names[0], weight=2.0,
                   deadline_ms=LATENCY_DEADLINE_MS, n_probes=4),
        TenantSpec(name="batch", plan=names[1], weight=1.0,
                   deadline_ms=None, n_probes=4),
        TenantSpec(name="bulk", plan=names[2], weight=1.0,
                   deadline_ms=None, n_probes=4),
    ]
    probes = tenant_probes(tenants, ncols, seed=11)
    refs = {
        t.name: [pristine[t.plan].spmv(probes[t.name][i])
                 for i in range(probes[t.name].shape[0])]
        for t in tenants
    }
    # The load generator submits open-loop (faster than service), so
    # the clean phase sizes its queues above the request count: every
    # request is admitted and the only legitimate shed reason left is
    # a deadline.  Overload shedding is exercised by the admission
    # unit tests and the chaos campaign's tighter bounds.
    server = SpmvServer(
        registry,
        admission=AdmissionConfig(
            max_queue_per_plan=SERVE_REQUESTS,
            max_total=2 * SERVE_REQUESTS,
        ),
        workers=SERVE_WORKERS,
    )
    with server:
        report = run_load(server, tenants, probes, SERVE_REQUESTS,
                          seed=13)
        stats = server.stats()
    wrong = sum(
        1 for r in report.records
        if r.response.ok
        and not np.array_equal(r.response.y, refs[r.tenant][r.probe])
    )
    counts = report.counts()
    non_deadline_sheds = sum(
        1 for r in report.records
        if r.response.status == "shed"
        and "deadline" not in r.response.detail
    )
    return {
        "requests": len(report.records),
        "counts": counts,
        "qps": report.qps(),
        "latency_ms": report.percentiles_ms(),
        "wall_s": report.wall_s,
        "wrong_ok_responses": wrong,
        "non_deadline_sheds": non_deadline_sheds,
        "ladder_level": stats["ladder"]["level"],
        "hot_bytes": stats["registry"]["hot_bytes"],
        "shed": stats["admission"]["shed"],
    }


def test_serve_bench(benchmark):
    scale = bench_scale()

    def run():
        serving = serving_phase(scale)
        chaos = run_chaos_campaign("smoke", seed=0)
        return serving, chaos

    serving, chaos = benchmark.pedantic(run, rounds=1, iterations=1)

    chaos_totals = chaos["chaos"]["totals"]
    clean_p99 = chaos["clean"]["latency_ms"]["p99"]
    chaos_p99 = chaos["chaos"]["latency_ms"]["p99"]
    table = format_table(
        ["phase", "requests", "qps", "p50 ms", "p95 ms", "p99 ms",
         "escaped"],
        [
            ["serving (clean)", serving["requests"], serving["qps"],
             serving["latency_ms"]["p50"],
             serving["latency_ms"]["p95"],
             serving["latency_ms"]["p99"],
             serving["wrong_ok_responses"]],
            ["chaos: clean", chaos["clean"]["requests"],
             chaos["clean"]["qps"],
             chaos["clean"]["latency_ms"]["p50"],
             chaos["clean"]["latency_ms"]["p95"], clean_p99,
             chaos["clean"]["audit"]["escaped"]],
            ["chaos: faulted", chaos_totals["requests"], "-",
             chaos["chaos"]["latency_ms"]["p50"],
             chaos["chaos"]["latency_ms"]["p95"], chaos_p99,
             chaos_totals["escaped"]],
        ],
        title=(
            "Extension: SpMV serving under load and chaos "
            f"(contained={chaos_totals['contained']} "
            f"detected={chaos_totals['detected']} "
            f"shed={chaos_totals['shed']})"
        ),
        precision=2,
    )
    publish("serve", table)

    RESULT_JSON.write_text(
        json.dumps(
            {
                "bench": "serve",
                "scale": scale,
                "serving": serving,
                "chaos": {
                    "preset": chaos["preset"],
                    "seed": chaos["seed"],
                    "clean": chaos["clean"],
                    "latency_ms": chaos["chaos"]["latency_ms"],
                    "totals": chaos_totals,
                    "surfaces": chaos["chaos"]["surfaces"],
                    "waves": chaos["chaos"]["waves"],
                    "zero_escapes": chaos["zero_escapes"],
                },
                "gates": {
                    "p99_chaos_factor": P99_CHAOS_FACTOR,
                    "p99_grace_ms": P99_GRACE_MS,
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Gate 1: nothing escaped — not in the serving audit, not in the
    # chaos campaign.
    assert serving["wrong_ok_responses"] == 0, (
        f"{serving['wrong_ok_responses']} clean serving response(s) "
        "returned ok with a bitwise-wrong result"
    )
    assert chaos["zero_escapes"], (
        f"{chaos_totals['escaped']} fault(s) escaped the live "
        f"serving layer: {chaos['chaos']['escapes']}"
    )
    # Gate 2: the clean phase never fails a request; anything shed
    # was shed for deadline reasons, never answered unverified.
    assert serving["counts"].get("failed", 0) == 0, (
        f"clean serving produced failed responses: "
        f"{serving['counts']}"
    )
    assert serving["non_deadline_sheds"] == 0, (
        f"{serving['non_deadline_sheds']} clean response(s) shed for "
        "non-deadline reasons at this load level"
    )
    # Gate 3: chaos p99 stays within a generous envelope of the
    # campaign's own clean p99 (same guard config, same machine).
    limit = clean_p99 * P99_CHAOS_FACTOR + P99_GRACE_MS
    assert chaos_p99 <= limit, (
        f"chaos p99 {chaos_p99:.2f} ms blew the envelope "
        f"({clean_p99:.2f} ms clean -> limit {limit:.2f} ms)"
    )
