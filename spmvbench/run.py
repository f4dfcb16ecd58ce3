"""SpMV benchmark: end-to-end metrics per workload, per-layer when traced.

Run from the repository root::

    python3 spmvbench/run.py --workload solve_1m --seed 1 --seconds 10 --trace 0
    python3 spmvbench/run.py --workload serve_paced --seed 1 --trace 1
    python3 spmvbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics and ``--trace 1`` runs the
same workload once untraced and once traced, and reports the per-layer
ledger.  Either way the sampled outputs are checked bitwise against the
naive reference kernel and the counts of requests sent, ``ok``, shed and
failed are printed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every check passed.  ``--workload all`` runs each workload in its
own process and prints one table.  See ``spmvbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import layers  # noqa: E402
from repro.core import SpasmCompiler  # noqa: E402
from repro.exec.backends import available_backends, resolve_backend  # noqa: E402
from repro.exec.plan import ExecutionPlan  # noqa: E402
from repro.resilience.guard import ExecutionGuard  # noqa: E402
from repro.serve import PlanRegistry, SpmvServer  # noqa: E402
from repro.synth import load_workload  # noqa: E402

OUT_DIR = BENCH_DIR / "out"

OK, SHED, FAILED, LOST = 1, 2, 3, 0
STATUS_CODE = {"ok": OK, "shed": SHED, "failed": FAILED}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One fixed traffic mix; every field is a constant of the workload."""

    name: str
    #: ``solve`` (library power iteration), ``paced`` (open loop) or
    #: ``window`` (closed loop with a fixed number in flight).
    kind: str
    matrices: Tuple[Tuple[str, float], ...]
    limit_ms: float
    #: Every k-th request (or solve step) keeps its input and output for
    #: the bitwise check after the timed phase.
    sample_every: int
    rate_hz: float = 0.0
    window: int = 0


WORKLOADS: Dict[str, Workload] = {
    # tmt_sym at scale 23 has 1,035,520 nnz: the paper's smallest real
    # scale.  The serve layers are idle; format, plan and kernel work.
    "solve_1m": Workload(
        "solve_1m", "solve", (("tmt_sym", 23.0),),
        limit_ms=50.0, sample_every=50,
    ),
    # Small kernels at a light offered load: per-request overhead above
    # the kernel (admission, handoff, lease, guard) dominates, batches
    # stay near one.  Eight tenants keep set-up near half a second.
    "serve_paced": Workload(
        "serve_paced", "paced",
        tuple((name, 1.0) for name in (
            "tmt_sym", "raefsky3", "ex11", "c-73", "x104", "PFlow_742",
            "af_shell10", "mycielskian14")),
        limit_ms=10.0, sample_every=16, rate_hz=500.0,
    ),
    # A deep queue on the solve_1m matrix: the coalescer forms full
    # batches (the tuned level's window of 32) and the batched kernel
    # carries the load, two batches in flight.  64 in flight stays below
    # the ladder's degrade point (0.75 x 256), so the level stays
    # ``tuned``.  One large matrix, not a mix of small ones: kernels that
    # stream from memory measure steadily on a shared host, while a
    # cache-resident mix moved by a quarter from run to run.
    "serve_window": Workload(
        "serve_window", "window", (("tmt_sym", 23.0),),
        limit_ms=1000.0, sample_every=64, window=64,
    ),
}

SETUP_REPS = 7
#: Probe vectors per matrix; each request picks one by seed.
PROBES = 4
#: Server worker threads of both serve workloads.
WORKERS = 2
#: ``--smoke`` shrinks every matrix by this factor (self-test only).
SMOKE_SCALE = 0.1
#: Closed-loop capacity of the preallocated per-request arrays.
MAX_RATE_HZ = 20000
#: Waiting for outstanding requests after the generator stops.
DRAIN_TIMEOUT_S = 60.0
KERNEL_REPS = 21
WINDOW_S = 1.0
#: Windows dropped at the start of a phase while queues and caches fill.
WARMUP_WINDOWS = 1
#: A window is quiet when the host stole at most this much CPU time in
#: it (summed over CPUs).
QUIET_STEAL_MS = 50.0
#: When fewer windows are quiet, this share of them, the least stolen,
#: is used instead.
MIN_QUIET_FRAC = 0.25
SPMM_QUERIES = 16
COPY_ELEMS = 1 << 22

#: End-to-end metrics (``--trace 0``) and their units.
UNITS = {
    "setup_s": "s", "spmv_gflops": "GFLOP/s", "lat_p50_ms": "ms",
    "slo_ok_frac": "fraction", "cpu_us_per_req": "us", "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER_UNITS = {
    "pipeline.analysis_ms": "ms", "pipeline.selection_ms": "ms",
    "pipeline.decomposition_ms": "ms", "pipeline.schedule_ms": "ms",
    "pipeline.encode_ms": "ms", "plan.build_ms": "ms",
    "guard.init_ms": "ms",
    "format.spmv_us": "us", "format.overhead_us": "us",
    "plan.spmv_us": "us", "plan.dispatch_us": "us",
    "kernel.spmv_us": "us", "kernel.spmm_us_per_query": "us",
    "kernel.bytes_computed": "bytes", "kernel.flop_per_byte": "flop/byte",
    "kernel.gbps_computed": "GB/s", "ref.scipy_csr_us": "us",
    "ref.copy_gbps": "GB/s",
    "guard.spmv_us": "us", "guard.batch_us": "us",
    "guard.overhead_us": "us", "guard.incidents": "count",
    "admission.submit_us": "us", "admission.queue_wait_ms": "ms",
    "admission.shed": "count",
    "serve.batch_mean": "requests", "serve.batches": "count",
    "registry.acquire_us": "us", "registry.evictions": "count",
    "degrade.transitions": "count",
    "gen.late_ms_max": "ms", "host.steal_ms": "ms",
    "lat_p90_ms": "ms", "lat_p99_ms": "ms",
    "tracing.overhead_frac": "fraction",
}


def reference_spmv(spasm: Any, x: np.ndarray) -> np.ndarray:
    """The correctness oracle: the naive stream-expanding kernel."""
    return spasm.spmv_naive(x)


def digest(y: np.ndarray) -> bytes:
    """Digest of an output's raw float64 bytes: equal digests mean
    bitwise-equal outputs, and a kept sample costs 32 bytes however
    large the output is (so memory does not grow with throughput)."""
    return hashlib.blake2b(
        np.ascontiguousarray(y, dtype=np.float64)).digest()


def host_steal_ms() -> float:
    """Cumulative host CPU steal from ``/proc/stat`` (0 if unreadable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) * 1000.0 / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# inputs (all derived from --seed, made before any timer starts)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Inputs:
    coos: List[Tuple[str, Any]]
    nnz: np.ndarray
    #: Per matrix, a ``(probes, ncols)`` pool of probe vectors.
    probes: List[np.ndarray]
    #: Per request: matrix index, probe index (and for ``paced`` the
    #: scheduled send time in seconds from the phase start).
    which: np.ndarray
    probe: np.ndarray
    arrivals: Optional[np.ndarray] = None


def make_inputs(wl: Workload, seed: int, seconds: float,
                scale: float) -> Inputs:
    coos = [(name, load_workload(name, scale=s * scale))
            for name, s in wl.matrices]
    rng = np.random.default_rng(seed)
    probes = []
    for _, coo in coos:
        pool = rng.standard_normal((PROBES, coo.shape[1]))
        if wl.kind == "solve":
            pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        probes.append(pool)
    arrivals = None
    if wl.kind == "paced":
        expect = int(wl.rate_hz * seconds)
        gaps = rng.exponential(1.0 / wl.rate_hz,
                               size=expect + 8 * int(expect ** 0.5) + 16)
        times = np.cumsum(gaps)
        arrivals = times[times < seconds]
        n = arrivals.size
    elif wl.kind == "window":
        n = int(MAX_RATE_HZ * seconds) + 1
    else:
        n = 0
    which = rng.integers(len(coos), size=n)
    probe = rng.integers(PROBES, size=n)
    nnz = np.asarray([coo.nnz for _, coo in coos], dtype=np.int64)
    return Inputs(coos, nnz, probes, which, probe, arrivals)


# ----------------------------------------------------------------------
# set-up (timed; this is setup_s)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class System:
    spasms: List[Any]
    registry: Any = None
    server: Any = None

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()


def set_up(wl: Workload, inputs: Inputs) -> System:
    """Cold set-up with no ArtifactCache: compile, plan, guard, start."""
    if wl.kind == "solve":
        spasm = SpasmCompiler().compile(inputs.coos[0][1]).spasm
        spasm.plan()
        return System([spasm])
    registry = PlanRegistry(seed=0)
    entries = [registry.register(name, coo=coo)
               for name, coo in inputs.coos]
    server = SpmvServer(registry, workers=WORKERS).start()
    return System([e.spasm for e in entries], registry, server)


class SetupLedger:
    """Per-set-up sums of the pipeline passes, plan builds and guards."""

    STAGES = ("analysis", "selection", "decomposition", "schedule",
              "encode")

    def __init__(self) -> None:
        self.tracer = layers.Tracer()
        self.reps: List[Dict[str, float]] = []
        self._stages: Dict[str, float] = {}

    def __enter__(self) -> "SetupLedger":
        def on_compile(program: Any) -> None:
            for stage in self.STAGES:
                self._stages[stage] = (self._stages.get(stage, 0.0)
                                       + program.trace.stage_ms(stage))
        self.tracer.wrap_class(SpasmCompiler, "compile",
                               "pipeline.compile", on_return=on_compile)
        self.tracer.wrap_class(ExecutionPlan, "build", "plan.build")
        self.tracer.wrap_class(ExecutionGuard, "__init__", "guard.init")
        return self

    def end_rep(self) -> None:
        rep = {f"pipeline.{s}_ms": self._stages.get(s, 0.0)
               for s in self.STAGES}
        rep["plan.build_ms"] = 1e3 * float(
            self.tracer.durations_s(["plan.build"]).sum())
        rep["guard.init_ms"] = 1e3 * float(
            self.tracer.durations_s(["guard.init"]).sum())
        self.reps.append(rep)
        self.tracer.spans.clear()
        self._stages = {}

    def __exit__(self, *exc: Any) -> None:
        self.tracer.unwrap()

    def medians(self) -> Dict[str, float]:
        return {k: statistics.median(r[k] for r in self.reps)
                for k in self.reps[0]}


def timed_setups(wl: Workload, inputs: Inputs, reps: int,
                 ledger: Optional[SetupLedger]) -> Tuple[List[float], System]:
    """Set up ``reps`` times; keep the last system, stop the others."""
    times: List[float] = []
    system: Optional[System] = None
    for _ in range(reps):
        if system is not None:
            system.stop()
            system = None
        gc.collect()
        t0 = time.perf_counter()
        system = set_up(wl, inputs)
        times.append(time.perf_counter() - t0)
        if ledger is not None:
            ledger.end_rep()
    assert system is not None
    return times, system


# ----------------------------------------------------------------------
# timed phases
# ----------------------------------------------------------------------

class Ticker:
    """Samples wall time, process CPU time, the send count and host steal
    once a second.

    Host CPU steal comes in bursts of a few seconds; per-window samples
    let the metrics skip the windows it hit (:func:`quiet_windows`).
    """

    def __init__(self, t0: float) -> None:
        self.rows = [(t0, time.process_time(), 0, host_steal_ms())]
        self.next = t0 + WINDOW_S

    def tick(self, now: float, sent: int) -> None:
        if now >= self.next:
            self.rows.append((now, time.process_time(), sent,
                              host_steal_ms()))
            self.next = now + WINDOW_S

    def close(self, now: float, sent: int) -> np.ndarray:
        """The samples, ending with the last (partial) window when it
        is at least half a window long or the only one."""
        if len(self.rows) == 1 or now - self.rows[-1][0] >= WINDOW_S / 2:
            self.rows.append((now, time.process_time(), sent,
                              host_steal_ms()))
        return np.asarray(self.rows, dtype=np.float64)


def quiet_windows(ticks: np.ndarray) -> np.ndarray:
    """Indices of the windows the metrics use, in time order.

    After the warm-up, the windows with at most :data:`QUIET_STEAL_MS`
    of host steal, but never fewer than the :data:`MIN_QUIET_FRAC` share
    that lost least.  On a calm host that is nearly every window.
    """
    n = len(ticks) - 1
    first = WARMUP_WINDOWS if n > 2 * WARMUP_WINDOWS else 0
    steal = np.diff(ticks[first:, 3])
    keep = max(int(np.count_nonzero(steal <= QUIET_STEAL_MS)),
               int(np.ceil(steal.size * MIN_QUIET_FRAC)))
    return first + np.sort(np.argsort(steal, kind="stable")[:keep])


@dataclasses.dataclass
class Phase:
    """What one timed phase left behind: arrays only, no responses."""

    lat_s: np.ndarray
    status: np.ndarray
    which: np.ndarray
    probe: np.ndarray
    #: Completion time of every request (``perf_counter`` seconds).
    done_t: np.ndarray
    #: ``(wall, cpu, sent, steal)`` at each window boundary
    #: (:class:`Ticker`).
    ticks: np.ndarray
    #: ``(request index or step, kept x or None, digest of y)``.
    samples: List[Tuple[int, Any, bytes]]
    gen_late_s: float = 0.0

    @property
    def sent(self) -> int:
        return int(self.status.size)


def run_solve(wl: Workload, system: System, inputs: Inputs,
              seconds: float, tracer: Optional[layers.Tracer]) -> Phase:
    """Power iteration ``x <- A x / |A x|`` through ``SpasmMatrix.spmv``."""
    spasm = system.spasms[0]
    spmv = (tracer.traced("format.spmv", spasm.spmv) if tracer
            else spasm.spmv)
    cap = int(seconds * 1000) + 1
    lat, done_t = np.zeros(cap), np.zeros(cap)
    samples: List[Tuple[int, Any, bytes]] = []
    x = inputs.probes[0][0]
    every = wl.sample_every
    clock = time.perf_counter
    steps = 0
    start = clock()
    ticker = Ticker(start)
    while steps < cap:
        t0 = clock()
        y = spmv(x)
        t1 = clock()
        lat[steps], done_t[steps] = t1 - t0, t1
        if steps % every == 0:
            samples.append((steps, x, digest(y)))
        # Not np.linalg.norm: its BLAS call leaves OpenBLAS threads
        # spinning, which would double the loop's process CPU time.
        x = y / np.sqrt(np.add.reduce(y * y))
        steps += 1
        ticker.tick(t1, steps)
        if t1 - start >= seconds:
            break
    ticks = ticker.close(clock(), steps)
    zeros = np.zeros(steps, dtype=np.int64)
    return Phase(lat[:steps], np.full(steps, OK, dtype=np.int8), zeros,
                 zeros, done_t[:steps], ticks, samples)


def run_paced(wl: Workload, system: System, inputs: Inputs,
              seconds: float) -> Phase:
    """Open loop: send each request at its seeded Poisson arrival time.

    Latency runs from the scheduled send time to completion, so a stall
    of the generator or the server is charged to every late request.
    """
    server = system.server
    sched = inputs.arrivals
    assert sched is not None
    n = sched.size
    done_t, status = np.zeros(n), np.zeros(n, dtype=np.int8)
    samples: List[Tuple[int, Any, bytes]] = []
    finished = threading.Semaphore(0)
    every = wl.sample_every
    clock = time.perf_counter
    names = [name for name, _ in inputs.coos]

    def on_done(i: int, fut: Any) -> None:
        resp = fut.result()
        done_t[i] = clock()
        status[i] = STATUS_CODE.get(resp.status, FAILED)
        if i % every == 0 and resp.ok:
            samples.append((i, None, digest(resp.y)))
        finished.release()

    which, probe, pools = inputs.which, inputs.probe, inputs.probes
    late = 0.0
    t0 = clock() + 0.002
    ticker = Ticker(t0)
    due_all = t0 + sched
    for i in range(n):
        due = due_all[i]
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        now = clock()
        late = max(late, now - due)
        ticker.tick(now, i)
        m = which[i]
        fut = server.submit(names[m], pools[m][probe[i]], tenant=names[m])
        fut.add_done_callback(functools.partial(on_done, i))
    ticks = ticker.close(clock(), n)
    deadline = clock() + DRAIN_TIMEOUT_S
    for _ in range(n):
        if not finished.acquire(timeout=max(0.0, deadline - clock())):
            break
    lat = np.where(done_t > 0, done_t - due_all, np.inf)
    return Phase(lat, status, which[:n], probe[:n], done_t, ticks, samples,
                 gen_late_s=late)


def run_window(wl: Workload, system: System, inputs: Inputs,
               seconds: float) -> Phase:
    """Closed loop: one generator keeps ``wl.window`` requests in flight.

    Latency runs from submit to completion.
    """
    server = system.server
    cap = inputs.which.size
    sent_t, done_t = np.zeros(cap), np.zeros(cap)
    status = np.zeros(cap, dtype=np.int8)
    samples: List[Tuple[int, Any, bytes]] = []
    slots = threading.Semaphore(wl.window)
    every = wl.sample_every
    clock = time.perf_counter
    names = [name for name, _ in inputs.coos]

    def on_done(i: int, fut: Any) -> None:
        resp = fut.result()
        done_t[i] = clock()
        status[i] = STATUS_CODE.get(resp.status, FAILED)
        if i % every == 0 and resp.ok:
            samples.append((i, None, digest(resp.y)))
        slots.release()

    which, probe, pools = inputs.which, inputs.probe, inputs.probes
    n = 0
    t0 = clock()
    ticker = Ticker(t0)
    end = t0 + seconds
    while n < cap:
        slots.acquire()
        now = clock()
        if now >= end:
            slots.release()
            break
        ticker.tick(now, n)
        m = which[n]
        sent_t[n] = now
        fut = server.submit(names[m], pools[m][probe[n]], tenant=names[m])
        fut.add_done_callback(functools.partial(on_done, n))
        n += 1
    ticks = ticker.close(clock(), n)
    deadline = clock() + DRAIN_TIMEOUT_S
    for _ in range(wl.window):
        if not slots.acquire(timeout=max(0.0, deadline - clock())):
            break
    lat = np.where(done_t[:n] > 0, done_t[:n] - sent_t[:n], np.inf)
    return Phase(lat, status[:n].copy(), which[:n], probe[:n],
                 done_t[:n].copy(), ticks, samples)


def run_phase(wl: Workload, system: System, inputs: Inputs,
              seconds: float,
              tracer: Optional[layers.Tracer] = None) -> Phase:
    if wl.kind == "solve":
        return run_solve(wl, system, inputs, seconds, tracer)
    if wl.kind == "paced":
        return run_paced(wl, system, inputs, seconds)
    return run_window(wl, system, inputs, seconds)


# ----------------------------------------------------------------------
# correctness gate and metrics
# ----------------------------------------------------------------------

def check_samples(system: System, inputs: Inputs, phase: Phase) -> int:
    """Bitwise check of every kept output; returns the mismatch count."""
    refs: Dict[Tuple[int, int], bytes] = {}
    bad = 0
    for i, x, got in phase.samples:
        if x is not None:
            ref = digest(reference_spmv(system.spasms[0], x))
        else:
            key = (int(phase.which[i]), int(phase.probe[i]))
            if key not in refs:
                refs[key] = digest(reference_spmv(
                    system.spasms[key[0]], inputs.probes[key[0]][key[1]]))
            ref = refs[key]
        if got != ref:
            bad += 1
    return bad


@dataclasses.dataclass
class Counts:
    sent: int = 0
    ok: int = 0
    shed: int = 0
    failed: int = 0
    lost: int = 0
    checked: int = 0
    mismatches: int = 0

    def add(self, phase: Phase, mismatches: int) -> None:
        st = phase.status
        self.sent += phase.sent
        self.ok += int(np.count_nonzero(st == OK))
        self.shed += int(np.count_nonzero(st == SHED))
        self.failed += int(np.count_nonzero(st == FAILED))
        self.lost += int(np.count_nonzero(st == LOST))
        self.checked += len(phase.samples)
        self.mismatches += mismatches

    @property
    def bad(self) -> int:
        return self.shed + self.failed + self.lost + self.mismatches


def phase_metrics(wl: Workload, inputs: Inputs, phase: Phase
                  ) -> Dict[str, float]:
    """End-to-end metrics of one phase.

    Rates and latencies come from the quiet one-second windows of
    :func:`quiet_windows`: CPU per request and serve throughput are
    medians over those windows, latency the median over the requests
    that completed in them.  ``slo_ok_frac`` counts every request sent.
    """
    ok = phase.status == OK
    ticks = phase.ticks
    wall, cpu, sent = ticks[:, 0], ticks[:, 1], ticks[:, 2]
    quiet = quiet_windows(ticks)
    # Window i spans wall[i]..wall[i + 1]; searchsorted gives it as i + 1.
    in_quiet = np.zeros(len(wall) + 1, dtype=bool)
    in_quiet[quiet + 1] = True
    counted = ok & in_quiet[np.searchsorted(wall, phase.done_t, "right")]
    lat = phase.lat_s[counted]
    p50 = float(np.median(lat)) if lat.size else float("inf")
    d_sent = np.diff(sent)[quiet]
    busy = d_sent > 0
    cpu_per_req = float(np.median(np.diff(cpu)[quiet][busy] / d_sent[busy]))
    if wl.kind == "solve":
        gflops = 2.0 * float(inputs.nnz[0]) / p50 / 1e9
    else:
        flop = 2.0 * inputs.nnz[phase.which] * ok
        order = np.argsort(phase.done_t)
        done_flop = np.concatenate(([0.0], np.cumsum(flop[order])))
        edges = np.searchsorted(phase.done_t[order], wall)
        gflops = float(np.median(
            (np.diff(done_flop[edges]) / np.diff(wall))[quiet])) / 1e9
    lat_ok = phase.lat_s[ok]
    within = np.count_nonzero(lat_ok <= wl.limit_ms / 1e3)
    return {
        "spmv_gflops": gflops,
        "lat_p50_ms": p50 * 1e3,
        "slo_ok_frac": within / max(phase.sent, 1),
        "cpu_us_per_req": cpu_per_req * 1e6,
        "lat_p90_ms": _pct_ms(lat_ok, 90),
        "lat_p99_ms": _pct_ms(lat_ok, 99),
    }


def _pct_ms(lat: np.ndarray, q: float) -> float:
    return float(np.percentile(lat, q)) * 1e3 if lat.size else 0.0


# ----------------------------------------------------------------------
# traced run: live-object wrappers and the per-layer ledger
# ----------------------------------------------------------------------

def wrap_live(tracer: layers.Tracer, system: System) -> None:
    """Trace the public entry points of every layer on the live objects."""
    for engine in available_backends():
        tracer.wrap(engine, "spmv", "kernel.spmv")
        tracer.wrap(engine, "spmm", "kernel.spmm")
    for spasm in system.spasms:
        plan = spasm.plan()
        tracer.wrap(plan, "spmv", "plan.spmv")
        tracer.wrap(plan, "spmv_batch", "plan.spmv_batch")
    registry = system.registry
    if registry is None:
        return
    for name in registry.names():
        lease = registry.acquire(name)
        registry.release(lease)
        tracer.wrap(lease.guard, "spmv", "guard.spmv")
        tracer.wrap(lease.guard, "spmv_batch", "guard.spmv_batch")
    tracer.wrap(registry, "acquire", "registry.acquire")
    tracer.wrap(registry, "release", "registry.release")
    admission = system.server.admission
    tracer.wrap(admission, "submit", "admission.submit",
                rid_of=lambda item: item.rid)
    tracer.wrap_dequeue(admission)


def kernel_ledger(system: System,
                  inputs: Inputs) -> Tuple[str, Dict[str, float]]:
    """Direct kernel calls (``prepare``/``spmv``/``spmm``) and references.

    Bytes are computed from array sizes (indices, values, row pointer,
    ``x`` and ``y`` once each), not measured.  Per-matrix figures are
    averaged with equal weight, matching the uniform tenant mix.
    """
    clock = time.perf_counter
    names, spmv_s, spmm_s, csr_s, nbytes, flops = [], [], [], [], [], []
    rng = np.random.default_rng(0)
    for spasm, (_, coo) in zip(system.spasms, inputs.coos):
        plan = spasm.plan()
        engine = resolve_backend(None, plan=plan, op="spmv")
        names.append(engine.name)
        state = engine.prepare(plan)
        x = rng.standard_normal(plan.shape[1])
        out = np.zeros(plan.shape[0])
        reps = []
        for _ in range(KERNEL_REPS):
            out.fill(0.0)
            t0 = clock()
            engine.spmv(plan, state, x, out, 0, plan.n_segments)
            reps.append(clock() - t0)
        spmv_s.append(statistics.median(reps))
        xb = np.ascontiguousarray(
            rng.standard_normal((plan.shape[1], SPMM_QUERIES)))
        outb = np.zeros((plan.shape[0], SPMM_QUERIES))
        reps = []
        for _ in range(KERNEL_REPS):
            t0 = clock()
            engine.spmm(plan, state, xb, outb, 0, SPMM_QUERIES, 0,
                        plan.n_segments)
            reps.append(clock() - t0)
        spmm_s.append(statistics.median(reps) / SPMM_QUERIES)
        arrays = [plan.cols, plan.vals] + list(
            engine.prepared_arrays(state).values())
        nbytes.append(sum(a.nbytes for a in arrays)
                      + 8 * (plan.shape[0] + plan.shape[1]))
        flops.append(2.0 * plan.source_nnz)
        csr = sp.csr_matrix((coo.vals, (coo.rows, coo.cols)),
                            shape=coo.shape)
        reps = []
        for _ in range(KERNEL_REPS):
            t0 = clock()
            csr @ x
            reps.append(clock() - t0)
        csr_s.append(statistics.median(reps))
    src = np.ones(COPY_ELEMS)
    dst = np.empty_like(src)
    reps = []
    for _ in range(KERNEL_REPS):
        t0 = clock()
        np.copyto(dst, src)
        reps.append(clock() - t0)
    label = "+".join(sorted(set(names)))
    return label, {
        "kernel.spmv_us": float(np.mean(spmv_s)) * 1e6,
        "kernel.spmm_us_per_query": float(np.mean(spmm_s)) * 1e6,
        "kernel.bytes_computed": float(np.mean(nbytes)),
        "kernel.flop_per_byte": float(np.sum(flops) / np.sum(nbytes)),
        "kernel.gbps_computed": float(np.sum(nbytes) / np.sum(spmv_s) / 1e9),
        "ref.scipy_csr_us": float(np.mean(csr_s)) * 1e6,
        "ref.copy_gbps": 2.0 * src.nbytes / statistics.median(reps) / 1e9,
    }


def live_ledger(tracer: layers.Tracer, system: System) -> Dict[str, float]:
    us = layers.median_us
    fmt, plan_names = ["format.spmv"], ["plan.spmv", "plan.spmv_batch"]
    guards = ["guard.spmv", "guard.spmv_batch"]
    takes = tracer.takes
    server, registry = system.server, system.registry
    return {
        "format.spmv_us": us(tracer.durations_s(fmt)),
        "format.overhead_us": us(tracer.self_times_s(fmt)),
        "plan.spmv_us": us(tracer.durations_s(["plan.spmv"])),
        "plan.dispatch_us": us(tracer.self_times_s(plan_names)),
        "guard.spmv_us": us(tracer.durations_s(["guard.spmv"])),
        "guard.batch_us": us(tracer.durations_s(["guard.spmv_batch"])),
        "guard.overhead_us": us(tracer.self_times_s(guards)),
        "guard.incidents": float(len(registry.log)) if registry else 0.0,
        "admission.submit_us": us(tracer.durations_s(["admission.submit"])),
        "admission.queue_wait_ms": (
            us(np.asarray(tracer.queue_wait_s)) / 1e3),
        "admission.shed": float(sum(server.admission.shed.values()))
        if server else 0.0,
        "serve.batch_mean": ((takes + tracer.drained) / takes
                             if takes else 0.0),
        "serve.batches": float(takes),
        "registry.acquire_us": us(tracer.durations_s(["registry.acquire"])),
        "registry.evictions": float(registry.evicted_total)
        if registry else 0.0,
        "degrade.transitions": float(server.ladder.transitions)
        if server else 0.0,
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def system_gate(system: System) -> List[str]:
    """Structural invariants every run must keep."""
    problems = []
    if system.server is not None:
        if system.server.ladder.transitions:
            problems.append(
                f"degrade.transitions={system.server.ladder.transitions}")
        if system.registry.evicted_total:
            problems.append(
                f"registry.evictions={system.registry.evicted_total}")
    return problems


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> Tuple[Dict[str, Any], int]:
    wl = WORKLOADS[workload]
    steal0 = host_steal_ms()
    reps = 2 if smoke else SETUP_REPS
    phase_s = seconds / 2.0 if trace else float(seconds)
    inputs = make_inputs(wl, seed, phase_s,
                         SMOKE_SCALE if smoke else 1.0)
    ledger = SetupLedger() if trace else None
    with ledger or contextlib.nullcontext():
        setup_times, system = timed_setups(wl, inputs, reps, ledger)
    gc.collect()
    gc.freeze()
    counts = Counts()
    try:
        plain = run_phase(wl, system, inputs, phase_s)
        traced_phase = None
        tracer = layers.Tracer() if trace else None
        if tracer is not None:
            wrap_live(tracer, system)
            try:
                traced_phase = run_phase(wl, system, inputs, phase_s,
                                         tracer)
            finally:
                tracer.unwrap()
    finally:
        system.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for phase in (plain, traced_phase):
        if phase is not None:
            counts.add(phase, check_samples(system, inputs, phase))
    problems = system_gate(system)
    e2e = phase_metrics(wl, inputs, plain)
    steal = host_steal_ms() - steal0

    print(f"workload {wl.name} seed {seed}: sent={counts.sent} "
          f"ok={counts.ok} shed={counts.shed} failed={counts.failed} "
          f"lost={counts.lost} checked={counts.checked} "
          f"mismatches={counts.mismatches}")
    print(f"  setup reps (s): "
          + " ".join(f"{t:.4f}" for t in setup_times)
          + f"  quiet windows={quiet_windows(plain.ticks).size}"
          + f"/{len(plain.ticks) - 1}"
          + f"  host.steal_ms={steal:.0f}"
          + f"  gen.late_ms_max={plain.gen_late_s * 1e3:.2f}")
    for problem in problems:
        print(f"  gate: {problem}")

    if trace:
        assert ledger is not None and tracer is not None
        assert traced_phase is not None
        traced = phase_metrics(wl, inputs, traced_phase)
        label, kernel = kernel_ledger(system, inputs)
        print(f"  kernel.backend = {label}")
        values = dict(ledger.medians())
        values.update(live_ledger(tracer, system))
        values.update(kernel)
        values.update({
            "gen.late_ms_max": plain.gen_late_s * 1e3,
            "host.steal_ms": steal,
            "lat_p90_ms": e2e["lat_p90_ms"],
            "lat_p99_ms": e2e["lat_p99_ms"],
            "tracing.overhead_frac": (traced["cpu_us_per_req"]
                                      / e2e["cpu_us_per_req"] - 1.0),
        })
        units = PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
    else:
        values = dict(e2e)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = rss_mb
        units = UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:<26s} {m['value']:>14.6g} {m['unit']}")
    correct = counts.bad == 0 and not problems
    result = {"correct": correct, "attempted": max(counts.sent, 1),
              "failed": counts.bad + len(problems), "metrics": metrics}
    return result, 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Every workload in its own process, one table at the end."""
    rows, code = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        if smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
        if lines:
            rows.append((name, json.loads(lines[-1])))
    print(f"\n{'workload':<14s} {'metric':<26s} {'value':>14s} unit")
    for name, res in rows:
        for metric, m in res["metrics"].items():
            print(f"{name:<14s} {metric:<26s} {m['value']:>14.6g} "
                  f"{m['unit']}")
        print(f"{name:<14s} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
    print(json.dumps({name: res for name, res in rows}))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny matrices and two set-ups (self-test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace),
                       args.smoke)
    result, code = run(args.workload, args.seed, args.seconds,
                       bool(args.trace), smoke=args.smoke)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
