"""The fault-campaign engine: seeded faults fired at a live server.

Every campaign stands up a real :class:`~repro.serve.SpmvServer`
(admission control, batching workers, degradation ladder) over a
:class:`~repro.serve.PlanRegistry` hardened to :data:`CHAOS_GUARD`,
then runs *waves*.  Each wave fires one
:class:`~repro.resilience.faults.FaultInjector` fault at the live
serving state, drives a seeded burst of requests through the server,
audits every response bitwise against references computed from
pristine clones **before** any injection, and finally heals the hit
entry by swapping a pristine clone back in
(:meth:`~repro.serve.PlanRegistry.replace`), so waves stay
independent.

Presets come at two loads:

* **under load** (``smoke``, ``full``) — several tenants over several
  matrices; a clean phase first (the latency baseline for
  ``benchmarks/bench_serve.py``), then a mixed-tenant burst per wave;
* **zero load** (``isolated-smoke``, ``isolated-full``) — no clean
  phase, one tenant and one request per wave, many waves per surface:
  each fault is confronted by a single guarded call.

Surfaces (one fault per wave):

=============  =====================================================
``stream``     bit flip in the entry's position words, in place
``value``      bit flip in its value payload, in place
``plan``       byte flip in its compiled plan arrays
``backend``    float flip in the kernel backend's scratch state
``cache``      on-disk artifact corruption, then forced re-warms
``worker``     shard worker killed or stalled during the burst
``image``      bit flip in the entry's packed HBM memory image, judged
               by :func:`~repro.verify.verify_memory_image` (sends no
               request)
``malformed``  wrong-length, 2-D and complex ``x`` mixed into the burst
=============  =====================================================

Outcomes:

==============  ====================================================
``contained``   status ``ok`` and bitwise equal to a reference
                (plan-path or naive) — served correctly through or
                around the fault; for ``image``, a verifier-clean flip
                (the round-trip rule proved it benign).
``detected``    status ``failed`` — the guard refused to answer
                (e.g. stream digest mismatch); for ``image``, the
                verifier refused the image.
``shed``        status ``shed`` — dropped by admission or deadline
                policy, no result returned.
``escaped``     status ``ok`` but **wrong** — the only bad outcome,
                and the campaign gate: any escape fails the run.
==============  ====================================================

``malformed`` waves are stricter: each malformed request must come
back shed as ``bad_request``, and a well-formed request in the burst
that fails or is shed for any reason but its deadline counts as an
escape (a batch poisoned by its neighbour).

Each wave is also ``flagged`` when the serving stack logged at least
one incident (a guard event or a cache quarantine) while confronting
its fault; a surface's ``flagged`` count is its flagged waves, so a
fault that was contained without ever being noticed shows up as
contained but unflagged.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.resilience.faults import FaultInjector, clone_spasm
from repro.resilience.guard import GuardConfig

#: Serving guard hardened for the chaos gate: the stream digest is
#: re-pinned and the plan revalidated on *every* call, and the sampled
#: oracle runs every call, so an injected fault is confronted by the
#: very next request rather than within a window.  Fallback stays on —
#: containment through the naive engine is a success mode here.
CHAOS_GUARD = GuardConfig(
    validate_plan=True,
    repin_interval=1,
    revalidate_interval=1,
    check_interval=1,
    check_rows=4,
    max_attempts=2,
    backoff_s=0.0005,
    max_retry_wall_s=2.0,
)

#: Every fault surface, in wave order.
SURFACES = ("stream", "value", "plan", "backend", "cache", "worker",
            "image", "malformed")

#: Campaign presets.  ``smoke``/``full`` run under load (``smoke`` is
#: the serving CI gate); ``isolated-smoke``/``isolated-full`` run at
#: zero load (``isolated-smoke`` is the fault CI gate,
#: ``isolated-full`` produces ``benchmarks/results/faults_campaign.json``).
CHAOS_PRESETS: Dict[str, Dict[str, Any]] = {
    "smoke": {
        "matrices": [("tmt_sym", 0.5), ("mip1", 0.3)],
        "tenants": [
            # (tenant, matrix index, weight, deadline_ms, n_probes)
            ("latency", 0, 2.0, 250.0, 3),
            ("batch", 1, 1.0, None, 3),
        ],
        "workers": 2,
        "max_queue_per_plan": 32,
        "max_total": 96,
        "clean_requests": 60,
        "burst_requests": 24,
        "waves": dict.fromkeys(SURFACES, 1),
    },
    "full": {
        "matrices": [("tmt_sym", 1.0), ("mip1", 0.5), ("rim", 0.5)],
        "tenants": [
            ("latency", 0, 2.0, 400.0, 4),
            ("batch", 1, 1.0, None, 4),
            ("bulk", 2, 1.0, 1000.0, 4),
        ],
        "workers": 3,
        "max_queue_per_plan": 48,
        "max_total": 160,
        "clean_requests": 200,
        "burst_requests": 60,
        "waves": dict.fromkeys(SURFACES, 3),
    },
    "isolated-smoke": {
        "matrices": [("tmt_sym", 1.0)],
        "tenants": [("solo", 0, 1.0, None, 4)],
        "workers": 1,
        "max_queue_per_plan": 8,
        "max_total": 8,
        "clean_requests": 0,
        "burst_requests": 1,
        "waves": {"stream": 10, "value": 10, "plan": 12, "backend": 6,
                  "cache": 10, "worker": 8, "image": 6, "malformed": 4},
    },
    "isolated-full": {
        "matrices": [("tmt_sym", 1.0)],
        "tenants": [("solo", 0, 1.0, None, 4)],
        "workers": 1,
        "max_queue_per_plan": 8,
        "max_total": 8,
        "clean_requests": 0,
        "burst_requests": 1,
        "waves": {"stream": 40, "value": 40, "plan": 50, "backend": 20,
                  "cache": 40, "worker": 30, "image": 20,
                  "malformed": 10},
    },
}

#: Outcome tally keys, per wave, per surface and in the totals.
_TALLY = ("requests", "contained", "detected", "shed", "escaped")


def _malformed_inputs(ncols: int) -> Dict[str, np.ndarray]:
    """One input per violation of the server's ``x`` contract."""
    return {
        "wrong_length": np.ones(ncols + 1),
        "two_d": np.ones((2, ncols)),
        "complex": np.ones(ncols) + 1j,
    }


class _ChaosRun:
    """One campaign's mutable state (matrices, server, references)."""

    def __init__(self, spec: Dict[str, Any], seed: int,
                 cache_dir: Optional[str],
                 progress: Optional[Callable[[str], None]]):
        self.spec = spec
        self.seed = int(seed)
        self.injector = FaultInjector(seed=seed)
        self.progress = progress or (lambda line: None)
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if cache_dir is None:
            self._tmp = tempfile.TemporaryDirectory(
                prefix="repro-chaos-"
            )
            cache_dir = self._tmp.name
        self.cache_dir = str(cache_dir)
        self.pristine: Dict[str, Any] = {}
        self.quarantines: List[Dict[str, Any]] = []
        self.hw_configs: Dict[str, Any] = {}
        self.images: Dict[str, Any] = {}
        self.refs: Dict[str, List[Dict[str, np.ndarray]]] = {}

    # -- setup ----------------------------------------------------------

    def build(self) -> None:
        from repro.pipeline.cache import ArtifactCache
        from repro.serve import (
            AdmissionConfig,
            PlanRegistry,
            SpmvServer,
            TenantSpec,
            tenant_probes,
        )
        from repro.synth import load_workload

        self.registry = PlanRegistry(
            cache=ArtifactCache(self.cache_dir,
                                on_event=self._on_cache_event),
            guard_config=CHAOS_GUARD, seed=self.seed,
        )
        self.plan_names: List[str] = []
        self.matrices: List[Dict[str, Any]] = []
        ncols_of: Dict[str, int] = {}
        for workload, scale in self.spec["matrices"]:
            name = f"{workload}@{scale:g}"
            coo = load_workload(workload, scale)
            entry = self.registry.register(name, coo=coo)
            self.pristine[name] = clone_spasm(entry.spasm)
            self.hw_configs[name] = entry.hw_config
            self.plan_names.append(name)
            ncols_of[name] = int(entry.spasm.shape[1])
            self.matrices.append({"name": name, "nnz": int(coo.nnz),
                                  "shape": list(entry.spasm.shape)})
            self.progress(f"registered {name}: shape="
                          f"{tuple(entry.spasm.shape)} nnz={coo.nnz}")
        self.tenants = [
            TenantSpec(name=tenant, plan=self.plan_names[mat_idx],
                       weight=weight, deadline_ms=deadline_ms,
                       n_probes=n_probes)
            for tenant, mat_idx, weight, deadline_ms, n_probes
            in self.spec["tenants"]
        ]
        self.probes = tenant_probes(self.tenants, ncols_of, self.seed)
        # References from pristine clones, before any injection: both
        # the plan path and the naive path are legitimate provenances
        # for an ``ok`` answer.
        for tenant in self.tenants:
            spasm = clone_spasm(self.pristine[tenant.plan])
            pool = self.probes[tenant.name]
            self.refs[tenant.name] = [
                {
                    "naive": spasm.spmv_naive(pool[i]),
                    "plan": spasm.spmv(pool[i]),
                }
                for i in range(pool.shape[0])
            ]
        self.server = SpmvServer(
            self.registry,
            admission=AdmissionConfig(
                max_queue_per_plan=self.spec["max_queue_per_plan"],
                max_total=self.spec["max_total"],
            ),
            workers=self.spec["workers"],
        )

    def _on_cache_event(self, kind: str, details: Dict[str, Any]) -> None:
        if kind == "quarantine":
            self.quarantines.append(details)

    def load(self, n_requests: int, seed: int) -> Any:
        from repro.serve import run_load

        return run_load(self.server, self.tenants, self.probes,
                        n_requests, seed=seed)

    # -- verification ---------------------------------------------------

    def classify(self, records: List[Any],
                 strict: bool = False) -> Dict[str, Any]:
        """Audit load records bitwise; tally outcome classes.

        ``strict`` (malformed waves): a well-formed request that fails
        or is shed for any reason but its deadline was poisoned by a
        neighbour, so it counts as an escape.
        """
        from repro.serve import SHED_DEADLINE

        tally: Dict[str, Any] = dict.fromkeys(_TALLY, 0)
        escapes: List[Dict[str, Any]] = []
        for record in records:
            tally["requests"] += 1
            response = record.response
            outcome = {"shed": "shed", "failed": "detected"}.get(
                response.status, "escaped"
            )
            if response.ok:
                refs = self.refs[record.tenant][record.probe]
                if (np.array_equal(response.y, refs["naive"])
                        or np.array_equal(response.y, refs["plan"])):
                    outcome = "contained"
            if strict and outcome != "contained" and not (
                outcome == "shed"
                and response.detail.startswith(SHED_DEADLINE)
            ):
                outcome = "escaped"
            tally[outcome] += 1
            if outcome == "escaped":
                escapes.append({
                    "tenant": record.tenant,
                    "plan": record.plan,
                    "probe": record.probe,
                    "status": response.status,
                    "level": response.level,
                })
        tally["escapes"] = escapes
        return tally

    # -- waves ----------------------------------------------------------

    def wave(self, surface: str, idx: int) -> Tuple[Dict[str, Any], Any]:
        """Inject one fault, audit its burst, heal the target.

        Returns the wave's tally and its load report (``None`` for
        ``image`` waves, which send no request).
        """
        target = self.plan_names[
            int(self.injector.rng.integers(len(self.plan_names)))
        ]
        burst_seed = self.seed + 101 * idx
        incidents_before = self._incidents()
        record, audit = None, None
        if surface == "image":
            record, audit = self._image(target)
            burst = None
        elif surface == "malformed":
            burst, audit = self._malformed(target, burst_seed)
        elif surface == "worker":
            with _shard_storm(self) as plans:
                rng = self.injector.rng
                mode = ("kill", "kill", "stall")[int(rng.integers(0, 3))]
                shards = len(plans[target].shard_bounds(2))
                with self.injector.worker_fault(
                    mode=mode, nth=int(rng.integers(0, shards)),
                ) as record:
                    burst = self.load(self.spec["burst_requests"],
                                      burst_seed)
        else:
            record = self._inject(surface, target)
            burst = self.load(self.spec["burst_requests"], burst_seed)
        if audit is None:
            audit = self.classify(burst.records)
        # The verifier's refusal is the image surface's incident.
        flagged = (self._incidents() > incidents_before
                   or (surface == "image" and audit["detected"] > 0))
        self.registry.replace(target, clone_spasm(self.pristine[target]))
        return {
            "wave": idx,
            "surface": surface,
            "target": target,
            "fault": record.to_dict() if record is not None else None,
            "flagged": flagged,
            **audit,
        }, burst

    def _incidents(self) -> int:
        """Guard events plus cache quarantines logged so far.

        Registry housekeeping (``evict``) is not an incident.
        """
        counts = self.registry.log.counts()
        counts.pop("evict", None)
        return sum(counts.values()) + len(self.quarantines)

    def _inject(self, surface: str, target: str) -> Any:
        """Corrupt live serving state in place; returns the record.

        Entry state is flipped through a lease, never through
        ``registry.replace``, which would re-pin the corruption as
        trusted.
        """
        if surface not in ("stream", "value", "plan", "backend", "cache"):
            raise ValueError(f"unknown chaos surface {surface!r}")
        lease = self.registry.acquire(target)
        try:
            if surface == "cache":
                # The artifact the target's live plan was loaded from
                # (or persisted to) by the acquire above.
                from repro.exec.plan import PLAN_STAGE, _plan_cache_key

                cache = self.registry.cache
                path = cache.path(
                    PLAN_STAGE,
                    _plan_cache_key(lease.spasm.plan().digest, None, None),
                )
                return self.injector.corrupt_cache_entry(
                    cache, entry=os.path.basename(path)
                )
            if surface == "stream":
                return self.injector.flip_stream_word(lease.spasm)
            if surface == "value":
                return self.injector.flip_value(lease.spasm)
            plan = lease.spasm.plan()
            if surface == "plan":
                return self.injector.flip_plan_array(plan)
            from repro.exec.backends import resolve_backend

            engine = resolve_backend(None, plan=plan, op="spmv").name
            return self.injector.flip_backend_state(
                plan, engine, float_only=True
            )
        finally:
            self.registry.release(lease)
            if surface == "cache":
                # Force the re-warm through the corrupted artifact.
                self.registry.evict(target)

    def _image(self, target: str) -> Tuple[Any, Dict[str, Any]]:
        """Flip a bit in the target's packed image; verifier judges."""
        from repro.hw.memory_image import pack_images
        from repro.verify import verify_memory_image

        spasm = self.pristine[target]
        if target not in self.images:
            self.images[target] = pack_images(
                spasm, self.hw_configs[target]
            )
        mutated, record = self.injector.flip_image_bit(
            self.images[target]
        )
        audit: Dict[str, Any] = dict.fromkeys(_TALLY, 0)
        # A verifier-clean flip is benign: the round-trip rule just
        # proved every PE stream unpacks to the encoded values.
        clean = verify_memory_image(mutated, spasm=spasm).ok
        audit["contained" if clean else "detected"] = 1
        audit["escapes"] = []
        return record, audit

    def _malformed(self, target: str,
                   seed: int) -> Tuple[Any, Dict[str, Any]]:
        """A burst with one request per ``x`` contract violation."""
        ncols = int(self.pristine[target].shape[1])
        bad = {
            kind: self.server.submit(target, x, tenant="malformed")
            for kind, x in _malformed_inputs(ncols).items()
        }
        burst = self.load(self.spec["burst_requests"], seed)
        audit = self.classify(burst.records, strict=True)
        for kind, future in bad.items():
            response = future.result()
            audit["requests"] += 1
            if (response.status == "shed"
                    and response.detail.startswith("bad_request")):
                audit["shed"] += 1
            else:
                audit["escaped"] += 1
                audit["escapes"].append({
                    "tenant": "malformed", "plan": target,
                    "input": kind, "status": response.status,
                    "level": response.level,
                })
        return burst, audit

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()


@contextlib.contextmanager
def _shard_storm(run: _ChaosRun) -> Iterator[Dict[str, Any]]:
    """Force the shard path on every hot plan for one worker wave.

    Serving-sized matrices never cross the auto-shard thresholds, so
    worker faults would be unreachable; lowering ``MIN_SHARD_SLOTS``
    and pinning two jobs per plan makes every dispatch go through the
    pool.  Yields the pinned plans by name; both are undone on exit.
    """
    import repro.exec.plan as plan_mod

    saved = plan_mod.MIN_SHARD_SLOTS
    plan_mod.MIN_SHARD_SLOTS = 1
    plans: Dict[str, Any] = {}
    try:
        for name in run.plan_names:
            lease = run.registry.acquire(name)
            try:
                plans[name] = lease.spasm.plan()
            finally:
                run.registry.release(lease)
            plans[name].override_auto_jobs(2)
        yield plans
    finally:
        plan_mod.MIN_SHARD_SLOTS = saved
        for plan in plans.values():
            plan.override_auto_jobs(None)


def _resolve_preset(preset: Any) -> Tuple[Dict[str, Any], str]:
    if isinstance(preset, dict):
        return preset, "custom"
    try:
        return CHAOS_PRESETS[preset], str(preset)
    except KeyError:
        raise KeyError(
            f"unknown chaos preset {preset!r}; choose from "
            f"{sorted(CHAOS_PRESETS)}"
        ) from None


def run_chaos_campaign(preset: Any = "smoke", seed: int = 0,
                       cache_dir: Optional[str] = None,
                       progress: Optional[Callable[[str], None]] = None,
                       ) -> Dict[str, Any]:
    """Run a fault campaign; returns a JSON-able report.

    Parameters
    ----------
    preset:
        A :data:`CHAOS_PRESETS` key or an explicit preset dict with
        the same schema (``waves`` maps surface -> wave count;
        ``clean_requests=0`` skips the clean phase).
    seed:
        Master seed: matrices, probe pools, tenant sequences and every
        injection are a pure function of it.
    cache_dir:
        Artifact-cache directory (a throwaway temp dir by default —
        the cache surface corrupts entries on disk).
    progress:
        Optional one-line-per-wave callback.
    """
    from repro.serve.loadgen import LoadReport

    spec, preset_name = _resolve_preset(preset)
    run = _ChaosRun(spec, seed, cache_dir, progress)
    waves: List[Dict[str, Any]] = []
    chaos_records: List[Any] = []
    chaos_wall = 0.0
    clean: Any = None
    try:
        run.build()
        with run.server:
            if spec["clean_requests"]:
                run.progress("clean phase")
                clean = run.load(spec["clean_requests"], seed + 1)
            idx = 0
            for surface, count in spec["waves"].items():
                for _ in range(int(count)):
                    idx += 1
                    wave, burst = run.wave(surface, idx)
                    waves.append(wave)
                    if burst is not None:
                        chaos_records.extend(burst.records)
                        chaos_wall += burst.wall_s
                    run.progress(
                        f"wave {idx} [{surface}]: "
                        + " ".join(f"{k}={wave[k]}" for k in _TALLY[1:])
                    )
            server_stats = run.server.stats()
    finally:
        run.close()

    surfaces: Dict[str, Dict[str, int]] = {}
    escapes: List[Dict[str, Any]] = []
    for wave in waves:
        escapes.extend(
            {"wave": wave["wave"], "surface": wave["surface"], **e}
            for e in wave.pop("escapes")
        )
        tally = surfaces.setdefault(
            wave["surface"],
            dict.fromkeys(("injections", "flagged") + _TALLY, 0),
        )
        tally["injections"] += 1
        tally["flagged"] += int(wave["flagged"])
        for key in _TALLY:
            tally[key] += wave[key]
    totals = {
        key: sum(s[key] for s in surfaces.values())
        for key in ("injections", "flagged") + _TALLY
    }
    clean_audit = run.classify(clean.records) if clean else None
    if clean_audit is not None:
        escapes.extend({"wave": 0, "surface": "clean", **e}
                       for e in clean_audit.pop("escapes"))
    chaos = LoadReport(records=chaos_records,
                       wall_s=max(chaos_wall, 1e-9))
    return {
        "campaign": "chaos",
        "preset": preset_name,
        "seed": seed,
        "guard": {
            field: getattr(CHAOS_GUARD, field)
            for field in ("repin_interval", "revalidate_interval",
                          "check_interval", "check_rows",
                          "max_attempts", "max_retry_wall_s")
        },
        "matrices": run.matrices,
        "clean": (None if clean is None
                  else {**clean.summary(), "audit": clean_audit}),
        "chaos": {
            "latency_ms": chaos.percentiles_ms(),
            "waves": waves,
            "surfaces": surfaces,
            "totals": totals,
            "escapes": escapes,
        },
        "server": server_stats,
        "zero_escapes": not escapes,
    }


def render_chaos_report(report: Dict[str, Any]) -> str:
    """Human-readable campaign summary: one line per surface."""
    chaos = report["chaos"]
    totals = chaos["totals"]
    clean = report["clean"]
    lines = [
        f"chaos campaign: preset={report['preset']} "
        f"seed={report['seed']} "
        + ("(zero load)" if clean is None else "(under load)"),
    ]
    if clean is not None:
        lines.append(
            f"  clean : {clean['requests']} requests, "
            f"qps={clean['qps']:.1f}, "
            f"p99={clean['latency_ms']['p99']:.2f} ms"
        )
    lines.append(
        f"  chaos : {totals['requests']} requests over "
        f"{totals['injections']} waves, "
        f"p99={chaos['latency_ms']['p99']:.2f} ms"
    )
    for surface, tally in list(chaos["surfaces"].items()) + [
        ("totals", totals)
    ]:
        lines.append(
            f"    {surface:<9} waves={tally['injections']:<4} "
            f"flagged={tally['flagged']:<4} "
            + " ".join(f"{k}={tally[k]}" for k in _TALLY[1:])
        )
    verdict = "PASS" if report["zero_escapes"] else "FAIL (escapes!)"
    lines.append(f"  gate  : zero escapes -> {verdict}")
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    """Persist a campaign report as sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
