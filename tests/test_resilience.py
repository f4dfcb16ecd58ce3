"""Tests for deterministic fault injection and guarded execution."""

import dataclasses
import json
import sys
import threading

import numpy as np
import pytest

from repro.core import candidate_portfolios, encode_spasm
from repro.exec.plan import set_shard_fault_hook
from repro.matrix.coo import COOMatrix
from repro.pipeline.cache import ArtifactCache
from repro.resilience import (
    ExecutionGuard,
    FaultInjector,
    GuardConfig,
    IntegrityError,
    InjectedWorkerFault,
    ResilienceEvent,
    ResilienceLog,
    RowOracle,
    clone_spasm,
    guarded_spmv,
    render_chaos_report,
    run_chaos_campaign,
)
from repro.resilience.chaos import CHAOS_PRESETS, SURFACES, _ChaosRun
from tests.conftest import random_structured_coo

#: Guard knobs that confront a fault on the very next call.
STRICT = GuardConfig(revalidate_interval=1, check_interval=1)


def encode(coo, tile_size=32):
    return encode_spasm(coo, candidate_portfolios()[0], tile_size)


@pytest.fixture
def spasm(rng):
    return encode(random_structured_coo(rng, 96, "mixed"))


@pytest.fixture
def x(rng, spasm):
    return rng.random(spasm.shape[1])


@pytest.fixture
def reference(spasm, x):
    return spasm.plan().spmv(x)


class TestFaultInjector:
    def test_deterministic_from_seed(self, spasm):
        records = []
        for _ in range(2):
            inj = FaultInjector(seed=42)
            mutant = clone_spasm(spasm)
            records.append([
                inj.flip_stream_word(mutant).to_dict(),
                inj.flip_value(mutant).to_dict(),
            ])
        assert records[0] == records[1]

    def test_clone_isolates_pristine(self, spasm, x):
        before = spasm.plan().spmv(x)
        mutant = clone_spasm(spasm)
        FaultInjector(0).flip_stream_word(mutant)
        FaultInjector(0).flip_value(mutant)
        assert np.array_equal(spasm.plan().spmv(x), before)

    def test_stream_flip_changes_digest(self, spasm):
        from repro.exec import stream_digest

        mutant = clone_spasm(spasm)
        d0 = stream_digest(mutant)
        FaultInjector(1).flip_stream_word(mutant)
        assert stream_digest(mutant) != d0

    def test_value_flip_changes_digest(self, spasm):
        from repro.exec import stream_digest

        mutant = clone_spasm(spasm)
        d0 = stream_digest(mutant)
        FaultInjector(2).flip_value(mutant)
        assert stream_digest(mutant) != d0

    def test_plan_flip_breaks_checksum(self, spasm):
        plan = clone_spasm(spasm).plan()
        assert plan.validate() == []
        FaultInjector(3).flip_plan_array(plan)
        assert plan.validate() != []

    @pytest.mark.parametrize("mode", ["truncate", "zero", "garbage"])
    def test_cache_corruption_modes(self, tmp_path, spasm, mode):
        cache = ArtifactCache(tmp_path)
        cache.store("analysis", "a" * 40,
                    {"v": np.arange(64, dtype=np.int64)}, {})
        record = FaultInjector(4).corrupt_cache_entry(cache, mode=mode)
        assert record is not None and record.mode == mode

    def test_cache_corruption_empty_cache(self, tmp_path):
        assert FaultInjector(0).corrupt_cache_entry(
            ArtifactCache(tmp_path)
        ) is None

    def test_worker_hook_restored_on_exit(self, spasm, x):
        inj = FaultInjector(5)
        with inj.worker_fault(mode="kill", nth=0):
            with pytest.raises(InjectedWorkerFault):
                spasm.plan().spmv(x)
        # hook gone: execution is clean again
        assert np.array_equal(
            spasm.plan().spmv(x), spasm.spmv_naive(x)
        ) or np.allclose(spasm.plan().spmv(x), spasm.spmv_naive(x))


class TestGuardCleanPath:
    def test_bitwise_identical_and_silent(self, spasm, x, reference):
        guard = ExecutionGuard(spasm)
        for _ in range(2 * GuardConfig().check_interval + 1):
            assert np.array_equal(guard.spmv(x), reference)
        assert len(guard.log) == 0

    def test_y_accumulation(self, rng, spasm, x):
        y0 = rng.random(spasm.shape[0])
        guard = ExecutionGuard(spasm)
        assert np.array_equal(
            guard.spmv(x, y=y0), spasm.plan().spmv(x, y=y0)
        )

    def test_shape_validation(self, spasm):
        guard = ExecutionGuard(spasm)
        with pytest.raises(ValueError):
            guard.spmv(np.zeros(7))

    def test_guarded_spmv_helper(self, spasm, x, reference):
        assert np.array_equal(guarded_spmv(spasm, x), reference)

    def test_spmm_clean(self, rng, spasm):
        x_block = rng.random((spasm.shape[1], 3))
        guard = ExecutionGuard(spasm)
        assert np.array_equal(
            guard.spmm(x_block), spasm.plan().spmm(x_block)
        )


class TestGuardDetection:
    def test_plan_corruption_contained(self, spasm, x, reference):
        mutant = clone_spasm(spasm)
        guard = ExecutionGuard(mutant, config=STRICT)
        FaultInjector(7).flip_plan_array(mutant.plan())
        out = guard.spmv(x)
        assert np.array_equal(out, reference)
        kinds = {e.kind for e in guard.log.events}
        assert "detect" in kinds
        surfaces = {e.surface for e in guard.log.events}
        assert "plan" in surfaces

    def test_stream_corruption_raises(self, spasm, x):
        mutant = clone_spasm(spasm)
        guard = ExecutionGuard(mutant, config=STRICT)
        FaultInjector(8).flip_stream_word(mutant)
        with pytest.raises(IntegrityError) as err:
            guard.spmv(x)
        assert err.value.events  # structured evidence attached

    def test_value_corruption_raises(self, spasm, x):
        mutant = clone_spasm(spasm)
        guard = ExecutionGuard(mutant, config=STRICT)
        FaultInjector(9).flip_value(mutant)
        with pytest.raises(IntegrityError):
            guard.spmv(x)

    def test_worker_kill_retried(self, spasm, x, reference):
        mutant = clone_spasm(spasm)
        guard = ExecutionGuard(mutant, config=STRICT)
        with FaultInjector(10).worker_fault(mode="kill", nth=0):
            out = guard.spmv(x)
        assert np.array_equal(out, reference)
        assert any(
            e.surface == "worker" for e in guard.log.events
        )

    def test_persistent_failure_falls_back(self, spasm, x):
        def always_kill(lo, hi):
            raise InjectedWorkerFault("every shard dies")

        guard = ExecutionGuard(clone_spasm(spasm), config=STRICT)
        previous = set_shard_fault_hook(always_kill)
        try:
            out = guard.spmv(x)
        finally:
            set_shard_fault_hook(previous)
        assert np.allclose(out, spasm.spmv_naive(x))
        assert any(
            e.kind == "fallback" for e in guard.log.events
        )

    def test_fallback_disabled_raises(self, spasm, x):
        def always_kill(lo, hi):
            raise InjectedWorkerFault("every shard dies")

        cfg = dataclasses.replace(STRICT, fallback=False)
        guard = ExecutionGuard(clone_spasm(spasm), config=cfg)
        previous = set_shard_fault_hook(always_kill)
        try:
            with pytest.raises(IntegrityError):
                guard.spmv(x)
        finally:
            set_shard_fault_hook(previous)

    def test_spmm_falls_back(self, rng, spasm):
        def always_kill(lo, hi):
            raise InjectedWorkerFault("every shard dies")

        x_block = rng.random((spasm.shape[1], 3))
        guard = ExecutionGuard(clone_spasm(spasm), config=STRICT)
        previous = set_shard_fault_hook(always_kill)
        try:
            out = guard.spmm(x_block)
        finally:
            set_shard_fault_hook(previous)
        assert np.allclose(out, spasm.spmm_naive(x_block))

    def test_quarantines_corrupt_persisted_plan(
        self, tmp_path, spasm, x, reference
    ):
        incidents = []
        cache = ArtifactCache(
            tmp_path, on_event=lambda kind, d: incidents.append(kind)
        )
        seeded = clone_spasm(spasm)
        seeded.plan(cache=cache)
        assert cache.entries()
        FaultInjector(11).corrupt_cache_entry(cache, mode="garbage")
        guard = ExecutionGuard(
            clone_spasm(spasm), config=STRICT, cache=cache
        )
        assert np.array_equal(guard.spmv(x), reference)


class TestRowOracle:
    def test_clean_output_passes(self, spasm, x):
        oracle = RowOracle.build(
            spasm, np.arange(min(8, spasm.shape[0]))
        )
        assert oracle.mismatches(x, spasm.plan().spmv(x)) == []

    def test_corrupted_output_flagged(self, spasm, x):
        rows = np.arange(min(8, spasm.shape[0]))
        oracle = RowOracle.build(spasm, rows)
        bad = spasm.plan().spmv(x)
        victim = int(rows[0])
        bad[victim] += 1.0
        assert victim in oracle.mismatches(x, bad)


class TestResilienceLog:
    def test_counts_and_render(self):
        log = ResilienceLog()
        log.record(ResilienceEvent(
            kind="detect", surface="plan", detail="checksum mismatch",
            action="rebuild", attempt=1,
        ))
        log.record(ResilienceEvent(
            kind="fallback", surface="plan", detail="gave up",
            action="fallback",
        ))
        assert log.counts() == {"detect": 1, "fallback": 1}
        assert "checksum mismatch" in log.render()
        assert len(log.to_dicts()) == 2

    def test_ring_bounded_counts_exact(self):
        log = ResilienceLog()
        cap = ResilienceLog.CAPACITY
        for i in range(10 * cap):
            log.record(ResilienceEvent(
                kind=("detect", "rebuild")[i % 2], surface="plan",
                detail=f"event {i}",
            ))
        assert len(log) == cap
        assert log.counts() == {"detect": 5 * cap, "rebuild": 5 * cap}
        # The ring keeps the newest events, oldest first.
        assert [e.detail for e in log.events] == [
            f"event {i}" for i in range(9 * cap, 10 * cap)
        ]

    def test_concurrent_records_counted_exactly(self):
        log = ResilienceLog()
        n_threads, per_thread = 8, 1000

        def work():
            for _ in range(per_thread):
                log.record(ResilienceEvent(
                    kind="detect", surface="plan", detail="x",
                ))

        threads = [threading.Thread(target=work)
                   for _ in range(n_threads)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert log.counts() == {"detect": n_threads * per_thread}
        assert len(log) == ResilienceLog.CAPACITY

    def test_empty_shared_log_is_shared(self, spasm):
        log = ResilienceLog()
        guard = ExecutionGuard(spasm, log=log)
        assert guard.log is log


#: Zero-load preset: one tenant, one request per wave, every surface.
TINY_PRESET = {
    "matrices": [("stormG2_1000", 0.5)],
    "tenants": [("solo", 0, 1.0, None, 2)],
    "workers": 1,
    "max_queue_per_plan": 8,
    "max_total": 8,
    "clean_requests": 0,
    "burst_requests": 1,
    "waves": {"stream": 2, "value": 2, "plan": 2, "backend": 1,
              "cache": 2, "worker": 2, "image": 1, "malformed": 1},
}


def outcomes(report):
    """Per-wave and per-surface tallies: the report minus timing."""
    chaos = report["chaos"]
    return chaos["waves"], chaos["surfaces"], chaos["totals"]


class TestCampaign:
    """The campaign engine at zero load (the former isolated campaign)."""

    def test_tiny_campaign_zero_escapes(self):
        report = run_chaos_campaign(TINY_PRESET, seed=3)
        assert report["zero_escapes"]
        assert report["clean"] is None
        totals = report["chaos"]["totals"]
        assert totals["injections"] == 13
        assert totals["escaped"] == 0
        # One request per wave, plus three malformed ones per
        # malformed wave; image waves send none.
        assert totals["requests"] == 13 - 1 + 3
        assert set(report["chaos"]["surfaces"]) == set(SURFACES)
        json.dumps(report)  # report must be JSON-serializable

    def test_campaign_reproducible_from_seed(self):
        a = run_chaos_campaign(TINY_PRESET, seed=5)
        b = run_chaos_campaign(TINY_PRESET, seed=5)
        assert outcomes(a) == outcomes(b)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            run_chaos_campaign("nope", seed=0)

    def test_zero_load_cache_waves_confront_the_live_plan(self):
        report = run_chaos_campaign(TINY_PRESET, seed=3)
        waves = [wave for wave in report["chaos"]["waves"]
                 if wave["surface"] == "cache"]
        assert len(waves) == TINY_PRESET["waves"]["cache"]
        for wave in waves:
            # The corrupted file is the target's plan artifact, and the
            # forced re-warm quarantined it (or the guard logged it).
            assert wave["fault"]["location"].startswith("plan-")
            assert wave["flagged"]
        cache = report["chaos"]["surfaces"]["cache"]
        assert cache["flagged"] == cache["injections"]

    def test_strict_audit_keeps_deadline_sheds(self, tmp_path):
        from types import SimpleNamespace

        def record(status, detail):
            return SimpleNamespace(
                tenant="t", plan="p", probe=0,
                response=SimpleNamespace(status=status, detail=detail,
                                         ok=False, level="plan"),
            )

        run = _ChaosRun({}, seed=0, cache_dir=str(tmp_path),
                        progress=None)
        tally = run.classify([
            record("shed", "deadline: expired while queued"),
            record("shed", "queue_full: plan queue at capacity"),
            record("failed", "worker error"),
        ], strict=True)
        assert tally["shed"] == 1
        assert tally["escaped"] == 2

    @pytest.mark.parametrize("name", ["smoke", "isolated-smoke"])
    def test_smoke_presets_cover_every_surface(self, name):
        waves = CHAOS_PRESETS[name]["waves"]
        assert set(waves) == set(SURFACES)
        assert all(count >= 1 for count in waves.values())

    def test_zero_load_presets_keep_injection_counts(self):
        for name, floor in (("isolated-smoke", 56),
                            ("isolated-full", 220)):
            spec = CHAOS_PRESETS[name]
            assert spec["clean_requests"] == 0
            assert spec["burst_requests"] == 1
            assert len(spec["tenants"]) == 1
            assert sum(spec["waves"].values()) >= floor

    @pytest.mark.parametrize("name", ["smoke", "isolated-smoke"])
    def test_smoke_presets_zero_escapes(self, name, tmp_path):
        report = run_chaos_campaign(name, seed=0, cache_dir=tmp_path)
        assert report["zero_escapes"], report["chaos"]["escapes"]
        assert set(report["chaos"]["surfaces"]) == set(SURFACES)
        malformed = report["chaos"]["surfaces"]["malformed"]
        assert malformed["shed"] == 3 * malformed["injections"]

    def test_text_render(self):
        report = run_chaos_campaign(TINY_PRESET, seed=1)
        text = render_chaos_report(report)
        assert "(zero load)" in text
        assert "zero escapes -> PASS" in text
        for surface in SURFACES:
            assert surface in text


class TestHwIntegration:
    def test_fast_run_with_guard_bitwise(self, rng, spasm, x):
        from repro.hw import SPASM_4_1, SpasmAccelerator

        acc = SpasmAccelerator(SPASM_4_1)
        guard = ExecutionGuard(spasm)
        plain = acc.run(spasm, x, engine="fast")
        guarded = acc.run(spasm, x, engine="fast", guard=guard)
        assert np.array_equal(plain.y, guarded.y)
        assert plain.hbm_bytes == guarded.hbm_bytes

    def test_guard_for_wrong_matrix_rejected(self, rng, spasm, x):
        from repro.hw import SPASM_4_1, SpasmAccelerator

        other = clone_spasm(spasm)
        acc = SpasmAccelerator(SPASM_4_1)
        with pytest.raises(ValueError):
            acc.run(spasm, x, engine="fast",
                    guard=ExecutionGuard(other))

    def test_guard_requires_fast_engine(self, spasm, x):
        from repro.hw import SPASM_4_1, SpasmAccelerator

        acc = SpasmAccelerator(SPASM_4_1)
        with pytest.raises(ValueError):
            acc.run(spasm, x, engine="event",
                    guard=ExecutionGuard(spasm))
