"""Tests for the serving layer: deadlines, registry, admission,
degradation ladder, the server end to end, and chaos-under-load.

The correctness contract under test everywhere: an ``ok`` response is
bitwise-trustworthy (guarded plan path or verified naive rung), and a
request that cannot be answered in time is shed — never answered late,
never answered unverified.
"""

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core import candidate_portfolios, encode_spasm
from repro.pipeline import ArtifactCache
from repro.resilience import (
    FaultInjector,
    IntegrityError,
    clone_spasm,
    run_chaos_campaign,
)
from repro.resilience.chaos import render_chaos_report
from repro.resilience.guard import ExecutionGuard, GuardConfig
from repro.serve import (
    LEVELS,
    AdmissionConfig,
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    DegradationLadder,
    PlanRegistry,
    RequestShed,
    SpmvServer,
    TenantSpec,
    UnknownMatrixError,
    make_probes,
    run_load,
    serve_matrices,
    tenant_probes,
)
from tests.conftest import random_structured_coo

#: Confront every in-place fault on the very next call: re-pin the
#: stream digest and re-validate the plan each acquire, so the stress
#: tests below are deterministic (ok implies bitwise-correct).
PARANOID_GUARD = GuardConfig(
    validate_plan=True,
    repin_interval=1,
    revalidate_interval=1,
    check_interval=1,
    check_rows=2,
    max_attempts=2,
    backoff_s=0.0,
    max_retry_wall_s=1.0,
)


def make_spasm(rng, n=96, kind="mixed"):
    coo = random_structured_coo(rng, n, kind)
    return encode_spasm(coo, candidate_portfolios()[0], 32)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t


class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == 2.0
        assert not deadline.expired
        clock.t = 1.5
        assert deadline.remaining() == pytest.approx(0.5)
        clock.t = 2.5
        assert deadline.remaining() == 0.0
        assert deadline.expired
        assert deadline.elapsed() == pytest.approx(2.5)

    def test_unbounded_never_expires(self):
        clock = FakeClock()
        deadline = Deadline(None, clock=clock)
        clock.t = 1e9
        assert deadline.remaining() == np.inf
        assert not deadline.expired
        deadline.check()  # no raise
        assert "unbounded" in deadline.render()

    def test_check_raises_with_context(self):
        clock = FakeClock()
        deadline = Deadline(0.25, clock=clock)
        deadline.check("queue wait")
        clock.t = 0.5
        with pytest.raises(DeadlineExceeded, match="queue wait"):
            deadline.check("queue wait")

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_after_ms(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250.0, clock=clock)
        assert deadline.budget_s == pytest.approx(0.25)
        assert Deadline.after_ms(None, clock=clock).budget_s is None

    def test_sleep_clipped_to_budget(self):
        # Real clock here: the clip must bound actual wall time.
        deadline = Deadline(0.01)
        slept = deadline.sleep(5.0)
        assert slept <= 0.01 + 1e-3
        assert deadline.sleep(5.0) <= deadline.budget_s
        exhausted = Deadline(0.0)
        assert exhausted.sleep(5.0) == 0.0


class TestGuardDeadline:
    """The retry ladder must respect per-request deadlines."""

    def failing_guard(self, rng, fail_times):
        spasm = make_spasm(rng)
        guard = ExecutionGuard(
            spasm,
            config=GuardConfig(max_attempts=3, backoff_s=0.001,
                               check_interval=0, validate_plan=False),
            seed=7,
        )
        state = {"left": fail_times}
        original = guard._checked_output

        def flaky(plan, x, jobs, attempt):
            if state["left"] > 0:
                state["left"] -= 1
                raise RuntimeError("injected kernel failure")
            return original(plan, x, jobs, attempt)

        guard._checked_output = flaky
        return spasm, guard

    def test_expired_deadline_short_circuits_retries(self, rng):
        spasm, guard = self.failing_guard(rng, fail_times=10)
        x = rng.standard_normal(spasm.shape[1])
        clock = FakeClock()
        y = guard.spmv(x, deadline=Deadline(0.0, clock=clock))
        # Recovery jumped straight to the (verified) naive fallback
        # instead of burning retries the request had no budget for.
        assert np.array_equal(y, spasm.spmv_naive(x))
        kinds = [e.kind for e in guard.log.events]
        assert "deadline" in kinds
        assert "fallback" in kinds

    def test_generous_deadline_allows_recovery(self, rng):
        spasm, guard = self.failing_guard(rng, fail_times=1)
        x = rng.standard_normal(spasm.shape[1])
        y = guard.spmv(x, deadline=Deadline(30.0))
        assert np.array_equal(y, spasm.spmv(x))
        kinds = [e.kind for e in guard.log.events]
        assert "deadline" not in kinds
        assert "fallback" not in [e.action for e in guard.log.events]


class TestPlanRegistry:
    def test_register_needs_exactly_one_source(self, rng):
        registry = PlanRegistry()
        with pytest.raises(ValueError):
            registry.register("x")
        with pytest.raises(ValueError):
            registry.register("x", coo=object(), spasm=object())

    def test_unknown_matrix(self):
        registry = PlanRegistry()
        with pytest.raises(UnknownMatrixError, match="not registered"):
            registry.acquire("ghost")

    def test_cold_registration_warms_on_acquire(self, rng):
        registry = PlanRegistry()
        entry = registry.register("a", spasm=make_spasm(rng),
                                  warm=False)
        assert not entry.hot and entry.guard is None
        lease = registry.acquire("a")
        assert entry.hot and lease.guard is not None
        assert entry.in_flight == 1
        registry.release(lease)
        assert entry.in_flight == 0

    def test_evict_refused_while_leased(self, rng):
        registry = PlanRegistry()
        registry.register("a", spasm=make_spasm(rng))
        lease = registry.acquire("a")
        assert registry.evict("a") is False
        registry.release(lease)
        assert registry.evict("a") is True
        assert not registry._entries["a"].hot
        # Re-acquire transparently re-warms.
        lease = registry.acquire("a")
        assert lease.entry.hot
        registry.release(lease)

    def test_byte_budget_evicts_lru(self, rng):
        registry = PlanRegistry()
        for name in ("a", "b", "c"):
            registry.register(name, spasm=make_spasm(rng))
        one_plan = registry._entries["a"].plan_nbytes
        # Budget fits roughly two plans: keeping all three hot must
        # evict the least recently used.
        registry.byte_budget = int(2.5 * one_plan)
        for name in ("a", "b", "c"):  # c most recent, a least
            registry.release(registry.acquire(name))
        assert registry.hot_bytes() <= registry.byte_budget
        assert registry.evicted_total > 0
        assert not registry._entries["a"].hot  # LRU victim
        assert registry._entries["c"].hot
        assert any(e.kind == "evict" for e in registry.log.events)

    def test_leased_entries_survive_budget_pressure(self, rng):
        registry = PlanRegistry()
        registry.register("a", spasm=make_spasm(rng))
        registry.register("b", spasm=make_spasm(rng))
        registry.byte_budget = 1  # nothing fits
        lease_a = registry.acquire("a")
        lease_b = registry.acquire("b")
        # Both over budget yet leased: eviction is deferred, logged.
        assert registry._entries["a"].hot
        assert registry._entries["b"].hot
        assert any(
            e.kind == "evict" and e.action == "none"
            for e in registry.log.events
        )
        registry.release(lease_a)
        registry.release(lease_b)

    def test_replace_swaps_stream_and_goes_cold(self, rng):
        registry = PlanRegistry()
        spasm = make_spasm(rng)
        registry.register("a", spasm=clone_spasm(spasm))
        x = rng.standard_normal(spasm.shape[1])
        lease = registry.acquire("a")
        before = lease.guard.spmv(x)
        registry.release(lease)
        registry.replace("a", clone_spasm(spasm))
        entry = registry._entries["a"]
        assert not entry.hot
        lease = registry.acquire("a")
        assert np.array_equal(lease.guard.spmv(x), before)
        registry.release(lease)

    def test_tuned_record_picked_up_from_cache(self, rng, tmp_path):
        from repro.pipeline.cache import matrix_digest
        from repro.tune import TunedConfig, store_tuned

        coo = random_structured_coo(rng, 96, "mixed")
        cache = ArtifactCache(tmp_path)
        store_tuned(cache, TunedConfig(
            matrix_digest=matrix_digest(coo), portfolio="default",
            tile_size=32, index="int64", precision="fp64",
            backend="csr", jobs=1, batch_block=8,
            structure_bitwise=False, spmv_ms=0.1,
            default_spmv_ms=0.2, batch_qps=10.0,
            default_batch_qps=5.0, model_cycles=100,
            candidates_total=4, candidates_measured=4,
        ))
        registry = PlanRegistry(cache=cache)
        entry = registry.register("a", coo=coo)
        assert entry.tuned is not None
        assert entry.tuned.backend == "csr"
        assert entry.guard.backend == "csr"
        # Cold registrations get their pin at warmup (one cache scan
        # covers every registered digest).
        other = PlanRegistry(cache=cache)
        cold = other.register("a", coo=coo, warm=False)
        assert cold.tuned is None
        summary = other.warmup()
        assert summary["tuned"] == ["a"]
        assert cold.tuned is not None
        assert cold.guard.backend == "csr"

    def test_evict_while_executing_race(self, rng):
        """Threaded stress: queries race the byte-budget evictor and a
        seeded fault injector; every ok result must stay bitwise-true
        and every fault must surface as IntegrityError."""
        pristine = {
            "a": make_spasm(rng, n=96, kind="blocks"),
            "b": make_spasm(rng, n=96, kind="scatter"),
        }
        registry = PlanRegistry(guard_config=PARANOID_GUARD, seed=3)
        for name, spasm in pristine.items():
            registry.register(name, spasm=clone_spasm(spasm))
        # Budget below two plans: every cross-matrix switch evicts.
        registry.byte_budget = max(
            e.plan_nbytes for e in registry._entries.values()
        )
        probes = {
            name: rng.standard_normal(spasm.shape[1])
            for name, spasm in pristine.items()
        }
        refs = {
            name: pristine[name].spmv_naive(probes[name])
            for name in pristine
        }
        errors = []
        integrity_hits = threading.Semaphore(0)

        def worker(widx):
            wrng = np.random.default_rng(100 + widx)
            for _ in range(25):
                name = ("a", "b")[int(wrng.integers(2))]
                lease = registry.acquire(name)
                try:
                    y = lease.guard.spmv(probes[name])
                    if not np.array_equal(y, refs[name]):
                        errors.append(f"wrong result for {name}")
                except IntegrityError:
                    integrity_hits.release()
                except Exception as exc:  # noqa: BLE001
                    errors.append(f"{type(exc).__name__}: {exc}")
                finally:
                    registry.release(lease)

        def saboteur():
            injector = FaultInjector(seed=42)
            for round_idx in range(8):
                name = ("a", "b")[round_idx % 2]
                lease = registry.acquire(name)
                try:
                    injector.flip_value(lease.spasm)
                    # Hold the lease while queries hit the corrupt
                    # stream: in_flight pins the entry hot, so budget
                    # pressure can never evict it and re-warm a fresh
                    # guard that would pin the corrupted stream as
                    # ground truth.  Heal before releasing for the
                    # same reason.
                    for _ in range(20):
                        if integrity_hits.acquire(timeout=0.05):
                            break
                    registry.replace(
                        name, clone_spasm(pristine[name])
                    )
                finally:
                    registry.release(lease)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(3)
        ] + [threading.Thread(target=saboteur)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert registry.evicted_total > 0  # the race was real
        for entry in registry._entries.values():
            assert entry.in_flight == 0


class Item:
    """Duck-typed admission item."""

    def __init__(self, plan, deadline=None):
        self.plan = plan
        self.deadline = deadline


class TestAdmission:
    def test_per_plan_queue_bound(self):
        ctl = AdmissionController(AdmissionConfig(
            max_queue_per_plan=2, max_total=100))
        ctl.submit(Item("a"))
        ctl.submit(Item("a"))
        with pytest.raises(RequestShed) as exc:
            ctl.submit(Item("a"))
        assert exc.value.reason == "queue_full"
        ctl.submit(Item("b"))  # other plans unaffected
        assert ctl.stats()["shed"] == {"queue_full": 1}

    def test_global_overload_bound(self):
        ctl = AdmissionController(AdmissionConfig(
            max_queue_per_plan=100, max_total=3))
        for i in range(3):
            ctl.submit(Item(f"p{i}"))
        with pytest.raises(RequestShed) as exc:
            ctl.submit(Item("p9"))
        assert exc.value.reason == "overload"
        assert ctl.pressure() == pytest.approx(1.0)

    def test_hopeless_deadline_shed_at_door(self):
        ctl = AdmissionController(AdmissionConfig(min_deadline_s=0.01))
        clock = FakeClock()
        fresh = Deadline(1.0, clock=clock)
        stale = Deadline(1.0, clock=clock)
        ctl.submit(Item("a", deadline=fresh))
        clock.t = 0.995  # 5ms left: below the admission floor
        with pytest.raises(RequestShed) as exc:
            ctl.submit(Item("a", deadline=stale))
        assert exc.value.reason == "deadline"

    def test_closed_sheds(self):
        ctl = AdmissionController()
        ctl.close()
        with pytest.raises(RequestShed) as exc:
            ctl.submit(Item("a"))
        assert exc.value.reason == "closed"
        assert ctl.take(timeout=0.01) is None

    def test_round_robin_across_plans(self):
        ctl = AdmissionController()
        for plan in ("a", "a", "a", "b", "c"):
            ctl.submit(Item(plan))
        order = [ctl.take(timeout=0.01).plan for _ in range(5)]
        # One hot plan cannot starve the others.
        assert order[:3] == ["a", "b", "c"]
        assert order[3:] == ["a", "a"]

    def test_drain_matching_feeds_batches(self):
        ctl = AdmissionController()
        for plan in ("a", "b", "a", "a"):
            ctl.submit(Item(plan))
        first = ctl.take(timeout=0.01)
        assert first.plan == "a"
        siblings = ctl.drain_matching("a", limit=8)
        assert [s.plan for s in siblings] == ["a", "a"]
        assert ctl.depth() == 1  # only b remains

    def test_take_timeout_returns_none(self):
        assert AdmissionController().take(timeout=0.01) is None


class TestDegradationLadder:
    def test_degrades_one_rung_per_observation(self):
        ladder = DegradationLadder()
        names = [ladder.observe(1.0).name for _ in range(5)]
        assert names == ["auto", "narrow", "naive", "naive", "naive"]
        assert ladder.transitions == 3

    def test_restore_needs_sustained_calm(self):
        ladder = DegradationLadder(hold=3)
        ladder.observe(1.0)
        assert ladder.level.name == "auto"
        ladder.observe(0.0)
        ladder.observe(0.0)
        assert ladder.level.name == "auto"  # hold not met yet
        ladder.observe(0.0)
        assert ladder.level.name == "tuned"

    def test_mid_band_resets_calm(self):
        ladder = DegradationLadder(hold=2, degrade_at=0.75,
                                   restore_at=0.25)
        ladder.observe(0.9)
        ladder.observe(0.1)
        ladder.observe(0.5)  # sawtooth back into the dead band
        ladder.observe(0.1)
        assert ladder.level.name == "auto"  # calm streak was broken
        ladder.observe(0.1)
        assert ladder.level.name == "tuned"

    def test_transitions_logged(self):
        ladder = DegradationLadder()
        ladder.observe(1.0)
        kinds = [e.kind for e in ladder.log.events]
        assert kinds == ["degrade"]

    def test_force_and_unknown_level(self):
        ladder = DegradationLadder()
        assert ladder.force("naive").naive
        assert ladder.force("tuned").name == "tuned"
        with pytest.raises(ValueError, match="unknown service level"):
            ladder.force("turbo")

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DegradationLadder(degrade_at=0.2, restore_at=0.5)

    def test_ladder_shape(self):
        assert [lvl.name for lvl in LEVELS] == \
            ["tuned", "auto", "narrow", "naive"]
        assert LEVELS[0].use_tuned and not LEVELS[0].naive
        assert LEVELS[-1].naive and LEVELS[-1].batch_window == 1


@pytest.fixture
def small_server(rng):
    spasm = make_spasm(rng)
    registry = PlanRegistry(seed=5)
    registry.register("m", spasm=spasm)
    ladder = DegradationLadder(log=registry.log, hold=10_000)
    server = SpmvServer(registry, ladder=ladder, workers=1)
    with server:
        yield server, spasm


class TestSpmvServer:
    def test_ok_response_is_bitwise_plan_output(self, small_server, rng):
        server, spasm = small_server
        x = rng.standard_normal(spasm.shape[1])
        response = server.query("m", x, tenant="t")
        assert response.ok and response.status == "ok"
        assert np.array_equal(response.y, spasm.spmv(x))
        assert response.level == "tuned"
        assert response.latency_s >= 0

    def test_unknown_plan_fails_cleanly(self, small_server, rng):
        server, spasm = small_server
        response = server.query("ghost", np.ones(4))
        assert response.status == "failed"
        assert "not registered" in response.detail

    def test_expired_deadline_shed_at_submission(self, small_server,
                                                 rng):
        server, spasm = small_server
        x = rng.standard_normal(spasm.shape[1])
        response = server.query("m", x, deadline=Deadline(0.0))
        assert response.status == "shed"
        assert response.y is None
        assert "deadline" in response.detail

    def test_submit_after_stop_sheds_closed(self, rng):
        registry = PlanRegistry()
        registry.register("m", spasm=make_spasm(rng))
        server = SpmvServer(registry, workers=1)
        server.start()
        server.stop()
        response = server.submit("m", np.ones(4)).result()
        assert response.status == "shed"
        assert "closed" in response.detail

    def test_batch_coalescing_is_bitwise(self, rng):
        spasm = make_spasm(rng)
        registry = PlanRegistry(seed=5)
        registry.register("m", spasm=spasm)
        server = SpmvServer(registry, workers=1)
        xs = rng.standard_normal((6, spasm.shape[1]))
        # Queue everything before the worker exists, so the first
        # take() coalesces the whole backlog into one batch.
        futures = [server.submit("m", x) for x in xs]
        with server:
            responses = [f.result() for f in futures]
        assert all(r.ok for r in responses)
        assert max(r.batched for r in responses) > 1
        for x, r in zip(xs, responses):
            assert np.array_equal(r.y, spasm.spmv(x))

    def test_naive_rung_matches_reference(self, small_server, rng):
        server, spasm = small_server
        server.ladder.force("naive")
        x = rng.standard_normal(spasm.shape[1])
        response = server.query("m", x)
        assert response.ok and response.level == "naive"
        assert np.array_equal(response.y, spasm.spmv_naive(x))

    def test_naive_rung_refuses_untrusted_stream(self, rng):
        spasm = make_spasm(rng)
        registry = PlanRegistry(seed=5)
        registry.register("m", spasm=clone_spasm(spasm))
        ladder = DegradationLadder(log=registry.log, hold=10_000)
        with SpmvServer(registry, ladder=ladder, workers=1) as server:
            server.ladder.force("naive")
            lease = registry.acquire("m")
            FaultInjector(seed=1).flip_value(lease.spasm)
            registry.release(lease)
            x = rng.standard_normal(spasm.shape[1])
            response = server.query("m", x)
            assert response.status == "failed"
            assert "integrity" in response.detail
            # Heal and the rung serves again.
            registry.replace("m", clone_spasm(spasm))
            healed = server.query("m", x)
            assert healed.ok
            assert np.array_equal(healed.y, spasm.spmv_naive(x))

    def test_stats_and_health(self, small_server, rng):
        server, spasm = small_server
        server.query("m", rng.standard_normal(spasm.shape[1]))
        stats = server.stats()
        assert stats["completed"]["ok"] >= 1
        assert stats["registry"]["entries"][0]["name"] == "m"
        assert "shed" in stats["admission"]
        health = server.health()
        assert health["status"] == "ok"
        assert health["level"] == "tuned"
        assert health["hot_bytes"] > 0

    def test_malformed_request_shed_alone(self, rng):
        """One malformed request among N valid ones in one window: it
        is shed as ``bad_request``, the others come back ok."""
        spasm = make_spasm(rng)
        registry = PlanRegistry(seed=5)
        registry.register("m", spasm=spasm)
        server = SpmvServer(registry, workers=1)
        n = int(spasm.shape[1])
        xs = rng.standard_normal((6, n))
        bad_inputs = [np.ones(n + 1), np.ones((2, n)), xs[0] + 1j,
                      np.array(["a"] * n)]
        # Queue everything before the worker exists, so the first
        # take() coalesces the whole backlog into one window.
        futures = [server.submit("m", x) for x in xs[:3]]
        bad = [server.submit("m", x) for x in bad_inputs]
        futures += [server.submit("m", x) for x in xs[3:]]
        with server:
            responses = [f.result() for f in futures]
        for future in bad:
            response = future.result()
            assert response.status == "shed" and response.y is None
            assert response.detail.startswith("bad_request")
        assert max(r.batched for r in responses) == len(xs)
        for x, r in zip(xs, responses):
            assert r.ok
            assert np.array_equal(r.y, spasm.spmv_naive(x))
        shed = server.stats()["admission"]["shed"]
        assert shed == {"bad_request": len(bad_inputs)}

    def test_failing_batch_isolated_per_request(self, rng):
        """A member that slips past submit and breaks the coalesced
        batch fails alone; its neighbours are re-run and come back
        ok."""
        from repro.serve.server import ServeRequest

        spasm = make_spasm(rng)
        registry = PlanRegistry(seed=5)
        registry.register("m", spasm=spasm)
        server = SpmvServer(registry, workers=1)
        xs = rng.standard_normal((4, spasm.shape[1]))
        futures = [server.submit("m", x) for x in xs[:2]]
        rogue = ServeRequest(
            rid=-1, plan="m", x=np.ones(3), deadline=None,
            tenant="rogue", future=Future(), t_submit=0.0,
        )
        server.admission.submit(rogue)  # bypasses the contract check
        futures += [server.submit("m", x) for x in xs[2:]]
        with server:
            responses = [f.result() for f in futures]
            failed = rogue.future.result()
        assert failed.status == "failed"
        assert "ValueError" in failed.detail
        for x, r in zip(xs, responses):
            assert r.ok
            assert np.array_equal(r.y, spasm.spmv_naive(x))

    def test_serve_matrices_one_call_setup(self, rng, tmp_path):
        coo = random_structured_coo(rng, 64, "mixed")
        server = serve_matrices(
            {"m": coo}, cache=ArtifactCache(tmp_path), workers=1,
        )
        with server:
            x = rng.standard_normal(coo.shape[1])
            response = server.query("m", x)
            assert response.ok
            entry = server.registry._entries["m"]
            assert np.array_equal(response.y, entry.spasm.spmv(x))


class TestLoadGeneration:
    def test_probe_pools_deterministic(self):
        a = make_probes(16, 3, seed=9)
        b = make_probes(16, 3, seed=9)
        assert np.array_equal(a, b)
        assert a.shape == (3, 16)
        tenants = [TenantSpec("t0", "m"), TenantSpec("t1", "m")]
        pools = tenant_probes(tenants, {"m": 16}, seed=9)
        assert set(pools) == {"t0", "t1"}
        assert not np.array_equal(pools["t0"], pools["t1"])

    def test_run_load_accounts_every_request(self, small_server):
        server, spasm = small_server
        tenants = [
            TenantSpec("fast", "m", weight=2.0, deadline_ms=5000.0,
                       n_probes=2),
            TenantSpec("slow", "m", weight=1.0, n_probes=2),
        ]
        probes = tenant_probes(
            tenants, {"m": int(spasm.shape[1])}, seed=3)
        report = run_load(server, tenants, probes, n_requests=20,
                          seed=3)
        assert len(report.records) == 20
        assert sum(report.counts().values()) == 20
        assert report.counts().get("ok", 0) > 0
        summary = report.summary()
        assert summary["requests"] == 20
        assert set(summary["latency_ms"]) == {"p50", "p95", "p99"}
        # Seeded: the same load replays the same tenant sequence.
        replay = run_load(server, tenants, probes, n_requests=20,
                          seed=3)
        assert [r.tenant for r in replay.records] == \
            [r.tenant for r in report.records]


class TestChaosSmoke:
    """A miniature chaos campaign as a tier-1 gate (the full smoke
    preset runs in benchmarks/bench_serve.py)."""

    SPEC = {
        "matrices": [("tmt_sym", 0.3)],
        "tenants": [("t0", 0, 1.0, None, 2)],
        "workers": 1,
        "max_queue_per_plan": 16,
        "max_total": 32,
        "clean_requests": 10,
        "burst_requests": 6,
        "waves": {"stream": 1, "value": 1, "plan": 1, "cache": 1,
                  "malformed": 1},
    }

    def test_zero_escapes(self, tmp_path):
        report = run_chaos_campaign(self.SPEC, seed=0,
                                    cache_dir=tmp_path)
        assert report["zero_escapes"]
        totals = report["chaos"]["totals"]
        assert totals["escaped"] == 0
        assert report["clean"]["audit"]["escaped"] == 0
        # Every burst request is accounted for, and the campaign
        # exercised each configured surface.
        waves = report["chaos"]["waves"]
        assert {w["surface"] for w in waves} == set(self.SPEC["waves"])
        assert totals["requests"] == sum(
            w["requests"] for w in waves)
        text = render_chaos_report(report)
        assert "PASS" in text

    def test_campaign_reproducible(self, tmp_path):
        first = run_chaos_campaign(self.SPEC, seed=7,
                                   cache_dir=tmp_path / "a")
        second = run_chaos_campaign(self.SPEC, seed=7,
                                    cache_dir=tmp_path / "b")
        strip = ["latency_ms", "qps", "wall_s"]

        def comparable(rep):
            waves = [
                {k: v for k, v in w.items() if k not in strip}
                for w in rep["chaos"]["waves"]
            ]
            return (rep["chaos"]["totals"], waves,
                    rep["clean"]["audit"])

        assert comparable(first) == comparable(second)

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            run_chaos_campaign("hurricane")
