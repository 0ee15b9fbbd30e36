"""Seeded chaos suite: the proof service under deterministic injected faults.

Every scenario here runs against a :class:`FaultPlan` whose firing
schedule is a pure function of the seed, so a failing seed IS the bug
report -- rerun with ``ZKROWNN_CHAOS_SEEDS=<seed>`` to replay it
exactly.  The matrix defaults to seeds 0,1,2; CI passes the same.

What must hold under chaos:

* **No lost claims** -- a submit the client was ACKed for (or retried to
  an ack after a crash) is recoverable by a restarted replica.
* **No double-proves** -- a claim is dispatched to the prover once, even
  when crashes, watchdog kills, and rescues race each other.
* **Byte-identical proofs** -- a claim rescued by a second replica after
  the first died mid-prove yields exactly the bytes an uninterrupted
  direct-engine run yields.
* **Graceful degradation** -- overload sheds with 429, drain sheds with
  503, expired deadlines are shed at dispatch, poison claims are
  quarantined with their error chain instead of crash-looping a worker.
* **Client resilience** -- retries with backoff ride out resets and
  shedding; a dead replica trips its circuit breaker and traffic fails
  over; ``wait()`` survives transient transport errors mid-poll.

Set ``ZKROWNN_CHAOS_SUMMARY=<path>`` to write a JSON artifact of every
plan's injection counts (CI uploads it).
"""

import json
import multiprocessing
import os
import signal
import socket
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import ProvingEngine
from repro.engine.engine import ProveBudgetExceeded
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.model import Sequential
from repro.parallel import ProcessBackend
from repro.service import (
    CircuitBreaker,
    ClaimRecord,
    ClaimRegistry,
    FaultPlan,
    FaultSpec,
    JobState,
    ProofScheduler,
    ProofServer,
    ProofService,
    ProofTask,
    RegistryError,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
    SimulatedCrash,
    injected,
    wire,
)
from repro.service.faults import plan_from_env
from repro.watermark import WatermarkKeys
from shapes import SMALL_SETUP_SEED, direct_proof_bytes, small_claim

CHAOS_SEEDS = [
    int(s) for s in os.environ.get("ZKROWNN_CHAOS_SEEDS", "0,1,2").split(",")
    if s.strip()
]

_SUMMARY_RUNS = []


@pytest.fixture(params=CHAOS_SEEDS, ids=lambda s: f"seed{s}")
def chaos_seed(request):
    return request.param


@pytest.fixture(scope="session", autouse=True)
def chaos_summary_artifact():
    """Write per-plan injection counts to ZKROWNN_CHAOS_SUMMARY (CI)."""
    yield
    target = os.environ.get("ZKROWNN_CHAOS_SUMMARY", "")
    if target and _SUMMARY_RUNS:
        Path(target).write_text(json.dumps(
            {"seeds": CHAOS_SEEDS, "runs": _SUMMARY_RUNS},
            indent=2, sort_keys=True,
        ))


def _record_summary(test, plan):
    _SUMMARY_RUNS.append({"test": test, **plan.summary()})


def _tiny_request(seed=0):
    """A decodable claim request whose watermark will NOT extract --
    fault-handling decisions are what is under test, not proving."""
    rng = np.random.default_rng(seed)
    model = Sequential(
        [Dense(6, 5, rng=rng), ReLU(), Dense(5, 4, rng=rng), Sigmoid()],
        name="chaos-test-mlp",
    )
    keys = WatermarkKeys(
        embed_layer=1,
        target_class=2,
        trigger_inputs=rng.normal(size=(3, 6)),
        projection=rng.normal(size=(5, 8)),
        signature=(rng.random(8) < 0.5).astype(np.int64),
    )
    return wire.ClaimRequest(model=model, keys=keys, seed=seed)


def _chain_synthesizer(depth=8, x=3):
    """A tiny generic circuit that proves fast (real Groth16, no claim)."""
    def synthesize(b):
        out = b.public_output("y")
        w = b.private_input("x", x)
        acc = w
        for _ in range(depth):
            acc = b.mul(acc, w)
        b.bind_output(out, acc + 1)

    return synthesize


def _chain_task(claim_id, shape="chaos-chain-8", seed=None):
    return ProofTask(
        claim_id=claim_id,
        shape_key=shape,
        synthesize=_chain_synthesizer(),
        seed=seed,
        require_valid=False,
    )


def _noop_sleep(_seconds):
    pass


# -- the harness itself --------------------------------------------------------


class TestFaultPlanDeterminism:
    def _drive(self, plan, calls=60):
        """Exercise a plan with a fixed call pattern; return its events."""
        sites = ["registry.write", "scheduler.dispatch", "http.request"]
        for i in range(calls):
            try:
                plan.fire(sites[i % len(sites)])
            except Exception:  # noqa: BLE001 - injected, by design
                pass
            plan.mutate("wire.decode", b"some frame bytes for damage")
        return list(plan.events)

    def test_same_seed_replays_identically(self, chaos_seed):
        specs = [
            FaultSpec(site="registry.*", kind="error", probability=0.3),
            FaultSpec(site="scheduler.dispatch", kind="crash",
                      probability=0.2),
            FaultSpec(site="wire.decode", kind="corrupt", probability=0.25),
        ]
        first = self._drive(FaultPlan(seed=chaos_seed, specs=specs))
        second = self._drive(FaultPlan(seed=chaos_seed, specs=specs))
        assert first == second
        assert FaultPlan(seed=chaos_seed + 1000, specs=specs)

    def test_bitflip_is_deterministic_and_single_bit(self):
        data = bytes(range(64))
        plan_a = FaultPlan(seed=7, specs=[
            FaultSpec(site="wire.decode", kind="corrupt", mode="bitflip")
        ])
        plan_b = FaultPlan(seed=7, specs=[
            FaultSpec(site="wire.decode", kind="corrupt", mode="bitflip")
        ])
        mutated = plan_a.mutate("wire.decode", data)
        assert mutated == plan_b.mutate("wire.decode", data)
        assert mutated != data
        assert len(mutated) == len(data)
        diff = [a ^ b for a, b in zip(mutated, data) if a != b]
        assert len(diff) == 1 and bin(diff[0]).count("1") == 1

    def test_truncate_shortens(self):
        plan = FaultPlan(seed=3, specs=[
            FaultSpec(site="wire.decode", kind="corrupt", mode="truncate")
        ])
        data = bytes(40)
        mutated = plan.mutate("wire.decode", data)
        assert 0 < len(mutated) < len(data)

    def test_after_calls_and_max_fires(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="s", kind="error", after_calls=2, max_fires=2)
        ])
        outcomes = []
        for _ in range(6):
            try:
                plan.fire("s")
                outcomes.append("ok")
            except OSError:
                outcomes.append("err")
        assert outcomes == ["ok", "ok", "err", "err", "ok", "ok"]

    def test_probability_zero_never_fires(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="s", kind="crash", probability=0.0)
        ])
        for _ in range(200):
            plan.fire("s")
        assert plan.fired() == 0

    def test_site_prefix_matching(self):
        spec = FaultSpec(site="registry.*", kind="latency")
        assert spec.matches("registry.write")
        assert spec.matches("registry.crash-before-persist")
        assert not spec.matches("scheduler.dispatch")

    def test_json_roundtrip_and_env_file(self, tmp_path):
        plan = FaultPlan(seed=11, specs=[
            FaultSpec(site="http.request", kind="reset", probability=0.5)
        ])
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.seed == 11
        assert restored.specs == plan.specs
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        from_file = plan_from_env(f"@{path}")
        assert from_file.specs == plan.specs
        assert plan_from_env("") is None
        inline = plan_from_env(plan.to_json())
        assert inline.seed == 11


# -- no lost claims: submit / crash / restart ----------------------------------


class TestSubmitCrashRestart:
    """The satellite-3 matrix: submissions keep crashing mid-persist; every
    ACKed claim must survive a restart, prove exactly once, never tear."""

    def test_no_acked_claim_is_lost(self, tmp_path, chaos_seed):
        root = tmp_path / "reg"
        plan = FaultPlan(seed=chaos_seed, specs=[
            FaultSpec(site="registry.crash-before-persist", kind="crash",
                      probability=0.2),
            FaultSpec(site="registry.crash-after-persist", kind="crash",
                      probability=0.2),
        ])

        def submit_until_acked(frame):
            # Each crash abandons the service object (the process "died")
            # and the client retries the idempotent frame against a fresh
            # incarnation, exactly like the HTTP retry path.
            for _ in range(30):
                service = ProofService(ClaimRegistry(root, faults=plan))
                try:
                    return service.submit(frame)["claim_id"]
                except SimulatedCrash:
                    continue
            raise AssertionError(
                f"no ack after 30 incarnations (seed {chaos_seed})"
            )

        frames = [
            wire.encode_claim_request(_tiny_request(seed=i)) for i in range(5)
        ]
        acked = [submit_until_acked(frame) for frame in frames]
        assert len(set(acked)) == len(acked)
        _record_summary("submit_crash_restart", plan)

        # A clean restart must recover every ACKed claim -- none lost,
        # none torn -- and drive each to a terminal state exactly once.
        final = ProofService(ClaimRegistry(root))
        try:
            final.start()
            assert sorted(final.recovered_claims) == sorted(acked)
            for claim_id in acked:
                state = final.scheduler.wait(claim_id, timeout=120)
                assert state in (JobState.DONE, JobState.FAILED)
            dispatched = final.scheduler.processed_order
            assert sorted(dispatched) == sorted(acked)  # once each
        finally:
            final.close()

    def test_crashed_submit_leaves_no_torn_record(self, tmp_path, chaos_seed):
        root = tmp_path / "reg"
        plan = FaultPlan(seed=chaos_seed, specs=[
            FaultSpec(site="registry.crash-before-persist", kind="crash",
                      max_fires=1),
        ])
        service = ProofService(ClaimRegistry(root, faults=plan))
        frame = wire.encode_claim_request(_tiny_request(seed=chaos_seed))
        with pytest.raises(SimulatedCrash):
            service.submit(frame)
        # Whatever the crash interrupted, every record a fresh registry
        # can see must be completely readable (atomic writes never tear).
        survivor = ClaimRegistry(root)
        for record in survivor.list():
            assert record.claim_id
            assert record.state in (JobState.QUEUED,)
        # And the client's retry against a clean replica just works.
        clean = ProofService(ClaimRegistry(root))
        result = clean.submit(frame)
        assert result["state"] == JobState.QUEUED
        _record_summary("torn_record_check", plan)

    def test_flaky_blob_reads_surface_as_retryable_500s(
        self, tmp_path, chaos_seed
    ):
        """A transient registry read error becomes a 500 the resilient
        client retries through -- never a corrupted or empty payload."""
        plan = FaultPlan(seed=chaos_seed, specs=[
            FaultSpec(site="registry.read", kind="error", error="OSError",
                      probability=0.4),
        ])
        registry = ClaimRegistry(tmp_path / "reg", faults=plan)
        digest = "ab" * 32
        vk_payload = b"opaque vk bytes for the read-fault path"
        registry.store_verifying_key(digest, vk_payload)
        server = ProofServer(
            ProofService(registry)
        ).start(start_service=False)
        try:
            client = ServiceClient(
                server.url,
                retry=RetryPolicy(max_attempts=8, base_delay=0.0, jitter=0.0),
                sleep=_noop_sleep,
                jitter_seed=chaos_seed,
            )
            fetches = 0
            while plan.fired("registry.read") == 0 or fetches < 10:
                frame = client._request("GET", f"/vks/{digest}")
                _, payload = wire.decode_frame(frame)
                assert payload == vk_payload
                fetches += 1
                assert fetches < 60, "plan never fired a read fault"
        finally:
            server.stop()
        _record_summary("flaky_reads", plan)


# -- retry, quarantine, watchdog, budget ---------------------------------------


class TestRetryAndQuarantine:
    def test_transient_batch_failures_retry_then_succeed(self, tmp_path):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="scheduler.dispatch", kind="error",
                      error="RuntimeError", max_fires=2,
                      message="backend hiccup"),
        ])
        registry = ClaimRegistry(tmp_path)
        registry.register(ClaimRecord(claim_id="c1", model_digest="m" * 64))
        sched = ProofScheduler(
            ProvingEngine(), registry, max_attempts=3, faults=plan
        )
        try:
            sched.submit(_chain_task("c1"))
            sched.start()
            assert sched.wait("c1", timeout=60) == JobState.DONE
            assert sched.stats.retried == 2
            assert sched.stats.quarantined == 0
            record = registry.get("c1")
            assert record.state == JobState.DONE
            assert record.attempts == 2
            assert len(record.error_chain) == 2
            assert "backend hiccup" in record.error_chain[0]
        finally:
            sched.stop()
        _record_summary("retry_then_succeed", plan)

    def test_persistent_failure_quarantines_with_error_chain(self, tmp_path):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="scheduler.dispatch", kind="error",
                      error="RuntimeError", message="backend is gone"),
        ])
        registry = ClaimRegistry(tmp_path)
        registry.register(ClaimRecord(claim_id="p1", model_digest="m" * 64))
        sched = ProofScheduler(
            ProvingEngine(), registry, max_attempts=2, faults=plan
        )
        try:
            sched.submit(_chain_task("p1"))
            sched.start()
            assert sched.wait("p1", timeout=60) == JobState.QUARANTINED
            assert sched.stats.quarantined == 1
            assert sched.stats.retried == 1
            record = registry.get("p1")
            assert record.state == JobState.QUARANTINED
            assert record.attempts == 2
            assert [e.split(":")[0] for e in record.error_chain] == [
                "attempt 1", "attempt 2",
            ]
            events = [e["event"] for e in registry.audit_entries("p1")]
            assert "quarantined" in events
        finally:
            sched.stop()

    def test_resubmission_requeues_a_quarantined_claim(self, tmp_path):
        root = tmp_path / "reg"
        frame = wire.encode_claim_request(_tiny_request(seed=4))
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="scheduler.dispatch", kind="error",
                      error="RuntimeError"),
        ])
        poisoned = ProofService(
            ClaimRegistry(root), max_attempts=2, faults=plan
        )
        try:
            poisoned.scheduler.start()
            claim_id = poisoned.submit(frame)["claim_id"]
            assert poisoned.scheduler.wait(
                claim_id, timeout=60
            ) == JobState.QUARANTINED
            # Quarantine keeps the request frame for exactly this moment.
            assert poisoned.registry.request_bytes(claim_id)
        finally:
            poisoned.close()

        healthy = ProofService(ClaimRegistry(root))
        try:
            again = healthy.submit(frame)
            assert again["claim_id"] == claim_id
            assert again["state"] == JobState.QUEUED
            record = healthy.registry.get(claim_id)
            assert record.attempts == 0  # fresh attempt budget
            assert record.error_chain  # post-mortem preserved
            healthy.scheduler.start()
            # This model's watermark never extracts: failed, not poisoned.
            assert healthy.scheduler.wait(
                claim_id, timeout=120
            ) == JobState.FAILED
        finally:
            healthy.close()

    def test_mirror_survives_transient_registry_write_errors(self, tmp_path):
        """A proved claim must not be stranded 'proving' because the DONE
        mirror hit one flaky write."""
        # max_fires bounds total injections, so with max_attempts above
        # it the final outcome is GUARANTEED done, not probabilistic.
        plan = FaultPlan(seed=1, specs=[
            FaultSpec(site="registry.write", kind="error", error="OSError",
                      probability=0.5, max_fires=3),
        ])
        ClaimRegistry(tmp_path).register(
            ClaimRecord(claim_id="f1", model_digest="m" * 64)
        )
        registry = ClaimRegistry(tmp_path, faults=plan)
        sched = ProofScheduler(
            ProvingEngine(), registry, max_attempts=5, faults=None
        )
        try:
            sched.submit(_chain_task("f1"))
            sched.start()
            assert sched.wait("f1", timeout=60) == JobState.DONE
            assert ClaimRegistry(tmp_path).get("f1").state == JobState.DONE
        finally:
            sched.stop()
        _record_summary("mirror_retry", plan)


class TestWatchdogAndBudget:
    def test_engine_budget_raises_between_pulls(self):
        engine = ProvingEngine()
        compiled, synthesis = engine.synthesize(
            "chaos-budget-chain", _chain_synthesizer(), name="chaos-chain"
        )
        with pytest.raises(ProveBudgetExceeded):
            engine.prove_stream(
                compiled, [(synthesis, None)], budget_seconds=0.0
            )
        assert engine.stats.budget_exceeded == 1

    def test_scheduler_quarantines_a_budget_blown_batch(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        for cid in ("b1", "b2"):
            registry.register(ClaimRecord(claim_id=cid, model_digest="m" * 64))
        sched = ProofScheduler(
            ProvingEngine(), registry, prove_budget_seconds=0.0
        )
        try:
            sched.submit(_chain_task("b1"))
            sched.submit(_chain_task("b2"))
            sched.start()
            for cid in ("b1", "b2"):
                assert sched.wait(cid, timeout=60) == JobState.QUARANTINED
                assert "budget" in registry.get(cid).error.lower() or \
                    "watchdog" in registry.get(cid).error.lower()
            assert sched.stats.quarantined == 2
        finally:
            sched.stop()

    def test_watchdog_kills_a_wedged_prove(self, tmp_path):
        # The injected latency wedges the witness stream *inside* the
        # backend's pull -- the case the engine's cooperative budget check
        # cannot reach until far too late.  The watchdog (2x budget) must
        # quarantine the batch while it is stuck, and the limping thread's
        # late DONE must not downgrade the terminal state.
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="scheduler.prove", kind="latency",
                      delay_seconds=1.2, max_fires=1),
        ])
        registry = ClaimRegistry(tmp_path)
        for cid in ("w1", "w2"):
            registry.register(ClaimRecord(claim_id=cid, model_digest="m" * 64))
        sched = ProofScheduler(
            ProvingEngine(), registry, prove_budget_seconds=0.15,
            faults=plan, max_batch=2,
        )
        try:
            sched.submit(_chain_task("w1"))
            sched.submit(_chain_task("w2"))
            sched.start()
            states = {
                cid: sched.wait(cid, timeout=60) for cid in ("w1", "w2")
            }
            assert set(states.values()) == {JobState.QUARANTINED}
            assert sched.stats.watchdog_kills >= 1
            time.sleep(1.3)  # let the wedged thread limp to completion
            for cid in ("w1", "w2"):
                assert sched.state(cid) == JobState.QUARANTINED  # no downgrade
                assert registry.get(cid).state == JobState.QUARANTINED
            # The scheduler itself survives: fresh work still proves.
            registry.register(ClaimRecord(claim_id="w3", model_digest="m" * 64))
            sched.submit(_chain_task("w3", shape="chaos-chain-after"))
            assert sched.wait("w3", timeout=60) == JobState.DONE
        finally:
            sched.stop()
        _record_summary("watchdog_kill", plan)

    def test_watchdog_quarantined_claim_is_not_proved(
        self, tmp_path, small_claim_engine
    ):
        """The thread the watchdog abandoned still finishes its proof: the
        table refuses ``prove`` against the quarantined record, so no
        claim frame is stored and no ``proved`` event written -- and the
        resubmission that requeues the claim proves it exactly once."""
        model, keys, config = small_claim()
        frame = wire.encode_claim_request(wire.ClaimRequest(
            model=model, keys=keys, config=config,
            seed=3, setup_seed=SMALL_SETUP_SEED,
        ))
        root = tmp_path / "reg"
        engine = ProvingEngine()
        synthesize = engine.synthesize
        slow_once = [1.5]

        def slow_head(*args, **kwargs):
            if slow_once:
                time.sleep(slow_once.pop())  # wedged past 2 x the budget
            return synthesize(*args, **kwargs)

        engine.synthesize = slow_head
        wedged = ProofService(
            ClaimRegistry(root), engine=engine, prove_budget_seconds=0.2,
        )
        try:
            wedged.start()
            claim_id = wedged.submit(frame)["claim_id"]
            assert wedged.scheduler.wait(
                claim_id, timeout=60
            ) == JobState.QUARANTINED
        finally:
            wedged.scheduler.stop(timeout=120)  # the wedged thread returns
            wedged.close()
        assert engine.stats.proofs == 1  # ...having proved
        registry = ClaimRegistry(root)
        assert registry.get(claim_id).state == JobState.QUARANTINED
        with pytest.raises(RegistryError):
            registry.claim_bytes(claim_id)
        events = [e["event"] for e in registry.audit_entries(claim_id)]
        assert "proved" not in events, events

        healthy = ProofService(registry, engine=small_claim_engine)
        try:
            assert healthy.submit(frame)["state"] == JobState.QUEUED
            healthy.scheduler.start()
            assert healthy.scheduler.wait(claim_id, timeout=120) == JobState.DONE
        finally:
            healthy.scheduler.stop()
        events = [e["event"] for e in registry.audit_entries(claim_id)]
        assert events.count("proved") == 1, events
        assert wire.decode_claim(registry.claim_bytes(claim_id)).proof_bytes


class TestProveWorkerLoss:
    def test_killed_prove_worker_costs_a_retry_not_a_dispatch_thread(
        self, tmp_path
    ):
        """``kill -9`` (or the OOM killer) takes a prove-pool worker while
        a batch of two claims is on the pool.  The batch must fail as
        retryable and both claims reach ``done`` on a fresh pool, with the
        bytes an undisturbed run gives and no lease left behind -- not sit
        in ``proving`` under a heartbeat that renews the lease for good."""
        from repro.parallel import SerialBackend
        from repro.snark.groth16 import prepare_proving_key
        from repro.zkrownn import (
            extraction_structure_key,
            extraction_synthesizer,
        )

        model, keys, config = small_claim()
        shape_key = extraction_structure_key(model, keys, config)
        synthesizer = extraction_synthesizer(model, keys, config)
        before = {p.pid for p in multiprocessing.active_children()}
        killed = []

        def synthesize_then_kill(builder):
            # Runs on the dispatch thread while the backend pulls the
            # batch's second claim: the first is with a worker by now,
            # and the second is about to make the pool start another.
            aux = synthesizer(builder)
            if not killed:
                time.sleep(0.5)
                victim = next(
                    p for p in multiprocessing.active_children()
                    if p.pid not in before
                )
                os.kill(victim.pid, signal.SIGKILL)
                killed.append(victim.pid)
            return aux

        def task(claim_id, seed, synthesize):
            return ProofTask(
                claim_id=claim_id, shape_key=shape_key, synthesize=synthesize,
                model=model, keys=keys, config=config,
                seed=seed, setup_seed=99,
            )

        registry = ClaimRegistry(tmp_path)
        for cid in ("k1", "k2"):
            registry.register(ClaimRecord(claim_id=cid, model_digest="m" * 64))
        backend = ProcessBackend(2)
        engine = ProvingEngine(backend=backend)
        sched = ProofScheduler(engine, registry, max_attempts=3)
        try:
            sched.submit(task("k1", 5, synthesizer))
            sched.submit(task("k2", 6, synthesize_then_kill))
            sched.start()
            for cid in ("k1", "k2"):
                assert sched.wait(cid, timeout=120) == JobState.DONE
            sched.stop()  # the dispatch thread releases leases last
            assert len(killed) == 1
            assert sched.stats.retried == 2 and sched.stats.batches == 2
            for cid in ("k1", "k2"):
                record = registry.get(cid)
                assert record.state == JobState.DONE and record.attempts == 1
                assert "prove worker" in record.error_chain[0]
                assert registry.lease_owner(cid) is None
            # One warm pool for the digest, without the dead worker: the
            # broken pool is gone, not patched up.
            assert len(backend.prove_pool_keys()) == 1
            assert killed[0] not in {
                p.pid for p in multiprocessing.active_children()
            }

            compiled, synthesis = engine.synthesize(shape_key, synthesizer)
            expected = SerialBackend().prove_batch(
                prepare_proving_key(engine.setup(compiled).proving_key),
                compiled.cs, [synthesis.assignment] * 2, [5, 6],
                key_id=compiled.digest,
            )
            assert [
                wire.decode_claim(registry.claim_bytes(cid)).proof_bytes
                for cid in ("k1", "k2")
            ] == [proof.to_bytes() for proof in expected]
        finally:
            sched.stop()
            backend.close()


class TestCountersAgree:
    def test_stats_and_metrics_scrape_agree_after_chaos(
        self, tmp_path, chaos_seed, small_claim_engine
    ):
        """``/stats`` and ``/metrics`` read the same counters: after a seeded
        chaos run, every scheduler counter equals its Prometheus series."""
        from repro.obs import reinit_metrics_after_fork, set_obs_enabled
        from test_obs_metrics import parse_exposition

        previous = set_obs_enabled(True)
        reinit_metrics_after_fork()
        plan = FaultPlan(seed=chaos_seed, specs=[
            FaultSpec(site="scheduler.dispatch", kind="error",
                      error="RuntimeError", probability=0.5),
        ])
        service = ProofService(
            ClaimRegistry(tmp_path / "reg"), engine=small_claim_engine,
            max_attempts=2, faults=plan,
        )
        model, keys, config = small_claim()
        frames = [
            wire.encode_claim_request(_tiny_request(seed=i)) for i in range(3)
        ] + [wire.encode_claim_request(wire.ClaimRequest(
            model=model, keys=keys, config=config,
            seed=1, setup_seed=SMALL_SETUP_SEED,
        ))]
        try:
            service.start()
            claim_ids = [service.submit(frame)["claim_id"] for frame in frames]
            claim_ids.append(service.submit(
                wire.encode_claim_request(_tiny_request(seed=9)),
                deadline_seconds=0.0,
            )["claim_id"])
            for claim_id in claim_ids:
                service.scheduler.wait(claim_id, timeout=120)
            stats = service.stats()["scheduler"]
            scrape = parse_exposition(service.metrics_text())
        finally:
            service.scheduler.stop()
            set_obs_enabled(previous)
        _record_summary("counters_agree", plan)

        def series(name, labels=""):
            return scrape.get((name, labels), 0.0)

        def claims(state):
            return series("zkrownn_claims_total", f'{{state="{state}"}}')

        mirrored = {
            "done": [claims("done")],
            "failed": [claims("failed")],
            "yielded": [claims("yielded")],
            "quarantined": [
                claims("quarantined"), series("zkrownn_quarantines_total"),
            ],
            "retried": [series("zkrownn_retries_total")],
            "lease_renewals": [series("zkrownn_lease_renewals_total")],
            "watchdog_kills": [series("zkrownn_watchdog_kills_total")],
            "deadline_shed": [series("zkrownn_deadline_shed_total")],
        }
        for name, values in mirrored.items():
            assert all(stats[name] == value for value in values), (
                name, stats[name], values,
            )
        assert stats["deadline_shed"] == 1
        assert stats["done"] + stats["failed"] + stats["quarantined"] == len(
            claim_ids
        )


# -- graceful degradation ------------------------------------------------------


class TestGracefulDegradation:
    def test_queue_full_sheds_with_429(self, tmp_path):
        service = ProofService(
            ClaimRegistry(tmp_path), max_queue_depth=2,
            retry_after_seconds=2.0,
        )
        for i in range(2):
            service.submit(wire.encode_claim_request(_tiny_request(seed=i)))
        assert service.health()["status"] == "degraded"
        with pytest.raises(ServiceUnavailable) as excinfo:
            service.submit(wire.encode_claim_request(_tiny_request(seed=9)))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 2.0

    def test_drain_rejects_new_work_and_keeps_queued_claims(self, tmp_path):
        root = tmp_path / "reg"
        server = ProofServer(
            ProofService(ClaimRegistry(root))
        ).start(start_service=False)
        try:
            client = ServiceClient(
                server.url,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
                sleep=_noop_sleep,
            )
            request = _tiny_request(seed=0)
            submitted = client.submit_claim(request.model, request.keys)
            assert client.health()["status"] == "ok"

            drained = client.drain()
            assert drained["status"] == "draining"
            deadline = time.monotonic() + 10
            while not client.health()["drained"]:
                assert time.monotonic() < deadline, "drain never completed"
                time.sleep(0.05)
            assert client.health()["status"] == "draining"

            with pytest.raises(ServiceError) as excinfo:
                client.submit_claim(_tiny_request(seed=1).model, request.keys)
            assert excinfo.value.status == 503
        finally:
            server.stop()

        # The drained server never lost the queued claim: a successor
        # replica recovers and settles it.
        successor = ProofService(ClaimRegistry(root))
        try:
            successor.start()
            assert successor.recovered_claims == [submitted["claim_id"]]
            assert successor.scheduler.wait(
                submitted["claim_id"], timeout=120
            ) in (JobState.DONE, JobState.FAILED)
        finally:
            successor.close()

    def test_expired_deadline_is_shed_at_dispatch(self, tmp_path):
        service = ProofService(ClaimRegistry(tmp_path))
        try:
            service.start()
            result = service.submit(
                wire.encode_claim_request(_tiny_request(seed=0)),
                deadline_seconds=0.0,
            )
            state = service.scheduler.wait(result["claim_id"], timeout=30)
            assert state == JobState.FAILED
            assert "deadline exceeded" in service.scheduler.error(
                result["claim_id"]
            )
            assert service.scheduler.stats.deadline_shed == 1
        finally:
            service.close()

    def test_deadline_header_rides_http(self, tmp_path):
        server = ProofServer(
            ProofService(ClaimRegistry(tmp_path / "reg"))
        ).start(start_service=False)
        try:
            client = ServiceClient(server.url)
            request = _tiny_request(seed=0)
            submitted = client.submit_claim(
                request.model, request.keys, deadline_seconds=120.0
            )
            # The deadline travels as a header, NOT in the frame: the
            # content address must be deadline-independent.
            plain_id = ServiceClient(server.url).submit_claim(
                request.model, request.keys
            )["claim_id"]
            assert submitted["claim_id"] == plain_id
        finally:
            server.stop()

    def test_corrupted_frame_is_rejected_not_half_registered(self, tmp_path):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="wire.decode", kind="corrupt", mode="bitflip",
                      max_fires=1),
        ])
        server = ProofServer(
            ProofService(ClaimRegistry(tmp_path / "reg"))
        ).start(start_service=False)
        try:
            client = ServiceClient(server.url)
            request = _tiny_request(seed=0)
            with injected(plan):
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_claim(request.model, request.keys)
            assert excinfo.value.status == 400
            assert "wire frame" in str(excinfo.value)
            assert server.service.registry.list() == []  # nothing half-done
            # The flip consumed its one fire: the retry sails through.
            result = client.submit_claim(request.model, request.keys)
            assert result["state"] == JobState.QUEUED
        finally:
            server.stop()
        _record_summary("corrupt_frame", plan)


# -- client resilience ---------------------------------------------------------


class TestCircuitBreaker:
    def test_closed_open_half_open_cycle(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=5.0,
            clock=lambda: clock["now"],
        )
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock["now"] = 6.0
        assert breaker.state == "half-open"
        assert breaker.allow()      # the single probe
        assert not breaker.allow()  # second request waits on the probe
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_failed_probe_reopens_for_a_full_window(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=5.0,
            clock=lambda: clock["now"],
        )
        breaker.record_failure()
        clock["now"] = 5.5
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.time_to_half_open() == pytest.approx(5.0)


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        import random

        policy = RetryPolicy(base_delay=0.1, max_delay=0.8, multiplier=2.0,
                             jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(n, rng) for n in range(1, 7)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 0.8, 0.8]

    def test_jitter_stays_bounded(self):
        import random

        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.25)
        rng = random.Random(1)
        for _ in range(100):
            assert 0.75 <= policy.delay(1, rng) <= 1.25


class TestClientResilience:
    def test_requests_ride_out_injected_resets(self, tmp_path, chaos_seed):
        plan = FaultPlan(seed=chaos_seed, specs=[
            FaultSpec(site="http.request", kind="reset", probability=0.3),
        ])
        server = ProofServer(ProofService(
            ClaimRegistry(tmp_path / "reg"), faults=plan
        )).start(start_service=False)
        try:
            client = ServiceClient(
                server.url,
                retry=RetryPolicy(max_attempts=8, base_delay=0.0, jitter=0.0),
                sleep=_noop_sleep,
                jitter_seed=chaos_seed,
            )
            calls = 0
            while plan.fired("http.request") == 0 or calls < 10:
                assert client.health()["status"] == "ok"
                calls += 1
                assert calls < 60, "plan never fired a reset"
            assert plan.fired("http.request") > 0
        finally:
            server.stop()
        _record_summary("client_resets", plan)

    def test_dead_endpoint_fails_over_and_trips_breaker(self, tmp_path):
        # A bound-then-closed socket yields a port with nothing listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()

        server = ProofServer(
            ProofService(ClaimRegistry(tmp_path / "reg"))
        ).start(start_service=False)
        try:
            client = ServiceClient(
                [dead_url, server.url],
                breaker_threshold=1,
                retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0),
                sleep=_noop_sleep,
            )
            assert client.health()["status"] == "ok"
            assert client.endpoints[0].breaker.state != "closed"
            assert client.base_url == server.url  # traffic moved over
            client.health()  # subsequent requests skip the dead replica
            assert client.endpoints[1].breaker.state == "closed"
        finally:
            server.stop()

    def test_wait_tolerates_transient_errors_midpoll(self, tmp_path,
                                                     chaos_seed):
        """Satellite 1: a transient transport failure mid-poll must not
        abandon a claim the server is still settling."""
        plan = FaultPlan(seed=chaos_seed, specs=[
            FaultSpec(site="http.request", kind="reset", probability=0.4),
        ])
        server = ProofServer(ProofService(
            ClaimRegistry(tmp_path / "reg"), faults=plan
        )).start()
        try:
            client = ServiceClient(
                server.url,
                retry=RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0),
                jitter_seed=chaos_seed,
            )
            request = _tiny_request(seed=chaos_seed)
            submitted = client.submit_claim(request.model, request.keys)
            status = client.wait(
                submitted["claim_id"], timeout=120, poll_seconds=0.05
            )
            assert status["state"] == "failed"  # watermark never extracts
        finally:
            server.stop()
        _record_summary("wait_transient", plan)

    def test_unknown_claim_raises_not_retries_forever(self, tmp_path):
        server = ProofServer(
            ProofService(ClaimRegistry(tmp_path / "reg"))
        ).start(start_service=False)
        try:
            client = ServiceClient(server.url, sleep=_noop_sleep)
            with pytest.raises(ServiceError) as excinfo:
                client.wait("0" * 64, timeout=5, poll_seconds=0.01)
            assert excinfo.value.status == 404
        finally:
            server.stop()


# -- the acceptance path: two replicas, one dies mid-prove ---------------------


class TestTwoReplicaFailover:
    # Replica A's worker thread dying on the injected crash IS the
    # scenario: the unhandled-thread-exception warning is by design.
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_client_survives_replica_death_mid_prove(
        self, tmp_path, small_claim_engine
    ):
        """Replica A accepts a real ownership claim and 'dies' as it
        dispatches; the client -- with no manual intervention -- must get
        the claim proved by replica B with bytes identical to an
        uninterrupted direct-engine run."""
        model, keys, config = small_claim()
        root = tmp_path / "registry"

        # Replica A: crashes at its first dispatch, short lease so its
        # death is discoverable quickly, no heartbeat to keep it alive.
        plan_a = FaultPlan(seed=0, specs=[
            FaultSpec(site="scheduler.dispatch", kind="crash", max_fires=1),
        ])
        registry_a = ClaimRegistry(root, owner_token="replica-a")
        engine_a = ProvingEngine(cache_dir=str(root / "engine-cache"))
        service_a = ProofService(
            registry_a,
            engine=engine_a,
            scheduler=ProofScheduler(
                engine_a, registry_a, lease_seconds=0.5,
                heartbeat_seconds=0, faults=plan_a,
            ),
        )
        server_a = ProofServer(service_a).start()

        # Replica B: healthy, same registry root and engine cache.
        registry_b = ClaimRegistry(root, owner_token="replica-b")
        service_b = ProofService(
            registry_b, engine=ProvingEngine(cache_dir=str(root / "engine-cache"))
        )
        server_b = ProofServer(service_b).start()

        try:
            client = ServiceClient(
                [server_a.url, server_b.url],
                breaker_threshold=1,
                breaker_reset_seconds=30.0,
                rescue_after=0.75,
            )
            submitted = client.submit_claim(
                model, keys, config, seed=5, setup_seed=SMALL_SETUP_SEED
            )
            claim_id = submitted["claim_id"]

            # Wait for A's worker to pick the task up and hit the crash:
            # the claim is then stranded 'proving' under A's dying lease.
            deadline = time.monotonic() + 30
            while plan_a.fired("scheduler.dispatch") == 0:
                assert time.monotonic() < deadline, "replica A never dispatched"
                time.sleep(0.02)
            # A's HTTP face goes down too (the process is "dead"); its
            # scheduler thread died in the crash above.
            server_a._httpd.shutdown()
            server_a._httpd.server_close()

            # No manual intervention from here: the client's failover +
            # rescue resubmission must get the claim proved by B.
            status = client.wait(claim_id, timeout=600, poll_seconds=0.1)
            assert status["state"] == "done", status

            # Exactly one prove across the fleet.
            proved_events = [
                e for e in registry_b.audit_entries(claim_id)
                if e["event"] == "proved"
            ]
            assert len(proved_events) == 1

            # Byte-identical to an uninterrupted run.
            claim = client.fetch_claim(claim_id)
            assert direct_proof_bytes(
                small_claim_engine, seed=5
            ) == claim.proof_bytes
            assert client.verify_local(claim_id, model).accepted
        finally:
            server_b.stop()
            try:
                service_a.close()
            except Exception:  # noqa: BLE001 - replica A is "dead" anyway
                pass
        _record_summary("two_replica_failover", plan_a)
