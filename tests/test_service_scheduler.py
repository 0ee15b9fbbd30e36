"""ProofScheduler tests: one claim per dispatch, priorities, failure containment.

Fast tests use tiny generic chain circuits (no claim packaging); the
end-of-file integration test drives real ownership claims from the
session-scoped watermarked MLP through scheduler + registry.
"""

import threading
import time

import pytest

from repro.circuit import FixedPointFormat
from repro.engine import ProvingEngine
from repro.parallel import ProcessBackend, SerialBackend
from repro.parallel import backend as backend_mod
from repro.service import (
    ClaimRecord,
    ClaimRegistry,
    JobState,
    ProofScheduler,
    ProofService,
    ProofTask,
)
from repro.service import wire
from shapes import SMALL_SETUP_SEED, direct_proof_bytes, small_claim


def _chain_synthesizer(depth, x=3):
    def synthesize(b):
        out = b.public_output("y")
        w = b.private_input("x", x)
        acc = w
        for _ in range(depth):
            acc = b.mul(acc, w)
        b.bind_output(out, acc + 1)

    return synthesize


def _task(claim_id, shape="chain-8", depth=8, priority=0, seed=None):
    return ProofTask(
        claim_id=claim_id,
        shape_key=shape,
        synthesize=_chain_synthesizer(depth),
        priority=priority,
        seed=seed,
        require_valid=False,
    )


@pytest.fixture
def scheduler(tmp_path):
    registry = ClaimRegistry(tmp_path)
    sched = ProofScheduler(ProvingEngine(), registry)
    yield sched
    sched.stop(timeout=5.0)


class TestServiceSizesItselfFromTheMachine:
    """``ProofService`` defaults: backend and dispatch threads from the
    usable CPUs, with every explicit choice still winning."""

    @pytest.fixture(autouse=True)
    def _nothing_configured(self, monkeypatch):
        monkeypatch.delenv("ZKROWNN_BACKEND", raising=False)
        monkeypatch.delenv("ZKROWNN_WORKERS", raising=False)

    @staticmethod
    def _sizes(service):
        backend = service.engine.backend
        return backend.name, backend.workers, service.scheduler.workers

    def test_one_usable_cpu_is_the_serial_single_thread_service(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 1)
        service = ProofService(ClaimRegistry(tmp_path))
        assert isinstance(service.engine.backend, SerialBackend)
        assert self._sizes(service) == ("serial", 1, 1)
        assert service.stats()["backend"] == "serial"
        assert service.stats()["workers"] == 1

    def test_more_cpus_size_the_pool_and_the_dispatch_threads(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 3)
        service = ProofService(ClaimRegistry(tmp_path))
        assert self._sizes(service) == ("process", 3, 3)
        assert service.stats()["workers"] == 3

    def test_environment_wins_over_the_machine(self, tmp_path, monkeypatch):
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 4)
        monkeypatch.setenv("ZKROWNN_BACKEND", "serial")
        serial = ProofService(ClaimRegistry(tmp_path / "a"))
        assert self._sizes(serial) == ("serial", 1, 1)
        monkeypatch.delenv("ZKROWNN_BACKEND")
        monkeypatch.setenv("ZKROWNN_WORKERS", "2")
        two = ProofService(ClaimRegistry(tmp_path / "b"))
        assert self._sizes(two) == ("process", 2, 2)

    def test_explicit_arguments_win_over_the_machine(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 4)
        injected = ProofService(
            ClaimRegistry(tmp_path / "a"),
            engine=ProvingEngine(backend=SerialBackend()),
        )
        assert self._sizes(injected) == ("serial", 1, 1)
        pooled = ProofService(
            ClaimRegistry(tmp_path / "b"),
            engine=ProvingEngine(backend=ProcessBackend(2)),
        )
        assert self._sizes(pooled) == ("process", 2, 2)

    def test_dispatch_threads_always_follow_the_backend(
        self, tmp_path, monkeypatch
    ):
        """One dispatch thread per backend worker: there is no separate
        thread count and no batch size to set."""
        monkeypatch.setattr(backend_mod, "usable_cpus", lambda: 1)
        for knob in ({"scheduler_workers": 3}, {"max_batch": 5}):
            with pytest.raises(TypeError):
                ProofService(ClaimRegistry(tmp_path / "a"), **knob)
        with pytest.raises(TypeError):
            ProofScheduler(
                ProvingEngine(), ClaimRegistry(tmp_path / "b"), max_batch=2
            )


class TestOneClaimPerDispatch:
    def test_same_shape_jobs_share_one_compile_and_setup(self, scheduler):
        # Enqueue BEFORE starting: the first dispatch pays compile and
        # setup, the second replays the trace and reuses the key.
        scheduler.submit(_task("job-a", seed=1))
        scheduler.submit(_task("job-b", seed=2))
        scheduler.start()
        assert scheduler.wait("job-a", timeout=30) == JobState.DONE
        assert scheduler.wait("job-b", timeout=30) == JobState.DONE
        assert scheduler.processed_order == ["job-a", "job-b"]
        assert scheduler.engine.stats.compile_misses == 1
        assert scheduler.engine.stats.compile_hits == 1
        assert scheduler.engine.stats.setup_misses == 1
        # One backend dispatch per claim.
        assert scheduler.engine.stats.proof_batches == 2
        assert scheduler.engine.stats.proofs == 2

    def test_different_shapes_compile_and_set_up_separately(self, scheduler):
        scheduler.submit(_task("job-a", shape="chain-6", depth=6))
        scheduler.submit(_task("job-b", shape="chain-9", depth=9))
        scheduler.start()
        assert scheduler.wait("job-a", timeout=30) == JobState.DONE
        assert scheduler.wait("job-b", timeout=30) == JobState.DONE
        assert scheduler.engine.stats.compile_misses == 2
        assert scheduler.engine.stats.setup_misses == 2
        assert scheduler.engine.stats.proof_batches == 2

    def test_each_claim_is_its_own_dispatch(self, scheduler):
        for i in range(3):
            scheduler.submit(_task(f"job-{i}", seed=i))
        scheduler.start()
        for i in range(3):
            assert scheduler.wait(f"job-{i}", timeout=30) == JobState.DONE
        assert scheduler.processed_order == ["job-0", "job-1", "job-2"]
        assert scheduler.stats.done == 3
        assert scheduler.engine.stats.proof_batches == 3

    def test_idempotent_resubmission(self, scheduler):
        scheduler.submit(_task("job-a", seed=1))
        scheduler.submit(_task("job-a", seed=1))
        assert scheduler.pending() == 1
        assert scheduler.stats.submitted == 1


class TestPriorities:
    def test_high_priority_shape_dispatches_first(self, scheduler):
        scheduler.submit(_task("low", shape="chain-6", depth=6, priority=0))
        scheduler.submit(_task("high", shape="chain-9", depth=9, priority=5))
        scheduler.start()
        scheduler.wait("low", timeout=30)
        scheduler.wait("high", timeout=30)
        assert scheduler.processed_order.index("high") < (
            scheduler.processed_order.index("low")
        )

    def test_fifo_within_a_priority(self, scheduler):
        for name in ("first", "second", "third"):
            scheduler.submit(_task(name, seed=1))
        scheduler.start()
        for name in ("first", "second", "third"):
            scheduler.wait(name, timeout=30)
        assert scheduler.processed_order == ["first", "second", "third"]

    def test_late_high_priority_job_dispatches_first(self, scheduler):
        """A same-shape job submitted last but at a higher priority is
        proved before the lower-priority jobs queued ahead of it, which
        then follow in submission order."""
        for name in ("low-0", "low-1", "low-2"):
            scheduler.submit(_task(name, seed=1, priority=0))
        scheduler.submit(_task("high", seed=2, priority=5))  # submitted LAST
        scheduler.start()
        for name in ("low-0", "low-1", "low-2", "high"):
            assert scheduler.wait(name, timeout=60) == JobState.DONE
        assert scheduler.processed_order == ["high", "low-0", "low-1", "low-2"]


class TestFailures:
    def test_synthesis_failure_marks_failed_not_batch(self, scheduler):
        # One claim's failed synthesis fails that claim only.
        def broken(b):
            raise OverflowError("weights do not fit the fixed-point format")

        scheduler.submit(_task("good", seed=1))
        scheduler.submit(
            ProofTask(
                claim_id="bad",
                shape_key="chain-8",
                synthesize=broken,
                require_valid=False,
            )
        )
        scheduler.start()
        assert scheduler.wait("good", timeout=30) == JobState.DONE
        assert scheduler.wait("bad", timeout=30) == JobState.FAILED
        assert "synthesis failed" in scheduler.error("bad")

    def test_head_failure_still_proves_the_rest(self, scheduler):
        def broken(b):
            raise OverflowError("boom")

        # The failing job is submitted FIRST, so it meets the uncompiled
        # shape; the next job must still compile it and prove.
        scheduler.submit(
            ProofTask(claim_id="bad", shape_key="chain-8",
                      synthesize=broken, require_valid=False)
        )
        scheduler.submit(_task("good", seed=1))
        scheduler.start()
        assert scheduler.wait("bad", timeout=30) == JobState.FAILED
        assert scheduler.wait("good", timeout=30) == JobState.DONE

    def test_wait_timeout_raises(self, scheduler):
        scheduler.start()
        with pytest.raises(TimeoutError):
            scheduler.wait("never-submitted", timeout=0.2)


class TestReplicaContention:
    """Two schedulers over two registries sharing one root: the CAS
    lease must pick exactly one prover per claim."""

    def test_each_claim_is_proved_by_exactly_one_scheduler(self, tmp_path):
        registry_a = ClaimRegistry(tmp_path, owner_token="replica-a")
        claim_ids = [f"claim-{i}" for i in range(3)]
        for claim_id in claim_ids:
            registry_a.register(
                ClaimRecord(claim_id=claim_id, model_digest="m" * 64)
            )
        registry_b = ClaimRegistry(tmp_path, owner_token="replica-b")
        sched_a = ProofScheduler(ProvingEngine(), registry_a)
        sched_b = ProofScheduler(ProvingEngine(), registry_b)
        try:
            for i, claim_id in enumerate(claim_ids):
                sched_a.submit(_task(claim_id, seed=i))
                sched_b.submit(_task(claim_id, seed=i))
            sched_a.start()
            sched_b.start()
            outcomes = {}
            for claim_id in claim_ids:
                state_a = sched_a.wait(claim_id, timeout=60)
                state_b = sched_b.wait(claim_id, timeout=60)
                outcomes[claim_id] = (state_a, state_b)
            for claim_id, (state_a, state_b) in outcomes.items():
                assert {state_a, state_b} == {JobState.DONE, JobState.YIELDED}, (
                    f"{claim_id}: expected one winner and one yield, "
                    f"got {state_a}/{state_b}"
                )
                # The durable record reflects exactly one proving run.
                proving_events = [
                    e for e in registry_a.audit_entries(claim_id)
                    if e["event"] == "state" and e["state"] == JobState.PROVING
                ]
                assert len(proving_events) == 1
                assert registry_a.reload(claim_id).state == JobState.DONE
            assert sched_a.stats.done + sched_b.stats.done == len(claim_ids)
            assert sched_a.stats.yielded + sched_b.stats.yielded == len(claim_ids)
        finally:
            sched_a.stop(timeout=5.0)
            sched_b.stop(timeout=5.0)


class TestLeaseHeartbeat:
    """A single proof longer than the lease must keep its lease alive:
    these tests pin the monitor's renewal *heartbeat*, the only thing that
    refreshes a lease while its claim is in flight."""

    @staticmethod
    def _slow_task(claim_id, started=None, sleep_s=0.6):
        def synthesize(b):
            if started is not None:
                started.set()
            time.sleep(sleep_s)
            _chain_synthesizer(8)(b)

        return ProofTask(
            claim_id=claim_id,
            shape_key=f"slow-{claim_id}",
            synthesize=synthesize,
            seed=1,
            require_valid=False,
        )

    def test_heartbeat_renews_lease_during_long_prove(self, tmp_path):
        registry = ClaimRegistry(tmp_path, owner_token="replica-a")
        registry.register(ClaimRecord(claim_id="slow", model_digest="m" * 64))
        sched = ProofScheduler(
            ProvingEngine(),
            registry,
            lease_seconds=0.4,
            heartbeat_seconds=0.05,
        )
        sched.submit(self._slow_task("slow"))
        try:
            sched.start()
            assert sched.wait("slow", timeout=60) == JobState.DONE
        finally:
            sched.stop(timeout=5.0)
        # The 0.6s synthesis alone spans several heartbeat intervals.
        assert sched.stats.lease_renewals >= 2
        # Terminal state released the lease.
        assert registry.lease_owner("slow") is None

    def test_heartbeat_blocks_takeover_past_lease_expiry(self, tmp_path):
        registry_a = ClaimRegistry(tmp_path, owner_token="replica-a")
        registry_a.register(
            ClaimRecord(claim_id="contended", model_digest="m" * 64)
        )
        registry_b = ClaimRegistry(tmp_path, owner_token="replica-b")
        sched = ProofScheduler(
            ProvingEngine(),
            registry_a,
            lease_seconds=0.5,
            heartbeat_seconds=0.05,
        )
        started = threading.Event()
        sched.submit(self._slow_task("contended", started=started, sleep_s=1.5))
        try:
            sched.start()
            assert started.wait(timeout=30)
            # Well past the un-renewed lease's expiry, mid-prove: another
            # replica must still be refused the claim.
            time.sleep(0.9)
            assert sched.state("contended") == JobState.PROVING
            assert not registry_b.acquire("contended", lease_seconds=0.5)
            assert sched.wait("contended", timeout=60) == JobState.DONE
        finally:
            sched.stop(timeout=5.0)
        assert sched.stats.lease_renewals >= 2

    def test_without_heartbeat_lease_expires_mid_prove(self, tmp_path):
        # Contrast case pinning that the scenario above is real: with the
        # heartbeat disabled, the lease of a long single proof expires and
        # another replica can steal the claim mid-prove.
        registry_a = ClaimRegistry(tmp_path, owner_token="replica-a")
        registry_a.register(
            ClaimRecord(claim_id="stealable", model_digest="m" * 64)
        )
        registry_b = ClaimRegistry(tmp_path, owner_token="replica-b")
        sched = ProofScheduler(
            ProvingEngine(),
            registry_a,
            lease_seconds=0.3,
            heartbeat_seconds=0,
        )
        started = threading.Event()
        sched.submit(self._slow_task("stealable", started=started, sleep_s=1.2))
        try:
            sched.start()
            assert started.wait(timeout=30)
            time.sleep(0.7)
            assert registry_b.acquire("stealable", lease_seconds=60.0)
            assert registry_b.lease_owner("stealable") == "replica-b"
        finally:
            sched.stop(timeout=10.0)
        assert sched.stats.lease_renewals == 0


class TestRevocationIsFinal:
    """A revoke that lands while a claim is in flight is its outcome: the
    proof or retry that follows is refused by the table, never written
    over the revocation."""

    @staticmethod
    def _run(tmp_path, synthesize, started, revoked):
        registry = ClaimRegistry(tmp_path)
        registry.register(ClaimRecord(claim_id="disputed", model_digest="m" * 64))
        sched = ProofScheduler(ProvingEngine(), registry, max_attempts=3)
        sched.submit(ProofTask(
            claim_id="disputed", shape_key="revoked-chain",
            synthesize=synthesize, seed=1, require_valid=False,
        ))
        try:
            sched.start()
            assert started.wait(timeout=30)
            registry.revoke("disputed", "dispute lost")
            revoked.set()
            assert sched.wait("disputed", timeout=60) == JobState.REVOKED
        finally:
            sched.stop(timeout=10.0)
        record = ClaimRegistry(tmp_path).get("disputed")
        assert record.state == JobState.REVOKED
        assert record.revoked_reason == "dispute lost"
        events = [
            (e["event"], e.get("state"))
            for e in registry.audit_entries("disputed")
        ]
        after = events[events.index(("revoked", None)) + 1:]
        assert ("state", JobState.DONE) not in after, events
        assert [e for e, _ in after if e == "state"] == [], events
        assert registry.lease_owner("disputed") is None

    def test_revoke_during_prove_is_not_overwritten_by_done(self, tmp_path):
        started, revoked = threading.Event(), threading.Event()

        def synthesize(b):
            started.set()
            time.sleep(0.5)  # the revoke lands here
            _chain_synthesizer(8)(b)

        self._run(tmp_path, synthesize, started, revoked)

    def test_revoke_before_a_retry_is_not_requeued(self, tmp_path):
        from repro.parallel import ProveWorkerLost

        started, revoked = threading.Event(), threading.Event()

        def synthesize(b):
            if not started.is_set():
                started.set()
                assert revoked.wait(timeout=30)
                raise ProveWorkerLost("a prove worker was lost")
            _chain_synthesizer(8)(b)

        self._run(tmp_path, synthesize, started, revoked)


class TestOwnershipClaims:
    """Real extraction circuits end to end through scheduler + registry."""

    def test_two_queued_claims_prove_side_by_side(
        self, tmp_path, small_claim_engine
    ):
        """What same-shape batching used to give, from one claim per
        dispatch: two claims queued before ``start()`` on a two-worker
        process backend with two dispatch threads share one compile and
        one setup, prove at the same time, and give the serial bytes."""
        from repro.obs import new_trace_id
        from repro.zkrownn import (
            OwnershipVerifier,
            extraction_structure_key,
            extraction_synthesizer,
            model_digest,
        )

        model, keys, config = small_claim()
        shape_key = extraction_structure_key(model, keys, config)
        registry = ClaimRegistry(tmp_path)
        backend = ProcessBackend(2)
        scheduler = ProofScheduler(ProvingEngine(backend=backend), registry)
        assert scheduler.workers == 2  # one dispatch thread per worker
        mdigest = model_digest(model, keys.embed_layer)
        claim_ids = ("claim-1", "claim-2")
        try:
            for i, claim_id in enumerate(claim_ids):
                registry.register(
                    ClaimRecord(claim_id=claim_id, model_digest=mdigest)
                )
                scheduler.submit(
                    ProofTask(
                        claim_id=claim_id,
                        shape_key=shape_key,
                        synthesize=extraction_synthesizer(model, keys, config),
                        model=model,
                        keys=keys,
                        config=config,
                        seed=100 + i,
                        setup_seed=SMALL_SETUP_SEED,
                        trace_id=new_trace_id(),
                    )
                )
            scheduler.start()
            for claim_id in claim_ids:
                assert scheduler.wait(claim_id, timeout=300) == JobState.DONE
            engine = scheduler.engine.stats
            assert (engine.compile_misses, engine.setup_misses) == (1, 1)
            assert engine.proof_batches == engine.proofs == 2
            assert backend.busy_workers() == 0

            spans = {
                claim_id: {s["name"]: s for s in registry.trace_spans(claim_id)}
                for claim_id in claim_ids
            }
            for name in ("dispatch", "prove"):
                first, second = (spans[c][name] for c in claim_ids)
                ends = [s["start_unix"] + s["duration_seconds"]
                        for s in (first, second)]
                assert max(first["start_unix"], second["start_unix"]) < min(ends), (
                    f"{name} spans do not overlap: {first} {second}"
                )

            # Registry mirrors: record state, timings, claim frame, VK.
            for i, claim_id in enumerate(claim_ids):
                record = registry.get(claim_id)
                assert record.state == JobState.DONE
                assert record.circuit_digest
                assert record.timings["batch_prove_seconds"] > 0
                claim = wire.decode_claim(registry.claim_bytes(claim_id))
                assert claim.model_sha256 == mdigest
                assert claim.proof_bytes == direct_proof_bytes(
                    small_claim_engine, seed=100 + i
                )
                vk = wire.decode_verifying_key(
                    wire.encode_frame(
                        wire.MSG_VERIFYING_KEY,
                        registry.verifying_key_bytes(record.circuit_digest),
                    )
                )
                # The stored VK verifies the stored claim.
                assert OwnershipVerifier(vk).verify(model, claim).accepted
                events = [e["event"] for e in registry.audit_entries(claim_id)]
                assert events.count("proved") == 1
        finally:
            scheduler.stop(timeout=5.0)
            backend.close()

    def test_invalid_watermark_fails_cleanly(self, tmp_path, watermarked_mlp):
        import numpy as np

        from repro.nn import mnist_mlp_scaled
        from repro.zkrownn import CircuitConfig, extraction_structure_key, \
            extraction_synthesizer

        _, keys, _ = watermarked_mlp
        # Same architecture, fresh random weights: the watermark will not
        # extract, so a require_valid job must fail, not publish.
        imposter = mnist_mlp_scaled(
            input_dim=16, hidden=16, rng=np.random.default_rng(987654)
        )
        config = CircuitConfig(
            theta=0.0, fixed_point=FixedPointFormat(frac_bits=14, total_bits=40)
        )
        registry = ClaimRegistry(tmp_path)
        scheduler = ProofScheduler(ProvingEngine(), registry)
        try:
            scheduler.submit(
                ProofTask(
                    claim_id="imposter",
                    shape_key=extraction_structure_key(imposter, keys, config),
                    synthesize=extraction_synthesizer(imposter, keys, config),
                    model=imposter,
                    keys=keys,
                    config=config,
                )
            )
            scheduler.start()
            assert scheduler.wait("imposter", timeout=300) == JobState.FAILED
            assert "does not extract" in scheduler.error("imposter")
        finally:
            scheduler.stop(timeout=5.0)
