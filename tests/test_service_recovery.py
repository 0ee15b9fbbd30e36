"""Crash-safety tests: restart recovery, lease reclamation, VK-by-digest.

The acceptance path of the durability work: a server killed with queued
claims must resume proving after a restart -- with no resubmission and
proof bytes identical to an uninterrupted run -- and a restarted service
re-proving a known shape must perform zero fresh Groth16 setups (the
engine's disk cache and the registry share a root).  The cheap tests at
the top drive :meth:`ProofService.start` recovery decisions directly
with tiny synthetic requests; the end-of-file e2e uses the session
small claim of ``tests/shapes.py`` over real localhost HTTP.
"""

import time

import numpy as np
import pytest

from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.model import Sequential
from repro.service import (
    ClaimRecord,
    ClaimRegistry,
    FaultPlan,
    FaultSpec,
    JobState,
    ProofServer,
    ProofService,
    ServiceClient,
    SimulatedCrash,
    wire,
)
from repro.watermark import WatermarkKeys
from repro.zkrownn import OwnershipVerifier
from shapes import SMALL_SETUP_SEED, direct_proof_bytes, small_claim


def _tiny_request(seed=0):
    """A decodable claim request whose watermark will NOT extract --
    recovery decisions are what is under test, not proving."""
    rng = np.random.default_rng(seed)
    model = Sequential(
        [Dense(6, 5, rng=rng), ReLU(), Dense(5, 4, rng=rng), Sigmoid()],
        name="recovery-test-mlp",
    )
    keys = WatermarkKeys(
        embed_layer=1,
        target_class=2,
        trigger_inputs=rng.normal(size=(3, 6)),
        projection=rng.normal(size=(5, 8)),
        signature=(rng.random(8) < 0.5).astype(np.int64),
    )
    return wire.ClaimRequest(model=model, keys=keys, seed=seed)


class TestRecoveryDecisions:
    def test_queued_claims_are_reenqueued_on_start(self, tmp_path):
        root = tmp_path / "reg"
        service1 = ProofService(ClaimRegistry(root))
        # Scheduler never started: the submission stays queued -- the
        # "killed with queued claims" crash shape.
        submitted = service1.submit(
            wire.encode_claim_request(_tiny_request())
        )
        claim_id = submitted["claim_id"]
        assert service1.status(claim_id)["state"] == JobState.QUEUED

        service2 = ProofService(ClaimRegistry(root))
        try:
            service2.start()
            assert service2.recovered_claims == [claim_id]
            # The recovered job runs to a terminal state without any
            # resubmission (this one fails: the watermark never embeds).
            assert service2.scheduler.wait(claim_id, timeout=120) in (
                JobState.DONE, JobState.FAILED,
            )
        finally:
            service2.close()

    def test_expired_proving_lease_is_reclaimed(self, tmp_path):
        root = tmp_path / "reg"
        registry1 = ClaimRegistry(root, owner_token="crashed-replica")
        service1 = ProofService(registry1)
        claim_id = service1.submit(
            wire.encode_claim_request(_tiny_request())
        )["claim_id"]
        # Simulate a crash mid-batch: the record is 'proving' under a
        # lease whose owner died.
        registry1.acquire(claim_id, lease_seconds=0.05)
        registry1.transition(claim_id, "dispatch")
        time.sleep(0.1)

        service2 = ProofService(ClaimRegistry(root, owner_token="fresh"))
        try:
            service2.start()
            assert service2.recovered_claims == [claim_id]
        finally:
            service2.close()

    def test_live_lease_blocks_recovery(self, tmp_path):
        root = tmp_path / "reg"
        registry1 = ClaimRegistry(root, owner_token="live-replica")
        service1 = ProofService(registry1)
        claim_id = service1.submit(
            wire.encode_claim_request(_tiny_request())
        )["claim_id"]
        registry1.acquire(claim_id)  # default lease: still live
        registry1.transition(claim_id, "dispatch")

        service2 = ProofService(ClaimRegistry(root, owner_token="fresh"))
        try:
            service2.start()
            # Another replica is proving it right now: hands off.
            assert service2.recovered_claims == []
            assert service2.registry.reload(claim_id).state == JobState.PROVING
        finally:
            service2.close()

    def test_record_without_frame_is_failed_not_stranded(self, tmp_path):
        registry = ClaimRegistry(tmp_path / "reg")
        registry.register(
            ClaimRecord(claim_id="orphan", model_digest="m" * 64)
        )
        service = ProofService(registry)
        try:
            service.start()
            assert service.recovered_claims == []
            record = registry.get("orphan")
            assert record.state == JobState.FAILED
            assert "unrecoverable after restart" in record.error
        finally:
            service.close()


class TestInjectedMidPersistCrashes:
    """Deterministic crashes inside the registry's atomic-write window:
    before ``os.replace`` the old record must survive untouched, after it
    the new record must be what a restarted replica recovers from."""

    def test_crash_before_persist_keeps_the_prior_state(self, tmp_path):
        root = tmp_path / "reg"
        claim_id = ProofService(ClaimRegistry(root)).submit(
            wire.encode_claim_request(_tiny_request())
        )["claim_id"]
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="registry.crash-before-persist", kind="crash",
                      max_fires=1),
        ])
        dying = ClaimRegistry(root, faults=plan)
        with pytest.raises(SimulatedCrash):
            dying.transition(claim_id, "dispatch")
        # The temp file was written but never installed: a reopened
        # registry (ignoring the debris) still reads the old record.
        reopened = ClaimRegistry(root)
        assert reopened.get(claim_id).state == JobState.QUEUED
        service = ProofService(reopened)
        try:
            service.start()
            assert service.recovered_claims == [claim_id]
            assert service.scheduler.wait(claim_id, timeout=120) in (
                JobState.DONE, JobState.FAILED,
            )
        finally:
            service.close()

    def test_crash_after_persist_recovers_from_the_new_state(self, tmp_path):
        root = tmp_path / "reg"
        claim_id = ProofService(ClaimRegistry(root)).submit(
            wire.encode_claim_request(_tiny_request())
        )["claim_id"]
        plan = FaultPlan(seed=0, specs=[
            FaultSpec(site="registry.crash-after-persist", kind="crash",
                      max_fires=1),
        ])
        dying = ClaimRegistry(root, faults=plan)
        with pytest.raises(SimulatedCrash):
            dying.transition(claim_id, "dispatch")
        # The replace happened: durably 'proving', owner dead, no lease
        # -- the exact shape restart recovery requeues.
        reopened = ClaimRegistry(root)
        assert reopened.get(claim_id).state == JobState.PROVING
        service = ProofService(reopened)
        try:
            service.start()
            assert service.recovered_claims == [claim_id]
            assert service.scheduler.wait(claim_id, timeout=120) in (
                JobState.DONE, JobState.FAILED,
            )
        finally:
            service.close()


class TestRestartEndToEnd:
    """Kill a server holding queued claims; the restarted server must
    prove them unprompted, byte-identically, and -- once the shape's
    setup is on disk -- with zero fresh Groth16 setups."""

    def test_restart_recovers_queued_claims_and_setup_cache(
        self, tmp_path, small_claim_engine
    ):
        model, keys, config = small_claim()
        root = tmp_path / "registry"

        # -- phase 1: accept claims, die before proving any ---------------
        server1 = ProofServer(
            ProofService(ClaimRegistry(root))
        ).start(start_service=False)  # HTTP up, scheduler never started
        client = ServiceClient(server1.url)
        first = client.submit_claim(
            model, keys, config, seed=5, setup_seed=SMALL_SETUP_SEED
        )
        second = client.submit_claim(
            model, keys, config, seed=6, setup_seed=SMALL_SETUP_SEED
        )
        assert client.health()["queue_depth"] == 2
        server1.stop()  # the "kill": both claims still queued on disk

        # -- phase 2: restart; claims prove with NO resubmission ----------
        server2 = ProofServer(ProofService(ClaimRegistry(root))).start()
        try:
            client2 = ServiceClient(server2.url)
            assert client2.health()["recovered_claims"] == 2
            for submitted in (first, second):
                status = client2.wait(submitted["claim_id"], timeout=300)
                assert status["state"] == "done", status

            # Byte-identical to an uninterrupted run (same seeds through
            # the direct engine path).
            claim = client2.fetch_claim(first["claim_id"])
            assert direct_proof_bytes(
                small_claim_engine, seed=5
            ) == claim.proof_bytes

            stats2 = client2.stats()
            assert stats2["engine"]["setup_misses"] == 1  # cold disk cache
            assert stats2["scheduler"]["done"] == 2

            # -- VK distribution by circuit digest + key transparency ----
            digest = client2.status(first["claim_id"])["circuit_digest"]
            vk = client2.fetch_vk_by_digest(digest)
            assert OwnershipVerifier(vk).verify(model, claim).accepted
            log = client2.key_log()
            assert [e["circuit_digest"] for e in log] == [digest]
            assert ClaimRegistry(root).verify_key_log() == 1
            # Digest-pinned trustless verification via the client.
            assert client2.verify_local(
                first["claim_id"], model, circuit_digest=digest
            ).accepted
        finally:
            server2.stop()

        # -- phase 3: die again with a fresh same-shape claim queued ------
        server3 = ProofServer(
            ProofService(ClaimRegistry(root))
        ).start(start_service=False)
        third = ServiceClient(server3.url).submit_claim(
            model, keys, config, seed=7, setup_seed=SMALL_SETUP_SEED
        )
        server3.stop()

        # -- phase 4: restart; re-prove the known shape, ZERO setups ------
        server4 = ProofServer(ProofService(ClaimRegistry(root))).start()
        try:
            client4 = ServiceClient(server4.url)
            assert client4.wait(third["claim_id"], timeout=300)["state"] == "done"
            stats4 = client4.stats()
            # The engine found the shape's keypair in the shared on-disk
            # cache: no Groth16 setup ran in this process.
            assert stats4["engine"]["setup_misses"] == 0
            assert stats4["engine"]["setup_disk_hits"] >= 1
            assert client4.verify_local(third["claim_id"], model).accepted
            # Re-publication of the same VK must not grow the key log.
            assert len(client4.key_log()) == 1
        finally:
            server4.stop()


class TestStrandedClaimRescue:
    def test_resubmission_rescues_a_stranded_proving_claim(self, tmp_path):
        """A claim stuck in 'proving' under a dead owner's expired lease
        must be re-enqueued by an identical resubmission, not bounced
        with the stale pending state forever."""
        root = tmp_path / "reg"
        frame = wire.encode_claim_request(_tiny_request())
        registry1 = ClaimRegistry(root, owner_token="crashed")
        service1 = ProofService(registry1)
        claim_id = service1.submit(frame)["claim_id"]
        registry1.acquire(claim_id, lease_seconds=0.05)
        registry1.transition(claim_id, "dispatch")
        time.sleep(0.1)  # the owner "died"; its lease expires

        # A fresh service that did NOT recover it (simulates the restart-
        # within-lease-window case where recovery had to skip it).
        service2 = ProofService(ClaimRegistry(root, owner_token="fresh"))
        try:
            service2.scheduler.start()  # scheduler only: no recovery pass
            result = service2.submit(frame)
            assert result["claim_id"] == claim_id
            assert result["resubmission"] is True
            assert result["state"] == JobState.QUEUED
            assert service2.scheduler.wait(claim_id, timeout=120) in (
                JobState.DONE, JobState.FAILED,
            )
        finally:
            service2.close()

    def test_resubmission_of_a_live_claim_does_not_requeue(self, tmp_path):
        root = tmp_path / "reg"
        frame = wire.encode_claim_request(_tiny_request())
        registry1 = ClaimRegistry(root, owner_token="live-replica")
        service1 = ProofService(registry1)
        claim_id = service1.submit(frame)["claim_id"]
        registry1.acquire(claim_id)  # live lease
        registry1.transition(claim_id, "dispatch")

        service2 = ProofService(ClaimRegistry(root, owner_token="fresh"))
        try:
            result = service2.submit(frame)
            assert result["resubmission"] is True
            assert result["state"] == JobState.PROVING  # hands off
            assert service2.scheduler.pending() == 0
        finally:
            service2.close()


class TestResubmissionAfterRecovery:
    def test_resubmitting_a_recovered_claim_is_idempotent(self, tmp_path):
        root = tmp_path / "reg"
        frame = wire.encode_claim_request(_tiny_request())
        service1 = ProofService(ClaimRegistry(root))
        claim_id = service1.submit(frame)["claim_id"]

        service2 = ProofService(ClaimRegistry(root))
        try:
            service2.start()
            assert service2.recovered_claims == [claim_id]
            again = service2.submit(frame)
            assert again["claim_id"] == claim_id
            assert again["resubmission"] is True
            service2.scheduler.wait(claim_id, timeout=120)
        finally:
            service2.close()
