"""End-to-end proof-service tests over real localhost HTTP.

The acceptance path of the service subsystem: a claim submitted through
:class:`ServiceClient` must yield a proof byte-identical to the direct
``ProvingEngine.prove_job`` path, verify via ``POST /verify``, survive a
server restart in the registry, and share compile/setup (and one
scheduled batch) with a concurrent same-shape submission.
"""

import time

import pytest

from repro.circuit import FixedPointFormat
from repro.parallel import usable_cpus
from repro.service import (
    ClaimRegistry,
    ProofServer,
    ProofService,
    ServiceClient,
    ServiceError,
    ServiceUnavailable,
)
from repro.zkrownn import CircuitConfig
from shapes import SMALL_SETUP_SEED, direct_proof_bytes, small_claim


@pytest.fixture(scope="module")
def claim_setup(watermarked_mlp):
    model, keys, _ = watermarked_mlp
    config = CircuitConfig(
        theta=0.0, fixed_point=FixedPointFormat(frac_bits=14, total_bits=40)
    )
    return model, keys, config


class TestEndToEnd:
    def test_submit_prove_fetch_verify_restart(
        self, tmp_path, small_claim_engine
    ):
        model, keys, config = small_claim()
        root = tmp_path / "registry"
        server = ProofServer(ProofService(ClaimRegistry(root))).start()
        try:
            client = ServiceClient(server.url)
            health = client.health()
            assert health["status"] == "ok"

            # -- submit and prove claim 1 --------------------------------
            submitted = client.submit_claim(
                model, keys, config, seed=5, setup_seed=SMALL_SETUP_SEED
            )
            claim_id = submitted["claim_id"]
            assert submitted["state"] == "queued"
            status = client.wait(claim_id, timeout=300)
            assert status["state"] == "done", status
            assert status["timings"]["batch_prove_seconds"] > 0

            # -- fetch: the ~hundreds-of-bytes artifact ------------------
            claim = client.fetch_claim(claim_id)
            assert len(claim.proof_bytes) == 128

            # -- byte-identical to the direct in-process engine path -----
            assert direct_proof_bytes(
                small_claim_engine, seed=5
            ) == claim.proof_bytes

            # -- verify: server-side and trustless client-side -----------
            assert client.verify_remote(claim_id)["accepted"]
            assert client.verify_local(claim_id, model).accepted

            # -- second same-shape claim: compile + setup are cache hits --
            second = client.submit_claim(
                model, keys, config, seed=6, setup_seed=SMALL_SETUP_SEED
            )
            assert client.wait(second["claim_id"], timeout=300)["state"] == "done"
            stats = client.stats()
            assert stats["engine"]["compile_misses"] == 1
            assert stats["engine"]["compile_hits"] >= 1
            assert stats["engine"]["setup_misses"] == 1
            assert stats["engine"]["setup_hits"] >= 1
            assert stats["scheduler"]["done"] == 2

            # -- idempotent resubmission (content addressing) ------------
            again = client.submit_claim(
                model, keys, config, seed=5, setup_seed=SMALL_SETUP_SEED
            )
            assert again["claim_id"] == claim_id
            assert again["resubmission"] is True

            # -- audit trail reaches the HTTP surface --------------------
            events = [e["event"] for e in client.audit(claim_id)]
            assert "registered" in events and "proved" in events
        finally:
            server.stop()

        # -- restart: a new server over the same registry still serves the
        # claim, its verifying key, and verification -----------------------
        server2 = ProofServer(ProofService(ClaimRegistry(root))).start()
        try:
            client2 = ServiceClient(server2.url)
            reloaded = client2.fetch_claim(claim_id)
            assert reloaded.proof_bytes == claim.proof_bytes
            assert client2.verify_remote(claim_id)["accepted"]
            assert client2.verify_local(claim_id, model).accepted
            assert client2.status(claim_id)["state"] == "done"

            # -- revocation: bytes retained, verification refused ---------
            client2.revoke(claim_id, "test dispute lost")
            assert client2.status(claim_id)["state"] == "revoked"
            assert not client2.verify_remote(claim_id)["accepted"]
            with pytest.raises(ServiceError) as excinfo:
                client2.fetch_claim(claim_id)
            assert excinfo.value.status == 404
        finally:
            server2.stop()

    def test_concurrent_same_shape_submissions_share_one_batch(
        self, tmp_path, claim_setup
    ):
        model, keys, config = claim_setup
        service = ProofService(ClaimRegistry(tmp_path / "reg2"))
        # HTTP up, scheduler paused: both submissions are queued together,
        # so the first dispatch must drain them as ONE batch.
        server = ProofServer(service).start(start_service=False)
        try:
            client = ServiceClient(server.url)
            first = client.submit_claim(model, keys, config, seed=21)
            second = client.submit_claim(model, keys, config, seed=22)
            assert first["claim_id"] != second["claim_id"]
            assert client.health()["queue_depth"] == 2

            service.start()
            for submitted in (first, second):
                assert client.wait(
                    submitted["claim_id"], timeout=300
                )["state"] == "done"

            stats = client.stats()
            # One scheduled batch served both claims...
            assert stats["scheduler"]["batches"] == 1
            assert stats["scheduler"]["largest_batch"] == 2
            # ...over one compile and one setup (the cache hit).
            assert stats["engine"]["compile_misses"] == 1
            assert stats["engine"]["compile_hits"] == 1
            assert stats["engine"]["setup_misses"] == 1
            assert stats["engine"]["proof_batches"] == 1
            # Distinct seeds -> distinct proofs for the same statement.
            a = client.fetch_claim(first["claim_id"])
            b = client.fetch_claim(second["claim_id"])
            assert a.proof_bytes != b.proof_bytes
            assert a.model_sha256 == b.model_sha256

            listed = client.list_claims(model_digest=a.model_sha256, state="done")
            assert len(listed) == 2
        finally:
            server.stop()


class TestMachineSizedService:
    @pytest.mark.skipif(
        usable_cpus() < 2,
        reason="with one usable CPU the service stays serial by design",
    )
    def test_same_shape_claims_a_moment_apart_prove_side_by_side(
        self, tmp_path, monkeypatch
    ):
        """Two closed-loop clients of one architecture: the second claim
        must not wait a whole prove behind the first."""
        monkeypatch.delenv("ZKROWNN_BACKEND", raising=False)
        monkeypatch.delenv("ZKROWNN_WORKERS", raising=False)
        model, keys, config = small_claim()
        server = ProofServer(ProofService(ClaimRegistry(tmp_path / "reg"))).start()
        try:
            client = ServiceClient(server.url)
            stats = client.stats()
            assert stats["backend"] == "process"
            assert stats["workers"] == usable_cpus()
            gauges = client.metrics_text()
            assert f"zkrownn_prove_workers {usable_cpus()}" in gauges
            assert "zkrownn_prove_workers_busy 0" in gauges

            # Shape warm (compiled, set up, pool started), then two claims
            # 50 ms apart, as two polling clients would send them.
            warm = client.submit_claim(model, keys, config, seed=1, setup_seed=9)
            assert client.wait(warm["claim_id"], timeout=120)["state"] == "done"
            first = client.submit_claim(model, keys, config, seed=2, setup_seed=9)
            time.sleep(0.05)
            second = client.submit_claim(model, keys, config, seed=3, setup_seed=9)
            spans = []
            for submitted in (first, second):
                claim_id = submitted["claim_id"]
                assert client.wait(claim_id, timeout=120)["state"] == "done"
                spans.append(
                    {s["name"]: s for s in client.trace(claim_id)["spans"]}
                )

            starts = [s["prove"]["start_unix"] for s in spans]
            ends = [
                s["prove"]["start_unix"] + s["prove"]["duration_seconds"]
                for s in spans
            ]
            assert max(starts) < min(ends), "the prove spans do not overlap"
            for s in spans:
                assert s["queue-wait"]["duration_seconds"] < (
                    0.25 * s["prove"]["duration_seconds"]
                )
            assert client.stats()["scheduler"]["batches"] == 3
        finally:
            server.stop()


class TestHttpSurface:
    @pytest.fixture()
    def server(self, tmp_path):
        server = ProofServer(ProofService(ClaimRegistry(tmp_path / "reg"))).start()
        yield server
        server.stop()

    def test_unknown_claim_is_404(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.status("no-such-claim")
        assert excinfo.value.status == 404

    def test_garbage_submission_is_400(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/claims", body=b"this is not a frame")
        assert excinfo.value.status == 400

    def test_corrupted_frame_is_400(self, server, claim_setup):
        from repro.service import wire

        model, keys, config = claim_setup
        frame = bytearray(wire.encode_claim_request(
            wire.ClaimRequest(model=model, keys=keys, config=config)
        ))
        frame[len(frame) // 2] ^= 0x40
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/claims", body=bytes(frame))
        assert excinfo.value.status == 400

    def test_verify_without_claim_id_is_400(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/verify", body=b"{}",
                content_type="application/json",
            )
        assert excinfo.value.status == 400

    def test_unknown_route_is_404(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._json("GET", "/not-a-route")
        assert excinfo.value.status == 404

    def test_stats_and_health_shapes(self, server):
        client = ServiceClient(server.url)
        stats = client.stats()
        assert set(stats) >= {"engine", "scheduler", "registry", "backend"}
        health = client.health()
        assert health["queue_depth"] == 0
        assert health["recovered_claims"] == 0
        assert health["owner_token"]

    def test_empty_key_log(self, server):
        assert ServiceClient(server.url).key_log() == []

    def test_unknown_vk_digest_is_404(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.fetch_vk_by_digest("f" * 64)
        assert excinfo.value.status == 404


class TestBodyReads:
    """``_body`` must loop to Content-Length, never decode a short read."""

    class _ChunkedRFile:
        """Delivers a body at most ``chunk`` bytes per read (slow socket)."""

        def __init__(self, data: bytes, chunk: int = 3):
            self._data = data
            self._chunk = chunk

        def read(self, n: int) -> bytes:
            take = min(n, self._chunk, len(self._data))
            out, self._data = self._data[:take], self._data[take:]
            return out

    def _handler(self, rfile, content_length: int):
        from repro.service.server import _ServiceHandler

        handler = _ServiceHandler.__new__(_ServiceHandler)  # no socket
        handler.headers = {"Content-Length": str(content_length)}
        handler.rfile = rfile
        return handler

    def test_chunked_body_is_reassembled(self):
        body = bytes(range(256)) * 5
        handler = self._handler(self._ChunkedRFile(body, chunk=7), len(body))
        assert handler._body() == body

    def test_truncated_body_raises_not_decodes(self):
        body = b"only-half-arrived"
        handler = self._handler(self._ChunkedRFile(body), len(body) + 100)
        with pytest.raises(ValueError, match="truncated"):
            handler._body()

    def test_empty_body(self):
        handler = self._handler(self._ChunkedRFile(b""), 0)
        assert handler._body() == b""


class TestFailedResubmission:
    def test_resubmitting_a_failed_claim_resets_it_to_queued(
        self, tmp_path, claim_setup
    ):
        import numpy as np

        from repro.nn import mnist_mlp_scaled
        from repro.service import wire

        _, keys, config = claim_setup
        # Same architecture, fresh random weights: watermark extraction
        # fails, so the claim ends up 'failed'.
        imposter = mnist_mlp_scaled(
            input_dim=16, hidden=16, rng=np.random.default_rng(424242)
        )
        frame = wire.encode_claim_request(
            wire.ClaimRequest(model=imposter, keys=keys, config=config)
        )
        service = ProofService(ClaimRegistry(tmp_path / "reg3"))
        try:
            service.start()
            first = service.submit(frame)
            assert service.scheduler.wait(
                first["claim_id"], timeout=300
            ) == "failed"
            assert service.status(first["claim_id"])["state"] == "failed"
        finally:
            service.close()

        # Scheduler now stopped: the service must refuse new work with a
        # retryable 503 rather than ack claims this process will never
        # prove -- the client's failover machinery moves on to a replica.
        with pytest.raises(ServiceUnavailable) as excinfo:
            service.submit(frame)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after > 0

        # A replacement replica over the same registry accepts the
        # resubmission and resets the stale terminal failure to QUEUED.
        replacement = ProofService(ClaimRegistry(tmp_path / "reg3"))
        try:
            again = replacement.submit(frame)
            assert again["claim_id"] == first["claim_id"]
            assert again["resubmission"] is False
            status = replacement.status(first["claim_id"])
            assert status["state"] == "queued"
            assert status["error"] == ""
        finally:
            replacement.close()
