"""ClaimRegistry tests: persistence, lifecycle, audit trail."""

import json
import threading

import pytest

from repro.service import ClaimRecord, ClaimRegistry
from repro.service.registry import RegistryError


def _record(claim_id="c" * 64, model_digest="m" * 64, **kwargs):
    return ClaimRecord(claim_id=claim_id, model_digest=model_digest, **kwargs)


def _prove(registry, claim_id, **fields):
    """Move a registered claim to ``done`` the only way there is."""
    registry.transition(claim_id, "dispatch")
    registry.transition(claim_id, "prove", **fields)


class TestRecords:
    def test_register_get_round_trip(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record(priority=3, shape_key="shape-a"))
        record = registry.get("c" * 64)
        assert record.model_digest == "m" * 64
        assert record.priority == 3
        assert record.state == "queued"
        assert record.created_at > 0

    def test_register_is_idempotent(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        first = registry.register(_record())
        _prove(registry, first.claim_id)
        again = registry.register(_record())
        assert again.state == "done"  # existing record wins
        assert len(registry) == 1

    def test_get_unknown_raises(self, tmp_path):
        with pytest.raises(RegistryError):
            ClaimRegistry(tmp_path).get("nope")

    def test_update_rejects_unknown_field(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        with pytest.raises(AttributeError):
            registry.update("c" * 64, no_such_field=1)

    def test_list_filters(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record(claim_id="a" * 64, model_digest="m1"))
        registry.register(_record(claim_id="b" * 64, model_digest="m2"))
        _prove(registry, "b" * 64)
        assert {r.claim_id for r in registry.list()} == {"a" * 64, "b" * 64}
        assert [r.claim_id for r in registry.list(model_digest="m1")] == ["a" * 64]
        assert [r.claim_id for r in registry.list(state="done")] == ["b" * 64]

    def test_revoke_keeps_bytes_for_audit(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        registry.store_claim_bytes("c" * 64, b"claim-frame-bytes")
        record = registry.revoke("c" * 64, "lost the dispute")
        assert record.state == "revoked"
        assert record.revoked_reason == "lost the dispute"
        assert registry.claim_bytes("c" * 64) == b"claim-frame-bytes"


class TestPersistence:
    def test_restart_restores_everything(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record(shape_key="shape-z"))
        _prove(registry, "c" * 64, circuit_digest="d" * 64,
               timings={"batch_prove_seconds": 1.5})
        registry.store_claim_bytes("c" * 64, b"the-claim")
        registry.store_verifying_key("d" * 64, b"the-vk")
        registry.store_model_bytes("m" * 64, b"the-model")
        del registry

        reopened = ClaimRegistry(tmp_path)  # simulated restart
        record = reopened.get("c" * 64)
        assert record.state == "done"
        assert record.circuit_digest == "d" * 64
        assert record.timings == {"batch_prove_seconds": 1.5}
        assert reopened.claim_bytes("c" * 64) == b"the-claim"
        assert reopened.verifying_key_bytes("d" * 64) == b"the-vk"
        assert reopened.model_bytes("m" * 64) == b"the-model"

    def test_torn_record_is_skipped_not_fatal(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        (tmp_path / "claims" / "torn.json").write_text("{not json")
        reopened = ClaimRegistry(tmp_path)
        assert len(reopened) == 1

    def test_missing_payloads_raise(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        with pytest.raises(RegistryError):
            registry.claim_bytes("c" * 64)
        with pytest.raises(RegistryError):
            registry.verifying_key_bytes("none")
        with pytest.raises(RegistryError):
            registry.model_bytes("none")


class TestAudit:
    def test_trail_records_lifecycle(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        registry.transition("c" * 64, "dispatch")
        registry.transition("c" * 64, "prove")
        registry.revoke("c" * 64, "dispute")
        events = [e["event"] for e in registry.audit_entries("c" * 64)]
        assert events == ["registered", "state", "state", "revoked"]

    def test_trail_survives_restart_and_filters(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record(claim_id="a" * 64))
        registry.register(_record(claim_id="b" * 64))
        reopened = ClaimRegistry(tmp_path)
        assert len(list(reopened.audit_entries())) == 2
        assert len(list(reopened.audit_entries("a" * 64))) == 1

    def test_garbage_lines_are_skipped(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.audit("custom", claim_id="x")
        with open(tmp_path / "audit.log", "a") as fh:
            fh.write("not-json\n")
        registry.audit("custom2", claim_id="x")
        assert len(list(registry.audit_entries())) == 2

    def test_entries_are_json_lines(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.audit("ev", claim_id="x", extra=1)
        line = (tmp_path / "audit.log").read_text().strip()
        entry = json.loads(line)
        assert entry["event"] == "ev" and entry["extra"] == 1


class TestConcurrency:
    def test_parallel_registration_is_consistent(self, tmp_path):
        registry = ClaimRegistry(tmp_path)

        def register(i):
            registry.register(_record(claim_id=f"{i:064d}"))
            _prove(registry, f"{i:064d}")

        threads = [threading.Thread(target=register, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(registry) == 16
        assert registry.counts()["done"] == 16
        assert registry.counts()["total"] == 16

    def test_reads_never_see_torn_multi_field_updates(self, tmp_path):
        """get/list return snapshots: a reader can never observe a
        half-applied multi-field update (the PR-3 bug returned the live
        mutated record)."""
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        stop = threading.Event()
        torn = []

        def writer():
            i = 0
            while not stop.is_set():
                # shape_key and error always move together; observing a
                # mismatched pair means a torn read.
                registry.update("c" * 64, shape_key=f"s-{i}", error=f"e-{i}")
                i += 1

        def reader():
            while not stop.is_set():
                for record in [registry.get("c" * 64)] + registry.list():
                    if record.shape_key.split("-")[-1] != record.error.split("-")[-1]:
                        torn.append((record.shape_key, record.error))

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        import time as _time

        _time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert torn == []

    def test_returned_records_are_copies(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        snapshot = registry.get("c" * 64)
        snapshot.state = "mutated-by-caller"
        snapshot.timings["injected"] = 1.0
        fresh = registry.get("c" * 64)
        assert fresh.state == "queued"
        assert fresh.timings == {}


class TestSchemaEvolution:
    def test_unknown_fields_survive_the_round_trip(self, tmp_path):
        """A record written by a newer schema version (extra fields) must
        load, keep its extras, and write them back -- not be dropped as
        torn/foreign (the PR-3 bug)."""
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        path = tmp_path / "claims" / ("c" * 64 + ".json")
        data = json.loads(path.read_text())
        data["from_the_future"] = {"new": "field"}
        data["another_new_field"] = 7
        path.write_text(json.dumps(data))

        reopened = ClaimRegistry(tmp_path)
        assert len(reopened) == 1
        record = reopened.get("c" * 64)
        assert record.extra == {
            "from_the_future": {"new": "field"},
            "another_new_field": 7,
        }
        # A rewrite by this (older) version preserves the foreign fields.
        _prove(reopened, "c" * 64)
        rewritten = json.loads(path.read_text())
        assert rewritten["from_the_future"] == {"new": "field"}
        assert rewritten["another_new_field"] == 7
        assert rewritten["state"] == "done"

    def test_owner_token_field_loads_from_disk(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        registry.update("c" * 64, owner_token="replica-a")
        reopened = ClaimRegistry(tmp_path)
        assert reopened.get("c" * 64).owner_token == "replica-a"

    def test_skipped_records_are_logged_not_silent(self, tmp_path, caplog):
        registry = ClaimRegistry(tmp_path)
        registry.register(_record())
        (tmp_path / "claims" / "torn.json").write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.service.registry"):
            reopened = ClaimRegistry(tmp_path)
        assert len(reopened) == 1
        assert any("torn.json" in message for message in caplog.messages)


class TestOwnershipLeases:
    def test_exactly_one_replica_acquires(self, tmp_path):
        a = ClaimRegistry(tmp_path, owner_token="replica-a")
        b = ClaimRegistry(tmp_path, owner_token="replica-b")
        assert a.acquire("claim-x") is True
        assert b.acquire("claim-x") is False
        assert a.lease_owner("claim-x") == "replica-a"
        assert b.lease_owner("claim-x") == "replica-a"

    def test_reacquire_by_owner_refreshes(self, tmp_path):
        a = ClaimRegistry(tmp_path, owner_token="replica-a")
        assert a.acquire("claim-x")
        assert a.acquire("claim-x")  # idempotent for the holder

    def test_release_frees_the_claim(self, tmp_path):
        a = ClaimRegistry(tmp_path, owner_token="replica-a")
        b = ClaimRegistry(tmp_path, owner_token="replica-b")
        assert a.acquire("claim-x")
        a.release("claim-x")
        assert a.lease_owner("claim-x") is None
        assert b.acquire("claim-x") is True

    def test_release_by_non_owner_is_a_no_op(self, tmp_path):
        a = ClaimRegistry(tmp_path, owner_token="replica-a")
        b = ClaimRegistry(tmp_path, owner_token="replica-b")
        assert a.acquire("claim-x")
        b.release("claim-x")
        assert a.lease_owner("claim-x") == "replica-a"

    def test_expired_lease_can_be_taken_over(self, tmp_path):
        import time as _time

        a = ClaimRegistry(tmp_path, owner_token="replica-a")
        b = ClaimRegistry(tmp_path, owner_token="replica-b")
        assert a.acquire("claim-x", lease_seconds=0.05)
        _time.sleep(0.1)
        assert a.lease_owner("claim-x") is None  # expired
        assert b.acquire("claim-x") is True
        assert b.lease_owner("claim-x") == "replica-b"

    def test_contended_acquisition_has_exactly_one_winner(self, tmp_path):
        """Threaded CAS: for each of N claims, exactly one of two
        registries sharing the root wins."""
        a = ClaimRegistry(tmp_path, owner_token="replica-a")
        b = ClaimRegistry(tmp_path, owner_token="replica-b")
        claims = [f"claim-{i}" for i in range(24)]
        wins = {"replica-a": set(), "replica-b": set()}

        def contend(registry, name):
            for claim_id in claims:
                if registry.acquire(claim_id):
                    wins[name].add(claim_id)

        threads = [
            threading.Thread(target=contend, args=(a, "replica-a")),
            threading.Thread(target=contend, args=(b, "replica-b")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert wins["replica-a"] | wins["replica-b"] == set(claims)
        assert wins["replica-a"] & wins["replica-b"] == set()

    def test_dispatch_records_the_owner_on_the_record(self, tmp_path):
        from repro.engine import ProvingEngine
        from repro.service import ProofScheduler, ProofTask

        registry = ClaimRegistry(tmp_path, owner_token="replica-a")
        registry.register(_record())
        scheduler = ProofScheduler(ProvingEngine(), registry)
        task = ProofTask(claim_id="c" * 64, shape_key="s", synthesize=None)
        assert scheduler._own_task(task)
        assert registry.lease_owner("c" * 64) == "replica-a"
        assert registry.get("c" * 64).owner_token == "replica-a"
        assert registry.get("c" * 64).state == "proving"

    def test_register_sees_records_written_by_another_replica(self, tmp_path):
        """A replica must not overwrite a record another replica created
        (and possibly already proved) after this replica loaded."""
        b = ClaimRegistry(tmp_path, owner_token="replica-b")  # loads empty
        a = ClaimRegistry(tmp_path, owner_token="replica-a")
        a.register(_record())
        _prove(a, "c" * 64, circuit_digest="d" * 64)

        returned = b.register(_record())  # same claim id, fresh record
        assert returned.state == "done"  # the existing record wins
        assert returned.circuit_digest == "d" * 64
        assert a.reload("c" * 64).state == "done"  # nothing was clobbered


class TestPersistedRequests:
    def test_store_read_discard(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.store_request_bytes("claim-x", b"request-frame")
        assert registry.has_request("claim-x")
        assert registry.request_bytes("claim-x") == b"request-frame"
        registry.discard_request_bytes("claim-x")
        assert not registry.has_request("claim-x")
        with pytest.raises(RegistryError):
            registry.request_bytes("claim-x")
        registry.discard_request_bytes("claim-x")  # idempotent

    def test_frames_survive_restart(self, tmp_path):
        ClaimRegistry(tmp_path).store_request_bytes("claim-x", b"frame")
        assert ClaimRegistry(tmp_path).request_bytes("claim-x") == b"frame"

    def test_frames_are_permission_gated(self, tmp_path):
        import os
        import stat

        registry = ClaimRegistry(tmp_path)
        registry.store_request_bytes("claim-x", b"prover-secrets")
        mode = stat.S_IMODE(os.stat(tmp_path / "requests" / "claim-x.req").st_mode)
        assert mode == 0o600
        dir_mode = stat.S_IMODE(os.stat(tmp_path / "requests").st_mode)
        assert dir_mode == 0o700


class TestKeyTransparencyLog:
    def test_publication_appends_a_verifiable_entry(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        assert registry.store_verifying_key("d" * 64, b"vk-bytes") is True
        entries = registry.key_log_entries()
        assert len(entries) == 1
        assert entries[0]["circuit_digest"] == "d" * 64
        assert registry.verify_key_log() == 1

    def test_republication_is_excluded_and_not_logged(self, tmp_path):
        a = ClaimRegistry(tmp_path)
        b = ClaimRegistry(tmp_path)
        assert a.store_verifying_key("d" * 64, b"vk-bytes") is True
        assert b.store_verifying_key("d" * 64, b"other-bytes") is False
        assert a.verifying_key_bytes("d" * 64) == b"vk-bytes"  # first wins
        assert len(a.key_log_entries()) == 1

    def test_chain_links_multiple_entries(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.store_verifying_key("a" * 64, b"vk-a")
        registry.store_verifying_key("b" * 64, b"vk-b")
        entries = registry.key_log_entries()
        assert [e["seq"] for e in entries] == [0, 1]
        assert entries[1]["prev"] == entries[0]["entry_hash"]
        assert registry.verify_key_log() == 2
        assert registry.vk_digests() == ["a" * 64, "b" * 64]

    def test_tampered_entry_is_detected(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.store_verifying_key("d" * 64, b"vk-bytes")
        log_path = tmp_path / "keylog.jsonl"
        entry = json.loads(log_path.read_text())
        entry["circuit_digest"] = "e" * 64
        log_path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(RegistryError, match="hash mismatch"):
            registry.verify_key_log()

    def test_swapped_vk_bytes_are_detected(self, tmp_path):
        registry = ClaimRegistry(tmp_path)
        registry.store_verifying_key("d" * 64, b"vk-bytes")
        (tmp_path / "vks" / ("d" * 64 + ".vk")).write_bytes(b"swapped")
        with pytest.raises(RegistryError, match="does not match"):
            registry.verify_key_log()

    def test_log_survives_restart_and_verifies(self, tmp_path):
        ClaimRegistry(tmp_path).store_verifying_key("d" * 64, b"vk-bytes")
        assert ClaimRegistry(tmp_path).verify_key_log() == 1
