"""Verifier-side scaling: the shared multi-Miller-loop kernel, RLC batch
verification, the batch wire codecs, and the service's ``/verify-batch``
audit endpoint.

The adversarial batches are the load-bearing tests: a batch containing
exactly one invalid proof (wrong public input, tampered A or C, or a
proof filed under the wrong verifying key) MUST reject -- a batch check
that averages away a single forgery is worse than no check at all.
"""

import json

import numpy as np
import pytest
from reference.pairing import reference_pairing

from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.pairing import (
    final_exponentiation,
    multi_miller_loop,
    multi_pairing,
    precompute_g2,
)
from repro.field.tower import Fp12Element
from repro.parallel import ProcessBackend, SerialBackend
from repro.snark import (
    ConstraintSystem,
    LinearCombination as LC,
    Proof,
    prepare_proving_key,
    prepare_verifying_key,
    prove,
    setup,
    verify_batch,
    verify_batch_grouped,
    verify_batch_prepared,
)


def _square_circuit():
    cs = ConstraintSystem()
    y = cs.allocate_public("y")
    x = cs.allocate_private("x")
    cs.enforce(LC.variable(x), LC.variable(x), LC.variable(y))
    return cs


@pytest.fixture(scope="module")
def square_batch():
    """Square circuit, keypair, and five valid ``(publics, proof)`` cases."""
    cs = _square_circuit()
    keypair = setup(cs, seed=31)
    batch = [
        ([v * v], prove(keypair.proving_key, cs, [1, v * v, v], seed=v))
        for v in (2, 3, 5, 8, 13)
    ]
    return cs, keypair, batch


@pytest.fixture(scope="module")
def cubic_batch(cubic_circuit, cubic_keypair):
    cs, assignment = cubic_circuit
    proofs = [prove(cubic_keypair.proving_key, cs, assignment, seed=s)
              for s in (41, 42)]
    return [([35], proof) for proof in proofs]


# -- the shared Miller-loop kernel ---------------------------------------------


class TestMultiMillerKernel:
    @pytest.fixture(scope="class")
    def pairs(self):
        g, h = G1Point.generator(), G2Point.generator()
        return [(g * a, h * b) for a, b in ((3, 5), (7, 11), (13, 2), (19, 23))]

    @pytest.mark.parametrize("variant", ["optimal", "ate"])
    def test_shared_loop_matches_per_pair_product(self, pairs, variant):
        """One shared squaring chain == the product of independent textbook
        pairings (``tests/reference/pairing.py``, no production Miller code)."""
        product = Fp12Element.one()
        for p, q in pairs:
            product = product * reference_pairing(p, q, variant)
        shared = final_exponentiation(multi_miller_loop(pairs, variant))
        assert shared == product

    def test_mixed_live_and_precomputed_pairs_agree(self, pairs):
        mixed = [
            (p, precompute_g2(q) if i % 2 else q)
            for i, (p, q) in enumerate(pairs)
        ]
        product = Fp12Element.one()
        for p, q in pairs:
            product = product * reference_pairing(p, q)
        assert multi_pairing(mixed) == product
        # Captured lines are the live lines, so even the raw Miller values
        # coincide (the process backend relies on it when it splits lanes).
        assert multi_miller_loop(mixed) == multi_miller_loop(pairs)

    @pytest.mark.parametrize("variant", ["optimal", "ate"])
    def test_precomputed_variant_must_match(self, pairs, variant):
        other = "ate" if variant == "optimal" else "optimal"
        p, q = pairs[0]
        with pytest.raises(ValueError, match="variant"):
            multi_miller_loop([(p, precompute_g2(q, variant=variant))], other)

    def test_unknown_variant_rejected(self, pairs):
        with pytest.raises(ValueError, match="variant"):
            multi_miller_loop(pairs, "weil")

    def test_infinity_pairs_contribute_nothing(self, pairs):
        padded = pairs + [
            (G1Point.infinity(), G2Point.generator()),
            (G1Point.generator(), G2Point.infinity()),
        ]
        assert multi_miller_loop(padded) == multi_miller_loop(pairs)

    def test_empty_product_is_one(self):
        assert multi_miller_loop([]) == Fp12Element.one()


# -- adversarial batches -------------------------------------------------------


class TestAdversarialBatches:
    def test_valid_batch_accepted_seeded_and_unseeded(self, square_batch):
        _, keypair, batch = square_batch
        pvk = prepare_verifying_key(keypair.verifying_key)
        assert verify_batch(keypair.verifying_key, batch, seed=1)
        assert verify_batch_prepared(pvk, batch, seed=1)
        # seed=None takes fresh entropy from `secrets` -- still accepts.
        assert verify_batch_prepared(pvk, batch)

    def test_one_wrong_public_input_rejects_batch(self, square_batch):
        _, keypair, batch = square_batch
        pvk = prepare_verifying_key(keypair.verifying_key)
        tampered = list(batch)
        tampered[3] = ([26], tampered[3][1])
        assert not verify_batch(keypair.verifying_key, tampered, seed=1)
        assert not verify_batch_prepared(pvk, tampered, seed=1)

    def test_one_tampered_a_rejects_batch(self, square_batch):
        _, keypair, batch = square_batch
        good = batch[2][1]
        forged = Proof(good.a + G1Point.generator(), good.b, good.c)
        tampered = list(batch)
        tampered[2] = (batch[2][0], forged)
        assert not verify_batch_prepared(
            prepare_verifying_key(keypair.verifying_key), tampered, seed=1
        )

    def test_one_tampered_c_rejects_batch(self, square_batch):
        _, keypair, batch = square_batch
        good = batch[4][1]
        forged = Proof(good.a, good.b, good.c + G1Point.generator())
        tampered = list(batch)
        tampered[4] = (batch[4][0], forged)
        assert not verify_batch_prepared(
            prepare_verifying_key(keypair.verifying_key), tampered, seed=1
        )

    def test_instance_length_mismatch_rejects(self, square_batch):
        _, keypair, batch = square_batch
        bad = [(batch[0][0] + [1], batch[0][1])]
        assert not verify_batch(keypair.verifying_key, bad, seed=1)

    def test_empty_batch_is_vacuously_true(self, square_batch):
        _, keypair, _ = square_batch
        assert verify_batch(keypair.verifying_key, [], seed=1)


class TestGroupedBatches:
    def test_two_keys_two_groups_all_accepted(
        self, square_batch, cubic_batch, cubic_keypair
    ):
        _, keypair, batch = square_batch
        items = [(keypair.verifying_key, publics, proof)
                 for publics, proof in batch[:3]]
        items += [(cubic_keypair.verifying_key, publics, proof)
                  for publics, proof in cubic_batch]
        groups = verify_batch_grouped(items, seed=1)
        assert len(groups) == 2
        assert all(g.accepted for g in groups)
        assert groups[0].indices == (0, 1, 2)
        assert groups[1].indices == (3, 4)
        assert groups[0].vk_digest != groups[1].vk_digest

    def test_wrong_key_proof_rejects_only_its_group(
        self, square_batch, cubic_batch, cubic_keypair
    ):
        """A cubic proof smuggled under the square VK poisons exactly the
        square group; the honest cubic group still accepts."""
        _, keypair, batch = square_batch
        items = [(keypair.verifying_key, publics, proof)
                 for publics, proof in batch[:2]]
        items.append((keypair.verifying_key, [35], cubic_batch[0][1]))
        items += [(cubic_keypair.verifying_key, publics, proof)
                  for publics, proof in cubic_batch]
        groups = verify_batch_grouped(items, seed=1)
        assert len(groups) == 2
        assert not groups[0].accepted
        assert groups[1].accepted

    def test_prepared_and_plain_keys_bucket_together(self, square_batch):
        """The group digest is over the plain VK bytes, so a prepared and
        a plain handle to the same key land in one batched check."""
        _, keypair, batch = square_batch
        pvk = prepare_verifying_key(keypair.verifying_key)
        items = [
            (pvk, batch[0][0], batch[0][1]),
            (keypair.verifying_key, batch[1][0], batch[1][1]),
        ]
        groups = verify_batch_grouped(items, seed=1)
        assert len(groups) == 1
        assert groups[0].accepted and groups[0].indices == (0, 1)


# -- backend parity ------------------------------------------------------------


class TestBackendParity:
    def test_serial_and_process_backends_agree(self, square_batch):
        """Proofs from either compute backend are the same bytes, so a
        batch of them gets the same verdict."""
        cs, keypair, batch = square_batch
        ppk = prepare_proving_key(keypair.proving_key)
        pairs = [([1, v * v, v], v) for v in (2, 3, 5, 8, 13)]
        pvk = prepare_verifying_key(keypair.verifying_key)
        process = ProcessBackend(2)
        try:
            for backend in (SerialBackend(), process):
                proofs = [
                    backend.prove(ppk, cs, assignment, seed, key_id="square")
                    for assignment, seed in pairs
                ]
                assert [p.to_bytes() for p in proofs] == [
                    proof.to_bytes() for _, proof in batch
                ]
                streamed = [(publics, p) for (publics, _), p in zip(batch, proofs)]
                good = streamed[1][1]
                tampered = list(streamed)
                tampered[1] = (streamed[1][0], Proof(good.a, good.b, -good.c))
                assert verify_batch_prepared(pvk, streamed, seed=3)
                assert not verify_batch_prepared(pvk, tampered, seed=3)
        finally:
            process.close()

    def test_verdicts_identical_across_msm_paths(self, square_batch, g1_msm_path):
        _, keypair, batch = square_batch
        tampered = list(batch)
        tampered[0] = ([27], tampered[0][1])
        pvk = prepare_verifying_key(keypair.verifying_key)
        assert verify_batch_prepared(pvk, batch, seed=5)
        assert not verify_batch_prepared(pvk, tampered, seed=5)


# -- engine integration --------------------------------------------------------


class TestEngineBatch:
    def test_engine_verify_batch(self):
        """Proofs from ``ProvingEngine.prove_job`` batch-verify against the
        engine's verifying key, with the verdicts ``engine.verify`` gives
        one by one."""
        from repro.engine import ProvingEngine

        def synthesize(b):
            out = b.public_output("o")
            wx = b.private_input("x", 3)
            b.bind_output(out, b.mul(wx, wx))
            return None

        engine = ProvingEngine(backend=SerialBackend())
        job = engine.prove_job("sq", synthesize, seed=1)
        job2 = engine.prove_job("sq", synthesize, seed=2)
        pvk = prepare_verifying_key(engine.setup(job.compiled).verifying_key)
        cases = [
            (job.public_values, job.proof),
            (job2.public_values, job2.proof),
        ]
        bad = [(list(job.public_values), job2.proof),
               ([v + 1 for v in job2.public_values], job2.proof)]
        assert verify_batch_prepared(pvk, cases, seed=1)
        assert not verify_batch_prepared(pvk, bad, seed=1)
        assert [engine.verify(job.compiled, *case) for case in cases + bad] == [
            True, True, True, False
        ]
        assert engine.stats.verifications == 4


# -- wire codecs ---------------------------------------------------------------


class TestBatchWireCodecs:
    def test_request_roundtrip(self):
        from repro.service import wire

        request = wire.VerifyBatchRequest(claim_ids=["a" * 64, "b" * 64], seed=7)
        assert wire.decode_verify_batch_request(
            wire.encode_verify_batch_request(request)
        ) == request

    def test_request_roundtrip_empty_and_unseeded(self):
        from repro.service import wire

        request = wire.VerifyBatchRequest(claim_ids=[], seed=None)
        assert wire.decode_verify_batch_request(
            wire.encode_verify_batch_request(request)
        ) == request

    def test_result_roundtrip(self):
        from repro.service import wire

        result = wire.VerifyBatchResult(
            verdicts=[
                wire.BatchClaimVerdict("c" * 64, True, "ok", 200),
                wire.BatchClaimVerdict("d" * 64, False, "revoked", 409),
                wire.BatchClaimVerdict("e" * 64, False, "bad points", 400),
            ],
            groups=[
                wire.BatchGroupVerdict("f" * 64, ["c" * 64], True, 0.125),
                wire.BatchGroupVerdict("0" * 64, [], False, 0.0),
            ],
        )
        assert wire.decode_verify_batch_result(
            wire.encode_verify_batch_result(result)
        ) == result

    def test_corrupted_frame_rejected(self):
        from repro.service import wire

        frame = bytearray(wire.encode_verify_batch_request(
            wire.VerifyBatchRequest(claim_ids=["a" * 64])
        ))
        frame[len(frame) // 2] ^= 0x10
        with pytest.raises(wire.WireFormatError):
            wire.decode_verify_batch_request(bytes(frame))

    def test_trailing_bytes_rejected(self):
        from repro.service import wire

        payload = wire._pack_verify_batch_request(
            wire.VerifyBatchRequest(claim_ids=["a" * 64])
        ) + b"\x00"
        frame = wire.encode_frame(wire.MSG_VERIFY_BATCH_REQUEST, payload)
        with pytest.raises(wire.WireFormatError, match="trailing"):
            wire.decode_verify_batch_request(frame)

    def test_wrong_message_type_rejected(self):
        from repro.service import wire

        frame = wire.encode_frame(wire.MSG_VERIFY_BATCH_RESULT, b"")
        with pytest.raises(wire.WireFormatError):
            wire.decode_verify_batch_request(frame)


# -- the service audit endpoint ------------------------------------------------


def _off_subgroup_g2() -> G2Point:
    """A G2 point on the twist curve but outside the order-r subgroup --
    the forgery class that point *decompression* cannot catch (BN254's G2
    cofactor is huge), only the explicit subgroup check."""
    from repro.curves.bn254 import TWIST_B
    from repro.curves.serialize import PointDecodingError, _fp2_sqrt
    from repro.field.tower import Fp2Element

    for offset in range(64):
        candidate_x = Fp2Element(1 + offset, 1)
        rhs = candidate_x.square() * candidate_x + TWIST_B
        try:
            y = _fp2_sqrt(rhs)
        except (PointDecodingError, ValueError):
            continue
        point = G2Point(candidate_x, y)
        if not point.in_subgroup():
            return point
    raise AssertionError("no off-subgroup twist point found")


@pytest.fixture(scope="module")
def audit_service(tmp_path_factory):
    """A proof service whose registry is populated directly (no proving):

    two circuit shapes, each with trapdoor-forged valid claims, plus a
    revoked claim, a still-queued claim, and -- injected by the tests
    that need it -- a claim with a malformed stored proof.
    """
    import dataclasses

    from repro.nn import mnist_mlp_scaled
    from repro.service import ClaimRegistry, ProofServer, ProofService, wire
    from repro.service.registry import ClaimRecord
    from repro.snark import setup_with_trapdoor, simulate_proof
    from repro.watermark.keys import WatermarkKeys
    from repro.zkrownn import (
        CircuitConfig,
        build_extraction_circuit,
        model_digest,
        public_inputs_for,
    )
    from repro.zkrownn.prover import _claim_for
    from repro.circuit import FixedPointFormat

    rng = np.random.default_rng(77)
    shapes = []
    for hidden, wm_bits in ((4, 4), (6, 3)):
        model = mnist_mlp_scaled(input_dim=4, hidden=hidden, rng=rng)
        keys = WatermarkKeys(
            embed_layer=1,
            target_class=0,
            trigger_inputs=rng.normal(size=(2, 4)),
            projection=rng.normal(size=(hidden, wm_bits)),
            signature=(rng.random(wm_bits) < 0.5).astype(np.float64),
        )
        keys.validate()
        config = CircuitConfig(
            theta=1.0,  # any BER passes: the statement must be provable
            fixed_point=FixedPointFormat(frac_bits=10, total_bits=32),
        )
        circuit = build_extraction_circuit(model, keys, config)
        keypair, trapdoor = setup_with_trapdoor(
            circuit.constraint_system, seed=hidden
        )
        shapes.append((model, keys, config, circuit, keypair, trapdoor))

    root = tmp_path_factory.mktemp("audit-registry")
    registry = ClaimRegistry(root)
    claim_ids = {}

    def inject(tag, shape_index, claim, state="done"):
        model, keys, config, _, keypair, _ = shapes[shape_index]
        digest = f"{shape_index:064x}"
        claim_id = f"{tag:0>64}"
        registry.store_verifying_key(digest, keypair.verifying_key.to_bytes())
        registry.store_model_bytes(
            model_digest(model, keys.embed_layer), wire.encode_model(model)
        )
        registry.register(ClaimRecord(
            claim_id=claim_id,
            model_digest=model_digest(model, keys.embed_layer),
        ))
        if state == "done":
            registry.transition(claim_id, "dispatch")
            registry.transition(claim_id, "prove", circuit_digest=digest)
        if claim is not None:
            registry.store_claim_bytes(claim_id, wire.encode_claim(claim))
        claim_ids[tag] = claim_id
        return claim_id

    def forge(shape_index, seed):
        model, keys, config, _, _, trapdoor = shapes[shape_index]
        cs = shapes[shape_index][3].constraint_system
        publics = public_inputs_for(
            model, config.theta, keys.num_bits, keys.embed_layer, config
        )
        proof = simulate_proof(trapdoor, cs, publics, seed=seed)
        return _claim_for(model, keys, config, proof)

    inject("good-a1", 0, forge(0, 1))
    inject("good-a2", 0, forge(0, 2))
    inject("good-b1", 1, forge(1, 3))
    revoked_id = inject("revoked", 0, forge(0, 4))
    registry.revoke(revoked_id, "dispute lost")
    inject("queued", 1, None, state="queued")

    service = ProofService(registry)
    server = ProofServer(service).start(start_service=False)
    yield server, claim_ids, shapes, forge, inject
    server.stop()


class TestServiceBatchVerify:
    def test_binary_endpoint_sweeps_groups_and_statuses(self, audit_service):
        from repro.service import ServiceClient

        server, ids, _, _, _ = audit_service
        client = ServiceClient(server.url)
        result = client.verify_batch(
            [ids["good-a1"], ids["good-a2"], ids["good-b1"],
             ids["revoked"], ids["queued"], "no-such-claim"],
            seed=9,
        )
        by_id = {v.claim_id: v for v in result.verdicts}
        assert by_id[ids["good-a1"]].accepted
        assert by_id[ids["good-a1"]].status == 200
        assert by_id[ids["good-a2"]].accepted
        assert by_id[ids["good-b1"]].accepted
        assert by_id[ids["revoked"]].status == 409
        assert by_id[ids["queued"]].status == 409
        assert by_id["no-such-claim"].status == 404
        assert not by_id["no-such-claim"].accepted
        # Two circuit shapes -> two batched pairing checks, both accepted.
        assert len(result.groups) == 2
        assert all(g.accepted for g in result.groups)
        assert all(g.seconds > 0 for g in result.groups)
        sweep = {cid for g in result.groups for cid in g.claim_ids}
        assert sweep == {ids["good-a1"], ids["good-a2"], ids["good-b1"]}

    def test_json_endpoint_matches_binary(self, audit_service):
        from repro.service import ServiceClient

        server, ids, _, _, _ = audit_service
        client = ServiceClient(server.url)
        payload = client._json(
            "POST", "/verify-batch",
            body=json.dumps(
                {"claim_ids": [ids["good-a1"], ids["revoked"]], "seed": 9}
            ).encode(),
            content_type="application/json",
        )
        verdicts = {v["claim_id"]: v for v in payload["verdicts"]}
        assert verdicts[ids["good-a1"]]["accepted"] is True
        assert verdicts[ids["revoked"]]["status"] == 409
        assert len(payload["groups"]) == 1

    def test_json_endpoint_without_list_is_400(self, audit_service):
        from repro.service import ServiceClient, ServiceError

        server, _, _, _, _ = audit_service
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client._json(
                "POST", "/verify-batch",
                body=b'{"claim_ids": "not-a-list"}',
                content_type="application/json",
            )
        assert excinfo.value.status == 400

    def test_degenerate_stored_key_fails_its_claims_not_the_sweep(
        self, audit_service, tmp_path
    ):
        """A stored verifying key with an identity gamma used to raise out
        of the prepared batch path and turn the whole sweep into one 400;
        it is a per-claim "key unavailable" verdict."""
        import dataclasses

        from repro.service import ClaimRegistry, ProofService, wire
        from repro.service.registry import ClaimRecord
        from repro.zkrownn import model_digest

        _, _, shapes, forge, _ = audit_service
        model, keys, _, _, keypair, _ = shapes[0]
        bad_key = dataclasses.replace(
            keypair.verifying_key, gamma_g2=G2Point.infinity()
        )
        digest, claim_id = "d" * 64, "c" * 64
        claim = forge(0, 6)
        registry = ClaimRegistry(tmp_path)
        registry.store_verifying_key(digest, bad_key.to_bytes())
        registry.store_model_bytes(claim.model_sha256, wire.encode_model(model))
        registry.register(ClaimRecord(
            claim_id=claim_id,
            model_digest=model_digest(model, keys.embed_layer),
        ))
        registry.transition(claim_id, "dispatch")
        registry.transition(claim_id, "prove", circuit_digest=digest)
        registry.store_claim_bytes(claim_id, wire.encode_claim(claim))
        service = ProofService(registry)

        result = service.verify_batch([claim_id, "no-such-claim"], seed=9)
        by_id = {v.claim_id: v for v in result.verdicts}
        assert by_id[claim_id].status == 404 and not by_id[claim_id].accepted
        assert "gamma_g2 is the identity" in by_id[claim_id].reason
        assert by_id["no-such-claim"].status == 404
        assert [g.accepted for g in result.groups] == [False]

    def test_audit_cli_passes_then_fails_on_malformed_proof(
        self, audit_service, capsys
    ):
        """The registry-wide `zkrownn audit` sweep: PASS over the healthy
        registry, then a claim whose stored proof carries an on-curve but
        off-subgroup G2 point flips exactly its group to FAIL with a
        400-class verdict."""
        import dataclasses

        from repro.cli import main as cli_main
        from repro.service import ServiceClient

        server, ids, _, forge, inject = audit_service
        assert cli_main(["audit", "--url", server.url, "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "audit result: PASSED" in out
        assert "[SKIP]" in out  # the queued claim does not fail the audit
        assert "batched pairing check" in out

        good = forge(1, 5)
        bad_proof = Proof(good.proof.a, _off_subgroup_g2(), good.proof.c)
        malformed = dataclasses.replace(good, proof_bytes=bad_proof.to_bytes())
        inject("malformed", 1, malformed)

        assert cli_main(["audit", "--url", server.url, "--seed", "9"]) == 1
        out = capsys.readouterr().out
        assert "audit result: FAILED" in out
        assert "status=400" in out

        # The 400-class verdict also surfaces through the client API, and
        # only the malformed claim's group rejects.
        result = ServiceClient(server.url).audit_registry(seed=9)
        by_id = {v.claim_id: v for v in result.verdicts}
        assert by_id[ids["malformed"]].status == 400
        assert not by_id[ids["malformed"]].accepted
        assert by_id[ids["good-a1"]].accepted
        by_digest = {g.circuit_digest: g for g in result.groups}
        assert by_digest[f"{0:064x}"].accepted
        assert not by_digest[f"{1:064x}"].accepted
