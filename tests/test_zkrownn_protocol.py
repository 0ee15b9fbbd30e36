"""End-to-end protocol tests: prover, verifier, claims, setup party.

These are the integration tests of the whole stack -- slow (pure-Python
pairings), so they share the session-scoped circuit/keypair fixtures.
"""

import dataclasses

import numpy as np
import pytest

from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.snark import VerifyingKey, prove, verify, verify_batch_grouped
from repro.zkrownn import (
    OwnershipClaim,
    OwnershipProver,
    OwnershipVerifier,
    ProverError,
    model_digest,
    public_inputs_for,
)


@pytest.fixture(scope="module")
def claim_and_parts(watermarked_mlp, ownership_setup):
    model, keys, _ = watermarked_mlp
    config, circuit, keypair = ownership_setup
    prover = OwnershipProver(model, keys, config)
    claim = prover.prove_ownership(keypair.proving_key, seed=5)
    return model, keys, config, keypair, claim


class TestProver:
    def test_claim_verifies(self, claim_and_parts):
        model, _, _, keypair, claim = claim_and_parts
        verifier = OwnershipVerifier(keypair.verifying_key)
        report = verifier.verify(model, claim)
        assert report.accepted, report.reason

    def test_proof_is_128_bytes(self, claim_and_parts):
        *_, claim = claim_and_parts
        assert len(claim.proof_bytes) == 128

    def test_refuses_non_owned_model(self, watermarked_mlp, ownership_setup):
        from repro.nn import mnist_mlp_scaled

        _, keys, _ = watermarked_mlp
        config, _, keypair = ownership_setup
        fresh = mnist_mlp_scaled(input_dim=16, hidden=16,
                                 rng=np.random.default_rng(99))
        prover = OwnershipProver(fresh, keys, config)
        with pytest.raises(ProverError, match="does not extract"):
            prover.prove_ownership(keypair.proving_key, seed=5)

    def test_claim_metadata(self, claim_and_parts):
        model, keys, config, _, claim = claim_and_parts
        assert claim.theta == config.theta
        assert claim.wm_bits == keys.num_bits
        assert claim.embed_layer == keys.embed_layer
        assert claim.model_sha256 == model_digest(model, keys.embed_layer)


class TestVerifier:
    def test_rejects_different_model(self, claim_and_parts):
        model, _, _, keypair, claim = claim_and_parts
        tampered = model.copy()
        tampered.layers[0].params["W"][0, 0] += 0.5
        verifier = OwnershipVerifier(keypair.verifying_key)
        report = verifier.verify(tampered, claim)
        assert not report.accepted
        assert "different model" in report.reason

    def test_rejects_tampered_proof(self, claim_and_parts):
        model, _, _, keypair, claim = claim_and_parts
        corrupted = bytearray(claim.proof_bytes)
        corrupted[40] ^= 0xFF
        bad_claim = OwnershipClaim(
            proof_bytes=bytes(corrupted),
            theta=claim.theta,
            wm_bits=claim.wm_bits,
            embed_layer=claim.embed_layer,
            model_sha256=claim.model_sha256,
            frac_bits=claim.frac_bits,
            total_bits=claim.total_bits,
        )
        verifier = OwnershipVerifier(keypair.verifying_key)
        report = verifier.verify(model, bad_claim)
        assert not report.accepted

    def test_rejects_wrong_theta_claim(self, claim_and_parts):
        """A prover cannot relax theta after the fact: the budget is a
        public input, so a doctored claim changes the instance."""
        model, _, _, keypair, claim = claim_and_parts
        relaxed = OwnershipClaim(
            proof_bytes=claim.proof_bytes,
            theta=0.5,
            wm_bits=claim.wm_bits,
            embed_layer=claim.embed_layer,
            model_sha256=claim.model_sha256,
            frac_bits=claim.frac_bits,
            total_bits=claim.total_bits,
        )
        verifier = OwnershipVerifier(keypair.verifying_key)
        assert not verifier.verify(model, relaxed).accepted

    def test_rejects_mismatched_vk_shape(self, claim_and_parts, cubic_keypair):
        model, _, _, _, claim = claim_and_parts
        verifier = OwnershipVerifier(cubic_keypair.verifying_key)
        report = verifier.verify(model, claim)
        assert not report.accepted
        assert "circuit shape" in report.reason


class TestClaimSerialization:
    def test_json_round_trip(self, claim_and_parts):
        *_, claim = claim_and_parts
        restored = OwnershipClaim.from_json(claim.to_json())
        assert restored == claim

    def test_file_round_trip(self, claim_and_parts, tmp_path):
        *_, claim = claim_and_parts
        path = tmp_path / "claim.json"
        claim.save(path)
        assert OwnershipClaim.load(path) == claim

    def test_round_tripped_claim_verifies(self, claim_and_parts):
        model, _, _, keypair, claim = claim_and_parts
        restored = OwnershipClaim.from_json(claim.to_json())
        verifier = OwnershipVerifier(keypair.verifying_key)
        assert verifier.verify(model, restored).accepted

    def test_size_is_small(self, claim_and_parts):
        *_, claim = claim_and_parts
        # Order of magnitude: a few hundred bytes (128 B proof + metadata).
        assert claim.size_bytes() < 1024


class TestModelDigest:
    def test_deterministic(self, claim_and_parts):
        model, keys, *_ = claim_and_parts
        assert model_digest(model, keys.embed_layer) == model_digest(
            model, keys.embed_layer
        )

    def test_sensitive_to_weights(self, claim_and_parts):
        model, keys, *_ = claim_and_parts
        other = model.copy()
        other.layers[0].params["b"][0] += 1e-9
        assert model_digest(model, keys.embed_layer) != model_digest(
            other, keys.embed_layer
        )

    def test_only_covers_prefix_layers(self, claim_and_parts):
        model, keys, *_ = claim_and_parts
        other = model.copy()
        other.layers[-1].params["W"][0, 0] += 1.0  # beyond embed layer
        assert model_digest(model, keys.embed_layer) == model_digest(
            other, keys.embed_layer
        )


class TestKeyReuseAcrossProofs:
    def test_second_proof_with_same_setup(self, claim_and_parts):
        """Setup once, prove twice (the amortization story)."""
        model, keys, config, keypair, _ = claim_and_parts
        prover = OwnershipProver(model, keys, config)
        claim2 = prover.prove_ownership(keypair.proving_key, seed=77)
        verifier = OwnershipVerifier(keypair.verifying_key)
        assert verifier.verify(model, claim2).accepted


class TestBatchAudit:
    def test_verify_many_accepts_valid_claims(self, claim_and_parts):
        model, keys, config, keypair, claim = claim_and_parts
        prover = OwnershipProver(model, keys, config)
        claim2 = prover.prove_ownership(keypair.proving_key, seed=88)
        verifier = OwnershipVerifier(keypair.verifying_key)
        reports = verifier.verify_many(
            [(model, claim), (model, claim2)], seed=5
        )
        assert all(r.accepted for r in reports)

    def test_verify_many_isolates_bad_claim(self, claim_and_parts):
        model, keys, config, keypair, claim = claim_and_parts
        corrupted = bytearray(claim.proof_bytes)
        corrupted[33] ^= 0x02
        bad = OwnershipClaim(
            proof_bytes=bytes(corrupted),
            theta=claim.theta,
            wm_bits=claim.wm_bits,
            embed_layer=claim.embed_layer,
            model_sha256=claim.model_sha256,
            frac_bits=claim.frac_bits,
            total_bits=claim.total_bits,
        )
        verifier = OwnershipVerifier(keypair.verifying_key)
        reports = verifier.verify_many([(model, claim), (model, bad)], seed=5)
        assert [r.accepted for r in reports] == [True, False]

    def test_verify_many_precheck_failure_reported(self, claim_and_parts):
        model, keys, config, keypair, claim = claim_and_parts
        other = model.copy()
        other.layers[0].params["W"][0, 0] += 0.25
        verifier = OwnershipVerifier(keypair.verifying_key)
        reports = verifier.verify_many([(other, claim), (model, claim)], seed=5)
        assert [r.accepted for r in reports] == [False, True]
        # The batch audit names the mismatch exactly as a single verify does.
        assert "different model" in reports[0].reason
        assert reports[0] == verifier.verify(other, claim)

    def test_proof_decoded_once_per_claim(self, claim_and_parts, monkeypatch):
        """Decoding is three square roots; the single verify and the batch
        audit's blame fallback each pay it once per claim."""
        from repro.snark import Proof

        model, _, _, keypair, claim = claim_and_parts
        decoded = []
        from_bytes = Proof.from_bytes
        monkeypatch.setattr(
            Proof, "from_bytes",
            staticmethod(lambda data: decoded.append(1) or from_bytes(data)),
        )
        verifier = OwnershipVerifier(keypair.verifying_key)
        assert verifier.verify(model, claim).accepted
        assert len(decoded) == 1
        forged = dataclasses.replace(claim, theta=claim.theta + 0.25)
        reports = verifier.verify_many([(model, claim), (model, forged)], seed=5)
        assert [r.accepted for r in reports] == [True, False]
        assert len(decoded) == 3

    def test_verify_many_empty(self, claim_and_parts):
        *_, keypair, _ = claim_and_parts
        verifier = OwnershipVerifier(keypair.verifying_key)
        assert verifier.verify_many([]) == []


def _report_reason(report):
    assert not report.accepted and not report.malformed
    return report.reason


def _raised(call):
    with pytest.raises(ValueError) as excinfo:
        call()
    return str(excinfo.value)


#: Every way a (key, model, claim) triple reaches the pairing equation, each
#: returning the text with which it refused the key.
_ENTRY_POINTS = {
    "OwnershipVerifier.verify": lambda vk, model, claim, instance: _report_reason(
        OwnershipVerifier(vk).verify(model, claim)
    ),
    "OwnershipVerifier.verify_many": lambda vk, model, claim, instance: _report_reason(
        OwnershipVerifier(vk).verify_many([(model, claim)], seed=1)[0]
    ),
    "groth16.verify": lambda vk, model, claim, instance: _raised(
        lambda: verify(vk, instance, claim.proof)
    ),
    "groth16.verify_batch_grouped": lambda vk, model, claim, instance: _raised(
        lambda: verify_batch_grouped([(vk, instance, claim.proof)], seed=1)
    ),
}


class TestDegenerateVerifyingKey:
    """An identity beta/gamma/delta makes its pairing factor 1 whatever the
    proof says.  Before there was one verification path, the unprepared one
    dropped the factor and answered on the crippled equation -- with gamma
    gone, ``verify(vk, anything, Proof(alpha, beta, O))`` was True -- while
    the prepared one raised past ``OwnershipVerifier``.  Now every entry
    point refuses the key itself: the Groth16 layer raises, the protocol
    layer reports, and neither gives a verdict on the proof."""

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("point", ["beta_g2", "gamma_g2", "delta_g2"])
    def test_every_entry_point_refuses_the_key(self, claim_and_parts, point, entry):
        model, _, config, keypair, claim = claim_and_parts
        vk = dataclasses.replace(
            keypair.verifying_key, **{point: G2Point.infinity()}
        )
        instance = public_inputs_for(
            model, claim.theta, claim.wm_bits, claim.embed_layer, config
        )
        refusal = _ENTRY_POINTS[entry](vk, model, claim, instance)
        assert f"degenerate verifying key: {point} is the identity" in refusal

    @pytest.mark.parametrize(
        "point", ["alpha_g1", "beta_g2", "gamma_g2", "delta_g2"]
    )
    def test_rejected_where_the_bytes_enter(self, claim_and_parts, point):
        from repro.service import wire

        *_, keypair, _ = claim_and_parts
        identity = G1Point.infinity() if point == "alpha_g1" else G2Point.infinity()
        vk = dataclasses.replace(keypair.verifying_key, **{point: identity})
        with pytest.raises(ValueError, match=f"{point} is the identity"):
            VerifyingKey.from_bytes(vk.to_bytes())
        with pytest.raises(wire.WireFormatError, match="degenerate"):
            wire.decode_verifying_key(wire.encode_verifying_key(vk))

    def test_identity_ic_points_are_not_degenerate(self, claim_and_parts):
        *_, keypair, _ = claim_and_parts
        vk = keypair.verifying_key
        sparse = dataclasses.replace(
            vk, ic=[G1Point.infinity()] + list(vk.ic[1:])
        )
        assert VerifyingKey.from_bytes(sparse.to_bytes()) == sparse
