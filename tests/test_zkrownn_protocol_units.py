"""Unit tests for the protocol plumbing (setup party, transcripts).

The end-to-end flows live in test_zkrownn_protocol.py; these cover the
smaller contracts: ceremony lifecycle, transcript accounting, and error
paths that the integration tests never hit.
"""

import numpy as np
import pytest

from repro.zkrownn.protocol import (
    Message,
    ProtocolTranscript,
    TrustedSetupParty,
)


class TestTrustedSetupParty:
    def test_keys_unavailable_before_ceremony(self):
        party = TrustedSetupParty()
        with pytest.raises(RuntimeError):
            _ = party.proving_key
        with pytest.raises(RuntimeError):
            _ = party.verifying_key

    def test_ceremony_produces_matching_keys(self, ownership_setup):
        from repro.snark import prove, verify
        from shapes import small_claim

        model, keys, _ = small_claim()
        config, circuit, _ = ownership_setup
        party = TrustedSetupParty("unit-test-party")
        party.run_ceremony(model, keys, config, seed=123)
        proof = prove(
            party.proving_key, circuit.constraint_system, circuit.assignment,
            seed=1,
        )
        assert verify(party.verifying_key, circuit.public_inputs, proof)

    def test_party_name(self):
        assert TrustedSetupParty("notary").name == "notary"


class TestProtocolTranscript:
    def test_bytes_between(self):
        t = ProtocolTranscript()
        t.record("a", "b", "x", 100)
        t.record("a", "b", "y", 50)
        t.record("b", "a", "z", 7)
        assert t.bytes_between("a", "b") == 150
        assert t.bytes_between("b", "a") == 7
        assert t.bytes_between("a", "c") == 0
        assert t.total_bytes() == 157

    def test_all_accepted_empty_is_false(self):
        assert not ProtocolTranscript().all_accepted

    def test_all_accepted(self):
        from repro.zkrownn.verifier import VerificationReport

        t = ProtocolTranscript()
        t.reports.append(VerificationReport(True, "ok"))
        assert t.all_accepted
        t.reports.append(VerificationReport(False, "nope"))
        assert not t.all_accepted

    def test_message_fields(self):
        m = Message("p", "v", "proof", 128)
        assert (m.sender, m.receiver, m.num_bytes) == ("p", "v", 128)


class TestProverErrorPaths:
    def test_overflow_reported_as_prover_error(self, watermarked_mlp):
        """A fixed-point format too narrow for the activations must raise
        a ProverError, not leak a bare ConstraintViolation."""
        from repro.circuit import FixedPointFormat
        from repro.zkrownn import CircuitConfig, OwnershipProver, ProverError

        model, keys, _ = watermarked_mlp
        tiny_format = FixedPointFormat(frac_bits=14, total_bits=16)
        prover = OwnershipProver(
            model, keys, CircuitConfig(theta=0.0, fixed_point=tiny_format)
        )
        with pytest.raises(ProverError, match="synthesis"):
            prover.synthesize()
