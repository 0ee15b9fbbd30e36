"""Tests for the advanced SNARK features: the zero-knowledge simulator,
batch verification, the fast final exponentiation, and R1CS serialization.
"""

import random

import pytest
from reference.pairing import reference_pairing

from repro.curves.pairing import final_exponentiation, final_exponentiation_naive
from repro.field.prime import BN254_P as P
from repro.field.prime import BN254_R as R
from repro.field.tower import Fp2Element, Fp6Element, Fp12Element
from repro.snark import (
    ConstraintSystem,
    LinearCombination as LC,
    deserialize_r1cs,
    load_r1cs,
    prove,
    save_r1cs,
    serialize_r1cs,
    setup,
    setup_with_trapdoor,
    simulate_proof,
    verify,
    verify_batch,
)
from repro.snark.serialize import R1csFormatError


def square_circuit():
    cs = ConstraintSystem()
    y = cs.allocate_public("y")
    x = cs.allocate_private("x")
    cs.enforce(LC.variable(x), LC.variable(x), LC.variable(y))
    return cs


@pytest.fixture(scope="module")
def square_keypair_with_trapdoor():
    cs = square_circuit()
    keypair, trapdoor = setup_with_trapdoor(cs, seed=11)
    return cs, keypair, trapdoor


class TestZeroKnowledgeSimulator:
    def test_simulated_proof_verifies_without_witness(
        self, square_keypair_with_trapdoor
    ):
        """The formal ZK property: the trapdoor forges verifying proofs
        with NO witness, so honest proofs cannot leak the witness."""
        cs, keypair, trapdoor = square_keypair_with_trapdoor
        forged = simulate_proof(trapdoor, cs, [49], seed=1)
        assert verify(keypair.verifying_key, [49], forged)

    def test_simulator_works_for_any_instance(self, square_keypair_with_trapdoor):
        """With the trapdoor even *false* statements prove -- exactly why
        the ceremony must destroy it."""
        cs, keypair, trapdoor = square_keypair_with_trapdoor
        # 3 is not a quadratic residue... but the simulator doesn't care.
        forged = simulate_proof(trapdoor, cs, [3], seed=2)
        assert verify(keypair.verifying_key, [3], forged)

    def test_simulated_and_honest_proofs_both_verify(
        self, square_keypair_with_trapdoor
    ):
        cs, keypair, trapdoor = square_keypair_with_trapdoor
        honest = prove(keypair.proving_key, cs, [1, 49, 7], seed=3)
        forged = simulate_proof(trapdoor, cs, [49], seed=4)
        assert verify(keypair.verifying_key, [49], honest)
        assert verify(keypair.verifying_key, [49], forged)
        assert honest.to_bytes() != forged.to_bytes()

    def test_simulator_rejects_wrong_instance_size(
        self, square_keypair_with_trapdoor
    ):
        cs, _, trapdoor = square_keypair_with_trapdoor
        with pytest.raises(ValueError):
            simulate_proof(trapdoor, cs, [1, 2], seed=5)

    def test_simulated_proof_bound_to_its_instance(
        self, square_keypair_with_trapdoor
    ):
        cs, keypair, trapdoor = square_keypair_with_trapdoor
        forged = simulate_proof(trapdoor, cs, [49], seed=6)
        assert not verify(keypair.verifying_key, [50], forged)


class TestBatchVerification:
    @pytest.fixture(scope="class")
    def batch_parts(self):
        cs = square_circuit()
        keypair = setup(cs, seed=21)
        batch = []
        for v in (2, 3, 5, 8):
            proof = prove(keypair.proving_key, cs, [1, v * v, v], seed=v)
            batch.append(([v * v], proof))
        return cs, keypair, batch

    def test_valid_batch_accepted(self, batch_parts):
        _, keypair, batch = batch_parts
        assert verify_batch(keypair.verifying_key, batch, seed=1)

    def test_single_bad_instance_rejects_batch(self, batch_parts):
        _, keypair, batch = batch_parts
        tampered = list(batch)
        tampered[2] = ([26], tampered[2][1])
        assert not verify_batch(keypair.verifying_key, tampered, seed=1)

    def test_single_tampered_proof_rejects_batch(self, batch_parts):
        from repro.curves.g1 import G1Point
        from repro.snark import Proof

        _, keypair, batch = batch_parts
        good = batch[0][1]
        bad = Proof(good.a + G1Point.generator(), good.b, good.c)
        tampered = [batch[0], ([4], bad)]
        assert not verify_batch(keypair.verifying_key, tampered, seed=1)

    def test_empty_batch_is_true(self, batch_parts):
        _, keypair, _ = batch_parts
        assert verify_batch(keypair.verifying_key, [])

    def test_singleton_batch_matches_plain_verify(self, batch_parts):
        _, keypair, batch = batch_parts
        publics, proof = batch[0]
        assert verify_batch(keypair.verifying_key, [(publics, proof)], seed=2)
        assert verify(keypair.verifying_key, publics, proof)

    def test_wrong_instance_length_rejected(self, batch_parts):
        _, keypair, batch = batch_parts
        assert not verify_batch(keypair.verifying_key, [([1, 2], batch[0][1])])


class TestPreparedVerification:
    @pytest.fixture(scope="class")
    def prepared_parts(self):
        from repro.snark import prepare_verifying_key

        cs = square_circuit()
        keypair = setup(cs, seed=31)
        proof = prove(keypair.proving_key, cs, [1, 49, 7], seed=32)
        pvk = prepare_verifying_key(keypair.verifying_key)
        return keypair, pvk, proof

    @staticmethod
    def _textbook_verify(vk, public_inputs, proof):
        """Groth's equation as printed, one reference pairing per factor
        and IC(x) by double-and-add -- no production Miller code."""
        vk_x = vk.ic[0]
        for x, point in zip(public_inputs, vk.ic[1:]):
            vk_x = vk_x + point * x
        return reference_pairing(proof.a, proof.b) == (
            reference_pairing(vk.alpha_g1, vk.beta_g2)
            * reference_pairing(vk_x, vk.gamma_g2)
            * reference_pairing(proof.c, vk.delta_g2)
        )

    def test_agrees_with_plain_verify_on_valid(self, prepared_parts):
        from repro.snark import verify_prepared

        keypair, pvk, proof = prepared_parts
        assert self._textbook_verify(keypair.verifying_key, [49], proof)
        assert verify_prepared(pvk, [49], proof)
        assert verify(keypair.verifying_key, [49], proof)

    def test_agrees_with_plain_verify_on_invalid(self, prepared_parts):
        from repro.snark import verify_prepared

        keypair, pvk, proof = prepared_parts
        assert not self._textbook_verify(keypair.verifying_key, [50], proof)
        assert not verify_prepared(pvk, [50], proof)
        assert not verify(keypair.verifying_key, [50], proof)

    def test_wrong_instance_size(self, prepared_parts):
        from repro.snark import verify_prepared

        _, pvk, proof = prepared_parts
        assert not verify_prepared(pvk, [49, 1], proof)

    def test_precompute_infinity_rejected(self):
        from repro.curves.g2 import G2Point
        from repro.curves.pairing import precompute_g2

        with pytest.raises(ValueError):
            precompute_g2(G2Point.infinity())

    def test_precomputed_miller_matches_live(self, rng):
        from repro.curves.g1 import G1Point
        from repro.curves.g2 import G2Point
        from repro.curves.pairing import multi_pairing, precompute_g2

        p = G1Point.generator() * rng.randrange(1, 1000)
        q = G2Point.generator() * rng.randrange(1, 1000)
        expected = reference_pairing(p, q)
        assert multi_pairing([(p, q)]) == expected
        assert multi_pairing([(p, precompute_g2(q))]) == expected

    def test_precomputed_plain_ate_variant(self, rng):
        from repro.curves.g1 import G1Point
        from repro.curves.g2 import G2Point
        from repro.curves.pairing import multi_pairing, precompute_g2

        p = G1Point.generator() * 5
        q = G2Point.generator() * 9
        expected = reference_pairing(p, q, "ate")
        assert multi_pairing([(p, q)], "ate") == expected
        assert multi_pairing([(p, precompute_g2(q, "ate"))], "ate") == expected

    def test_infinity_g1_gives_one(self, prepared_parts):
        from repro.curves.g1 import G1Point
        from repro.curves.pairing import multi_miller_loop, precompute_g2
        from repro.curves.g2 import G2Point

        pre = precompute_g2(G2Point.generator())
        assert multi_miller_loop([(G1Point.infinity(), pre)]).is_one()


class TestFinalExponentiationVariants:
    def _random_fp12(self, rng):
        def fp2():
            return Fp2Element(rng.randrange(P), rng.randrange(P))

        def fp6():
            return Fp6Element(fp2(), fp2(), fp2())

        return Fp12Element(fp6(), fp6())

    def test_fast_matches_naive_on_random_elements(self, rng):
        for _ in range(5):
            f = self._random_fp12(rng)
            assert final_exponentiation(f) == final_exponentiation_naive(f)

    def test_fast_output_in_cyclotomic_subgroup(self, rng):
        f = final_exponentiation(self._random_fp12(rng))
        assert f.conjugate() == f.inverse()
        assert f.pow(R).is_one()


class TestR1csSerialization:
    def test_round_trip_structure(self):
        cs = square_circuit()
        restored = deserialize_r1cs(serialize_r1cs(cs))
        assert restored.num_variables == cs.num_variables
        assert restored.num_public == cs.num_public
        assert restored.num_constraints == cs.num_constraints
        for (a1, b1, c1), (a2, b2, c2) in zip(cs.constraints, restored.constraints):
            assert a1.terms == a2.terms
            assert b1.terms == b2.terms
            assert c1.terms == c2.terms

    def test_round_trip_preserves_satisfiability(self):
        cs = square_circuit()
        restored = deserialize_r1cs(serialize_r1cs(cs))
        assert restored.is_satisfied([1, 49, 7])
        assert not restored.is_satisfied([1, 50, 7])

    def test_round_trip_through_groth16(self):
        """Keys generated from a deserialized circuit verify proofs made
        with the original (structure is all Groth16 sees)."""
        cs = square_circuit()
        restored = deserialize_r1cs(serialize_r1cs(cs))
        keypair = setup(restored, seed=5)
        proof = prove(keypair.proving_key, cs, [1, 49, 7], seed=6)
        assert verify(keypair.verifying_key, [49], proof)

    def test_file_round_trip(self, tmp_path):
        cs = square_circuit()
        path = tmp_path / "circuit.r1cs"
        save_r1cs(cs, path)
        restored = load_r1cs(path)
        assert restored.num_constraints == cs.num_constraints

    def test_bad_magic_rejected(self):
        with pytest.raises(R1csFormatError, match="magic"):
            deserialize_r1cs(b"NOPE" + bytes(20))

    def test_bad_version_rejected(self):
        cs = square_circuit()
        data = bytearray(serialize_r1cs(cs))
        data[5] = 99
        with pytest.raises(R1csFormatError, match="version"):
            deserialize_r1cs(bytes(data))

    def test_trailing_bytes_rejected(self):
        cs = square_circuit()
        with pytest.raises(R1csFormatError, match="trailing"):
            deserialize_r1cs(serialize_r1cs(cs) + b"\x00")

    def test_out_of_range_variable_rejected(self):
        cs = ConstraintSystem()
        cs.allocate_public("y")
        x = cs.allocate_private("x")
        cs.enforce(LC.variable(99), LC.variable(x), LC.variable(x))
        with pytest.raises(R1csFormatError, match="outside"):
            deserialize_r1cs(serialize_r1cs(cs))

    def test_extraction_circuit_round_trip(self, watermarked_mlp):
        """The real Algorithm-1 circuit survives serialization."""
        from repro.circuit import FixedPointFormat
        from repro.zkrownn import CircuitConfig, build_extraction_circuit

        model, keys, _ = watermarked_mlp
        config = CircuitConfig(
            theta=0.0, fixed_point=FixedPointFormat(frac_bits=14, total_bits=40)
        )
        circuit = build_extraction_circuit(model, keys, config)
        blob = serialize_r1cs(circuit.constraint_system)
        restored = deserialize_r1cs(blob)
        assert restored.is_satisfied(circuit.assignment)
