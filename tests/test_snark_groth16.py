"""Tests for the Groth16 proof system: completeness, soundness, sizes.

Uses a session-scoped keypair on the cubic circuit (x^3 + x + 5 = y) to
keep the pure-Python pairing cost bounded.
"""

import hashlib

import pytest

from repro.field.prime import BN254_R as R
from repro.snark import (
    ConstraintSystem,
    LinearCombination as LC,
    MalformedProof,
    Proof,
    ProvingKey,
    UnsatisfiedWitness,
    VerifyingKey,
    prove,
    setup,
    verify,
    verify_batch,
    verify_with_precheck,
)
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point


class TestCompleteness:
    def test_valid_proof_verifies(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        assert verify(cubic_keypair.verifying_key, [35], proof)

    def test_different_witness_same_circuit(self, cubic_circuit, cubic_keypair):
        cs, _ = cubic_circuit
        x = 5
        assignment = [1, x**3 + x + 5, x, x**2, x**3]
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=2)
        assert verify(cubic_keypair.verifying_key, [x**3 + x + 5], proof)

    def test_fresh_randomness_gives_distinct_proofs(self, cubic_circuit, cubic_keypair):
        """Zero-knowledge smoke test: proofs of the same witness differ."""
        cs, assignment = cubic_circuit
        p1 = prove(cubic_keypair.proving_key, cs, assignment, seed=10)
        p2 = prove(cubic_keypair.proving_key, cs, assignment, seed=11)
        assert p1.to_bytes() != p2.to_bytes()
        assert verify(cubic_keypair.verifying_key, [35], p1)
        assert verify(cubic_keypair.verifying_key, [35], p2)


class TestSoundness:
    def test_wrong_public_input_rejected(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        assert not verify(cubic_keypair.verifying_key, [36], proof)

    def test_wrong_public_input_count_rejected(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        assert not verify(cubic_keypair.verifying_key, [35, 1], proof)

    @pytest.mark.parametrize(
        "alias", [35 + R, 35 - R, 35 + 2 * R], ids=["x+R", "x-R", "x+2R"]
    )
    def test_public_inputs_outside_the_field_rejected(
        self, cubic_circuit, cubic_keypair, alias
    ):
        """A proof for ``x`` must not also verify for ``x + R`` or ``x - R``:
        the verifier refuses non-canonical instances rather than reducing
        them, singly and in a batch."""
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        vk = cubic_keypair.verifying_key
        assert verify(vk, [35], proof)
        assert not verify(vk, [alias], proof)
        assert verify_batch(vk, [([35], proof)], seed=1)
        assert not verify_batch(vk, [([alias], proof)], seed=1)
        assert not verify_batch(vk, [([35], proof), ([alias], proof)], seed=1)

    def test_tampered_proof_a_rejected(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        tampered = Proof(proof.a + G1Point.generator(), proof.b, proof.c)
        assert not verify(cubic_keypair.verifying_key, [35], tampered)

    def test_tampered_proof_c_rejected(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        tampered = Proof(proof.a, proof.b, proof.c + G1Point.generator())
        assert not verify(cubic_keypair.verifying_key, [35], tampered)

    def test_swapped_proofs_between_instances_rejected(
        self, cubic_circuit, cubic_keypair
    ):
        cs, _ = cubic_circuit
        x = 4
        other = [1, x**3 + x + 5, x, x**2, x**3]
        proof_for_other = prove(cubic_keypair.proving_key, cs, other, seed=3)
        assert not verify(cubic_keypair.verifying_key, [35], proof_for_other)

    def test_unsatisfying_witness_refused_at_prove_time(
        self, cubic_circuit, cubic_keypair
    ):
        cs, assignment = cubic_circuit
        bad = list(assignment)
        bad[1] = 36
        with pytest.raises(UnsatisfiedWitness):
            prove(cubic_keypair.proving_key, cs, bad, seed=1)

    def test_unsatisfying_witness_names_its_constraint(
        self, cubic_circuit, cubic_keypair
    ):
        cs, assignment = cubic_circuit
        bad = list(assignment)
        bad[3] = 10  # x2 = 10 breaks constraint 0 (x * x = x2) first
        with pytest.raises(UnsatisfiedWitness) as expected:
            cs.check_satisfied(bad)
        assert "constraint 0 violated" in str(expected.value)
        with pytest.raises(UnsatisfiedWitness) as refused:
            prove(cubic_keypair.proving_key, cs, bad, seed=1)
        assert str(refused.value) == str(expected.value)

    def test_mismatched_circuit_rejected(self, cubic_keypair):
        other = ConstraintSystem()
        y = other.allocate_public("y")
        x = other.allocate_private("x")
        other.enforce(LC.variable(x), LC.variable(x), LC.variable(y))
        with pytest.raises(UnsatisfiedWitness, match="different circuit"):
            prove(cubic_keypair.proving_key, other, [1, 9, 3], seed=1)


class TestPrecheck:
    def test_valid_proof_passes_precheck(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        assert verify_with_precheck(cubic_keypair.verifying_key, [35], proof)

    def test_infinity_point_rejected(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        forged = Proof(G1Point.infinity(), proof.b, proof.c)
        with pytest.raises(MalformedProof):
            verify_with_precheck(cubic_keypair.verifying_key, [35], forged)

    def test_off_curve_point_rejected(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        forged = Proof(G1Point(1, 1), proof.b, proof.c)
        with pytest.raises(MalformedProof):
            verify_with_precheck(cubic_keypair.verifying_key, [35], forged)


class TestSerialization:
    def test_proof_is_128_bytes(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        assert proof.size_bytes() == 128

    def test_proof_roundtrip(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        restored = Proof.from_bytes(proof.to_bytes())
        assert restored == proof
        assert verify(cubic_keypair.verifying_key, [35], restored)

    def test_proof_wrong_length_rejected(self):
        with pytest.raises(MalformedProof):
            Proof.from_bytes(b"\x00" * 100)

    def test_vk_roundtrip(self, cubic_keypair):
        vk = cubic_keypair.verifying_key
        restored = VerifyingKey.from_bytes(vk.to_bytes())
        assert restored.alpha_g1 == vk.alpha_g1
        assert restored.ic == vk.ic

    def test_vk_roundtrip_verifies(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        proof = prove(cubic_keypair.proving_key, cs, assignment, seed=1)
        restored = VerifyingKey.from_bytes(cubic_keypair.verifying_key.to_bytes())
        assert verify(restored, [35], proof)

    def test_pk_roundtrip(self, cubic_circuit, cubic_keypair):
        pk = cubic_keypair.proving_key
        restored = ProvingKey.from_bytes(pk.to_bytes())
        assert restored.a_query == pk.a_query
        assert restored.h_query == pk.h_query
        assert restored.num_public == pk.num_public

    def test_pk_roundtrip_proves(self, cubic_circuit, cubic_keypair):
        cs, assignment = cubic_circuit
        restored = ProvingKey.from_bytes(cubic_keypair.proving_key.to_bytes())
        proof = prove(restored, cs, assignment, seed=9)
        assert verify(cubic_keypair.verifying_key, [35], proof)

    def test_vk_size_grows_with_public_inputs(self):
        def circuit(n_public):
            cs = ConstraintSystem()
            pubs = [cs.allocate_public(f"p{i}") for i in range(n_public)]
            x = cs.allocate_private("x")
            for p in pubs:
                cs.enforce(LC.variable(x), LC.variable(x), LC.variable(p))
            return cs

        vk_small = setup(circuit(1), seed=5).verifying_key
        vk_large = setup(circuit(8), seed=5).verifying_key
        assert vk_large.size_bytes() - vk_small.size_bytes() == 7 * 32


class TestSetupDeterminism:
    def test_seeded_setup_is_deterministic(self, cubic_circuit):
        cs, _ = cubic_circuit
        kp1 = setup(cs, seed=99)
        kp2 = setup(cs, seed=99)
        assert kp1.verifying_key.to_bytes() == kp2.verifying_key.to_bytes()

    def test_different_seeds_differ(self, cubic_circuit):
        cs, _ = cubic_circuit
        kp1 = setup(cs, seed=99)
        kp2 = setup(cs, seed=100)
        assert kp1.verifying_key.to_bytes() != kp2.verifying_key.to_bytes()

    def test_keys_from_one_setup_reject_proofs_from_another(self, cubic_circuit):
        """Proofs are bound to a specific CRS."""
        cs, assignment = cubic_circuit
        kp1 = setup(cs, seed=99)
        kp2 = setup(cs, seed=100)
        proof = prove(kp1.proving_key, cs, assignment, seed=1)
        assert not verify(kp2.verifying_key, [35], proof)


def _chain_circuit(n_public=3, length=20):
    """x_{i+1} = (x_i + i) * x_i, the last link copied to every public."""
    cs = ConstraintSystem()
    pubs = [cs.allocate_public(f"p{i}") for i in range(n_public)]
    prev = cs.allocate_private("x0")
    for i in range(length):
        nxt = cs.allocate_private(f"x{i + 1}")
        cs.enforce(
            LC.variable(prev) + LC.constant(i), LC.variable(prev), LC.variable(nxt)
        )
        prev = nxt
    for p in pubs:
        cs.enforce(LC.variable(prev), LC.constant(1), LC.variable(p))
    return cs


class TestBlindingLimbs:
    """The G2 MSM takes the blinding scalar ``s`` as eight 32-bit limbs
    against ``2^(32 k) * delta_2``, precomputed with the prepared key."""

    def test_limb_bases(self, cubic_keypair):
        from repro.snark import prepare_proving_key

        pk = cubic_keypair.proving_key
        limbs = prepare_proving_key(pk).delta_g2_limbs
        assert limbs == [pk.delta_g2 * (1 << (32 * k)) for k in range(8)]

    def test_limbs_recompose_any_scalar(self, cubic_keypair):
        from repro.curves.msm import msm_g2
        from repro.snark import prepare_proving_key
        from repro.snark.groth16 import _limbs

        pk = cubic_keypair.proving_key
        bases = prepare_proving_key(pk).delta_g2_limbs
        for s in (1, (1 << 32) - 1, 1 << 32, R - 1, (R - 1) // 2):
            assert sum(l << (32 * k) for k, l in enumerate(_limbs(s))) == s
            assert msm_g2(bases, _limbs(s)) == pk.delta_g2 * s


@pytest.mark.usefixtures("fixed_base_path")
class TestGoldenKeys:
    """Seeded keys are pinned byte for byte, on both fixed-base paths.

    The cubic and chain digests were recorded on the commit BEFORE the
    lockstep batch-affine fixed-base rewrite (per-scalar Jacobian comb);
    the long chain's on the last commit before the compiled combs.  Any
    setup-kernel or field-backend change must reproduce them exactly.
    The circuits have variables absent from B (7, 11 and 11 points at
    infinity across their queries), so the identity encoding is pinned
    too.  The long chain's 1,729 G1 scalars fill more than one
    ``_COMB_TILE``.
    """

    GOLDEN = {
        "cubic": "f35b52c4d32ed9305c63dc6dc1b3c270922485755d3f1bf011050a263ae5041b",
        "chain": "669751b8ff4f2dc1239c1e8d68e5bc4518d293d2b01ba999493242f2d1151df2",
        "long chain": "a107e039adc95b6ef6ff737fd2219fbbd8ac456562f90430a35a25880a72ac47",
    }

    @pytest.mark.parametrize(
        "name, seed", [("cubic", 42), ("chain", 7), ("long chain", 11)]
    )
    def test_seeded_setup_bytes_are_pinned(self, cubic_circuit, name, seed):
        cs = {
            "cubic": lambda: cubic_circuit[0],
            "chain": _chain_circuit,
            "long chain": lambda: _chain_circuit(length=400),
        }[name]()
        kp = setup(cs, seed=seed)
        pk = kp.proving_key
        assert any(p.is_infinity() for p in pk.b_g1_query)
        assert any(p.is_infinity() for p in pk.b_g2_query)
        blob = pk.to_bytes() + kp.verifying_key.to_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.GOLDEN[name]
