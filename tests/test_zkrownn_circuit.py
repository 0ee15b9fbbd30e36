"""Tests for the Algorithm-1 extraction circuit."""

import copy

import numpy as np
import pytest

from repro.circuit import FixedPointFormat
from repro.watermark import extract_watermark
from repro.zkrownn import (
    CircuitConfig,
    build_extraction_circuit,
    public_inputs_for,
)

FMT = FixedPointFormat(frac_bits=14, total_bits=40)


@pytest.fixture(scope="module")
def mlp_circuit(watermarked_mlp):
    model, keys, _ = watermarked_mlp
    config = CircuitConfig(theta=0.0, fixed_point=FMT)
    return build_extraction_circuit(model, keys, config), model, keys, config


class TestCircuitCorrectness:
    def test_witness_satisfies_constraints(self, mlp_circuit):
        circuit, *_ = mlp_circuit
        circuit.builder.check()

    def test_valid_output_for_watermarked_model(self, mlp_circuit):
        circuit, *_ = mlp_circuit
        assert circuit.valid

    def test_extracted_bits_match_float_extraction(self, mlp_circuit):
        circuit, model, keys, _ = mlp_circuit
        float_result = extract_watermark(model, keys)
        assert circuit.extracted_bits == list(float_result.extracted_bits)

    def test_invalid_for_unrelated_model(self, watermarked_mlp):
        from repro.nn import mnist_mlp_scaled

        _, keys, _ = watermarked_mlp
        fresh = mnist_mlp_scaled(input_dim=16, hidden=16,
                                 rng=np.random.default_rng(321))
        config = CircuitConfig(theta=0.0, fixed_point=FMT)
        circuit = build_extraction_circuit(fresh, keys, config)
        assert not circuit.valid
        circuit.builder.check()  # still a consistent witness (output = 0)

    def test_theta_one_always_valid(self, watermarked_mlp):
        from repro.nn import mnist_mlp_scaled

        _, keys, _ = watermarked_mlp
        fresh = mnist_mlp_scaled(input_dim=16, hidden=16,
                                 rng=np.random.default_rng(321))
        config = CircuitConfig(theta=1.0, fixed_point=FMT)
        assert build_extraction_circuit(fresh, keys, config).valid


class TestPublicLayout:
    def test_public_inputs_match_independent_derivation(self, mlp_circuit):
        circuit, model, keys, config = mlp_circuit
        derived = public_inputs_for(
            model, config.theta, keys.num_bits, keys.embed_layer, config
        )
        assert circuit.public_inputs == derived

    def test_weight_count(self, mlp_circuit):
        circuit, model, keys, _ = mlp_circuit
        # Layers 0..1 = Dense(16->16) + ReLU: W 256 + b 16.
        assert circuit.num_weights == 16 * 16 + 16

    def test_instance_size(self, mlp_circuit):
        circuit, *_ = mlp_circuit
        # valid bit + weights + BER budget.
        assert circuit.constraint_system.num_public == 1 + circuit.num_weights + 1

    def test_different_model_different_instance(self, mlp_circuit, watermarked_mlp):
        circuit, model, keys, config = mlp_circuit
        perturbed = model.copy()
        perturbed.layers[0].params["W"][0, 0] += 1.0
        derived = public_inputs_for(
            perturbed, config.theta, keys.num_bits, keys.embed_layer, config
        )
        assert derived != circuit.public_inputs


class TestStructureReuse:
    def test_same_shape_same_structure(self, watermarked_mlp):
        """Different key values, same shapes -> identical circuit structure
        (the property that lets one Groth16 setup serve many proofs)."""
        model, keys, _ = watermarked_mlp
        config = CircuitConfig(theta=0.0, fixed_point=FMT)
        c1 = build_extraction_circuit(model, keys, config)

        other_keys = copy.deepcopy(keys)
        other_keys.projection = np.random.default_rng(5).standard_normal(
            keys.projection.shape
        )
        config2 = CircuitConfig(theta=1.0, fixed_point=FMT)  # budget is an input
        c2 = build_extraction_circuit(model, other_keys, config2)
        assert (
            c1.builder.structure_digest() == c2.builder.structure_digest()
        )

    def test_different_wm_width_different_structure(self, watermarked_mlp):
        model, keys, _ = watermarked_mlp
        config = CircuitConfig(theta=0.0, fixed_point=FMT)
        c1 = build_extraction_circuit(model, keys, config)
        wider = copy.deepcopy(keys)
        rng = np.random.default_rng(9)
        wider.projection = rng.standard_normal((keys.feature_dim, 16))
        wider.signature = rng.integers(0, 2, 16).astype(np.int64)
        c2 = build_extraction_circuit(model, wider, config)
        assert c1.builder.structure_digest() != c2.builder.structure_digest()


class TestSigmoidDegreeOption:
    def test_lower_degree_fewer_constraints(self, watermarked_mlp):
        model, keys, _ = watermarked_mlp
        base = CircuitConfig(theta=0.0, fixed_point=FMT, sigmoid_degree=9)
        low = CircuitConfig(theta=0.0, fixed_point=FMT, sigmoid_degree=3)
        c_base = build_extraction_circuit(model, keys, base)
        c_low = build_extraction_circuit(model, keys, low)
        assert (
            c_low.constraint_system.num_constraints
            < c_base.constraint_system.num_constraints
        )
