"""Tests that cost planning predicts real circuits exactly."""

import numpy as np
import pytest

from repro.circuit import FixedPointFormat
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential, Sigmoid
from repro.watermark.keys import WatermarkKeys
from repro.zkrownn import CircuitConfig, build_extraction_circuit
from repro.zkrownn.planning import CircuitCostEstimate, estimate_extraction_cost

FMT = FixedPointFormat(frac_bits=12, total_bits=36)


def _keys(model, input_shape, embed_layer, wm_bits=4, triggers=2, seed=0):
    rng = np.random.default_rng(seed)
    if isinstance(input_shape, int):
        trigger_inputs = rng.uniform(0, 1, (triggers, input_shape))
    else:
        trigger_inputs = rng.uniform(0, 1, (triggers, *input_shape))
    probe = model.forward_to(trigger_inputs[:1], embed_layer)
    feature_dim = int(np.prod(probe.shape[1:]))
    return WatermarkKeys(
        embed_layer=embed_layer,
        target_class=0,
        trigger_inputs=trigger_inputs,
        projection=rng.standard_normal((feature_dim, wm_bits)),
        signature=rng.integers(0, 2, wm_bits).astype(np.int64),
    )


def assert_estimate_exact(model, keys, config):
    circuit = build_extraction_circuit(model, keys, config)
    estimate = estimate_extraction_cost(model, keys, config)
    assert estimate.num_constraints == circuit.constraint_system.num_constraints
    assert estimate.num_public_inputs == circuit.constraint_system.num_public
    return circuit, estimate


class TestFlatModels:
    def test_mlp_first_layer(self):
        rng = np.random.default_rng(1)
        model = Sequential([Dense(10, 8, rng=rng), ReLU(), Dense(8, 4, rng=rng)])
        keys = _keys(model, 10, embed_layer=1)
        assert_estimate_exact(model, keys, CircuitConfig(theta=1.0, fixed_point=FMT))

    def test_mlp_deep_layer(self):
        rng = np.random.default_rng(2)
        model = Sequential(
            [Dense(8, 8, rng=rng), ReLU(), Dense(8, 6, rng=rng), ReLU()]
        )
        keys = _keys(model, 8, embed_layer=3)
        assert_estimate_exact(model, keys, CircuitConfig(theta=1.0, fixed_point=FMT))

    def test_sigmoid_activation(self):
        rng = np.random.default_rng(3)
        model = Sequential([Dense(6, 6, rng=rng), Sigmoid()])
        keys = _keys(model, 6, embed_layer=1)
        assert_estimate_exact(model, keys, CircuitConfig(theta=1.0, fixed_point=FMT))

    def test_more_triggers_and_bits(self):
        rng = np.random.default_rng(4)
        model = Sequential([Dense(8, 8, rng=rng), ReLU()])
        keys = _keys(model, 8, embed_layer=1, wm_bits=8, triggers=5)
        assert_estimate_exact(model, keys, CircuitConfig(theta=0.5, fixed_point=FMT))


class TestSpatialModels:
    def test_cnn_first_conv(self):
        rng = np.random.default_rng(5)
        model = Sequential([Conv2D(2, 3, kernel=3, stride=2, rng=rng), ReLU()])
        keys = _keys(model, (2, 7, 7), embed_layer=1)
        assert_estimate_exact(model, keys, CircuitConfig(theta=1.0, fixed_point=FMT))

    def test_cnn_through_pool_and_dense(self):
        rng = np.random.default_rng(6)
        model = Sequential(
            [
                Conv2D(1, 2, kernel=2, stride=1, rng=rng),
                ReLU(),
                MaxPool2D(2, 1),
                Flatten(),
                Dense(2 * 3 * 3, 4, rng=rng),
                ReLU(),
            ]
        )
        keys = _keys(model, (1, 5, 5), embed_layer=5)
        assert_estimate_exact(model, keys, CircuitConfig(theta=1.0, fixed_point=FMT))


class TestEstimateProperties:
    def test_vk_size_formula(self, watermarked_mlp):
        """The VK byte estimate matches a real setup's key."""
        from repro.snark import setup

        model, keys, _ = watermarked_mlp
        config = CircuitConfig(
            theta=0.0, fixed_point=FixedPointFormat(frac_bits=14, total_bits=40)
        )
        estimate = estimate_extraction_cost(model, keys, config)
        circuit = build_extraction_circuit(model, keys, config)
        keypair = setup(circuit.constraint_system, seed=3)
        # to_bytes adds a 4-byte length prefix for the IC vector.
        assert keypair.verifying_key.size_bytes() == estimate.estimated_vk_bytes + 4

    def test_proof_size_always_128(self):
        estimate = CircuitCostEstimate(1, 1)
        assert estimate.estimated_proof_bytes == 128

    def test_unsupported_layer_raises(self):
        model = Sequential([Dense(4, 4), MaxPool2D(2, 1)])
        keys = _keys(model, 4, embed_layer=0)
        keys_bad = WatermarkKeys(
            embed_layer=1,
            target_class=0,
            trigger_inputs=np.zeros((1, 4)),
            projection=np.zeros((4, 2)),
            signature=np.zeros(2, dtype=np.int64),
        )
        with pytest.raises(TypeError):
            estimate_extraction_cost(model, keys_bad, CircuitConfig(fixed_point=FMT))
