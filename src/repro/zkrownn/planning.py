"""Pre-setup planning for extraction circuits: cost estimates and cache keys.

The Groth16 trusted setup is the expensive, coordinated step of the
protocol (per Table I: minutes of compute and hundreds of MB of proving
key at paper scale).  Before asking a setup party to run a ceremony, a
model owner wants to know what the circuit for *their* model will cost.

:func:`estimate_extraction_cost` walks a model's layers with the same
logic as :func:`repro.zkrownn.circuit.build_extraction_circuit`, but
evaluates the analytic cost formulas instead of allocating wires --
O(layers) instead of O(constraints).  The estimate is exact (asserted
against real builds in ``tests/test_zkrownn_planning.py``).

:func:`extraction_structure_key` condenses the same shape walk into the
:class:`~repro.engine.engine.ProvingEngine` cache key: everything that
determines the circuit *structure* (architecture up to the embedding
layer, trigger/watermark shape, circuit config) without any weight or key
values, so the key is O(layers) to compute and stable across models of
one shape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple


from ..bench.cost_model import GadgetCosts
from ..nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sigmoid
from ..nn.model import Sequential
from ..watermark.keys import WatermarkKeys
from .circuit import CircuitConfig, _model_weights_in_order

__all__ = [
    "CircuitCostEstimate",
    "estimate_extraction_cost",
    "extraction_structure_key",
]


@dataclass(frozen=True)
class CircuitCostEstimate:
    """Predicted size of an extraction circuit."""

    num_constraints: int
    num_public_inputs: int

    @property
    def estimated_vk_bytes(self) -> int:
        """VK = alpha + 3 G2 points + (public inputs + 1) IC points."""
        return 32 + 3 * 64 + 32 * (self.num_public_inputs + 1)

    @property
    def estimated_proof_bytes(self) -> int:
        return 128  # always


def _flat_feedforward_cost(
    costs: GadgetCosts, layers, current_dim: int
) -> Tuple[int, int]:
    """(constraints, output feature dim) for a flat layer stack."""
    total = 0
    for layer in layers:
        if isinstance(layer, Dense):
            total += costs.dense(layer.out_features, layer.in_features)
            current_dim = layer.out_features
        elif isinstance(layer, ReLU):
            total += costs.relu_vector(current_dim)
        elif isinstance(layer, Sigmoid):
            total += costs.sigmoid_vector(current_dim)
        elif isinstance(layer, Flatten):
            continue
        else:
            raise TypeError(
                f"unsupported layer for flat feedforward: {type(layer).__name__}"
            )
    return total, current_dim


def _spatial_feedforward_cost(
    costs: GadgetCosts, layers, shape: Tuple[int, int, int]
) -> Tuple[int, int]:
    """(constraints, flattened output dim) for a conv layer stack."""
    channels, height, width = shape
    total = 0
    flat_dim: Optional[int] = None
    for layer in layers:
        if isinstance(layer, Conv2D):
            total += costs.conv3d(
                channels, height, width, layer.out_channels, layer.kernel,
                layer.stride,
            )
            height = (height - layer.kernel) // layer.stride + 1
            width = (width - layer.kernel) // layer.stride + 1
            channels = layer.out_channels
        elif isinstance(layer, MaxPool2D):
            total += costs.maxpool2d(
                channels, height, width, layer.pool, layer.stride
            )
            height = (height - layer.pool) // layer.stride + 1
            width = (width - layer.pool) // layer.stride + 1
        elif isinstance(layer, ReLU):
            dim = flat_dim if flat_dim is not None else channels * height * width
            total += costs.relu_vector(dim)
        elif isinstance(layer, Sigmoid):
            dim = flat_dim if flat_dim is not None else channels * height * width
            total += costs.sigmoid_vector(dim)
        elif isinstance(layer, Flatten):
            flat_dim = channels * height * width
        elif isinstance(layer, Dense):
            if flat_dim is None:
                flat_dim = channels * height * width
            total += costs.dense(layer.out_features, layer.in_features)
            flat_dim = layer.out_features
        else:
            raise TypeError(
                f"unsupported layer for spatial feedforward: "
                f"{type(layer).__name__}"
            )
    if flat_dim is None:
        flat_dim = channels * height * width
    return total, flat_dim


def extraction_structure_key(
    model: Sequential,
    keys: WatermarkKeys,
    config: Optional[CircuitConfig] = None,
) -> str:
    """Shape key for the proving-engine caches, cheap to compute.

    Two (model, keys, config) triples with the same key synthesize the
    same gadget trace, so they share a compiled circuit and Groth16
    keypair; the engine double-checks via the structure digest after the
    first full build.  Conservatively includes every
    :class:`CircuitConfig` field -- ``theta`` only moves a public-input
    *value*, but a changed config should read as a changed circuit.
    """
    config = config or CircuitConfig()
    h = hashlib.sha256()
    h.update(b"zkrownn-extraction|v1|")
    for i, layer in enumerate(model.layers[: keys.embed_layer + 1]):
        h.update(f"{i}:{type(layer).__name__}".encode())
        for name in sorted(layer.params):
            h.update(f":{name}{tuple(layer.params[name].shape)}".encode())
        for attr in ("stride", "pool", "kernel"):
            if hasattr(layer, attr):
                h.update(f":{attr}={getattr(layer, attr)}".encode())
        h.update(b";")
    h.update(
        f"triggers={tuple(keys.trigger_inputs.shape)}"
        f"|proj={tuple(keys.projection.shape)}"
        f"|bits={keys.num_bits}|layer={keys.embed_layer}".encode()
    )
    h.update(
        f"|theta={config.theta}|frac={config.fixed_point.frac_bits}"
        f"|total={config.fixed_point.total_bits}"
        f"|sigmoid={config.sigmoid_degree}"
        # The weights are always public inputs; the field stays in the
        # key so structure keys (and the keys cached under them) are
        # stable across versions.
        "|public=True".encode()
    )
    return h.hexdigest()


def estimate_extraction_cost(
    model: Sequential,
    keys: WatermarkKeys,
    config: Optional[CircuitConfig] = None,
) -> CircuitCostEstimate:
    """Predict the exact size of ``build_extraction_circuit``'s output.

    Walks layers ``0..keys.embed_layer`` with the validated cost model;
    matches the real builder constraint-for-constraint.
    """
    config = config or CircuitConfig()
    costs = GadgetCosts(config.fixed_point)
    layers = model.layers[: keys.embed_layer + 1]
    spatial = keys.trigger_inputs.ndim == 4

    if spatial:
        shape = tuple(keys.trigger_inputs.shape[1:])
        per_trigger, feature_dim = _spatial_feedforward_cost(costs, layers, shape)
    else:
        input_dim = int(keys.trigger_inputs.shape[1])
        per_trigger, feature_dim = _flat_feedforward_cost(costs, layers, input_dim)

    total = keys.num_triggers * per_trigger
    total += costs.average_rows(keys.num_triggers, feature_dim)
    total += keys.num_bits * costs.inner_product(feature_dim)  # mu @ A
    total += costs.sigmoid_vector(keys.num_bits, config.sigmoid_degree)
    total += costs.hard_threshold_vector(keys.num_bits)
    total += keys.num_bits + 1  # wm booleanity + output binding
    total += costs.ber(keys.num_bits)

    num_weights = sum(
        arr.size for _, arr in _model_weights_in_order(model, keys.embed_layer)
    )
    return CircuitCostEstimate(
        num_constraints=total,
        num_public_inputs=2 + num_weights,  # valid + budget + weights
    )
