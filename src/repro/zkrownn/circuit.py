"""The end-to-end ZKROWNN watermark-extraction circuit (Algorithm 1).

    Public values:  model M, target BER theta
    Private input:  trigger keys X_key, B-bit watermark wm,
                    projection matrix A, embedded layer l_wm
    Circuit:
        check = 1
        zkFeedForward(M) on input X_key until layer l_wm
        extract activation maps a at layer l_wm
        mu    = zkAverage(a)
        G     = zkSigmoid(mu x A)
        wm^   = zkHardThresholding(G, 0.5)
        valid = zkBER(wm, wm^, theta)
        return check AND valid

Composition of the gadget library over the layers of a
:class:`~repro.nn.model.Sequential` model.  The model weights are *public
inputs* (the verifier independently encodes the claimed-stolen model M'
into the instance, so a prover cannot substitute a different network); the
trigger keys, watermark, and projection stay private, which is the entire
point of the paper.

The embedding layer is private in the sense that the circuit does not
reveal *why* the feedforward stops where it does; its depth is visible in
the circuit structure (as in the paper, where the circuit is fixed per
model and "the watermark is embedded in a specific layer, which is only
known to the original model owner" -- the proven statement fixes one
layer without revealing which semantic layer of the watermark scheme).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.builder import CircuitBuilder, PublicOutput
from ..circuit.fixedpoint import FixedPointFormat
from ..circuit.wire import Wire
from ..engine.compiled import CompiledCircuit, SynthesisResult, resynthesize
from ..gadgets.activation import zk_relu_vector, zk_sigmoid_vector
from ..gadgets.ber import mismatch_budget
from ..gadgets.conv import WireTensor3, zk_conv3d
from ..gadgets.linalg import zk_average_rows, zk_dense
from ..gadgets.pooling import zk_maxpool2d
from ..gadgets.threshold import zk_hard_threshold_vector
from ..nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sigmoid
from ..nn.model import Sequential
from ..watermark.keys import WatermarkKeys

__all__ = ["CircuitConfig", "ExtractionCircuit", "ExtractionOutputs",
           "build_extraction_circuit", "extraction_synthesizer",
           "public_inputs_for", "resynthesize_extraction_witness"]

DEFAULT_EXTRACTION_FORMAT = FixedPointFormat(frac_bits=16, total_bits=48)


@dataclass(frozen=True)
class CircuitConfig:
    """Build-time parameters of the extraction circuit."""

    theta: float = 0.0
    fixed_point: FixedPointFormat = DEFAULT_EXTRACTION_FORMAT
    sigmoid_degree: int = 9


@dataclass
class ExtractionCircuit:
    """A synthesized Algorithm-1 circuit with its witness."""

    builder: CircuitBuilder
    config: CircuitConfig
    valid_output: PublicOutput
    num_weights: int
    extracted_bits: List[int] = field(default_factory=list)

    @property
    def constraint_system(self):
        return self.builder.cs

    @property
    def assignment(self) -> List[int]:
        return self.builder.assignment

    @property
    def public_inputs(self) -> List[int]:
        return self.builder.public_values()

    @property
    def valid(self) -> bool:
        return self.builder.assignment[self.valid_output.index] == 1


def _model_weights_in_order(
    model: Sequential, upto_layer: int
) -> List[Tuple[str, np.ndarray]]:
    """Deterministic (name, array) list of public weight tensors."""
    out: List[Tuple[str, np.ndarray]] = []
    for i, layer in enumerate(model.layers[: upto_layer + 1]):
        for name in sorted(layer.params):
            out.append((f"layer{i}.{name}", layer.params[name]))
    return out


def public_inputs_for(
    model: Sequential,
    theta: float,
    wm_bits: int,
    upto_layer: int,
    config: Optional[CircuitConfig] = None,
) -> List[int]:
    """The public-instance vector a verifier derives independently.

    Layout (must match :func:`build_extraction_circuit` exactly):
    ``[valid=1] ++ [mismatch budget] ++ encode(weights of layers 0..l_wm)``.
    The verifier encodes the *claimed* model themselves -- the prover never
    supplies the instance.
    """
    config = config or CircuitConfig(theta=theta)
    fmt = config.fixed_point
    values: List[int] = [1, mismatch_budget(wm_bits, theta)]
    for _, weights in _model_weights_in_order(model, upto_layer):
        values.extend(fmt.encode_array(weights))
    return values


def _feedforward_flat(
    builder: CircuitBuilder,
    fmt: FixedPointFormat,
    layers: Sequence,
    weight_wires: dict,
    x: List[Wire],
) -> List[Wire]:
    """Feed a flat wire vector through dense/ReLU/sigmoid layers.

    Sigmoid activations use the same Chebyshev circuit as the extraction
    head -- the paper's "we provide the capability of using sigmoid, at
    the cost of potentially lower model accuracy".
    """
    for i, layer in enumerate(layers):
        if isinstance(layer, Dense):
            w, b = weight_wires[i]
            x = zk_dense(builder, fmt, x, w, b)
        elif isinstance(layer, ReLU):
            x = zk_relu_vector(builder, fmt, x)
        elif isinstance(layer, Sigmoid):
            x = zk_sigmoid_vector(builder, fmt, x)
        elif isinstance(layer, Flatten):
            continue
        else:
            raise TypeError(
                f"unsupported layer for flat feedforward: {type(layer).__name__}"
            )
    return x


def _feedforward_spatial(
    builder: CircuitBuilder,
    fmt: FixedPointFormat,
    layers: Sequence,
    weight_wires: dict,
    x: WireTensor3,
) -> List[Wire]:
    """Feed a C x H x W wire tensor through conv/pool/ReLU/dense layers."""
    flat: Optional[List[Wire]] = None
    for i, layer in enumerate(layers):
        if isinstance(layer, Conv2D):
            if flat is not None:
                raise TypeError("convolution after flatten is unsupported")
            kernels, bias = weight_wires[i]
            x = zk_conv3d(builder, fmt, x, kernels, bias, stride=layer.stride)
        elif isinstance(layer, MaxPool2D):
            x = zk_maxpool2d(builder, fmt, x, layer.pool, layer.stride)
        elif isinstance(layer, ReLU):
            if flat is None:
                x = [
                    [zk_relu_vector(builder, fmt, row) for row in channel]
                    for channel in x
                ]
            else:
                flat = zk_relu_vector(builder, fmt, flat)
        elif isinstance(layer, Flatten):
            flat = [w for channel in x for row in channel for w in row]
        elif isinstance(layer, Dense):
            if flat is None:
                flat = [w for channel in x for row in channel for w in row]
            w, b = weight_wires[i]
            flat = zk_dense(builder, fmt, flat, w, b)
        else:
            raise TypeError(
                f"unsupported layer for spatial feedforward: {type(layer).__name__}"
            )
    if flat is None:
        flat = [w for channel in x for row in channel for w in row]
    return flat


def _allocate_weight_wires(
    builder: CircuitBuilder,
    fmt: FixedPointFormat,
    model: Sequential,
    upto_layer: int,
) -> dict:
    """Allocate a public input wire for every weight.

    Returns ``{layer_index: (W wires, b wires)}`` with W as a nested list
    matching the layer type (matrix for Dense, 4-D for Conv2D).
    Allocation order must match :func:`public_inputs_for`.
    """
    alloc = builder.public_input
    wires: dict = {}
    for i, layer in enumerate(model.layers[: upto_layer + 1]):
        if isinstance(layer, Dense):
            w_arr = layer.params["W"]
            b_arr = layer.params["b"]
            w = [
                [
                    alloc(f"layer{i}.W[{r},{c}]", fmt.encode(float(w_arr[r, c])))
                    for c in range(w_arr.shape[1])
                ]
                for r in range(w_arr.shape[0])
            ]
            b = [
                alloc(f"layer{i}.b[{r}]", fmt.encode(float(b_arr[r])))
                for r in range(b_arr.shape[0])
            ]
            wires[i] = (w, b)
        elif isinstance(layer, Conv2D):
            w_arr = layer.params["W"]
            b_arr = layer.params["b"]
            w = [
                [
                    [
                        [
                            alloc(
                                f"layer{i}.W[{o},{c},{u},{v}]",
                                fmt.encode(float(w_arr[o, c, u, v])),
                            )
                            for v in range(w_arr.shape[3])
                        ]
                        for u in range(w_arr.shape[2])
                    ]
                    for c in range(w_arr.shape[1])
                ]
                for o in range(w_arr.shape[0])
            ]
            b = [
                alloc(f"layer{i}.b[{o}]", fmt.encode(float(b_arr[o])))
                for o in range(b_arr.shape[0])
            ]
            wires[i] = (w, b)
    return wires


@dataclass(frozen=True)
class ExtractionOutputs:
    """What one synthesis pass of Algorithm 1 yields beyond the witness."""

    valid_output: PublicOutput
    extracted_bits: List[int]
    num_weights: int


def _synthesize_extraction(
    builder: CircuitBuilder,
    model: Sequential,
    keys: WatermarkKeys,
    config: CircuitConfig,
) -> ExtractionOutputs:
    """Drive Algorithm 1 through a builder (full build or witness replay).

    This is the single definition of the extraction circuit's gadget
    trace; ``builder`` decides the pipeline stage.  A
    :class:`~repro.circuit.builder.CircuitBuilder` records constraints and
    witness (the compile stage); a
    :class:`~repro.circuit.trace.WitnessSynthesizer` replays the recorded
    trace with this call's input values only (the synthesize stage).
    """
    fmt = config.fixed_point
    keys.validate()
    layers = model.layers[: keys.embed_layer + 1]

    # -- public phase: output placeholder, BER budget, model weights.
    valid_out = builder.public_output("valid")
    budget_wire = builder.public_input(
        "ber_budget", mismatch_budget(keys.num_bits, config.theta)
    )
    weight_wires = _allocate_weight_wires(builder, fmt, model, keys.embed_layer)

    # -- private phase: Algorithm 1's private inputs.
    trigger_wires: List[List[Wire]] = []
    spatial = keys.trigger_inputs.ndim == 4  # (T, C, H, W)
    for t in range(keys.num_triggers):
        trig = keys.trigger_inputs[t]
        if spatial:
            channels, height, width = trig.shape
            tensor = [
                [
                    [
                        builder.private_input(
                            f"xkey{t}[{c},{i},{j}]", fmt.encode(float(trig[c, i, j]))
                        )
                        for j in range(width)
                    ]
                    for i in range(height)
                ]
                for c in range(channels)
            ]
            trigger_wires.append(tensor)  # type: ignore[arg-type]
        else:
            trigger_wires.append(
                [
                    builder.private_input(f"xkey{t}[{k}]", fmt.encode(float(v)))
                    for k, v in enumerate(trig)
                ]
            )
    # The watermark signature is the owner's *input*, not a hint the
    # circuit derives -- private_bit records that provenance so the
    # auditor's determinism pass treats it as the prover's free choice.
    wm_bits = [
        builder.private_bit(f"wm[{j}]", int(b)) for j, b in enumerate(keys.signature)
    ]
    # Projection matrix A, stored transposed: rows of A^T are per-bit vectors.
    proj_t = [
        [
            builder.private_input(
                f"A[{r},{j}]", fmt.encode(float(keys.projection[r, j]))
            )
            for r in range(keys.feature_dim)
        ]
        for j in range(keys.num_bits)
    ]

    # -- zkFeedForward per trigger, collecting activation maps at l_wm.
    activation_rows: List[List[Wire]] = []
    for t in range(keys.num_triggers):
        if spatial:
            acts = _feedforward_spatial(
                builder, fmt, layers, weight_wires, trigger_wires[t]
            )
        else:
            acts = _feedforward_flat(
                builder, fmt, layers, weight_wires, trigger_wires[t]
            )
        activation_rows.append(acts)

    # -- mu = zkAverage(a)
    mu = zk_average_rows(builder, fmt, activation_rows)

    # -- G = zkSigmoid(mu x A)
    projected = [
        fmt.inner_product(builder, mu, proj_t[j]) for j in range(keys.num_bits)
    ]
    g = zk_sigmoid_vector(builder, fmt, projected, degree=config.sigmoid_degree)

    # -- wm^ = zkHardThresholding(G, 0.5)
    extracted = zk_hard_threshold_vector(builder, fmt, g, beta=0.5)

    # -- valid_BER = zkBER(wm, wm^, theta), with the budget a public input.
    mismatches = builder.zero()
    for wm_bit, ex_bit in zip(wm_bits, extracted):
        mismatches = mismatches + builder.xor_(wm_bit, ex_bit)
    count_bits = max(keys.num_bits.bit_length() + 1, 2)
    valid_ber = builder.greater_equal(budget_wire, mismatches, count_bits)

    # -- return check AND valid (check == 1 when synthesis succeeded).
    check = builder.one()
    result = builder.and_(valid_ber, check)
    builder.bind_output(valid_out, result)

    return ExtractionOutputs(
        valid_output=valid_out,
        extracted_bits=[w.value for w in extracted],
        num_weights=sum(
            arr.size for _, arr in _model_weights_in_order(model, keys.embed_layer)
        ),
    )


def build_extraction_circuit(
    model: Sequential,
    keys: WatermarkKeys,
    config: Optional[CircuitConfig] = None,
) -> ExtractionCircuit:
    """Synthesize Algorithm 1 for a model + owner keys (full build).

    The circuit is fixed by (architecture up to l_wm, trigger count,
    watermark width, theta); re-synthesizing with different key *values*
    reuses existing Groth16 keys (same structure digest).  Repeat proofs
    should go through :class:`~repro.engine.engine.ProvingEngine`, which
    replaces this full build with a witness-only trace replay.
    """
    config = config or CircuitConfig()
    builder = CircuitBuilder("zkrownn-extraction")
    outputs = _synthesize_extraction(builder, model, keys, config)
    return ExtractionCircuit(
        builder=builder,
        config=config,
        valid_output=outputs.valid_output,
        num_weights=outputs.num_weights,
        extracted_bits=outputs.extracted_bits,
    )


def extraction_synthesizer(
    model: Sequential,
    keys: WatermarkKeys,
    config: Optional[CircuitConfig] = None,
):
    """Algorithm 1 as a synthesis function for the proving engine.

    Returns a closure over (model, keys, config) suitable for
    :meth:`ProvingEngine.synthesize` /:meth:`ProvingEngine.prove_job`;
    its auxiliary result is an :class:`ExtractionOutputs`.
    """
    resolved = config or CircuitConfig()

    def synthesize(builder: CircuitBuilder) -> ExtractionOutputs:
        return _synthesize_extraction(builder, model, keys, resolved)

    return synthesize


def resynthesize_extraction_witness(
    compiled: CompiledCircuit,
    model: Sequential,
    keys: WatermarkKeys,
    config: Optional[CircuitConfig] = None,
) -> SynthesisResult:
    """Witness-only pass: new input values over an already-compiled circuit.

    Raises :class:`~repro.circuit.trace.TraceDivergence` if (model, keys)
    do not match the compiled shape.
    """
    return resynthesize(compiled, extraction_synthesizer(model, keys, config))
