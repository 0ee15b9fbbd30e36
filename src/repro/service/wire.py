"""The service wire protocol: canonical binary frames.

Everything that crosses the proof service's trust boundary travels in one
frame format::

    magic "ZKRW" | u8 version | u8 msg type | u32 payload length
    | payload | u32 CRC-32 (over version..payload)

Frames are length-prefixed (a stream reader knows exactly how many bytes
to take), versioned (decoders reject frames from a future protocol), and
checksummed (bit flips are rejected before any payload parsing).  Payload
encodings are *canonical* -- one byte string per value, so encode/decode
round trips are byte-exact and content addresses
(:meth:`~repro.zkrownn.artifacts.OwnershipClaim.content_id`) are stable
across processes.

Cryptographic payloads reuse the repo's existing encoders rather than
inventing new ones: proofs and verifying keys serialize through
:mod:`repro.snark.keys` (which uses the compressed point encodings of
:mod:`repro.curves.serialize`), and constraint systems -- when they
travel for audits -- through :mod:`repro.snark.serialize`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU, Sigmoid
from ..nn.model import Sequential
from ..circuit.fixedpoint import FixedPointFormat
from ..snark.errors import MalformedProof
from ..snark.keys import Proof, VerifyingKey
from ..watermark.keys import WatermarkKeys
from ..zkrownn.artifacts import ClaimFormatError, OwnershipClaim
from ..zkrownn.circuit import CircuitConfig
from . import faults

__all__ = [
    "MSG_CLAIM",
    "MSG_CLAIM_REQUEST",
    "MSG_MODEL",
    "MSG_PERSISTED_REQUEST",
    "MSG_PROOF",
    "MSG_VERIFYING_KEY",
    "MSG_VERIFY_BATCH_REQUEST",
    "MSG_VERIFY_BATCH_RESULT",
    "WIRE_VERSION",
    "BatchClaimVerdict",
    "BatchGroupVerdict",
    "ClaimRequest",
    "PersistedRequest",
    "VerifyBatchRequest",
    "VerifyBatchResult",
    "WireFormatError",
    "decode_claim",
    "decode_claim_request",
    "decode_frame",
    "decode_model",
    "decode_persisted_request",
    "decode_proof",
    "decode_verify_batch_request",
    "decode_verify_batch_result",
    "decode_verifying_key",
    "encode_claim",
    "encode_claim_request",
    "encode_frame",
    "encode_model",
    "encode_persisted_request",
    "encode_proof",
    "encode_verify_batch_request",
    "encode_verify_batch_result",
    "encode_verifying_key",
    "parse_verifying_key",
]

_MAGIC = b"ZKRW"
WIRE_VERSION = 1

MSG_CLAIM_REQUEST = 1
MSG_CLAIM = 2
MSG_VERIFYING_KEY = 3
MSG_PROOF = 4
MSG_MODEL = 5
MSG_PERSISTED_REQUEST = 6
MSG_VERIFY_BATCH_REQUEST = 7
MSG_VERIFY_BATCH_RESULT = 8

_HEADER = struct.Struct(">4sBBI")
_CRC = struct.Struct(">I")


class WireFormatError(ValueError):
    """Raised on malformed, corrupted, or foreign wire bytes."""


# -- frame layer ---------------------------------------------------------------


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    """Wrap a payload in a versioned, checksummed frame."""
    header = _HEADER.pack(_MAGIC, WIRE_VERSION, msg_type, len(payload))
    crc = zlib.crc32(header[4:] + payload) & 0xFFFFFFFF
    return header + payload + _CRC.pack(crc)


def decode_frame(
    data: bytes, expected_type: Optional[int] = None
) -> Tuple[int, bytes]:
    """Unwrap a frame; returns ``(msg_type, payload)``.

    Rejects bad magic, future versions, truncation, trailing bytes, and
    checksum mismatches -- all as :class:`WireFormatError`, before any
    payload bytes are interpreted.
    """
    plan = faults.active_plan()
    if plan is not None:
        data = plan.mutate("wire.decode", data)
    if len(data) < _HEADER.size + _CRC.size:
        raise WireFormatError(f"frame truncated at {len(data)} bytes")
    magic, version, msg_type, length = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise WireFormatError("not a ZKRW frame (bad magic)")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}")
    expected_len = _HEADER.size + length + _CRC.size
    if len(data) != expected_len:
        raise WireFormatError(
            f"frame is {len(data)} bytes, header declares {expected_len}"
        )
    payload = data[_HEADER.size : _HEADER.size + length]
    (crc,) = _CRC.unpack_from(data, _HEADER.size + length)
    if zlib.crc32(data[4 : _HEADER.size + length]) & 0xFFFFFFFF != crc:
        raise WireFormatError("frame checksum mismatch (corrupted bytes)")
    if expected_type is not None and msg_type != expected_type:
        raise WireFormatError(
            f"expected message type {expected_type}, frame carries {msg_type}"
        )
    return msg_type, payload


# -- primitive codecs ----------------------------------------------------------

_DTYPE_CODES = {"f": (1, ">f8"), "i": (2, ">i8"), "b": (3, "|b1"), "u": (2, ">i8")}
_CODE_DTYPES = {1: ">f8", 2: ">i8", 3: "|b1"}


def _pack_array(arr: np.ndarray) -> bytes:
    """Canonical ndarray encoding: dtype code, shape, big-endian data."""
    kind = arr.dtype.kind
    if kind not in _DTYPE_CODES:
        raise WireFormatError(f"unsupported array dtype {arr.dtype}")
    code, wire_dtype = _DTYPE_CODES[kind]
    data = np.ascontiguousarray(arr).astype(wire_dtype).tobytes()
    return (
        struct.pack(">BB", code, arr.ndim)
        + struct.pack(f">{arr.ndim}I", *arr.shape)
        + struct.pack(">I", len(data))
        + data
    )


def _unpack_array(data: bytes, offset: int) -> Tuple[np.ndarray, int]:
    try:
        code, ndim = struct.unpack_from(">BB", data, offset)
        offset += 2
        shape = struct.unpack_from(f">{ndim}I", data, offset)
        offset += 4 * ndim
        (nbytes,) = struct.unpack_from(">I", data, offset)
        offset += 4
        raw = data[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise WireFormatError("array data truncated")
        offset += nbytes
        wire_dtype = _CODE_DTYPES[code]
    except (struct.error, KeyError) as exc:
        raise WireFormatError(f"malformed array encoding: {exc}") from exc
    arr = np.frombuffer(raw, dtype=wire_dtype).reshape(shape)
    # Native byte order for downstream numpy work.
    native = {1: np.float64, 2: np.int64, 3: np.bool_}[code]
    return arr.astype(native), offset


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def _unpack_str(data: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from(">H", data, offset)
    offset += 2
    raw = data[offset : offset + length]
    if len(raw) != length:
        raise WireFormatError("string truncated")
    return raw.decode("utf-8"), offset + length


def _pack_opt_int(value: Optional[int]) -> bytes:
    """Optional arbitrary-size integer (seeds): presence byte + length."""
    if value is None:
        return b"\x00"
    sign = 1 if value >= 0 else 2
    raw = abs(value).to_bytes((abs(value).bit_length() + 7) // 8 or 1, "big")
    return struct.pack(">BH", sign, len(raw)) + raw


def _unpack_opt_int(data: bytes, offset: int) -> Tuple[Optional[int], int]:
    (flag,) = struct.unpack_from(">B", data, offset)
    offset += 1
    if flag == 0:
        return None, offset
    if flag not in (1, 2):
        raise WireFormatError(f"bad optional-int flag {flag}")
    (length,) = struct.unpack_from(">H", data, offset)
    offset += 2
    raw = data[offset : offset + length]
    if len(raw) != length:
        raise WireFormatError("optional int truncated")
    value = int.from_bytes(raw, "big")
    return (value if flag == 1 else -value), offset + length


# -- model codec ---------------------------------------------------------------

_LAYER_DENSE = 1
_LAYER_RELU = 2
_LAYER_SIGMOID = 3
_LAYER_FLATTEN = 4
_LAYER_CONV2D = 5
_LAYER_MAXPOOL2D = 6


def _pack_model(model: Sequential) -> bytes:
    """Architecture + weights, canonically -- unlike the ``.npz``
    checkpoint convention (weights only, architecture is code), a service
    request must carry both."""
    parts = [_pack_str(model.name), struct.pack(">H", len(model.layers))]
    for layer in model.layers:
        if isinstance(layer, Dense):
            parts.append(struct.pack(">BII", _LAYER_DENSE,
                                     layer.in_features, layer.out_features))
            parts.append(_pack_array(layer.params["W"]))
            parts.append(_pack_array(layer.params["b"]))
        elif isinstance(layer, ReLU):
            parts.append(struct.pack(">B", _LAYER_RELU))
        elif isinstance(layer, Sigmoid):
            parts.append(struct.pack(">B", _LAYER_SIGMOID))
        elif isinstance(layer, Flatten):
            parts.append(struct.pack(">B", _LAYER_FLATTEN))
        elif isinstance(layer, Conv2D):
            parts.append(struct.pack(
                ">BIIII", _LAYER_CONV2D, layer.in_channels,
                layer.out_channels, layer.kernel, layer.stride,
            ))
            parts.append(_pack_array(layer.params["W"]))
            parts.append(_pack_array(layer.params["b"]))
        elif isinstance(layer, MaxPool2D):
            parts.append(struct.pack(">BII", _LAYER_MAXPOOL2D,
                                     layer.pool, layer.stride))
        else:
            raise WireFormatError(
                f"layer type {type(layer).__name__} has no wire encoding"
            )
    return b"".join(parts)


def _unpack_model(data: bytes, offset: int) -> Tuple[Sequential, int]:
    name, offset = _unpack_str(data, offset)
    (num_layers,) = struct.unpack_from(">H", data, offset)
    offset += 2
    rng = np.random.default_rng(0)  # weights are overwritten below
    layers: List[Layer] = []
    for _ in range(num_layers):
        (code,) = struct.unpack_from(">B", data, offset)
        offset += 1
        if code == _LAYER_DENSE:
            in_f, out_f = struct.unpack_from(">II", data, offset)
            offset += 8
            layer = Dense(in_f, out_f, rng=rng)
            layer.params["W"], offset = _unpack_array(data, offset)
            layer.params["b"], offset = _unpack_array(data, offset)
        elif code == _LAYER_RELU:
            layer = ReLU()
        elif code == _LAYER_SIGMOID:
            layer = Sigmoid()
        elif code == _LAYER_FLATTEN:
            layer = Flatten()
        elif code == _LAYER_CONV2D:
            in_c, out_c, kernel, stride = struct.unpack_from(">IIII", data, offset)
            offset += 16
            layer = Conv2D(in_c, out_c, kernel, stride, rng=rng)
            layer.params["W"], offset = _unpack_array(data, offset)
            layer.params["b"], offset = _unpack_array(data, offset)
        elif code == _LAYER_MAXPOOL2D:
            pool, stride = struct.unpack_from(">II", data, offset)
            offset += 8
            layer = MaxPool2D(pool, stride)
        else:
            raise WireFormatError(f"unknown layer code {code}")
        layers.append(layer)
    return Sequential(layers, name=name), offset


def encode_model(model: Sequential) -> bytes:
    return encode_frame(MSG_MODEL, _pack_model(model))


def decode_model(frame: bytes) -> Sequential:
    _, payload = decode_frame(frame, MSG_MODEL)
    try:
        model, offset = _unpack_model(payload, 0)
    except (struct.error, ValueError) as exc:
        raise WireFormatError(f"malformed model payload: {exc}") from exc
    if offset != len(payload):
        raise WireFormatError("trailing bytes after model payload")
    return model


# -- watermark keys + circuit config ------------------------------------------


def _pack_keys(keys: WatermarkKeys) -> bytes:
    return (
        struct.pack(">II", keys.embed_layer, keys.target_class)
        + _pack_array(keys.trigger_inputs)
        + _pack_array(keys.projection)
        + _pack_array(keys.signature)
    )


def _unpack_keys(data: bytes, offset: int) -> Tuple[WatermarkKeys, int]:
    embed_layer, target_class = struct.unpack_from(">II", data, offset)
    offset += 8
    triggers, offset = _unpack_array(data, offset)
    projection, offset = _unpack_array(data, offset)
    signature, offset = _unpack_array(data, offset)
    keys = WatermarkKeys(
        embed_layer=embed_layer,
        target_class=target_class,
        trigger_inputs=triggers,
        projection=projection,
        signature=signature,
    )
    keys.validate()
    return keys, offset


def _pack_config(config: CircuitConfig) -> bytes:
    # The trailing byte is "weights are public inputs", which they always
    # are: a claim whose instance names no model is one no verifier accepts.
    return struct.pack(
        ">dHHHB",
        config.theta,
        config.fixed_point.frac_bits,
        config.fixed_point.total_bits,
        config.sigmoid_degree,
        1,
    )


def _unpack_config(data: bytes, offset: int) -> Tuple[CircuitConfig, int]:
    theta, frac, total, sigmoid, public = struct.unpack_from(">dHHHB", data, offset)
    if public != 1:
        raise WireFormatError(
            f"circuit config with private weights (flag {public}) is not "
            "supported: the model weights must be public inputs"
        )
    config = CircuitConfig(
        theta=theta,
        fixed_point=FixedPointFormat(frac_bits=frac, total_bits=total),
        sigmoid_degree=sigmoid,
    )
    return config, offset + struct.calcsize(">dHHHB")


# -- claim request -------------------------------------------------------------


@dataclass
class ClaimRequest:
    """Everything a claimant ships to the proof service.

    ``priority`` orders the scheduler queue (higher first).  ``seed`` /
    ``setup_seed`` exist for reproducible runs and tests -- a production
    deployment omits both and takes fresh entropy (and shared setups per
    circuit shape).
    """

    model: Sequential
    keys: WatermarkKeys
    config: CircuitConfig = field(default_factory=CircuitConfig)
    priority: int = 0
    seed: Optional[int] = None
    setup_seed: Optional[int] = None


def _pack_claim_request(request: ClaimRequest) -> bytes:
    if not -128 <= request.priority <= 127:
        raise WireFormatError(
            f"priority {request.priority} outside the wire range [-128, 127]"
        )
    return (
        _pack_model(request.model)
        + _pack_keys(request.keys)
        + _pack_config(request.config)
        + struct.pack(">b", request.priority)
        + _pack_opt_int(request.seed)
        + _pack_opt_int(request.setup_seed)
    )


def _unpack_claim_request(payload: bytes, offset: int) -> Tuple[ClaimRequest, int]:
    try:
        model, offset = _unpack_model(payload, offset)
        keys, offset = _unpack_keys(payload, offset)
        config, offset = _unpack_config(payload, offset)
        (priority,) = struct.unpack_from(">b", payload, offset)
        offset += 1
        seed, offset = _unpack_opt_int(payload, offset)
        setup_seed, offset = _unpack_opt_int(payload, offset)
    except (struct.error, ValueError) as exc:
        if isinstance(exc, WireFormatError):
            raise
        raise WireFormatError(f"malformed claim request: {exc}") from exc
    request = ClaimRequest(
        model=model,
        keys=keys,
        config=config,
        priority=priority,
        seed=seed,
        setup_seed=setup_seed,
    )
    return request, offset


def encode_claim_request(request: ClaimRequest) -> bytes:
    return encode_frame(MSG_CLAIM_REQUEST, _pack_claim_request(request))


def decode_claim_request(frame: bytes) -> ClaimRequest:
    _, payload = decode_frame(frame, MSG_CLAIM_REQUEST)
    request, offset = _unpack_claim_request(payload, 0)
    if offset != len(payload):
        raise WireFormatError("trailing bytes after claim request")
    return request


# -- persisted request ---------------------------------------------------------


@dataclass
class PersistedRequest:
    """A claim request as the registry stores it for restart recovery.

    The full canonical frame -- model, watermark keys, circuit config,
    priority, seeds -- bound to the content-addressed ``claim_id`` it was
    registered under, so a restarted service can re-enqueue still-queued
    claims without resubmission and detect a frame filed under the wrong
    record.  Watermark keys are prover secrets: these frames live in the
    registry's permission-gated ``requests/`` directory (mode 0600) and
    are discarded once the claim reaches a terminal state.
    """

    claim_id: str
    request: ClaimRequest


def encode_persisted_request(claim_id: str, request: ClaimRequest) -> bytes:
    payload = _pack_str(claim_id) + _pack_claim_request(request)
    return encode_frame(MSG_PERSISTED_REQUEST, payload)


def decode_persisted_request(frame: bytes) -> PersistedRequest:
    _, payload = decode_frame(frame, MSG_PERSISTED_REQUEST)
    try:
        claim_id, offset = _unpack_str(payload, 0)
    except (struct.error, ValueError) as exc:
        if isinstance(exc, WireFormatError):
            raise
        raise WireFormatError(f"malformed persisted request: {exc}") from exc
    request, offset = _unpack_claim_request(payload, offset)
    if offset != len(payload):
        raise WireFormatError("trailing bytes after persisted request")
    return PersistedRequest(claim_id=claim_id, request=request)


# -- claims, proofs, verifying keys -------------------------------------------


def encode_claim(claim: OwnershipClaim) -> bytes:
    return encode_frame(MSG_CLAIM, claim.to_bytes())


def decode_claim(frame: bytes) -> OwnershipClaim:
    _, payload = decode_frame(frame, MSG_CLAIM)
    try:
        return OwnershipClaim.from_bytes(payload)
    except ClaimFormatError as exc:
        raise WireFormatError(str(exc)) from exc


def encode_proof(proof: Proof) -> bytes:
    return encode_frame(MSG_PROOF, proof.to_bytes())


def decode_proof(frame: bytes) -> Proof:
    _, payload = decode_frame(frame, MSG_PROOF)
    try:
        return Proof.from_bytes(payload)
    except (ValueError, MalformedProof) as exc:
        raise WireFormatError(str(exc)) from exc


def encode_verifying_key(vk: VerifyingKey) -> bytes:
    return encode_frame(MSG_VERIFYING_KEY, vk.to_bytes())


def parse_verifying_key(payload: bytes) -> VerifyingKey:
    """Canonical key bytes (a frame payload, a registry file) to a key."""
    try:
        return VerifyingKey.from_bytes(payload)
    except (ValueError, struct.error, IndexError) as exc:
        raise WireFormatError(f"malformed verifying key: {exc}") from exc


def decode_verifying_key(frame: bytes) -> VerifyingKey:
    _, payload = decode_frame(frame, MSG_VERIFYING_KEY)
    return parse_verifying_key(payload)


# -- batch verification --------------------------------------------------------


@dataclass
class VerifyBatchRequest:
    """An audit request: verify these registered claims, batched by key.

    ``seed`` derandomizes the batch combiner for reproducible audits and
    tests; production audits omit it and take fresh entropy.
    """

    claim_ids: List[str]
    seed: Optional[int] = None


@dataclass
class BatchClaimVerdict:
    """One claim's outcome inside a batch audit.

    ``status`` follows HTTP semantics per claim: 200 verified (see
    ``accepted``), 400 the stored proof was malformed, 404 unknown claim,
    409 the claim is not in a verifiable state (still queued, failed, or
    revoked).
    """

    claim_id: str
    accepted: bool
    reason: str
    status: int = 200


@dataclass
class BatchGroupVerdict:
    """One verification-key group's batched pairing-check outcome."""

    circuit_digest: str
    claim_ids: List[str]
    accepted: bool
    seconds: float


@dataclass
class VerifyBatchResult:
    """The service's answer to a :class:`VerifyBatchRequest`."""

    verdicts: List[BatchClaimVerdict]
    groups: List[BatchGroupVerdict]


def _pack_verify_batch_request(request: VerifyBatchRequest) -> bytes:
    parts = [struct.pack(">I", len(request.claim_ids))]
    parts.extend(_pack_str(claim_id) for claim_id in request.claim_ids)
    parts.append(_pack_opt_int(request.seed))
    return b"".join(parts)


def _unpack_verify_batch_request(
    payload: bytes, offset: int
) -> Tuple[VerifyBatchRequest, int]:
    try:
        (count,) = struct.unpack_from(">I", payload, offset)
        offset += 4
        claim_ids = []
        for _ in range(count):
            claim_id, offset = _unpack_str(payload, offset)
            claim_ids.append(claim_id)
        seed, offset = _unpack_opt_int(payload, offset)
    except (struct.error, ValueError) as exc:
        if isinstance(exc, WireFormatError):
            raise
        raise WireFormatError(f"malformed batch verify request: {exc}") from exc
    return VerifyBatchRequest(claim_ids=claim_ids, seed=seed), offset


def encode_verify_batch_request(request: VerifyBatchRequest) -> bytes:
    return encode_frame(MSG_VERIFY_BATCH_REQUEST, _pack_verify_batch_request(request))


def decode_verify_batch_request(frame: bytes) -> VerifyBatchRequest:
    _, payload = decode_frame(frame, MSG_VERIFY_BATCH_REQUEST)
    request, offset = _unpack_verify_batch_request(payload, 0)
    if offset != len(payload):
        raise WireFormatError("trailing bytes after batch verify request")
    return request


def _pack_verify_batch_result(result: VerifyBatchResult) -> bytes:
    parts = [struct.pack(">I", len(result.verdicts))]
    for verdict in result.verdicts:
        parts.append(_pack_str(verdict.claim_id))
        parts.append(struct.pack(">BH", 1 if verdict.accepted else 0, verdict.status))
        parts.append(_pack_str(verdict.reason))
    parts.append(struct.pack(">I", len(result.groups)))
    for group in result.groups:
        parts.append(_pack_str(group.circuit_digest))
        parts.append(struct.pack(">I", len(group.claim_ids)))
        parts.extend(_pack_str(claim_id) for claim_id in group.claim_ids)
        parts.append(struct.pack(">Bd", 1 if group.accepted else 0, group.seconds))
    return b"".join(parts)


def _unpack_verify_batch_result(
    payload: bytes, offset: int
) -> Tuple[VerifyBatchResult, int]:
    try:
        (num_verdicts,) = struct.unpack_from(">I", payload, offset)
        offset += 4
        verdicts = []
        for _ in range(num_verdicts):
            claim_id, offset = _unpack_str(payload, offset)
            accepted, status = struct.unpack_from(">BH", payload, offset)
            offset += 3
            reason, offset = _unpack_str(payload, offset)
            verdicts.append(
                BatchClaimVerdict(
                    claim_id=claim_id,
                    accepted=bool(accepted),
                    reason=reason,
                    status=status,
                )
            )
        (num_groups,) = struct.unpack_from(">I", payload, offset)
        offset += 4
        groups = []
        for _ in range(num_groups):
            digest, offset = _unpack_str(payload, offset)
            (num_ids,) = struct.unpack_from(">I", payload, offset)
            offset += 4
            claim_ids = []
            for _ in range(num_ids):
                claim_id, offset = _unpack_str(payload, offset)
                claim_ids.append(claim_id)
            accepted, seconds = struct.unpack_from(">Bd", payload, offset)
            offset += 9
            groups.append(
                BatchGroupVerdict(
                    circuit_digest=digest,
                    claim_ids=claim_ids,
                    accepted=bool(accepted),
                    seconds=seconds,
                )
            )
    except (struct.error, ValueError) as exc:
        if isinstance(exc, WireFormatError):
            raise
        raise WireFormatError(f"malformed batch verify result: {exc}") from exc
    return VerifyBatchResult(verdicts=verdicts, groups=groups), offset


def encode_verify_batch_result(result: VerifyBatchResult) -> bytes:
    return encode_frame(MSG_VERIFY_BATCH_RESULT, _pack_verify_batch_result(result))


def decode_verify_batch_result(frame: bytes) -> VerifyBatchResult:
    _, payload = decode_frame(frame, MSG_VERIFY_BATCH_RESULT)
    result, offset = _unpack_verify_batch_result(payload, 0)
    if offset != len(payload):
        raise WireFormatError("trailing bytes after batch verify result")
    return result
