"""Groth16 key and proof containers with byte serialization.

The paper's Table I reports proving-key size (MB), verification-key size
(KB) and proof size (B); these classes provide the exact byte encodings
those columns are measured from in this reproduction:

* proof: ``A (G1) || B (G2) || C (G1)`` compressed = 32 + 64 + 32 = 128 B
  (the paper reports 127.375 B for libsnark's encoding -- same 2xG1 + 1xG2
  structure, marginally different framing);
* verification key: 1 G1 + 3 G2 + (num_public + 1) G1 IC points, so it
  grows linearly with the public input exactly as Section IV observes;
* proving key: all five query vectors, linear in circuit size.

Serialized vectors are length-prefixed with 4-byte big-endian counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

from ..curves.g1 import G1Point
from ..curves.g2 import G2Point
from ..curves.serialize import (
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
)
from .errors import MalformedProof

__all__ = ["Proof", "VerifyingKey", "ProvingKey"]


def _pack_g1_list(points: List[G1Point]) -> bytes:
    return struct.pack(">I", len(points)) + b"".join(g1_to_bytes(p) for p in points)


def _unpack_g1_list(data: bytes, offset: int) -> Tuple[List[G1Point], int]:
    (count,) = struct.unpack_from(">I", data, offset)
    offset += 4
    points = []
    for _ in range(count):
        points.append(g1_from_bytes(data[offset : offset + 32]))
        offset += 32
    return points, offset


def _pack_g2_list(points: List[G2Point]) -> bytes:
    return struct.pack(">I", len(points)) + b"".join(g2_to_bytes(p) for p in points)


def _unpack_g2_list(data: bytes, offset: int) -> Tuple[List[G2Point], int]:
    (count,) = struct.unpack_from(">I", data, offset)
    offset += 4
    points = []
    for _ in range(count):
        points.append(g2_from_bytes(data[offset : offset + 64]))
        offset += 64
    return points, offset


@dataclass(frozen=True)
class Proof:
    """A Groth16 proof: two G1 points and one G2 point."""

    a: G1Point
    b: G2Point
    c: G1Point

    SERIALIZED_BYTES = 32 + 64 + 32

    def to_bytes(self) -> bytes:
        return g1_to_bytes(self.a) + g2_to_bytes(self.b) + g1_to_bytes(self.c)

    @staticmethod
    def from_bytes(data: bytes) -> "Proof":
        if len(data) != Proof.SERIALIZED_BYTES:
            raise MalformedProof(
                f"proof must be {Proof.SERIALIZED_BYTES} bytes, got {len(data)}"
            )
        try:
            a = g1_from_bytes(data[0:32])
            b = g2_from_bytes(data[32:96])
            c = g1_from_bytes(data[96:128])
        except ValueError as exc:
            raise MalformedProof(str(exc)) from exc
        return Proof(a, b, c)

    def validate_points(self) -> None:
        """Curve/subgroup membership checks (cheap prover-cheating guard)."""
        if not (self.a.is_on_curve() and self.c.is_on_curve()):
            raise MalformedProof("proof G1 point not on curve")
        if self.a.is_infinity() or self.c.is_infinity():
            raise MalformedProof("proof G1 point is the identity")
        if not self.b.is_on_curve():
            raise MalformedProof("proof G2 point not on curve")
        if self.b.is_infinity():
            raise MalformedProof("proof G2 point is the identity")
        if not self.b.in_subgroup():
            raise MalformedProof("proof G2 point outside the order-r subgroup")

    def size_bytes(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class VerifyingKey:
    """Everything a third-party verifier needs.

    ``ic`` has one point per public input plus one for the constant ONE;
    its length is what makes large-public-input circuits (the MLP with its
    model weights public) pay in VK size and verification time.
    """

    alpha_g1: G1Point
    beta_g2: G2Point
    gamma_g2: G2Point
    delta_g2: G2Point
    ic: List[G1Point] = field(default_factory=list)

    @property
    def num_public_inputs(self) -> int:
        return len(self.ic) - 1

    def check_nondegenerate(self) -> None:
        """Raise ``ValueError`` if alpha, beta, gamma or delta is the identity.

        Such a point's pairing factor is 1 whatever the proof says, so the
        verification equation loses a term and becomes forgeable.  ``ic``
        points may legitimately be the identity.
        """
        for name in ("alpha_g1", "beta_g2", "gamma_g2", "delta_g2"):
            if getattr(self, name).is_infinity():
                raise ValueError(
                    f"degenerate verifying key: {name} is the identity"
                )

    def to_bytes(self) -> bytes:
        return (
            g1_to_bytes(self.alpha_g1)
            + g2_to_bytes(self.beta_g2)
            + g2_to_bytes(self.gamma_g2)
            + g2_to_bytes(self.delta_g2)
            + _pack_g1_list(self.ic)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "VerifyingKey":
        alpha = g1_from_bytes(data[0:32])
        beta = g2_from_bytes(data[32:96])
        gamma = g2_from_bytes(data[96:160])
        delta = g2_from_bytes(data[160:224])
        ic, _ = _unpack_g1_list(data, 224)
        vk = VerifyingKey(alpha, beta, gamma, delta, ic)
        vk.check_nondegenerate()
        return vk

    def size_bytes(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class ProvingKey:
    """The prover's CRS slice: per-variable query vectors.

    * ``a_query[j] = [u_j(tau)]_1``
    * ``b_g1_query[j] = [v_j(tau)]_1`` and ``b_g2_query[j] = [v_j(tau)]_2``
    * ``k_query[j] = [(beta u_j + alpha v_j + w_j)/delta]_1`` for private j
    * ``h_query[i] = [tau^i t(tau)/delta]_1``
    """

    alpha_g1: G1Point
    beta_g1: G1Point
    beta_g2: G2Point
    delta_g1: G1Point
    delta_g2: G2Point
    a_query: List[G1Point]
    b_g1_query: List[G1Point]
    b_g2_query: List[G2Point]
    k_query: List[G1Point]
    h_query: List[G1Point]
    num_public: int

    def to_bytes(self) -> bytes:
        return (
            g1_to_bytes(self.alpha_g1)
            + g1_to_bytes(self.beta_g1)
            + g2_to_bytes(self.beta_g2)
            + g1_to_bytes(self.delta_g1)
            + g2_to_bytes(self.delta_g2)
            + struct.pack(">I", self.num_public)
            + _pack_g1_list(self.a_query)
            + _pack_g1_list(self.b_g1_query)
            + _pack_g2_list(self.b_g2_query)
            + _pack_g1_list(self.k_query)
            + _pack_g1_list(self.h_query)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "ProvingKey":
        alpha_g1 = g1_from_bytes(data[0:32])
        beta_g1 = g1_from_bytes(data[32:64])
        beta_g2 = g2_from_bytes(data[64:128])
        delta_g1 = g1_from_bytes(data[128:160])
        delta_g2 = g2_from_bytes(data[160:224])
        (num_public,) = struct.unpack_from(">I", data, 224)
        offset = 228
        a_query, offset = _unpack_g1_list(data, offset)
        b_g1_query, offset = _unpack_g1_list(data, offset)
        b_g2_query, offset = _unpack_g2_list(data, offset)
        k_query, offset = _unpack_g1_list(data, offset)
        h_query, offset = _unpack_g1_list(data, offset)
        return ProvingKey(
            alpha_g1,
            beta_g1,
            beta_g2,
            delta_g1,
            delta_g2,
            a_query,
            b_g1_query,
            b_g2_query,
            k_query,
            h_query,
            num_public,
        )

    def size_bytes(self) -> int:
        return len(self.to_bytes())
