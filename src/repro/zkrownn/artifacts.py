"""Serializable protocol artifacts: claims and proof bundles.

What actually travels between the parties of Figure 1:

* the trusted-setup party publishes the verification key (and hands the
  proving key to the prover);
* the prover publishes an :class:`OwnershipClaim` -- proof bytes plus the
  public parameters a verifier needs to reconstruct the instance (theta,
  watermark width, embedding depth, and a commitment to the model);
* any verifier combines claim + model + VK and checks.

Byte sizes of these artifacts are the communication numbers reported in
the Table I reproduction.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Union

import numpy as np

from ..nn.model import Sequential
from ..snark.keys import Proof

__all__ = ["ClaimFormatError", "OwnershipClaim", "model_digest"]


class ClaimFormatError(ValueError):
    """Raised on malformed ownership-claim bytes."""


def model_digest(model: Sequential, upto_layer: int) -> str:
    """SHA-256 over the public weight tensors of layers ``0..upto_layer``.

    Binds a claim to one specific model: the verifier recomputes this from
    the model they were handed and rejects mismatched claims early, before
    any pairing work.
    """
    h = hashlib.sha256()
    for i, layer in enumerate(model.layers[: upto_layer + 1]):
        for name in sorted(layer.params):
            arr = np.ascontiguousarray(layer.params[name], dtype=np.float64)
            h.update(f"{i}:{name}:{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class OwnershipClaim:
    """A prover's public ownership assertion for a model."""

    proof_bytes: bytes
    theta: float
    wm_bits: int
    embed_layer: int
    model_sha256: str
    frac_bits: int
    total_bits: int
    sigmoid_degree: int = 9

    @property
    def proof(self) -> Proof:
        return Proof.from_bytes(self.proof_bytes)

    def size_bytes(self) -> int:
        """Bytes a verifier must receive beyond the (public) model + VK: the
        canonical binary form (:meth:`to_bytes`) that the wire, the registry
        and :func:`content_id` use, not the hex JSON file form."""
        return len(self.to_bytes())

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        data = asdict(self)
        data["proof_bytes"] = self.proof_bytes.hex()
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(payload: str) -> "OwnershipClaim":
        data = json.loads(payload)
        data["proof_bytes"] = bytes.fromhex(data["proof_bytes"])
        return OwnershipClaim(**data)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @staticmethod
    def load(path: Union[str, Path]) -> "OwnershipClaim":
        return OwnershipClaim.from_json(Path(path).read_text())

    # -- canonical binary form (the service wire protocol's payload) ---------

    def to_bytes(self) -> bytes:
        """Canonical binary encoding: byte-exact round trip, no JSON float
        or key-order ambiguity.  The proof keeps its compressed-point
        encoding from :mod:`repro.curves.serialize`; the model digest
        travels as raw 32 bytes.  This is what the service registry stores
        and what :func:`content_id` below hashes.
        """
        try:
            digest = bytes.fromhex(self.model_sha256)
        except ValueError as exc:
            raise ClaimFormatError(f"model digest is not hex: {exc}") from exc
        if len(digest) != 32:
            raise ClaimFormatError("model digest must be 32 bytes of hex")
        return (
            struct.pack(">I", len(self.proof_bytes))
            + self.proof_bytes
            + struct.pack(
                ">dII32sHHH",
                self.theta,
                self.wm_bits,
                self.embed_layer,
                digest,
                self.frac_bits,
                self.total_bits,
                self.sigmoid_degree,
            )
        )

    @staticmethod
    def from_bytes(data: bytes) -> "OwnershipClaim":
        if len(data) < 4:
            raise ClaimFormatError("claim blob truncated before proof length")
        (proof_len,) = struct.unpack_from(">I", data, 0)
        tail = struct.calcsize(">dII32sHHH")
        if len(data) != 4 + proof_len + tail:
            raise ClaimFormatError(
                f"claim blob is {len(data)} bytes, expected {4 + proof_len + tail}"
            )
        proof_bytes = data[4 : 4 + proof_len]
        theta, wm_bits, embed_layer, digest, frac, total, sigmoid = (
            struct.unpack_from(">dII32sHHH", data, 4 + proof_len)
        )
        return OwnershipClaim(
            proof_bytes=proof_bytes,
            theta=theta,
            wm_bits=wm_bits,
            embed_layer=embed_layer,
            model_sha256=digest.hex(),
            frac_bits=frac,
            total_bits=total,
            sigmoid_degree=sigmoid,
        )

    def content_id(self) -> str:
        """SHA-256 of the canonical bytes: the claim's content address."""
        return hashlib.sha256(self.to_bytes()).hexdigest()
