"""Compressed point serialization for G1 and G2.

Sizes match the libsnark/ZCash-style encodings the paper's byte counts come
from: 32 bytes per G1 point, 64 per G2 point, so a Groth16 proof
(G1 + G2 + G1) serializes to 128 bytes -- the paper reports 127.375 B.

Encoding: big-endian x-coordinate with two flag bits stored in the most
significant byte (BN254 coordinates are 254-bit, leaving the top two bits of
a 32-byte buffer free):

* bit 7 (0x80): point at infinity (rest of the buffer is zero);
* bit 6 (0x40): the y-coordinate is the lexicographically larger root.
"""

from __future__ import annotations

from ..field.prime import BN254_P as P
from ..field.prime import tonelli_shanks
from ..field.tower import Fp2Element
from .bn254 import CURVE_B, TWIST_B
from .g1 import G1Point
from .g2 import G2Point

__all__ = [
    "G1_COMPRESSED_BYTES",
    "G2_COMPRESSED_BYTES",
    "g1_to_bytes",
    "g1_from_bytes",
    "g2_to_bytes",
    "g2_from_bytes",
]

G1_COMPRESSED_BYTES = 32
G2_COMPRESSED_BYTES = 64

_FLAG_INFINITY = 0x80
_FLAG_Y_LARGER = 0x40


class PointDecodingError(ValueError):
    """Raised when bytes do not decode to a valid curve point."""


def _is_larger_root(y: int) -> bool:
    return y > P - y


def g1_to_bytes(point: G1Point) -> bytes:
    """Compress a G1 point to 32 bytes."""
    if point.is_infinity():
        return bytes([_FLAG_INFINITY]) + bytes(31)
    buf = bytearray(point.x.to_bytes(32, "big"))
    if _is_larger_root(point.y):
        buf[0] |= _FLAG_Y_LARGER
    return bytes(buf)


def g1_from_bytes(data: bytes) -> G1Point:
    """Decompress a G1 point; validates curve membership."""
    if len(data) != G1_COMPRESSED_BYTES:
        raise PointDecodingError(f"G1 point must be {G1_COMPRESSED_BYTES} bytes")
    flags = data[0] & 0xC0
    if flags & _FLAG_INFINITY:
        if any(data[1:]) or data[0] != _FLAG_INFINITY:
            raise PointDecodingError("malformed infinity encoding")
        return G1Point.infinity()
    x = int.from_bytes(bytes([data[0] & 0x3F]) + data[1:], "big")
    if x >= P:
        raise PointDecodingError("x-coordinate out of range")
    y2 = (x * x * x + CURVE_B) % P
    y = tonelli_shanks(y2, P)
    if y is None:
        raise PointDecodingError("x-coordinate is not on the curve")
    if bool(flags & _FLAG_Y_LARGER) != _is_larger_root(y):
        y = P - y
    return G1Point(x, y)


def _fp2_sqrt(a: Fp2Element) -> Fp2Element:
    """Square root in Fp2 via the complex method; raises if no root exists.

    Uses the norm map: for a = a0 + a1 u, solve with sqrt(norm) in Fp.
    """
    if a.is_zero():
        return a
    a0, a1 = a.c0, a.c1
    if a1 == 0:
        root = tonelli_shanks(a0, P)
        if root is not None:
            return Fp2Element(root, 0)
        # sqrt(a0) = sqrt(-a0) * sqrt(-1) = sqrt(-a0) * u
        root = tonelli_shanks(-a0 % P, P)
        if root is None:
            raise PointDecodingError("Fp2 element has no square root")
        return Fp2Element(0, root)
    norm = (a0 * a0 + a1 * a1) % P
    n = tonelli_shanks(norm, P)
    if n is None:
        raise PointDecodingError("Fp2 element has no square root")
    inv2 = pow(2, -1, P)
    for sign in (1, -1):
        x0_sq = (a0 + sign * n) * inv2 % P
        x0 = tonelli_shanks(x0_sq, P)
        if x0 is None or x0 == 0:
            continue
        x1 = a1 * pow(2 * x0, -1, P) % P
        candidate = Fp2Element(x0, x1)
        if candidate.square() == a:
            return candidate
    raise PointDecodingError("Fp2 element has no square root")


def _fp2_is_larger(y: Fp2Element) -> bool:
    """Lexicographic comparison (c1, then c0) against the negation."""
    neg = -y
    if y.c1 != neg.c1:
        return y.c1 > neg.c1
    return y.c0 > neg.c0


def g2_to_bytes(point: G2Point) -> bytes:
    """Compress a G2 point to 64 bytes (x.c1 || x.c0, flags in first byte)."""
    if point.is_infinity():
        return bytes([_FLAG_INFINITY]) + bytes(63)
    buf = bytearray(
        int(point.x.c1).to_bytes(32, "big") + int(point.x.c0).to_bytes(32, "big")
    )
    if _fp2_is_larger(point.y):
        buf[0] |= _FLAG_Y_LARGER
    return bytes(buf)


def g2_from_bytes(data: bytes) -> G2Point:
    """Decompress a G2 point; validates the twist-curve equation.

    Order-r membership is not checked here: callers holding an untrusted
    point ask :meth:`~repro.curves.g2.G2Point.in_subgroup` (as
    ``Proof.validate_points`` does).
    """
    if len(data) != G2_COMPRESSED_BYTES:
        raise PointDecodingError(f"G2 point must be {G2_COMPRESSED_BYTES} bytes")
    flags = data[0] & 0xC0
    if flags & _FLAG_INFINITY:
        if any(data[1:]) or data[0] != _FLAG_INFINITY:
            raise PointDecodingError("malformed infinity encoding")
        return G2Point.infinity()
    c1 = int.from_bytes(bytes([data[0] & 0x3F]) + data[1:32], "big")
    c0 = int.from_bytes(data[32:], "big")
    if c0 >= P or c1 >= P:
        raise PointDecodingError("x-coordinate out of range")
    x = Fp2Element(c0, c1)
    y2 = x.square() * x + TWIST_B
    y = _fp2_sqrt(y2)
    if bool(flags & _FLAG_Y_LARGER) != _fp2_is_larger(y):
        y = -y
    point = G2Point(x, y)
    if not point.is_on_curve():
        raise PointDecodingError("decoded point not on twist curve")
    return point
