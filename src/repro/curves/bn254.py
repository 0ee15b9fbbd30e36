"""BN254 ("alt_bn128") curve parameters.

This is the curve libsnark calls BN128 and the paper uses for its Groth16
proofs ("the BN128 elliptic curve, which provides 128 bits of security").

* G1:  y^2 = x^3 + 3           over Fp
* G2:  y^2 = x^3 + 3/xi        over Fp2  (D-type sextic twist, xi = 9 + u)
* r:   prime order of both subgroups (= the scalar field modulus)

The module self-checks at import: the trace identity holds and both
generators lie on their curves; that the G2 generator also has order r is
checked where the subgroup test lives, at import of :mod:`repro.curves.g2`.
A corrupted constant cannot survive ``import repro``.
"""

from __future__ import annotations

from ..field.prime import BN254_P as P
from ..field.prime import BN254_R as R
from ..field.prime import BN254_X as X
from ..field.tower import XI, Fp2Element

__all__ = [
    "P",
    "R",
    "X",
    "CURVE_B",
    "TWIST_B",
    "G1_GENERATOR",
    "G2_GENERATOR",
    "G2_COFACTOR",
    "ATE_LOOP_COUNT",
    "OPTIMAL_ATE_LOOP_COUNT",
]

#: G1 curve coefficient: y^2 = x^3 + 3.
CURVE_B = 3

#: G2 twist coefficient b' = b / xi (D-type twist).
TWIST_B = Fp2Element.from_int(CURVE_B) * XI.inverse()

#: Standard G1 generator.
G1_GENERATOR = (1, 2)

#: Standard G2 generator (the one used by libsnark / EIP-197).
G2_GENERATOR = (
    Fp2Element(
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    Fp2Element(
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)

#: Cofactor of the order-r subgroup of the twist curve: h2 = 2p - r for BN.
G2_COFACTOR = 2 * P - R

#: Plain Ate pairing Miller-loop count: t - 1 = 6x^2 (t = trace of Frobenius).
ATE_LOOP_COUNT = 6 * X * X

#: Optimal Ate Miller-loop count: 6x + 2.
OPTIMAL_ATE_LOOP_COUNT = 6 * X + 2


def _check_parameters() -> None:
    # Trace identity: p + 1 - #E(Fp) = t and #E(Fp) = r for BN curves.
    t = 6 * X * X + 1
    if P + 1 - t != R:
        raise AssertionError("BN254 parameter mismatch: p + 1 - t != r")
    gx, gy = G1_GENERATOR
    if (gy * gy - gx * gx * gx - CURVE_B) % P != 0:
        raise AssertionError("G1 generator is not on the curve")
    qx, qy = G2_GENERATOR
    if qy.square() - (qx.square() * qx + TWIST_B) != Fp2Element.zero():
        raise AssertionError("G2 generator is not on the twist curve")


_check_parameters()
