"""BN254 elliptic-curve groups, MSM, pairing, and point serialization.

This package is the Python stand-in for libsnark's ``alt_bn128`` backend:
:class:`G1Point`/:class:`G2Point` groups of prime order r, Pippenger and
fixed-base multi-scalar multiplication, and the (optimal-)Ate pairing into
Fp12 that Groth16 verification is built on.
"""

from .bn254 import (
    ATE_LOOP_COUNT,
    CURVE_B,
    G1_GENERATOR,
    G2_COFACTOR,
    G2_GENERATOR,
    OPTIMAL_ATE_LOOP_COUNT,
    TWIST_B,
)
from .g1 import G1Point
from .g2 import G2Point, psi
from .glv import GLV_BETA, GLV_LAMBDA, glv_decompose, glv_endomorphism
from .msm import (
    FixedBaseTableG1,
    FixedBaseTableG2,
    msm_g1,
    msm_g2,
    naive_msm_g1,
    naive_msm_g2,
)
from .pairing import final_exponentiation, multi_pairing, pairing, pairing_check
from .serialize import (
    G1_COMPRESSED_BYTES,
    G2_COMPRESSED_BYTES,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
)

__all__ = [
    "ATE_LOOP_COUNT",
    "CURVE_B",
    "G1_GENERATOR",
    "G2_COFACTOR",
    "G2_GENERATOR",
    "OPTIMAL_ATE_LOOP_COUNT",
    "TWIST_B",
    "G1Point",
    "G2Point",
    "psi",
    "GLV_BETA",
    "GLV_LAMBDA",
    "glv_decompose",
    "glv_endomorphism",
    "FixedBaseTableG1",
    "FixedBaseTableG2",
    "msm_g1",
    "msm_g2",
    "naive_msm_g1",
    "naive_msm_g2",
    "final_exponentiation",
    "multi_pairing",
    "pairing",
    "pairing_check",
    "G1_COMPRESSED_BYTES",
    "G2_COMPRESSED_BYTES",
    "g1_from_bytes",
    "g1_to_bytes",
    "g2_from_bytes",
    "g2_to_bytes",
]
