"""Finite-field arithmetic for the BN254 pairing stack.

Public surface:

* :class:`~repro.field.prime.PrimeField` / :class:`~repro.field.prime.FieldElement`
  with the concrete fields :data:`Fp` (base) and :data:`Fr` (scalar).
* The pairing tower :class:`Fp2Element`, :class:`Fp6Element`,
  :class:`Fp12Element`.
* NTT utilities (:class:`EvaluationDomain`).

Every kernel works on canonical ``int`` residues with ``%`` and ``pow``;
there is no field-arithmetic backend to choose.
"""

from .prime import (
    BN254_P,
    BN254_R,
    BN254_X,
    FieldElement,
    Fp,
    Fr,
    PrimeField,
    batch_inverse,
    tonelli_shanks,
)
from .tower import FROB_GAMMA, XI, Fp2Element, Fp6Element, Fp12Element
from .ntt import EvaluationDomain, intt, next_power_of_two, ntt

__all__ = [
    "BN254_P",
    "BN254_R",
    "BN254_X",
    "FieldElement",
    "Fp",
    "Fr",
    "PrimeField",
    "batch_inverse",
    "tonelli_shanks",
    "FROB_GAMMA",
    "XI",
    "Fp2Element",
    "Fp6Element",
    "Fp12Element",
    "EvaluationDomain",
    "intt",
    "next_power_of_two",
    "ntt",
]
