"""Finite-field arithmetic for the BN254 pairing stack.

Public surface:

* :class:`~repro.field.prime.PrimeField` / :class:`~repro.field.prime.FieldElement`
  with the concrete fields :data:`Fp` (base) and :data:`Fr` (scalar).
* The pairing tower :class:`Fp2Element`, :class:`Fp6Element`,
  :class:`Fp12Element`.
* NTT utilities (:class:`EvaluationDomain`) and dense :class:`Polynomial`.
"""

from .backend import (
    FIELD_BACKEND_ENV,
    FieldOps,
    Gmpy2FieldOps,
    PythonFieldOps,
    active_field_backend,
    available_field_backends,
    get_field_ops,
    gmpy2_available,
    resolve_field_backend,
    set_field_backend,
)
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
from .poly import Polynomial

__all__ = [
    "FIELD_BACKEND_ENV",
    "FieldOps",
    "Gmpy2FieldOps",
    "PythonFieldOps",
    "active_field_backend",
    "available_field_backends",
    "get_field_ops",
    "gmpy2_available",
    "resolve_field_backend",
    "set_field_backend",
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
    "Polynomial",
]
