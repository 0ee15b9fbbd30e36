"""Rank-1 Constraint Systems.

The circuit representation Groth16 consumes: a list of constraints

    <A_k, z> * <B_k, z> = <C_k, z>

over a variable vector ``z`` whose entry 0 is the constant ONE, entries
``1..num_public`` are the public instance, and the remainder is the private
witness.  Linear combinations are sparse ``{variable_index: coefficient}``
dictionaries with coefficients in Fr.

This module is deliberately value-free: it stores structure only.  Witness
*synthesis* lives in :mod:`repro.circuit.builder`, which builds a
:class:`ConstraintSystem` and an assignment side by side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..field.prime import BN254_R as R
from .errors import UnsatisfiedWitness

__all__ = [
    "LinearCombination",
    "Constraint",
    "ConstraintSystem",
    "ONE_INDEX",
    "VARIABLE_KINDS",
]

#: Index of the constant-one variable.
ONE_INDEX = 0

#: Allocation kinds a variable can carry (provenance for the circuit
#: auditor).  ``unknown`` marks variables restored from a serialization
#: format that predates provenance.
VARIABLE_KINDS = ("one", "public", "output", "private", "hint", "mul", "unknown")


class LinearCombination:
    """A sparse linear combination of variables with Fr coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[int, int]] = None):
        self.terms: Dict[int, int] = {}
        if terms:
            for idx, coeff in terms.items():
                c = coeff % R
                if c:
                    self.terms[idx] = c

    @staticmethod
    def variable(index: int, coeff: int = 1) -> "LinearCombination":
        return LinearCombination({index: coeff})

    @staticmethod
    def constant(value: int) -> "LinearCombination":
        return LinearCombination({ONE_INDEX: value})

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        out = dict(self.terms)
        for idx, coeff in other.terms.items():
            new = (out.get(idx, 0) + coeff) % R
            if new:
                out[idx] = new
            else:
                out.pop(idx, None)
        result = LinearCombination()
        result.terms = out
        return result

    def __sub__(self, other: "LinearCombination") -> "LinearCombination":
        return self + other.scale(R - 1)

    def scale(self, k: int) -> "LinearCombination":
        k %= R
        result = LinearCombination()
        if k:
            result.terms = {i: c * k % R for i, c in self.terms.items()}
        return result

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Inner product with a full variable assignment."""
        total = 0
        for idx, coeff in self.terms.items():
            total += coeff * assignment[idx]
        return total % R

    def is_zero(self) -> bool:
        return not self.terms

    def as_single_variable(self) -> Optional[int]:
        """If this LC is exactly ``1 * v_i``, return ``i``; else ``None``."""
        if len(self.terms) == 1:
            idx, coeff = next(iter(self.terms.items()))
            if coeff == 1:
                return idx
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCombination) and self.terms == other.terms

    def __repr__(self) -> str:
        parts = [f"{c}*v{i}" for i, c in sorted(self.terms.items())]
        return "LC(" + " + ".join(parts or ["0"]) + ")"


Constraint = Tuple[LinearCombination, LinearCombination, LinearCombination]


class ConstraintSystem:
    """An R1CS instance: variables, public-input count, and constraints.

    Variable layout (Groth16 convention):

    * index 0: the constant ONE,
    * indices ``1 .. num_public``: public instance variables,
    * the rest: private witness variables.

    Public variables must all be allocated before any private variable so
    the instance occupies a contiguous prefix.
    """

    def __init__(self):
        self.num_variables = 1  # the constant ONE
        self.num_public = 0
        self.constraints: List[Constraint] = []
        self.variable_names: List[str] = ["~one"]
        #: Per-variable allocation kind (see :data:`VARIABLE_KINDS`) --
        #: provenance the circuit auditor needs to tell a semantic input
        #: (the prover's free choice) from a hint that must be pinned down.
        self.variable_kinds: List[str] = ["one"]
        #: Per-variable allocation site (gadget scope path; debugging aid).
        self.variable_sites: List[str] = [""]
        #: ``(variable, site)`` pairs recorded where a boolean-consuming
        #: gadget (``and_``/``or_``/``xor_``/``select``/``not_``) used the
        #: variable.  The auditor checks each has a booleanity constraint.
        self.expected_boolean: List[Tuple[int, str]] = []
        self._private_started = False

    # -- allocation ------------------------------------------------------------

    def allocate_public(
        self, name: str = "", *, kind: str = "public", site: str = ""
    ) -> int:
        if self._private_started:
            raise ValueError(
                "public inputs must be allocated before any private variable"
            )
        index = self.num_variables
        self.num_variables += 1
        self.num_public += 1
        self.variable_names.append(name or f"pub_{index}")
        self.variable_kinds.append(kind)
        self.variable_sites.append(site)
        return index

    def allocate_private(
        self, name: str = "", *, kind: str = "private", site: str = ""
    ) -> int:
        self._private_started = True
        index = self.num_variables
        self.num_variables += 1
        self.variable_names.append(name or f"aux_{index}")
        self.variable_kinds.append(kind)
        self.variable_sites.append(site)
        return index

    def note_expected_boolean(self, index: int, site: str = "") -> None:
        """Record that a gadget consumed ``index`` assuming it is boolean."""
        self.expected_boolean.append((index, site))

    def provenance(self, index: int) -> Dict[str, str]:
        """Name/kind/site metadata for one variable (auditor findings)."""
        return {
            "name": self.variable_names[index],
            "kind": self.variable_kinds[index],
            "site": self.variable_sites[index],
        }

    # -- constraints --------------------------------------------------------------

    def enforce(
        self,
        a: LinearCombination,
        b: LinearCombination,
        c: LinearCombination,
    ) -> None:
        """Add the constraint ``<a, z> * <b, z> = <c, z>``."""
        self.constraints.append((a, b, c))

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_private(self) -> int:
        return self.num_variables - 1 - self.num_public

    # -- satisfaction ---------------------------------------------------------------

    def is_satisfied(self, assignment: Sequence[int]) -> bool:
        try:
            self.check_satisfied(assignment)
        except UnsatisfiedWitness:
            return False
        return True

    def check_satisfied(self, assignment: Sequence[int]) -> None:
        """Raise :class:`UnsatisfiedWitness` on the first failing constraint."""
        self.satisfied_rows(assignment)

    def satisfied_rows(
        self, assignment: Sequence[int]
    ) -> Tuple[List[int], List[int], List[int]]:
        """``<A_k, z>``, ``<B_k, z>`` and ``<C_k, z>`` for every constraint
        ``k``, canonical, checked as they are computed: raise
        :class:`UnsatisfiedWitness` on the first failing constraint.

        The prover's one evaluation of the rows: the values that pass the
        check are the ones the quotient interpolates.
        """
        if len(assignment) != self.num_variables:
            raise UnsatisfiedWitness(
                f"assignment has {len(assignment)} entries, "
                f"expected {self.num_variables}"
            )
        if assignment[ONE_INDEX] % R != 1:
            raise UnsatisfiedWitness("assignment[0] must be the constant 1")
        ua: List[int] = []
        va: List[int] = []
        wa: List[int] = []
        for k, (a, b, c) in enumerate(self.constraints):
            x = a.evaluate(assignment)
            y = b.evaluate(assignment)
            rhs = c.evaluate(assignment)
            lhs = x * y % R
            if lhs != rhs:
                raise UnsatisfiedWitness(
                    f"constraint {k} violated: "
                    f"<A,z>*<B,z> = {lhs} but <C,z> = {rhs}"
                )
            ua.append(x)
            va.append(y)
            wa.append(rhs)
        return ua, va, wa

    def public_inputs_of(self, assignment: Sequence[int]) -> List[int]:
        """Extract the public instance (excluding ONE) from an assignment."""
        return [v % R for v in assignment[1 : 1 + self.num_public]]

    # -- diagnostics -------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        nnz = sum(
            len(a.terms) + len(b.terms) + len(c.terms)
            for a, b, c in self.constraints
        )
        return {
            "constraints": self.num_constraints,
            "variables": self.num_variables,
            "public_inputs": self.num_public,
            "private_variables": self.num_private,
            "nonzero_coefficients": nnz,
        }

    def __repr__(self) -> str:
        return (
            f"ConstraintSystem(constraints={self.num_constraints}, "
            f"variables={self.num_variables}, public={self.num_public})"
        )
