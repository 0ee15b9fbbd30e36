"""The circuit builder: this reproduction's stand-in for xJsnark.

The paper writes its watermark-extraction computations in xJsnark, a
high-level language that compiles to libsnark R1CS circuits.
:class:`CircuitBuilder` plays that role here: gadget code manipulates
:class:`~repro.circuit.wire.Wire` objects with ordinary Python arithmetic,
and the builder records the R1CS constraints *and* synthesizes the witness
values side by side.

The builder is the *structure-recording* pass of the staged proving
pipeline (``compile -> setup -> synthesize -> prove -> verify``):

* A full build records every constraint, the witness, and a compact
  *synthesis trace* (:attr:`trace`) -- one event per variable allocation
  and per wire multiplication.  The engine layer freezes the result into
  an immutable :class:`~repro.engine.compiled.CompiledCircuit`.
* Repeat proofs for the same circuit shape replay the recorded trace with
  new input values through :class:`~repro.circuit.trace.WitnessSynthesizer`
  -- a witness-only pass that never touches linear combinations or
  constraint construction, which is what makes the one-time Groth16 setup
  (and compilation itself) amortize across proofs, the property ZKROWNN's
  amortization argument depends on.

Conventions:

* Public inputs must be declared before any private input or operation that
  allocates variables (the Groth16 instance is a prefix of the variable
  vector).  Public *outputs* are supported via placeholders allocated up
  front and bound to a computed wire later (:meth:`bind_output`).
* The builder is eager: every wire carries its value, so after synthesis
  ``builder.assignment`` is the complete witness.  Re-synthesizing the same
  gadget code with different input values yields the same constraint
  structure (checked via :meth:`structure_digest`).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

from ..field.prime import BN254_R as R
from ..snark.errors import ConstraintViolation
from ..snark.r1cs import ONE_INDEX, ConstraintSystem, LinearCombination
from .wire import Wire

__all__ = [
    "CircuitBuilder",
    "PublicOutput",
    "EV_PUBLIC",
    "EV_PRIVATE",
    "EV_OUTPUT",
    "EV_HINT",
    "EV_MUL_ALLOC",
    "EV_MUL_FOLD",
]

# Synthesis-trace event codes.  A full build appends one event per variable
# allocation and per `mul` call; `WitnessSynthesizer` replays the sequence
# to resynthesize a witness without reconstructing any constraints.
EV_PUBLIC = 0
EV_PRIVATE = 1
EV_OUTPUT = 2
EV_HINT = 3
EV_MUL_ALLOC = 4
EV_MUL_FOLD = 5


class PublicOutput:
    """A public variable allocated up front, bound to a computed wire later."""

    __slots__ = ("index", "name", "bound")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        self.bound = False


class CircuitBuilder:
    """Builds an R1CS constraint system and its witness simultaneously."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.cs = ConstraintSystem()
        self.assignment: List[int] = [1]
        self.trace = bytearray()
        self._one_wire: Optional[Wire] = None
        self._scope_stack: List[str] = []

    # ------------------------------------------------------------- provenance --

    @contextmanager
    def scope(self, label: str) -> Iterator[None]:
        """Tag every allocation inside the block with a gadget scope label.

        Scopes nest (``outer>inner``) and flow into auditor findings as the
        wire's provenance.  Purely metadata: no constraints, no trace
        events, so replay through :class:`WitnessSynthesizer` is unchanged.
        """
        self._scope_stack.append(label)
        try:
            yield
        finally:
            self._scope_stack.pop()

    def _site(self) -> str:
        """Current allocation site: the gadget scope path."""
        return ">".join(self._scope_stack)

    def _expect_boolean(self, w: Wire) -> None:
        """Record that a gadget consumed ``w`` assuming it is boolean.

        Only single-variable shapes are recorded (``v`` or ``1 - v``); a
        compound LC being boolean says nothing about any one variable.
        """
        terms = w.lc.terms
        if not terms:
            return
        non_one = [(i, c) for i, c in terms.items() if i != ONE_INDEX]
        if len(non_one) != 1:
            return
        idx, coeff = non_one[0]
        const = terms.get(ONE_INDEX, 0)
        if (coeff == 1 and const == 0) or (coeff == R - 1 and const == 1):
            self.cs.note_expected_boolean(idx, self._site())

    # ------------------------------------------------------------------ inputs --

    def constant(self, value: int) -> Wire:
        return Wire(self, LinearCombination.constant(value), value)

    def one(self) -> Wire:
        return self.constant(1)

    def zero(self) -> Wire:
        return self.constant(0)

    def public_input(self, name: str, value: int) -> Wire:
        """Allocate a public (instance) variable with the given value."""
        self.trace.append(EV_PUBLIC)
        index = self.cs.allocate_public(name, kind="public", site=self._site())
        self.assignment.append(value % R)
        return Wire(self, LinearCombination.variable(index), value)

    def public_inputs(self, name: str, values: Sequence[int]) -> List[Wire]:
        return [self.public_input(f"{name}[{i}]", v) for i, v in enumerate(values)]

    def private_input(self, name: str, value: int) -> Wire:
        """Allocate a private (witness) variable with the given value."""
        self.trace.append(EV_PRIVATE)
        index = self.cs.allocate_private(name, kind="private", site=self._site())
        self.assignment.append(value % R)
        return Wire(self, LinearCombination.variable(index), value)

    def private_inputs(self, name: str, values: Sequence[int]) -> List[Wire]:
        return [self.private_input(f"{name}[{i}]", v) for i, v in enumerate(values)]

    def public_output(self, name: str) -> PublicOutput:
        """Reserve a public slot to be filled by :meth:`bind_output` later."""
        self.trace.append(EV_OUTPUT)
        index = self.cs.allocate_public(name, kind="output", site=self._site())
        self.assignment.append(0)
        return PublicOutput(index, name)

    def bind_output(self, output: PublicOutput, wire: Wire) -> None:
        """Constrain a reserved public output to equal a computed wire."""
        if output.bound:
            raise ValueError(f"output {output.name!r} already bound")
        output.bound = True
        self.assignment[output.index] = wire.value
        self.cs.enforce(
            LinearCombination.variable(output.index) - wire.lc,
            LinearCombination.constant(1),
            LinearCombination.constant(0),
        )

    def output_wire(self, output: PublicOutput) -> Wire:
        return Wire(
            self,
            LinearCombination.variable(output.index),
            self.assignment[output.index],
        )

    # ---------------------------------------------------------------- core ops --

    def mul(self, a: Wire, b: Wire) -> Wire:
        """Wire product: one constraint, unless either side is constant."""
        if a.is_constant():
            self.trace.append(EV_MUL_FOLD)
            return b.scale(a.value)
        if b.is_constant():
            self.trace.append(EV_MUL_FOLD)
            return a.scale(b.value)
        self.trace.append(EV_MUL_ALLOC)
        value = a.value * b.value % R
        index = self.cs.allocate_private("mul", kind="mul", site=self._site())
        self.assignment.append(value)
        out_lc = LinearCombination.variable(index)
        self.cs.enforce(a.lc, b.lc, out_lc)
        return Wire(self, out_lc, value)

    def alloc_hint(self, name: str, value: int) -> Wire:
        """Allocate an *unconstrained* witness variable (a prover hint).

        The caller is responsible for adding constraints that pin the hint
        down -- used by bit decomposition, truncation, and division gadgets.
        The circuit auditor's determinism pass checks exactly that: every
        hint must be uniquely determined by the circuit's inputs.
        """
        self.trace.append(EV_HINT)
        index = self.cs.allocate_private(name, kind="hint", site=self._site())
        self.assignment.append(value % R)
        return Wire(self, LinearCombination.variable(index), value)

    def enforce(self, a: Wire, b: Wire, c: Wire) -> None:
        """Record ``a * b = c`` and check it holds on the current witness."""
        if a.value * b.value % R != c.value % R:
            raise ConstraintViolation(
                f"{self.name}: enforce({a.value} * {b.value} != {c.value})"
            )
        self.cs.enforce(a.lc, b.lc, c.lc)

    def assert_equal(self, a: Wire, b: Wire, context: str = "") -> None:
        if a.value != b.value:
            raise ConstraintViolation(
                f"{self.name}: assert_equal failed"
                f"{' in ' + context if context else ''}: {a.value} != {b.value}"
            )
        self.cs.enforce(
            a.lc - b.lc, LinearCombination.constant(1), LinearCombination.constant(0)
        )

    def assert_zero(self, a: Wire, context: str = "") -> None:
        self.assert_equal(a, self.zero(), context or "assert_zero")

    # ----------------------------------------------------------------- booleans --

    def assert_boolean(self, w: Wire) -> None:
        """Constrain ``w * (w - 1) = 0``."""
        if w.value not in (0, 1):
            raise ConstraintViolation(
                f"{self.name}: value {w.value} is not boolean"
            )
        self.cs.enforce(w.lc, w.lc - LinearCombination.constant(1),
                        LinearCombination.constant(0))

    def allocate_bit(self, name: str, value: int) -> Wire:
        """A boolean-constrained *hint* (derived inside the circuit).

        Use :meth:`private_bit` instead when the bit is a semantic private
        input -- a value the prover chooses freely rather than one the
        circuit must pin down.  The auditor's determinism pass treats
        hints and inputs differently.
        """
        bit = self.alloc_hint(name, value)
        self.assert_boolean(bit)
        return bit

    def private_bit(self, name: str, value: int) -> Wire:
        """A boolean-constrained private *input* (the prover's free choice)."""
        bit = self.private_input(name, value)
        self.assert_boolean(bit)
        return bit

    def and_(self, a: Wire, b: Wire) -> Wire:
        self._expect_boolean(a)
        self._expect_boolean(b)
        return self.mul(a, b)

    def or_(self, a: Wire, b: Wire) -> Wire:
        self._expect_boolean(a)
        self._expect_boolean(b)
        return a + b - self.mul(a, b)

    def xor_(self, a: Wire, b: Wire) -> Wire:
        self._expect_boolean(a)
        self._expect_boolean(b)
        return a + b - self.mul(a, b).scale(2)

    def not_(self, a: Wire) -> Wire:
        self._expect_boolean(a)
        return self.one() - a

    def select(self, cond: Wire, if_true: Wire, if_false: Wire) -> Wire:
        """``cond ? if_true : if_false`` for a boolean ``cond`` (1 constraint)."""
        self._expect_boolean(cond)
        return if_false + self.mul(cond, if_true - if_false)

    # ------------------------------------------------------------ decomposition --

    def to_bits(self, w: Wire, bits: int) -> List[Wire]:
        """Decompose ``w`` into ``bits`` little-endian boolean wires.

        Adds ``bits`` booleanity constraints plus one recomposition
        constraint; implicitly range-checks ``w < 2**bits``.
        """
        value = w.value
        if value >= (1 << bits):
            raise ConstraintViolation(
                f"{self.name}: value {value} does not fit in {bits} bits"
            )
        out: List[Wire] = []
        recomposed = self.zero()
        for i in range(bits):
            bit = self.allocate_bit(f"bit_{i}", (value >> i) & 1)
            out.append(bit)
            recomposed = recomposed + bit.scale(1 << i)
        self.assert_equal(recomposed, w, "bit recomposition")
        return out

    def from_bits(self, bits: Sequence[Wire]) -> Wire:
        """Recompose little-endian bits into a wire (free)."""
        acc = self.zero()
        for i, bit in enumerate(bits):
            acc = acc + bit.scale(1 << i)
        return acc

    def assert_range(self, w: Wire, bits: int) -> None:
        """Range-check ``0 <= w < 2**bits`` via decomposition."""
        self.to_bits(w, bits)

    # -------------------------------------------------------------- comparisons --
    #
    # All comparisons interpret wires as *signed* fixed-point integers of
    # magnitude < 2**(bits-1), the convention of the paper's scaled-integer
    # arithmetic.  The sign is read off the top bit of value + 2**(bits-1).

    def is_nonnegative(self, w: Wire, bits: int) -> Wire:
        """Boolean wire: 1 iff ``signed(w) >= 0``, given |signed(w)| < 2**(bits-1)."""
        shifted = w + (1 << (bits - 1))
        if shifted.value >= (1 << bits):
            raise ConstraintViolation(
                f"{self.name}: signed value {w.signed_value()} overflows "
                f"{bits}-bit comparison"
            )
        decomposition = self.to_bits(shifted, bits)
        return decomposition[bits - 1]

    def greater_equal(self, a: Wire, b: Wire, bits: int) -> Wire:
        """Boolean wire: 1 iff ``signed(a) >= signed(b)``."""
        return self.is_nonnegative(a - b, bits + 1)

    def less_than(self, a: Wire, b: Wire, bits: int) -> Wire:
        return self.not_(self.greater_equal(a, b, bits))

    def is_zero(self, w: Wire) -> Wire:
        """Boolean wire: 1 iff ``w == 0`` (2 constraints, inverse trick)."""
        value = w.value
        inv_value = pow(value, -1, R) if value else 0
        inv = self.alloc_hint("is_zero_inv", inv_value)
        result = self.alloc_hint("is_zero_out", 0 if value else 1)
        # result = 1 - w * inv;  w * result = 0.
        self.cs.enforce(w.lc, inv.lc,
                        LinearCombination.constant(1) - result.lc)
        self.cs.enforce(w.lc, result.lc, LinearCombination.constant(0))
        self.assert_boolean(result)
        return result

    # -------------------------------------------------- integer division helpers --

    def truncate(self, w: Wire, shift: int, range_bits: int) -> Wire:
        """Floor-divide a signed wire by ``2**shift`` (fixed-point rescale).

        Allocates quotient and remainder hints with
        ``w = q * 2**shift + rem``, range-checks ``rem < 2**shift`` and
        ``|signed(q)| < 2**(range_bits-1)``.  This is the paper's
        "scale inputs ... and truncate" step done *inside* the circuit.
        """
        value = w.signed_value()
        q_value = value >> shift
        rem_value = value - (q_value << shift)
        q = self.alloc_hint("trunc_q", q_value)
        rem = self.alloc_hint("trunc_rem", rem_value)
        self.assert_equal(q.scale(1 << shift) + rem, w, "truncation")
        self.assert_range(rem, shift)
        self.assert_signed_range(q, range_bits)
        return q

    def assert_signed_range(self, w: Wire, bits: int) -> None:
        """Check ``-2**(bits-1) <= signed(w) < 2**(bits-1)``."""
        shifted = w + (1 << (bits - 1))
        self.assert_range(shifted, bits)

    def div_floor_const(self, w: Wire, divisor: int, range_bits: int) -> Wire:
        """Floor-divide a signed wire by a positive integer constant.

        Used by the averaging circuit (divide a sum of activations by the
        trigger-set size).  Costs ~``log2(divisor) + range_bits`` constraints.
        """
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        if divisor == 1:
            return w
        if divisor & (divisor - 1) == 0:
            return self.truncate(w, divisor.bit_length() - 1, range_bits)
        value = w.signed_value()
        q_value = value // divisor
        rem_value = value - q_value * divisor
        q = self.alloc_hint("div_q", q_value)
        rem = self.alloc_hint("div_rem", rem_value)
        self.assert_equal(q.scale(divisor) + rem, w, "const division")
        rem_bits = divisor.bit_length()
        self.assert_range(rem, rem_bits)
        # rem < divisor  <=>  divisor - 1 - rem >= 0.
        diff = self.constant(divisor - 1) - rem
        self.assert_range(diff, rem_bits)
        self.assert_signed_range(q, range_bits)
        return q

    # ------------------------------------------------------------------- export --

    def public_values(self) -> List[int]:
        return self.assignment[1 : 1 + self.cs.num_public]

    def structure_digest(self) -> str:
        """A digest of the constraint structure (not the witness values).

        Two synthesis runs of the same gadget code produce the same digest;
        a mismatch means a circuit was rebuilt with value-dependent
        structure and existing Groth16 keys are unusable for it.
        """
        h = hashlib.sha256()
        h.update(f"{self.cs.num_variables}|{self.cs.num_public}".encode())
        for a, b, c in self.cs.constraints:
            for lc in (a, b, c):
                for idx in sorted(lc.terms):
                    h.update(idx.to_bytes(4, "big"))
                    h.update(lc.terms[idx].to_bytes(32, "big"))
                h.update(b"|")
            h.update(b";")
        return h.hexdigest()

    def check(self) -> None:
        """Verify the synthesized witness satisfies every constraint."""
        self.cs.check_satisfied(self.assignment)

    def __repr__(self) -> str:
        return (
            f"CircuitBuilder({self.name!r}, constraints={self.cs.num_constraints}, "
            f"variables={self.cs.num_variables}, public={self.cs.num_public})"
        )
