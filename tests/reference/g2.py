"""G2 subgroup membership by its definition: the oracle for
``G2Point.in_subgroup``.

A twist-curve point lies in the order-r subgroup exactly when ``r * Q`` is
the identity.  Production decides the same question through an endomorphism
identity and a 63-bit multiplication; this is the 254-bit affine
double-and-add it replaced, kept so the two can be compared on points in
and (especially) out of the subgroup.
"""

from repro.curves.bn254 import R
from repro.curves.g2 import G2Point


def in_subgroup_naive(q: G2Point) -> bool:
    return q.is_on_curve() and (q * R).is_infinity()
