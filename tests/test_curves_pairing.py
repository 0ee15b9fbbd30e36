"""Tests for the Ate pairings: bilinearity, non-degeneracy, product checks.

These are the load-bearing tests of the whole SNARK stack: Groth16
soundness rests on the pairing being a correct bilinear map.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference.pairing import reference_pairing

from repro.curves.bn254 import R
from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.pairing import (
    final_exponentiation,
    multi_miller_loop,
    multi_pairing,
    pairing,
    pairing_check,
    precompute_g2,
)
from repro.field.tower import Fp12Element

G = G1Point.generator()
H = G2Point.generator()


@pytest.fixture(scope="module")
def e_gh():
    return pairing(G, H)


class TestNonDegeneracy:
    def test_generator_pairing_nontrivial(self, e_gh):
        assert not e_gh.is_one()

    def test_pairing_value_has_order_r(self, e_gh):
        assert e_gh.pow(R).is_one()

    def test_infinity_left(self):
        assert pairing(G1Point.infinity(), H).is_one()

    def test_infinity_right(self):
        assert pairing(G, G2Point.infinity()).is_one()


class TestBilinearity:
    @pytest.mark.parametrize("a,b", [(2, 3), (7, 11), (123456789, 987654321)])
    def test_optimal_ate(self, e_gh, a, b):
        assert pairing(G * a, H * b) == e_gh.pow(a * b % R)

    def test_plain_ate(self):
        e = pairing(G, H, variant="ate")
        assert pairing(G * 6, H * 5, variant="ate") == e.pow(30)

    def test_left_linearity(self, e_gh):
        assert pairing(G * 4, H) == e_gh.pow(4)

    def test_right_linearity(self, e_gh):
        assert pairing(G, H * 9) == e_gh.pow(9)

    def test_negation(self, e_gh):
        assert pairing(-G, H) == e_gh.inverse()

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            pairing(G, H, variant="tate")


class TestMultiPairing:
    def test_product_of_inverse_pairs_is_one(self):
        assert multi_pairing([(G * 7, H * 3), (-(G * 21), H)]).is_one()

    def test_matches_individual_product(self, e_gh):
        product = multi_pairing([(G * 2, H), (G, H * 3)])
        assert product == e_gh.pow(5)

    def test_empty_product_is_one(self):
        assert multi_pairing([]).is_one()

    def test_skips_infinity(self, e_gh):
        product = multi_pairing([(G1Point.infinity(), H), (G, H)])
        assert product == e_gh

    def test_pairing_check_true(self):
        assert pairing_check([(G * 5, H * 2), (-(G * 10), H)])

    def test_pairing_check_false(self):
        assert not pairing_check([(G * 5, H * 2), (-(G * 11), H)])

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            multi_pairing([(G, H)], variant="weil")


class TestFinalExponentiation:
    def test_output_in_cyclotomic_subgroup(self):
        # After final exponentiation, conjugate == inverse.
        f = pairing(G * 3, H * 4)
        assert f.conjugate() == f.inverse()

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            final_exponentiation(Fp12Element.zero())

    def test_one_maps_to_one(self):
        assert final_exponentiation(Fp12Element.one()).is_one()


class TestMillerLoop:
    def test_infinity_returns_one(self):
        assert multi_miller_loop([(G1Point.infinity(), H)]).is_one()

    def test_raw_miller_value_not_reduced(self):
        # Before final exponentiation the Miller value is generally != the
        # reduced pairing (sanity check that final exp matters).
        assert multi_miller_loop([(G, H)]) != pairing(G, H)


# One lane of a pairing product: the G1 and G2 scalars (0 is the point at
# infinity) and whether Q goes in as captured line coefficients.
_lane = st.tuples(
    st.integers(0, R - 1), st.integers(0, R - 1), st.booleans()
)


class TestAgainstReferencePairing:
    """The production walk against ``tests/reference/pairing.py``.

    Live-vs-precomputed and one-pair-vs-shared-chain agreement are both
    asserted here against the textbook pairing, which shares no Miller
    code with production -- comparing production lanes with each other
    would compare one walk with itself.
    """

    @pytest.mark.parametrize("variant", ["optimal", "ate"])
    @settings(max_examples=12, deadline=None)
    @given(lanes=st.lists(_lane, min_size=1, max_size=4))
    @example(lanes=[(1, 1, False)])
    @example(lanes=[(0, 5, False), (7, 0, False), (0, 9, True), (3, 4, True)])
    def test_multi_pairing_is_product_of_reference_pairings(self, variant, lanes):
        pairs, expected = [], Fp12Element.one()
        for a, b, captured in lanes:
            p, q = G * a, H * b
            expected = expected * reference_pairing(p, q, variant)
            if captured and not q.is_infinity():
                q = precompute_g2(q, variant)
            pairs.append((p, q))
        assert multi_pairing(pairs, variant) == expected


class TestVariantsAgree:
    def test_both_variants_give_order_r_values(self):
        for variant in ("optimal", "ate"):
            value = pairing(G * 2, H * 2, variant=variant)
            assert value.pow(R).is_one()
            assert not value.is_one()
