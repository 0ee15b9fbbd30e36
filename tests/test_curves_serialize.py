"""Tests for compressed point serialization."""

import pytest

from repro.curves.g1 import G1Point
from repro.curves.g2 import G2Point
from repro.curves.serialize import (
    G1_COMPRESSED_BYTES,
    G2_COMPRESSED_BYTES,
    PointDecodingError,
    _fp2_sqrt,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
)
from repro.field.tower import Fp2Element

G = G1Point.generator()
H = G2Point.generator()


class TestG1Serialization:
    @pytest.mark.parametrize("k", [1, 2, 3, 7919, 123456789])
    def test_round_trip(self, k):
        p = G * k
        assert g1_from_bytes(g1_to_bytes(p)) == p

    def test_round_trip_negative(self):
        p = -(G * 5)
        assert g1_from_bytes(g1_to_bytes(p)) == p

    def test_infinity(self):
        data = g1_to_bytes(G1Point.infinity())
        assert len(data) == G1_COMPRESSED_BYTES
        assert g1_from_bytes(data).is_infinity()

    def test_size(self):
        assert len(g1_to_bytes(G)) == 32

    def test_wrong_length_rejected(self):
        with pytest.raises(PointDecodingError):
            g1_from_bytes(b"\x00" * 31)

    def test_not_on_curve_rejected(self):
        # x = 0 -> y^2 = 3, and 3 is a non-residue mod p for this curve.
        with pytest.raises(PointDecodingError):
            g1_from_bytes(bytes(32))

    def test_malformed_infinity_rejected(self):
        data = bytearray(g1_to_bytes(G1Point.infinity()))
        data[5] = 1
        with pytest.raises(PointDecodingError):
            g1_from_bytes(bytes(data))

    def test_x_out_of_range_rejected(self):
        data = bytearray(32)
        data[0] = 0x3F
        for i in range(1, 32):
            data[i] = 0xFF
        with pytest.raises(PointDecodingError):
            g1_from_bytes(bytes(data))

    def test_sign_bit_distinguishes_roots(self):
        p = G * 11
        q = -p
        assert g1_to_bytes(p) != g1_to_bytes(q)


class TestG2Serialization:
    @pytest.mark.parametrize("k", [1, 2, 5, 99991])
    def test_round_trip(self, k):
        p = H * k
        assert g2_from_bytes(g2_to_bytes(p)) == p

    def test_round_trip_negative(self):
        p = -(H * 3)
        assert g2_from_bytes(g2_to_bytes(p)) == p

    def test_infinity(self):
        data = g2_to_bytes(G2Point.infinity())
        assert len(data) == G2_COMPRESSED_BYTES
        assert g2_from_bytes(data).is_infinity()

    def test_size(self):
        assert len(g2_to_bytes(H)) == 64

    def test_wrong_length_rejected(self):
        with pytest.raises(PointDecodingError):
            g2_from_bytes(b"\x00" * 63)

    def test_subgroup_check_accepts_valid(self):
        assert g2_from_bytes(g2_to_bytes(H * 7)).in_subgroup()

    def test_malformed_infinity_rejected(self):
        data = bytearray(g2_to_bytes(G2Point.infinity()))
        data[40] = 9
        with pytest.raises(PointDecodingError):
            g2_from_bytes(bytes(data))


class TestFp2Sqrt:
    def test_sqrt_of_squares(self, rng):
        from repro.field.prime import BN254_P as P

        for _ in range(10):
            a = Fp2Element(rng.randrange(P), rng.randrange(P))
            sq = a.square()
            root = _fp2_sqrt(sq)
            assert root == a or root == -a

    def test_sqrt_of_zero(self):
        assert _fp2_sqrt(Fp2Element.zero()).is_zero()

    def test_sqrt_of_real_square(self):
        a = Fp2Element(49, 0)
        root = _fp2_sqrt(a)
        assert root.square() == a

    def test_non_square_rejected(self):
        # Find an Fp2 non-square deterministically: x is a square iff
        # norm(x)^((p-1)/2) == 1.
        from repro.field.prime import BN254_P as P

        for c0 in range(1, 50):
            cand = Fp2Element(c0, 1)
            norm = (c0 * c0 + 1) % P
            if pow(norm, (P - 1) // 2, P) != 1:
                with pytest.raises(PointDecodingError):
                    _fp2_sqrt(cand)
                return
        pytest.skip("no small non-square found")
