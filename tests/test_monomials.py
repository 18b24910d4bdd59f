"""Monomial bitmask representation: support, complement, divisibility, product."""

import pytest
from hypothesis import given, strategies as st

from becpolar.monomials import Monomial, all_monomials


class TestFromInt:
    def test_bit_decomposition(self):
        f = Monomial(5, 3)
        assert f.support() == [0, 1]
        assert f.degree == 2
        assert str(f) == "x0*x1"

    def test_single_high_variable(self):
        f = Monomial(5, 16)
        assert f.support() == [4]
        assert f.degree == 1

    def test_constant(self):
        f = Monomial(4, 0)
        assert f.support() == []
        assert f.degree == 0
        assert str(f) == "1"

    @pytest.mark.parametrize("u,m", [(32, 5), (1, 0), (0, 17), (-1, 4)])
    def test_rejects_bad_arguments(self, u, m):
        with pytest.raises(ValueError):
            Monomial(m, u)

    def test_round_trip_exhaustive(self):
        for m in range(1, 9):
            for u in range(1 << m):
                assert Monomial(m, u).bits == u


class TestSupportComplement:
    def test_support_examples(self):
        assert Monomial(4, 0b1001).support() == [0, 3]
        assert Monomial(4, 0b0110).support() == [1, 2]

    def test_complement_examples(self):
        assert Monomial(5, 3).complement().bits == 28
        assert Monomial(4, 0).complement().bits == 15
        assert Monomial(5, 16).complement().bits == 15

    @given(st.integers(1, 10), st.data())
    def test_complement_involution(self, m, data):
        u = data.draw(st.integers(0, (1 << m) - 1))
        f = Monomial(m, u)
        assert f.complement().complement() == f
        assert u + f.complement().bits == (1 << m) - 1


class TestDividesGcd:
    def test_divides(self):
        m = 3
        assert Monomial(m, 0b001).divides(Monomial(m, 0b101))
        assert not Monomial(m, 0b010).divides(Monomial(m, 0b101))
        # x0*x2 does not divide x1*x2
        assert not Monomial(m, 0b101).divides(Monomial(m, 0b110))

    def test_divides_rejects_mixed_m(self):
        with pytest.raises(ValueError):
            Monomial(3, 1).divides(Monomial(4, 1))


class TestProduct:
    def test_degree_subadditive(self):
        for m in range(1, 6):
            for f in all_monomials(m):
                for g in all_monomials(m):
                    prod = f * g
                    assert prod.degree <= f.degree + g.degree
                    disjoint = f.bits & g.bits == 0
                    assert (prod.degree == f.degree + g.degree) == disjoint
