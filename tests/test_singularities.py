from fractions import Fraction
from math import gcd

import pytest

from curvesig import (
    Cusp,
    m_bar_number,
    m_number,
    milnor_number,
    n_squared_defect,
)

COPRIME_PAIRS = [
    (p, q) for p in range(2, 30) for q in range(p + 1, 31) if gcd(p, q) == 1
]


def count_jump_multiset(p, q):
    """Independent oracle: cardinality of {i/p + j/q} by explicit double loop."""
    return len([Fraction(i, p) + Fraction(j, q) for i in range(1, p) for j in range(1, q)])


class TestCuspConstruction:
    def test_normalises_order(self):
        assert Cusp(3, 2) == Cusp(2, 3)
        assert Cusp(7, 2).p == 2 and Cusp(7, 2).q == 7

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="coprime"):
            Cusp(2, 4)
        with pytest.raises(ValueError, match="coprime"):
            Cusp(6, 9)

    def test_rejects_exponents_below_two(self):
        with pytest.raises(ValueError):
            Cusp(1, 5)
        with pytest.raises(ValueError):
            Cusp(2, 1)

    def test_rejects_equal_exponents(self):
        with pytest.raises(ValueError):
            Cusp(2, 2)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Cusp(2.0, 3)


class TestMilnorNumber:
    def test_frozen_examples(self):
        assert milnor_number(Cusp(2, 3)) == 2
        assert milnor_number(Cusp(2, 5)) == 4

    @pytest.mark.parametrize("p,q", COPRIME_PAIRS)
    def test_matches_jump_multiset_count(self, p, q):
        assert milnor_number(Cusp(p, q)) == count_jump_multiset(p, q)

    @pytest.mark.parametrize("p,q", COPRIME_PAIRS)
    def test_always_even(self, p, q):
        assert milnor_number(Cusp(p, q)) % 2 == 0


class TestMNumber:
    def test_frozen_examples(self):
        assert m_number(Cusp(2, 3)) == Fraction(11, 6)
        assert m_number(Cusp(2, 7)) == Fraction(59, 14)

    def test_exact_type(self):
        assert isinstance(m_number(Cusp(2, 3)), Fraction)

    @pytest.mark.parametrize("p,q", COPRIME_PAIRS[:40])
    def test_direct_formula(self, p, q):
        assert m_number(Cusp(p, q)) == p + q - Fraction(p, q) - Fraction(q, p) - 1


class TestMBarNumber:
    def test_frozen_examples(self):
        assert m_bar_number(Cusp(2, 3)) == 1
        assert m_bar_number(Cusp(2, 7)) == 3

    @pytest.mark.parametrize("p,q", COPRIME_PAIRS[:40])
    def test_ceiling_formula(self, p, q):
        # ceil(p/q) = 1 for p < q, so M_bar = p + q - 2 - ceil(q/p)
        assert m_bar_number(Cusp(p, q)) == p + q - 2 - (-(-q // p))


class TestNSquaredDefect:
    def test_frozen_examples(self):
        assert n_squared_defect(Cusp(2, 3)) == Fraction(-5, 6)

    @pytest.mark.parametrize("p,q", COPRIME_PAIRS)
    def test_below_minus_one_half_for_cusps(self, p, q):
        assert n_squared_defect(Cusp(p, q)) < Fraction(-1, 2)

    def test_consistency_with_components(self):
        c = Cusp(2, 5)
        assert n_squared_defect(c) == m_bar_number(c) - m_number(c)


@pytest.mark.parametrize("p,q", COPRIME_PAIRS[:40])
def test_invariants_symmetric_in_p_q(p, q):
    # the constructor normalises, so swapped descriptors are equal objects
    assert milnor_number(Cusp(q, p)) == milnor_number(Cusp(p, q))
    assert m_number(Cusp(q, p)) == m_number(Cusp(p, q))
    assert m_bar_number(Cusp(q, p)) == m_bar_number(Cusp(p, q))


def test_operations_reject_foreign_objects():
    with pytest.raises(TypeError):
        milnor_number("cusp")
    with pytest.raises(TypeError):
        m_number((2, 3))
    with pytest.raises(TypeError):
        m_bar_number(None)
