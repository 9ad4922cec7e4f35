from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalars import GOLDEN, Scalar

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars, scalars)
def test_addition_cancels(x, y):
    assert (x + y) - y == x


@given(scalars, scalars)
def test_multiplication_cancels(x, y):
    if not y.is_zero():
        assert (x * y) / y == x


@given(scalars, scalars, scalars)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(scalars, scalars)
def test_order_total_and_compatible(x, y):
    assert (x < y) + (y < x) + (x == y) == 1
    if x < y:
        assert x + Scalar(1) < y + Scalar(1)


def test_sqrt5_squares_to_five():
    assert Scalar(0, 1) * Scalar(0, 1) == Scalar(5)


def test_golden_ratio_identity():
    assert GOLDEN * GOLDEN == GOLDEN + 1
    assert GOLDEN > 1
    assert GOLDEN.inverse() == GOLDEN - 1


def test_sign_on_mixed_parts():
    # 7/3 - (4/3) sqrt(5) < 0 since 49 < 80; flip the surd for the mirror case
    assert Scalar(Fraction(7, 3), Fraction(-4, 3)).sign() == -1
    assert Scalar(Fraction(-7, 3), Fraction(4, 3)).sign() == 1
    assert Scalar(Fraction(9, 4), Fraction(-1)).sign() == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()
