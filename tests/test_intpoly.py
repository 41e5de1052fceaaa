from math import comb

import pytest

from posetlab.errors import InexactDivisionError
from posetlab.intpoly import ONE_MINUS_Q, ONE_PLUS_Q, Q, Q_MINUS_ONE, IntPolynomial


def test_trailing_zeros_trimmed():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).is_zero()
    assert IntPolynomial().degree == -1


def test_arithmetic_basics():
    f = IntPolynomial((1, 2))
    g = IntPolynomial((3, 0, 1))
    assert (f + g).coeffs == (4, 2, 1)
    assert (f - f).is_zero()
    assert (f * g).coeffs == (3, 6, 1, 2)
    assert (3 * f).coeffs == (3, 6)
    assert (f * IntPolynomial()).is_zero()


@pytest.mark.parametrize("k", range(7))
def test_binomial_expansions(k):
    minus = (ONE_MINUS_Q**k).padded(k + 1)
    plus = (ONE_PLUS_Q**k).padded(k + 1)
    for i in range(k + 1):
        assert plus[i] == comb(k, i)
        assert minus[i] == (-1) ** i * comb(k, i)
    assert (Q_MINUS_ONE**k) == (ONE_MINUS_Q**k) * ((-1) ** k)


def test_exact_division_roundtrip():
    f = IntPolynomial((2, -5, 7, 1))
    prod = f * ONE_PLUS_Q
    assert prod.divide_exact(ONE_PLUS_Q) == f


def test_inexact_division_raises():
    with pytest.raises(InexactDivisionError):
        IntPolynomial((1, 0, 1)).divide_exact(ONE_PLUS_Q)


def test_padded_rejects_overflow():
    with pytest.raises(ValueError):
        (Q**3).padded(2)


def test_power_and_monomial():
    assert Q**0 == IntPolynomial.constant(1)
    assert IntPolynomial.monomial(3, -2).coeffs == (0, 0, 0, -2)
    big = (IntPolynomial((1, 1)) ** 40).coefficient(20)
    assert big == comb(40, 20)  # exceeds 64-bit; exactness matters
