import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latrank.exactval import PowerProduct
from tests_support import pp_le_loop, pp_pow_loop


def test_rational_roundtrip():
    v = PowerProduct.coerce(Fraction(3, 4))
    assert v.is_rational()
    assert v.as_fraction() == Fraction(3, 4)
    assert float(v) == 0.75


def test_integer_exponents_fold_into_coefficient():
    v = PowerProduct.of(5, Fraction(3, 2))
    assert v.coeff == 5
    assert v.exps == ((5, Fraction(1, 2)),)
    assert abs(float(v) - 5 ** 1.5) < 1e-12


def test_base_factorization_merges():
    # 12^(1/2) = 2 * 3^(1/2)
    v = PowerProduct.of(12, Fraction(1, 2))
    assert v.coeff == 2
    assert v.exps == ((3, Fraction(1, 2)),)


def test_mul_div_pow():
    a = PowerProduct.of(2, Fraction(1, 3))
    b = PowerProduct.of(2, Fraction(2, 3))
    assert (a * b).as_fraction() == 2
    assert ((a ** 3)).as_fraction() == 2
    assert (a / a).as_fraction() == 1
    c = PowerProduct(Fraction(9, 4)).sqrt()
    assert c.as_fraction() == Fraction(3, 2)


def test_exact_comparisons():
    # 2^(1/2) vs 3^(1/3): 2^3 = 8 > 3^2 = 9? no: 8 < 9 so 2^(1/2) < 3^(1/3)
    a = PowerProduct.of(2, Fraction(1, 2))
    b = PowerProduct.of(3, Fraction(1, 3))
    assert a < b
    assert b > a
    assert a <= a and a == a
    assert PowerProduct.coerce(2) < PowerProduct.of(5, Fraction(1, 2))


def test_comparison_matches_floats_on_random_values():
    import random

    rng = random.Random(7)
    for _ in range(200):
        a = PowerProduct(Fraction(rng.randint(1, 50), rng.randint(1, 50))) * \
            PowerProduct.of(rng.randint(2, 10), Fraction(rng.randint(0, 5), rng.randint(1, 4)))
        b = PowerProduct(Fraction(rng.randint(1, 50), rng.randint(1, 50))) * \
            PowerProduct.of(rng.randint(2, 10), Fraction(rng.randint(0, 5), rng.randint(1, 4)))
        if abs(float(a) - float(b)) < 1e-9:
            continue
        assert (a < b) == (float(a) < float(b))


def test_positive_only():
    with pytest.raises(ValueError):
        PowerProduct(0)
    with pytest.raises(ValueError):
        PowerProduct(-2)


def test_immutability_and_hash():
    a = PowerProduct.of(2, Fraction(1, 2))
    with pytest.raises(AttributeError):
        a.coeff = 3
    assert hash(a) == hash(PowerProduct.of(2, Fraction(1, 2)))
    assert math.isclose(float(a), math.sqrt(2))


# -- integer powers against the trial-division reference ------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


@st.composite
def _smooth_40_digits(draw):
    """A 40-digit integer with prime factors below 72, so the reference can factor it."""
    n = 1
    while n < 10 ** 39:
        n *= draw(st.sampled_from(_SMALL_PRIMES))
    return n


@st.composite
def _power_products(draw):
    coeff = Fraction(draw(_smooth_40_digits()), draw(_smooth_40_digits()))
    exps = draw(st.lists(st.tuples(st.sampled_from([2, 3, 5, 6, 12]),
                                   st.fractions(min_value=-2, max_value=2, max_denominator=6)),
                         max_size=3))
    return PowerProduct(coeff, exps)


@settings(max_examples=80, deadline=None)
@given(x=_power_products(), y=_power_products(),
       e=st.one_of(st.integers(-4, 4), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])))
def test_pow_mul_div_compare_match_reference(x, y, e):
    assert x ** e == pp_pow_loop(x, e)
    assert (x * y) ** e == pp_pow_loop(x * y, e)
    assert x / y == x * pp_pow_loop(y, -1)
    for a, b in ((x, y), (y, x), (x, x), (x * y, y * x), (x ** 2, x * x)):
        le = pp_le_loop(a, b)
        assert (a <= b) == le and (a > b) == (not le)
        lt = le and not pp_le_loop(b, a)
        assert (a < b) == lt and (a >= b) == (not lt)


@settings(max_examples=80, deadline=None)
@given(x=_power_products())
def test_floor_matches_reference(x):
    f = math.floor(x)
    assert f >= 0
    assert f == 0 or pp_le_loop(PowerProduct(f), x)
    assert not pp_le_loop(PowerProduct(f + 1), x)


def test_floor_of_irrationals_and_rationals():
    assert math.floor(PowerProduct(Fraction(7, 2))) == 3
    assert math.floor(PowerProduct(4)) == 4
    assert math.floor(PowerProduct.of(5, Fraction(1, 2))) == 2
    assert math.floor(PowerProduct(7) * PowerProduct.of(2, Fraction(1, 2))) == 9
    # 10^40 / 3 * 3^(1/3), far past the reach of a float
    big = PowerProduct(Fraction(10 ** 40, 3)) * PowerProduct.of(3, Fraction(1, 3))
    f = math.floor(big)
    assert f ** 3 * 9 <= 10 ** 120 < (f + 1) ** 3 * 9
