"""Quadratic surd arithmetic: exactness properties and squarefree handling."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coverlab.exact import (QuadExt, is_integral, quad_json, rational_json,
                            squarefree_decompose)

small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)


def test_squarefree_decompose():
    assert squarefree_decompose(0) == (0, 1)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(20) == (2, 5)
    assert squarefree_decompose(36) == (6, 1)
    assert squarefree_decompose(5) == (1, 5)
    with pytest.raises(ValueError):
        squarefree_decompose(-4)


@given(st.integers(min_value=0, max_value=10**6))
def test_squarefree_reconstructs(m):
    s, d = squarefree_decompose(m)
    assert s * s * d == m
    # d squarefree
    p = 2
    while p * p <= d:
        assert d % (p * p) != 0
        p += 1


def test_perfect_square_radicand_collapses():
    x = QuadExt(1, 2, 9)  # 1 + 2*sqrt(9) = 7
    assert x.is_rational and x.a == 7


def test_sqrt_and_square():
    r5 = QuadExt.sqrt(5)
    assert r5 * r5 == 5
    assert QuadExt.sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert QuadExt.sqrt(20) == QuadExt(0, 2, 5)
    with pytest.raises(ValueError):
        QuadExt.sqrt(-1)


def test_icosahedron_eigenvalue_arithmetic():
    tau = -QuadExt.sqrt(5)
    theta = QuadExt.sqrt(5)
    assert theta * tau == -5
    assert theta + tau == 0
    assert float(tau) == pytest.approx(-2.2360679, abs=1e-6)
    assert tau < -1 < theta


@given(small_rationals, small_rationals, small_rationals, small_rationals)
def test_field_axioms_in_q_sqrt5(a1, b1, a2, b2):
    x = QuadExt(a1, b1, 5)
    y = QuadExt(a2, b2, 5)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x


@given(small_rationals, small_rationals)
def test_sign_matches_float(a, b):
    x = QuadExt(a, b, 7)
    f = float(x)
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)
    else:
        assert (x.sign() == 0) == (x == 0)


def test_mixed_radicand_rejected():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 2) + QuadExt(0, 1, 3)


def test_rational_mixes_with_any_radicand():
    assert QuadExt(3) + QuadExt(0, 1, 5) == QuadExt(3, 1, 5)
    assert QuadExt(2) * QuadExt(1, 1, 3) == QuadExt(2, 2, 3)


def test_pow_and_int():
    x = QuadExt(1, 1, 2)
    assert x ** 2 == QuadExt(3, 2, 2)
    assert x ** 0 == 1
    with pytest.raises(ValueError):
        x ** -1
    assert int(QuadExt(4)) == 4
    with pytest.raises(ValueError):
        int(x)


def test_json_round_trip():
    for x in (QuadExt(Fraction(1, 2), Fraction(-3, 4), 5), QuadExt(7)):
        assert QuadExt.from_json(x.to_json()) == x


# few values, several spellings of each: equal pairs are common
tiny_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 2))
numbers = st.one_of(
    st.integers(-2, 2), tiny_rationals,
    st.builds(QuadExt, tiny_rationals,
              st.sampled_from([0, Fraction(1, 2), 1, -1]),
              st.sampled_from([1, 4, 5, 20])))


@given(st.lists(numbers, min_size=2, max_size=8))
@settings(max_examples=300)
def test_equal_values_hash_alike(xs):
    for a in xs:
        for b in xs:
            if a == b:
                assert hash(a) == hash(b), (a, b)


@given(numbers)
@settings(max_examples=300)
def test_is_integral_on_int_fraction_and_quadext(x):
    """One rule for all three types: x equals the integer nearest to it."""
    assert is_integral(x) is (x == round(float(x)))


@pytest.mark.parametrize("k", [0, 1, -4, 3 ** 40])
def test_int_json_matches_quadext_json(k):
    assert quad_json(k) == QuadExt(k).to_json() == {"a": k, "b": 0, "D": 1}
    assert rational_json(k) == rational_json(QuadExt(k)) == k


def test_rational_elements_hash_as_their_fraction():
    assert len({QuadExt(3), 3, Fraction(3)}) == 1
    assert len({QuadExt(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert QuadExt(0, 1, 20) == QuadExt(0, 2, 5)
    assert len({QuadExt(0, 1, 20), QuadExt(0, 2, 5)}) == 1


def test_ordering_against_non_numbers_is_not_implemented():
    x = QuadExt(1, 1, 5)
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(x, op)("2") is NotImplemented
    with pytest.raises(TypeError, match="not supported"):
        x < "2"
