"""Property tests for Polynomial: ring laws, derivative rules and the
stored form."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from altwronsk.polynomial import ONE, ZERO, Polynomial, dot  # noqa: E402

polynomials = st.dictionaries(
    st.integers(0, 8), st.integers(-30, 30), max_size=6).map(Polynomial)
scalars = st.integers(-30, 30)
orders = st.integers(0, 4)


def assert_canonical(q):
    # __eq__ compares the stored maps, so a stored zero would break it.
    assert all(c != 0 for c in q._coeffs.values())
    assert all(isinstance(e, int) and e >= 0 for e in q._coeffs)


@given(polynomials, polynomials, polynomials)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a + (-a) == ZERO and a - b == a + (-b)


@given(polynomials, polynomials, scalars, scalars, orders)
def test_derivative_is_linear(a, b, s, t, k):
    assert (a * s + b * t).derivative(k) == \
        a.derivative(k) * s + b.derivative(k) * t


@given(polynomials, polynomials)
def test_leibniz_rule(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


@given(polynomials, polynomials, scalars, orders)
def test_no_zero_coefficient_is_stored(a, b, s, k):
    for q in (a, a + b, a - b, -a, a * b, a * s, s * a, a.derivative(k)):
        assert_canonical(q)


@given(st.lists(st.tuples(polynomials, polynomials), max_size=5))
def test_dot_is_the_sum_of_products(pairs):
    total = ZERO
    for a, b in pairs:
        total = total + a * b
    got = dot(pairs)
    assert got == total
    assert_canonical(got)


@given(polynomials, polynomials)
def test_dot_of_nothing_or_of_cancelling_pairs_is_zero(a, b):
    assert dot([]) == ZERO
    assert dot([(a, b), (-a, b)]) == ZERO
    assert dot([(a, b), (b, -a)]) == ZERO


def value(q, x):
    return sum(c * x ** e for e, c in q.terms())


@given(polynomials, polynomials, scalars,
       st.lists(st.tuples(polynomials, polynomials), max_size=3))
def test_operators_agree_with_values(a, b, s, pairs):
    # Every operator builds its result through dot, so each is checked here
    # without it: results of degree <= 16 that agree at 17 points are equal.
    for x in range(-8, 9):
        va, vb = value(a, x), value(b, x)
        assert value(a + b, x) == va + vb
        assert value(a - b, x) == va - vb
        assert value(-a, x) == -va
        assert value(a * b, x) == va * vb
        assert value(a * s, x) == value(s * a, x) == va * s
        assert value(dot(pairs), x) == sum(value(c, x) * value(d, x)
                                           for c, d in pairs)
