import random
from fractions import Fraction

import pytest

from altwronsk.polynomial import ONE, ZERO, Polynomial, monomial


def test_normalisation_drops_zero_coefficients():
    assert Polynomial({3: 0, 1: 2})._coeffs == {1: 2}
    assert not ZERO
    assert ONE


def test_degree_and_leading_coefficient():
    p = Polynomial({2: 3, 1: -1, 0: 5})
    assert p.degree == 2
    assert p.leading_coefficient == 3
    assert ZERO.degree is None
    assert ZERO.leading_coefficient == 0


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial({-1: 2})


@pytest.mark.parametrize(
    "coeffs", [{2: 1.5, 0: 1}, {1: 2.0}, {1.0: 1}, {0: Fraction(1, 2)}]
)
def test_non_integer_terms_rejected(coeffs):
    with pytest.raises(TypeError):
        Polynomial(coeffs)


def test_str_parse_round_trip():
    # The text form is output only, so each exact str() text is pinned.
    for coeffs, text in [
        ({}, "0"),
        ({0: 1}, "1"),
        ({1: 1}, "x"),
        ({3: 1}, "x^3"),
        ({2: -4}, "-4*x^2"),
        ({1: -1}, "-x"),
        ({0: 5, 1: -1, 2: 3}, "3*x^2 - x + 5"),
        ({4: -2, 1: 1, 0: -7}, "-2*x^4 + x - 7"),
    ]:
        assert str(Polynomial(coeffs)) == text


def test_arithmetic_identities():
    a = Polynomial({2: 1, 1: 2})
    b = Polynomial({1: 1, 0: -3})
    assert a + b == Polynomial({2: 1, 1: 3, 0: -3})
    assert a - a == ZERO
    assert a * b == Polynomial({3: 1, 2: -1, 1: -6})
    assert a * ONE == a
    assert a * ZERO == ZERO
    assert 2 * a == a * 2 == Polynomial({2: 2, 1: 4})
    assert -(-a) == a


def test_ring_axioms_on_random_instances():
    rng = random.Random(7)

    def draw():
        return Polynomial({e: rng.randint(-5, 5) for e in range(rng.randint(0, 5))})

    for _ in range(30):
        a, b, c = draw(), draw(), draw()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_derivative_basics():
    assert monomial(3).derivative(2) == monomial(1, 6)
    assert monomial(1).derivative(2) == ZERO
    assert monomial(0, 5).derivative() == ZERO
    assert monomial(4).derivative(0) == monomial(4)
    with pytest.raises(ValueError):
        monomial(2).derivative(-1)


def test_higher_derivative_equals_iterated_first():
    rng = random.Random(99)
    for _ in range(20):
        poly = Polynomial({e: rng.randint(-9, 9) for e in range(6)})
        k = rng.randint(0, 6)
        iterated = poly
        for _ in range(k):
            iterated = iterated.derivative()
        assert poly.derivative(k) == iterated


def test_hash_and_equality():
    assert hash(monomial(2, 3)) == hash(Polynomial({2: 3, 5: 0}))
    assert monomial(0, 7) == 7
    assert ZERO == 0
    assert monomial(1) != 1
    # Equal objects hash alike: a constant hashes like its int.
    assert hash(monomial(0, 7)) == hash(7)
    assert hash(ZERO) == hash(0)
    assert {7: "a"}.get(monomial(0, 7)) == "a"
    assert len({monomial(0, 7), 7}) == 1
