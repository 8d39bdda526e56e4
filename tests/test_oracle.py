import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest

from altwronsk.engine import term_coefficient, wronskian_of_monomials
from altwronsk.oracle import (
    _check_arity,
    alternating_composition,
    brute_force_const,
    monomial_weights,
    random_polynomial,
    random_weight_tuple,
    symbolic_wronskian,
    verify_theorem,
)
from altwronsk.permutations import enumerate_backtracking, sign
from altwronsk.polynomial import ONE, Polynomial, monomial


def test_weighted_operator_examples():
    # x^b d^p applied to x^a, as the oracle composes it.
    assert monomial(2) * monomial(3).derivative(2) == monomial(3, 6)
    assert monomial(3) * monomial(1).derivative(2) == Polynomial()
    assert ONE * monomial(1).derivative(1) == ONE


def test_weighted_operator_reproduces_monomial_action():
    # x^b d^p x^a = a!/(a-p)! x^(a+b-p), zero when a < p.
    rng = random.Random(31)
    for _ in range(50):
        a, b, p = rng.randint(0, 8), rng.randint(0, 8), rng.randint(1, 4)
        got = monomial(b) * monomial(a).derivative(p)
        if a < p:
            assert got == Polynomial()
        else:
            coeff = 1
            for i in range(p):
                coeff *= a - i
            assert got == monomial(a + b - p, coeff)


def test_alternating_composition_small_cases():
    assert alternating_composition(
        1, monomial_weights(2), monomial(2)) == monomial(1, 2)
    assert alternating_composition(
        2, monomial_weights(4), monomial(2)) == Polynomial.parse("48")
    assert alternating_composition(
        1, [monomial(1), monomial(1)], monomial(5)) == Polynomial()


def literal_alternating_composition(p, weights, f):
    """The definition, term by term: every ordering composed from scratch,
    its sign from a count of inversions."""
    total = Polynomial()
    for order in itertools.permutations(range(len(weights))):
        inversions = sum(a > b for a, b in itertools.combinations(order, 2))
        term = f
        for j in reversed(order):
            term = weights[j] * term.derivative(p)
        total = total + (-term if inversions % 2 else term)
    return total


@pytest.mark.parametrize("p", [1, 2, 3])
def test_tree_walk_matches_literal_reference(p):
    rng = random.Random(4100 + p)
    for _ in range(3):
        weights = [random_polynomial(rng, coeff_bound=50)
                   for _ in range(2 * p)]
        f = random_polynomial(rng, max_degree=3 * p + 3, min_degree=p)
        assert alternating_composition(p, weights, f) == \
            literal_alternating_composition(p, weights, f)


def test_tree_walk_matches_literal_reference_on_monomials():
    weights, f = monomial_weights(8), monomial(4)
    got = alternating_composition(4, weights, f)
    assert got == literal_alternating_composition(4, weights, f)
    assert got == Polynomial({0: 586656 * 24 * wronskian_of_monomials(8)})


class _Composition:
    """Stands in for a polynomial: the weight indices applied so far,
    innermost first. Its one term encodes the ordering, outermost first, as
    the decimal digits of the exponent."""

    def __init__(self, applied=()):
        self.applied = applied

    def derivative(self, order):
        return self

    def terms(self):
        return [(int("".join(map(str, reversed(self.applied)))), 1)]


class _Weight:
    def __init__(self, index):
        self.index = index

    def __mul__(self, other):
        return _Composition(other.applied + (self.index,))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_carried_parity_is_permutation_sign(p):
    n = 2 * p
    got = alternating_composition(p, [_Weight(j) for j in range(n)],
                                  _Composition())
    assert len(got.terms()) == math.factorial(n)
    for order in itertools.permutations(range(n)):
        exponent = int("".join(map(str, order)))
        assert got.coefficient(exponent) == sign(order)


def test_alternating_composition_validates_arity():
    with pytest.raises(ValueError):
        alternating_composition(2, monomial_weights(3), ONE)
    with pytest.raises(ValueError):
        alternating_composition(0, [], ONE)


def test_large_arity_warns():
    with pytest.warns(RuntimeWarning):
        _check_arity(6, [ONE] * 12)
    # p = 5 takes seconds, so it runs without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _check_arity(5, [ONE] * 10) == 10


def test_antisymmetry_on_random_instances():
    rng = random.Random(2024)
    for p in (1, 2):
        for _ in range(5):
            weights = [random_polynomial(rng) for _ in range(2 * p)]
            i, j = rng.sample(range(2 * p), 2)
            weights[j] = weights[i]
            f = random_polynomial(rng, min_degree=p)
            assert alternating_composition(p, weights, f) == Polynomial()


def test_scalar_multilinearity_on_random_instances():
    rng = random.Random(321)
    for p in (1, 2):
        for _ in range(5):
            weights = [random_polynomial(rng) for _ in range(2 * p)]
            f = random_polynomial(rng, min_degree=p)
            base = alternating_composition(p, weights, f)
            scale = rng.choice([-3, -1, 2, 5])
            j = rng.randrange(2 * p)
            scaled = list(weights)
            scaled[j] = scaled[j] * scale
            assert alternating_composition(p, scaled, f) == base * scale


def test_symbolic_wronskian_examples():
    assert symbolic_wronskian(monomial_weights(4)) == Polynomial.parse("12")
    assert symbolic_wronskian(monomial_weights(2)) == ONE
    assert symbolic_wronskian([monomial(1), monomial(1)]) == Polynomial()
    with pytest.raises(ValueError):
        symbolic_wronskian([])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_symbolic_wronskian_matches_superfactorial(n):
    # Dual route to the same number: determinant vs closed-form product.
    determinant = symbolic_wronskian(monomial_weights(n))
    assert determinant == Polynomial({0: wronskian_of_monomials(n)})


def test_symbolic_wronskian_nontrivial_polynomial_entries():
    # Wronskian of (1, x, x^3) is 6x, by hand.
    got = symbolic_wronskian([ONE, monomial(1), monomial(3)])
    assert got == monomial(1, 6)


def test_verify_theorem_monomial_instances():
    one = verify_theorem(1, monomial_weights(2), monomial(3))
    assert one.holds and one.extracted_const == 1
    two = verify_theorem(2, monomial_weights(4), monomial(4))
    assert two.holds and two.extracted_const == 2


def test_verify_theorem_random_instances():
    rng = random.Random(7)
    for _ in range(3):
        weights = random_weight_tuple(rng, 4)
        record = verify_theorem(2, weights, monomial(5))
        assert record.holds
        assert record.extracted_const == 2


def test_verify_theorem_default_f():
    record = verify_theorem(1, monomial_weights(2))
    assert record.holds and record.extracted_const == 1


def test_verify_theorem_degenerate_weights():
    # Both sides vanish: proportionality holds, the ratio is indeterminate.
    record = verify_theorem(1, [monomial(1), monomial(1)])
    assert record.holds
    assert record.extracted_const is None


def test_per_term_composition_matches_closed_form():
    # Literal operator algebra per contributing permutation against the
    # falling-factorial product. Entirely different arithmetic paths.
    for p in (1, 2, 3):
        for perm in enumerate_backtracking(p):
            term = monomial(perm[-1])
            for v in perm[-2::-1]:
                term = monomial(v) * term.derivative(p)
            assert term == Polynomial({0: term_coefficient(perm, p)})


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_full_sum_factors_through_the_derivative(m):
    # With monomial weights and f = x^m the whole signed sum collapses to a
    # single term of degree m - p, scaled by m (falling) p times.
    got = alternating_composition(1, monomial_weights(2), monomial(m))
    assert got == monomial(m - 1, m)  # const = 1, Wronskian = 1
    if m >= 2:
        got2 = alternating_composition(2, monomial_weights(4), monomial(m))
        assert got2 == monomial(m - 2, 2 * 12 * m * (m - 1))


def test_brute_force_const_small():
    assert brute_force_const(1) == 1
    assert brute_force_const(2) == 2
    assert brute_force_const(3) == 90


def test_extracted_constant_is_universal():
    # The fitted ratio does not depend on the weight or f draw.
    rng = random.Random(99)
    seen = set()
    for _ in range(5):
        weights = random_weight_tuple(rng, 2)
        f = random_polynomial(rng, min_degree=1)
        record = verify_theorem(1, weights, f)
        assert record.holds
        seen.add(record.extracted_const)
    assert seen == {Fraction(1)}


def test_random_weight_tuple_is_independent():
    rng = random.Random(6)
    for _ in range(20):
        weights = random_weight_tuple(rng, 4)
        assert symbolic_wronskian(weights)
    assert random_weight_tuple(random.Random(5), 2) == \
        random_weight_tuple(random.Random(5), 2)


def test_random_polynomial_contract():
    rng = random.Random(0)
    for _ in range(100):
        poly = random_polynomial(rng, max_degree=5, min_degree=2)
        assert poly
        assert 2 <= poly.degree <= 5
    again = random_polynomial(random.Random(123))
    assert again == random_polynomial(random.Random(123))
