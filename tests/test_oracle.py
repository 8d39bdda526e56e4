import itertools
import math
import random
from fractions import Fraction

import pytest

from altwronsk import oracle
from altwronsk.engine import (
    ExactDivisionError,
    term_coefficient,
    wronskian_of_monomials,
)
from altwronsk.oracle import (
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
        2, monomial_weights(4), monomial(2)) == monomial(0, 48)
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
def test_subset_sum_matches_literal_reference(p):
    rng = random.Random(4100 + p)
    for _ in range(3):
        weights = [random_polynomial(rng, coeff_bound=50)
                   for _ in range(2 * p)]
        f = random_polynomial(rng, max_degree=3 * p + 3, min_degree=p)
        assert alternating_composition(p, weights, f) == \
            literal_alternating_composition(p, weights, f)


def test_subset_sum_matches_literal_reference_on_monomials():
    weights, f = monomial_weights(8), monomial(4)
    got = alternating_composition(4, weights, f)
    assert got == literal_alternating_composition(4, weights, f)
    assert got == Polynomial({0: 586656 * 24 * wronskian_of_monomials(8)})


@pytest.mark.parametrize("p", [1, 2, 3])
def test_carried_parity_is_permutation_sign(p):
    # Row k's entry j is x^(2^(k*n + j)), so a term's exponent spells out
    # the order its indices were added in, innermost first. Every ordering
    # appears exactly once, with the sign of the order outermost first.
    n = 2 * p
    rows = [[monomial(1 << (k * n + j)) for j in range(n)] for k in range(n)]
    got = dict(oracle._alternating_sum(ONE, rows, lambda v: v).terms())
    assert len(got) == math.factorial(n)
    for order in itertools.permutations(range(n)):
        exponent = sum(1 << (k * n + j) for k, j in enumerate(order))
        assert got[exponent] == sign(order[::-1])


def test_alternating_composition_validates_arity():
    with pytest.raises(ValueError):
        alternating_composition(2, monomial_weights(3), ONE)
    with pytest.raises(ValueError):
        alternating_composition(0, [], ONE)


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
    assert symbolic_wronskian(monomial_weights(4)) == monomial(0, 12)
    assert symbolic_wronskian(monomial_weights(2)) == ONE
    assert symbolic_wronskian([monomial(1), monomial(1)]) == Polynomial()
    with pytest.raises(ValueError):
        symbolic_wronskian([])


def leibniz_wronskian(weights):
    """The definition, term by term: the sum over all permutations sigma
    of sgn(sigma) * prod_i weights[sigma(i)]^(i), the sign from a count of
    inversions."""
    total = Polynomial()
    for order in itertools.permutations(range(len(weights))):
        inversions = sum(a > b for a, b in itertools.combinations(order, 2))
        term = ONE
        for i, j in enumerate(order):
            term = term * weights[j].derivative(i)
        total = total + (-term if inversions % 2 else term)
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symbolic_wronskian_matches_leibniz_reference(n):
    # General polynomial entries; the first draw has a zero weight.
    rng = random.Random(5200 + n)
    for trial in range(4):
        weights = [random_polynomial(rng, max_degree=n + 2, coeff_bound=50)
                   for _ in range(n)]
        if trial == 0:
            weights[rng.randrange(n)] = Polynomial()
        assert symbolic_wronskian(weights) == leibniz_wronskian(weights)


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


def test_verify_theorem_zero_composition_fits_ratio_zero(monkeypatch):
    monkeypatch.setattr(oracle, "alternating_composition",
                        lambda *args: Polynomial())
    assert verify_theorem(2, monomial_weights(4)) == (True, Fraction(0))


def test_verify_theorem_degree_mismatch_fails(monkeypatch):
    # Wronskian 12 times (x^6)'' is 360 x^4; a cubic cannot be proportional.
    monkeypatch.setattr(oracle, "alternating_composition",
                        lambda *args: monomial(3, 360))
    assert verify_theorem(2, monomial_weights(4)) == (False, None)


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


@pytest.mark.parametrize(
    "record",
    [oracle.VerificationRecord(holds=False, extracted_const=None),
     oracle.VerificationRecord(holds=True, extracted_const=None),
     oracle.VerificationRecord(holds=True, extracted_const=Fraction(3, 2))],
    ids=["not-proportional", "indeterminate", "not-an-integer"],
)
def test_brute_force_const_refuses_anything_but_an_integer_ratio(
        monkeypatch, record):
    monkeypatch.setattr(oracle, "verify_theorem", lambda *args: record)
    with pytest.raises(ExactDivisionError, match="p=2"):
        brute_force_const(2)


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


@pytest.mark.parametrize("count", [7, 8, 9, 10])
def test_random_weight_tuple_degree_follows_count(count):
    # Past six weights the degree bound grows to count - 1, so count
    # independent weights can always be drawn.
    weights = random_weight_tuple(random.Random(count), count)
    assert len(weights) == count
    assert max(w.degree for w in weights) <= count - 1
    assert symbolic_wronskian(weights)


def test_random_weight_tuple_draws_are_fixed_up_to_six():
    # Up to six weights the degree bound is 5 whatever the count, so these
    # draws, and every seeded theorem-random run at p <= 3, never change.
    rng = random.Random(2026)
    assert [[str(w) for w in random_weight_tuple(rng, count)]
            for count in (2, 4, 6)] == [
        ["1", "4*x^4 + 8*x^3 - 2*x^2 - 6*x + 7"],
        ["3*x^3 + 2*x^2 + 2*x - 1", "8*x^5 + 8*x^4 - 7*x^3 + x^2 - 7*x + 7",
         "-5*x^2 + 5*x", "5*x^5 + 2*x^4 + 2*x^3 - 9*x^2 + 9"],
        ["8*x^3 + 4*x^2 + 6*x + 7", "5*x^5 - 6*x^4 + 5*x^3 + x^2 - 8",
         "6*x^5 + 4*x^4 - 4*x^3 + 5*x^2 - x + 7", "-1",
         "4*x^3 - 3*x^2 - 6*x + 2", "-9*x + 5"],
    ]


def test_random_polynomial_contract():
    rng = random.Random(0)
    for _ in range(100):
        poly = random_polynomial(rng, max_degree=5, min_degree=2)
        assert poly
        assert 2 <= poly.degree <= 5
    again = random_polynomial(random.Random(123))
    assert again == random_polynomial(random.Random(123))
