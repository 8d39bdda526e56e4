"""Independent verification path built on literal operator algebra.

Instead of the pruned-permutation engine, this module composes weighted
derivative operators symbolically on exact polynomials, sums over the whole
symmetric group with signs, and compares against the Wronskian determinant.

Both sides of that comparison are signed sums over the orderings of the
weight indices, and both are built by one routine, ``_alternating_sum``,
one subset of indices at a time. The operators are linear, so the sum for a
set of weight indices is an alternating sum, over its members j, of
``weights[j]`` times the p-th derivative of the sum for the set without j;
each subset's sum and its derivative are computed once, from the empty set
(``f`` itself) up to the full set, by literal polynomial derivatives,
products and additions. The Wronskian is the same sum with the rows of
derivatives in place of the weights and no derivative between them: a
Laplace expansion from the bottom row. The only work skipped is a zero
term, a subset whose value is zero or a zero entry. Nothing here knows
about the contributing-set construction or the falling-factorial closed
form, and the recursion runs over weight indices, not exponent values,
which is what makes it a genuine cross-check of the fast engine.

The sum costs 2^(2p) derivatives and 2p * 2^(2p-1) products: with the
monomial weights, p = 8 takes about 0.5 s, p = 9 about 2.6 s and p = 10
about 9 s of CPU (``brute_force_const``, medians of 3 runs on a 2-core
Xeon); ``verify --p 11 --mode oracle --slow`` takes about 51 s and 465 MB,
and at p = 12 245 s and 1,785 MB.
The functions here run any p they are given; the command line's cap
(``cli._CAPS``) is the one limit on it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .engine import ExactDivisionError
from .polynomial import ONE, ZERO, Polynomial, dot, monomial


def alternating_composition(
    p: int, weights: Sequence[Polynomial], f: Polynomial
) -> Polynomial:
    """Signed sum over all orderings of the composed weighted operators.

    Every permutation ``order`` of the 2p weights contributes the
    composition w_(order[0]) d^p ( ... w_(order[2p-1]) d^p (f) ... ) with the
    permutation's sign. Let S(T) be that signed sum over the orderings of
    the indices in T only, so S({}) = f. Grouping the orderings of T by
    their outermost index j gives, by linearity,

        S(T) = sum over j in T of (-1)^b(j) * weights[j] * S(T - {j})^(p),

    where b(j) counts the members of T below j: the inversions that j, in
    front, makes with the rest. ``_alternating_sum`` builds S for every
    subset, each subset's derivative taken once and each subset's terms
    ``+-weights[j] * S(T - {j})^(p)`` summed literally in one pass: 2^(2p)
    derivatives and 2p * 2^(2p-1) products in place of one composition per
    ordering.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if len(weights) != 2 * p:
        raise ValueError(f"expected {2 * p} weights, got {len(weights)}")
    return _alternating_sum(f, [weights] * (2 * p), lambda s: s.derivative(p))


def _alternating_sum(start: Polynomial, rows: Sequence[Sequence[Polynomial]],
                     step: Callable[[Polynomial], Polynomial]) -> Polynomial:
    """The sum over weight-index subsets shared by both sides of the theorem.

    With V({}) = ``start``, V(T) for a nonempty T is the sum, over its
    members j, of (-1)^b * rows[|T| - 1][j] * step(V(T - {j})), where b
    counts the members of T below j; the result is V of the full index set.
    The subsets are built one size at a time, each by one ``dot`` over its
    signed terms, after the previous size's values are stepped and dropped.
    A subset whose stepped value is zero gives no term, and neither does a
    zero entry: a zero factor makes a zero term.
    """
    layer = {0: start}
    for row in rows:
        below = {s: d for s, v in layer.items() if (d := step(v))}
        del layer
        signed = (row, [-entry for entry in row])
        bits = [(j, 1 << j) for j, entry in enumerate(row) if entry]
        grown = {s | bit for s in below for _, bit in bits if not s & bit}
        # The sign of j's term in g is the parity of g's members below j.
        layer = {g: dot((signed[(g & bit - 1).bit_count() & 1][j],
                         below[g ^ bit])
                        for j, bit in bits if g & bit and g ^ bit in below)
                 for g in grown}
    return layer.get((1 << len(rows)) - 1, ZERO)


def symbolic_wronskian(weights: Sequence[Polynomial]) -> Polynomial:
    """Determinant of the matrix whose row i holds the i-th derivatives.

    Laplace expansion from the bottom row up, by ``_alternating_sum``: V(T)
    is the minor on the bottom |T| rows and the columns T, and expanding
    V(T + {j}) along its top row gives entry j the sign (-1)^b, b the
    members of T below j, as in the composition. High derivatives of
    polynomials vanish, so starting at the bottom few subsets survive.
    Exact over the polynomial ring; the monomial weights at n = 16 take
    under 1 ms.
    """
    if not weights:
        raise ValueError("need at least one weight")
    n = len(weights)
    rows = [[w.derivative(i) for w in weights] for i in reversed(range(n))]
    return _alternating_sum(ONE, rows, lambda v: v)


class VerificationRecord(NamedTuple):
    """Outcome of one proportionality check.

    ``extracted_const`` is the exact ratio between the alternating
    composition and Wronskian * p-th derivative of f; None when the check
    failed or when both sides vanish (indeterminate).
    """

    holds: bool
    extracted_const: Fraction | None


def verify_theorem(
    p: int, weights: Sequence[Polynomial], f: Polynomial | None = None
) -> VerificationRecord:
    """Check that the alternating composition is proportional to
    Wronskian(weights) * f^(p), and extract the exact ratio.

    The ratio is fitted from the leading coefficients and then confirmed
    across every coefficient by cross-multiplication, avoiding polynomial
    division. A default f = x^(3p) guarantees a nonzero p-th derivative.
    """
    if f is None:
        f = monomial(p + len(weights))
    lhs = alternating_composition(p, weights, f)
    rhs = symbolic_wronskian(weights) * f.derivative(p)
    if not rhs:
        return VerificationRecord(holds=not lhs, extracted_const=None)
    # A zero lhs fits the ratio 0. Sides of different degrees fail the
    # cross-multiplication: a nonzero integer factor keeps each degree.
    ratio = Fraction(lhs.leading_coefficient, rhs.leading_coefficient)
    if lhs * ratio.denominator == rhs * ratio.numerator:
        return VerificationRecord(holds=True, extracted_const=ratio)
    return VerificationRecord(holds=False, extracted_const=None)


def monomial_weights(n: int) -> list[Polynomial]:
    """The canonical weights 1, x, x^2, ..., x^(n-1)."""
    return [monomial(k) for k in range(n)]


def brute_force_const(p: int) -> int:
    """The universal constant by the literal oracle on monomial weights.

    ``verify_theorem`` with the weights 1, x, ..., x^(2p-1) and f = x^p:
    every ordering's composition, summed over weight-index subsets (2^(2p)
    derivatives and 2p * 2^(2p-1) products), against the symbolic Wronskian
    times p!. No pruning, no per-term closed form: this is the slow path
    the fast engine is checked against. Raises ``ExactDivisionError``
    unless the two sides are proportional with an integer ratio.
    """
    record = verify_theorem(p, monomial_weights(2 * p), monomial(p))
    const = record.extracted_const
    if not record.holds or const is None or const.denominator != 1:
        raise ExactDivisionError(
            f"alternating sum is not an integer multiple of p! * Wronskian "
            f"(p={p}, ratio {const}); this is a bug")
    return const.numerator


def random_polynomial(
    rng: random.Random,
    max_degree: int = 5,
    min_degree: int = 0,
    coeff_bound: int = 9,
) -> Polynomial:
    """A random nonzero polynomial with small integer coefficients.

    The degree is chosen uniformly in [min_degree, max_degree] and the
    leading coefficient is forced nonzero, so the draw is never the zero
    polynomial. Deterministic for a fixed rng state.
    """
    degree = rng.randint(min_degree, max_degree)
    coeffs = {e: rng.randint(-coeff_bound, coeff_bound) for e in range(degree)}
    lead = 0
    while lead == 0:
        lead = rng.randint(-coeff_bound, coeff_bound)
    coeffs[degree] = lead
    return Polynomial(coeffs)


def random_weight_tuple(rng: random.Random, count: int) -> list[Polynomial]:
    """Random weights with a nonzero Wronskian (linearly independent).

    Each weight has degree at most max(5, count - 1), so count independent
    ones always exist; for a count up to 6 the bound is 5 whatever the
    count, which keeps those draws fixed. Dependent tuples make both sides
    of the proportionality vanish, so the ratio could not be extracted;
    they are redrawn. Deterministic for a fixed rng state.
    """
    max_degree = max(5, count - 1)
    while True:
        weights = [random_polynomial(rng, max_degree=max_degree)
                   for _ in range(count)]
        if symbolic_wronskian(weights):
            return weights
