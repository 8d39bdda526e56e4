"""Independent verification path built on literal operator algebra.

Instead of the pruned-permutation engine, this module composes weighted
derivative operators symbolically on exact polynomials, sums over the whole
symmetric group with signs, and compares against the Wronskian determinant.

The operators are linear, so the signed sum over all orderings factors by
the outermost operator: the sum for a set of weight indices is an
alternating sum, over its members j, of ``weights[j]`` times the p-th
derivative of the sum for the set without j. Each subset's sum and its
derivative are computed once, from the empty set (``f`` itself) up to the
full set, by literal polynomial derivatives, products and additions. The
only work skipped is below a subset whose derivative is zero, because every
operator maps zero to zero. Nothing here knows about the contributing-set
construction or the falling-factorial closed form, and the recursion runs
over weight indices, not exponent values, which is what makes it a genuine
cross-check of the fast engine.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction
from typing import NamedTuple, Sequence

from .engine import ExactDivisionError
from .polynomial import ONE, ZERO, Polynomial, monomial

# The signed sum over all (2p)! orderings costs 2^(2p) derivatives and
# 2p * 2^(2p-1) products; warn once past this arity. With the monomial
# weights, p = 8 takes about 1 s, p = 9 about 7 s and p = 10 about 33 s.
_COMFORTABLE_MAX_P = 8


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
    front, makes with the rest. The subsets are built up one size at a
    time; each subset's derivative is taken once and pushed to the subsets
    one index larger, literally ``weights[j] * d``, added or subtracted
    there. That is 2^(2p) derivatives and 2p * 2^(2p-1) products in place
    of one composition per ordering. A subset whose derivative is the zero
    polynomial pushes nothing (w * 0 = 0); nothing else is skipped.
    """
    n = _check_arity(p, weights)
    layer = {0: f}
    for _ in range(n):
        pushed: dict[int, Polynomial] = {}
        for subset, total in layer.items():
            d = total.derivative(p)
            if not d:
                continue
            odd = 0  # parity of the members of subset below j
            for j, weight in enumerate(weights):
                bit = 1 << j
                if subset & bit:
                    odd ^= 1
                    continue
                term = weight * d
                grown = subset | bit
                sofar = pushed.get(grown)
                if sofar is None:
                    pushed[grown] = -term if odd else term
                else:
                    pushed[grown] = sofar - term if odd else sofar + term
        layer = pushed
    return layer.get((1 << n) - 1, ZERO)


def _check_arity(p: int, weights: Sequence[Polynomial]) -> int:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = 2 * p
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    if p > _COMFORTABLE_MAX_P:
        warnings.warn(
            f"the literal oracle takes {cost_text(p)} (p={p}); "
            f"this will take a while",
            RuntimeWarning,
            stacklevel=3,
        )
    return n


def symbolic_wronskian(weights: Sequence[Polynomial]) -> Polynomial:
    """Determinant of the matrix whose row i holds the i-th derivatives.

    Cofactor expansion along the rows, memoised on column subsets: at
    most 2^n minors, each summing its nonzero cofactors once. Exact over
    the polynomial ring; the monomial weights at n = 16 take about 0.25 s.
    """
    if not weights:
        raise ValueError("need at least one weight")
    n = len(weights)
    rows = [[w.derivative(i) for w in weights] for i in range(n)]
    memo: dict[tuple[int, ...], Polynomial] = {}

    def minor(cols: tuple[int, ...]) -> Polynomial:
        if not cols:
            return ONE
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = n - len(cols)
        total = ZERO
        for j, col in enumerate(cols):
            entry = rows[row][col]
            if not entry:
                continue
            rest = minor(cols[:j] + cols[j + 1:])
            if rest:
                cofactor = entry * rest
                total = total - cofactor if j % 2 else total + cofactor
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


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
    if not lhs:
        return VerificationRecord(holds=True, extracted_const=Fraction(0))
    if lhs.degree != rhs.degree:
        return VerificationRecord(holds=False, extracted_const=None)
    ratio = Fraction(lhs.leading_coefficient, rhs.leading_coefficient)
    if lhs * ratio.denominator == rhs * ratio.numerator:
        return VerificationRecord(holds=True, extracted_const=ratio)
    return VerificationRecord(holds=False, extracted_const=None)


def cost_text(p: int) -> str:
    """The oracle's work at p, as text: its derivatives and products."""
    n = 2 * p
    return f"2^{n} derivatives and {n} * 2^{n - 1} products"


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
