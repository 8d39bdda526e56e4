"""Independent verification path built on literal operator algebra.

Instead of the pruned-permutation engine, this module composes weighted
derivative operators symbolically on exact polynomials, sums over the whole
symmetric group with signs, and compares against the Wronskian determinant.

The sum walks the orderings as a tree, innermost operator first, so a
partial composition shared by many orderings is computed once; each
operator application is still a literal polynomial derivative and product,
and the sign of each ordering is carried down the walk as an inversion
parity. The walk skips only subtrees below a partial composition whose
derivative is zero, because every operator maps zero to zero. Nothing here
knows about the contributing-set construction or the falling-factorial
closed form, which is what makes it a genuine cross-check of the fast
engine.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .engine import ExactDivisionError
from .polynomial import ONE, Polynomial, monomial

# Full S_N sums cost N! compositions; warn once past this arity. p = 5
# (10! orderings) takes about 2 s with the shared-composition tree walk.
_COMFORTABLE_MAX_P = 5


def alternating_composition(
    p: int, weights: Sequence[Polynomial], f: Polynomial
) -> Polynomial:
    """Signed sum over all orderings of the composed weighted operators.

    Every permutation ``order`` of the 2p weights contributes the
    composition w_(order[0]) d^p ( ... w_(order[2p-1]) d^p (f) ... ) with the
    permutation's sign. The orderings are walked as a tree, innermost
    operator first: a node at depth k holds the exact partial composition
    of the k innermost operators, its p-th derivative is taken once, and
    each child applies one more operator, literally ``weights[j] * d``.
    Orderings that share their innermost operators therefore share that
    work, and each leaf is one full composition, added into one
    exponent -> coefficient map with its sign.

    The sign is carried down the walk: placing index j to the left of the
    indices already placed, when it has rank ``idx`` among the unused ones,
    makes j - idx new inversions (the placed indices below j). A node whose
    derivative is the zero polynomial ends its subtree, since every
    extension of it is w * 0 = 0. Nothing else is skipped: the walk knows
    nothing of contributing sets or falling-factorial closed forms, which
    keeps it independent of the engine.
    """
    n = _check_arity(p, weights)
    acc: dict[int, int] = {}
    unused = list(range(n))

    def extend(term: Polynomial, odd: int) -> None:
        d = term.derivative(p)
        if not d:
            return
        for idx in range(len(unused)):
            j = unused.pop(idx)
            child = weights[j] * d
            child_odd = odd ^ ((j - idx) & 1)
            if unused:
                extend(child, child_odd)
            else:
                for e, c in child.terms():
                    acc[e] = acc.get(e, 0) + (-c if child_odd else c)
            unused.insert(idx, j)

    extend(f, 0)
    return Polynomial(acc)


def _check_arity(p: int, weights: Sequence[Polynomial]) -> int:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = 2 * p
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    if p > _COMFORTABLE_MAX_P:
        warnings.warn(
            f"summing over {math.factorial(n)} operator compositions (p={p}); "
            "this will take a while",
            RuntimeWarning,
            stacklevel=3,
        )
    return n


def symbolic_wronskian(weights: Sequence[Polynomial]) -> Polynomial:
    """Determinant of the matrix whose row i holds the i-th derivatives.

    Cofactor expansion with memoisation on column subsets; exact over the
    polynomial ring. Fine for the small matrices used here (n <= 8 or so).
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
        total = Polynomial()
        for j, col in enumerate(cols):
            entry = rows[row][col]
            if not entry:
                continue
            rest = minor(cols[:j] + cols[j + 1:])
            contribution = entry * rest
            total = total + (contribution if j % 2 == 0 else -contribution)
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


@dataclass(frozen=True)
class VerificationRecord:
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
    n = _check_arity(p, weights)
    if f is None:
        f = monomial(p + n)
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


def monomial_weights(n: int) -> list[Polynomial]:
    """The canonical weights 1, x, x^2, ..., x^(n-1)."""
    return [monomial(k) for k in range(n)]


def brute_force_const(p: int) -> int:
    """The universal constant by full symmetric-group expansion.

    Uses the monomial weights and f = x^p (so the p-th derivative of f is
    p!), evaluates all (2p)! operator compositions literally, and divides
    out the symbolic Wronskian exactly. No pruning, no per-term closed
    form: this is the slow path the fast engine is checked against.
    """
    n = 2 * p
    weights = monomial_weights(n)
    total = alternating_composition(p, weights, monomial(p))
    if total.degree not in (None, 0):
        raise ExactDivisionError(
            f"full alternating sum is not constant (degree {total.degree}); "
            "this is a bug"
        )
    wronskian = symbolic_wronskian(weights)
    denominator = math.factorial(p) * wronskian.coefficient(0)
    const, remainder = divmod(total.coefficient(0), denominator)
    if remainder:
        raise ExactDivisionError(
            f"alternating sum {total.coefficient(0)} is not a multiple of "
            f"p! * Wronskian = {denominator} (p={p}); this is a bug"
        )
    return const


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


def random_weight_tuple(
    rng: random.Random, count: int, max_degree: int = 5, coeff_bound: int = 9
) -> list[Polynomial]:
    """Random weights with a nonzero Wronskian (linearly independent).

    Dependent tuples make both sides of the proportionality vanish, so the
    ratio could not be extracted; they are redrawn. Deterministic for a
    fixed rng state.
    """
    while True:
        weights = [
            random_polynomial(rng, max_degree=max_degree,
                              coeff_bound=coeff_bound)
            for _ in range(count)
        ]
        if symbolic_wronskian(weights):
            return weights
