"""Exact univariate polynomials with integer coefficients.

A polynomial is stored sparsely as a map from exponent to nonzero
coefficient; the zero polynomial stores nothing. All arithmetic is exact
(Python integers), so these polynomials are safe to use as the ground truth
in verification paths; the constructor raises ``TypeError`` on an exponent
or coefficient that is not an ``int``.

``str`` writes the terms in descending exponent order, "3*x^2 - x + 5",
and the zero polynomial as "0". The text form is output only: values are
built from exponent-to-coefficient maps, never read back from text.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


class Polynomial:
    """Immutable sparse polynomial over the integers."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        items = coeffs.items() if coeffs else ()
        for exp, c in items:
            if not (isinstance(exp, int) and isinstance(c, int)):
                raise TypeError(f"non-integer term {c!r}*x^{exp!r}")
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
        self._coeffs = {e: c for e, c in items if c}

    # -- inspection ------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else None

    @property
    def leading_coefficient(self) -> int:
        """Coefficient of the largest exponent; 0 for the zero polynomial."""
        return self._coeffs[max(self._coeffs)] if self._coeffs else 0

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in descending exponent order."""
        return sorted(self._coeffs.items(), reverse=True)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its int, so it must hash like it.
        if self.degree in (None, 0):
            return hash(self.leading_coefficient)
        return hash(tuple(self.terms()))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            acc[e] = acc.get(e, 0) + c
        return _normalised({e: c for e, c in acc.items() if c})

    def __neg__(self) -> Polynomial:
        return _normalised({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            if not other:
                return _normalised({})
            return _normalised({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return dot([(self, other)])

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> Polynomial:
        """The order-th formal derivative (exact; order >= 0)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order == 0:
            return self
        # d^k/dx^k x^e = e(e-1)...(e-k+1) x^(e-k); math.perm is that product.
        return _normalised(
            {e - order: c * math.perm(e, order)
             for e, c in self._coeffs.items() if e >= order}
        )

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "x" if e == 1 else f"x^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({dict(sorted(self._coeffs.items()))!r})"


def _normalised(coeffs: dict[int, int]) -> Polynomial:
    """Wrap a dict that already holds the canonical form: distinct exponents
    >= 0, each with a nonzero coefficient. It is not copied or checked.

    The arithmetic above builds its results here, so it skips the public
    constructor's checks and copy. Equality compares the dicts, so a stored
    zero would break it.
    """
    poly = object.__new__(Polynomial)
    poly._coeffs = coeffs
    return poly


def dot(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of ``a * b`` over the pairs (a, b): every product's terms are
    added into one exponent -> coefficient map, and its zero coefficients
    are dropped once, at the end. The one product loop: ``*`` calls it too.
    """
    acc: dict[int, int] = {}
    for a, b in pairs:
        for e1, c1 in a._coeffs.items():
            for e2, c2 in b._coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
    return _normalised({e: c for e, c in acc.items() if c})


def monomial(exponent: int, coefficient: int = 1) -> Polynomial:
    """The polynomial coefficient * x**exponent."""
    return Polynomial({exponent: coefficient})


ZERO = Polynomial()
ONE = monomial(0)
