"""Exact evaluation of the contributing-permutation sum and its reports.

For N = 2p monomial weights 1, x, ..., x^(N-1), the term of a contributing
permutation is a product of falling factorials of its running exponents, and
the signed sum of those terms over the whole contributing set is an exact
integer multiple of the monomial Wronskian 0! * 1! * ... * (N-1)!. The
quotient is the universal constant this package computes.

The default evaluation, ``subset_dp``, is a dynamic program over the sets of
placed values: a running exponent and the sign picked up by one placement
depend only on which values are already placed, not on their order, so the
sum over orderings collapses layer by layer (one layer per set size). The
pruned walk of ``parallel.compute`` evaluates the same sum permutation by
permutation and stays available as the cross-check: ``const_of_p`` runs it
when ``workers > 1`` or a split ``depth`` is given, and only then imports
``parallel``. Both paths share what this module owns: ``PartialResult``,
the falling-factorial table and the progress interval. Everything here is
arbitrary-precision integer arithmetic; a division that leaves a remainder
is an implementation bug, never valid data, and raises
``ExactDivisionError``.
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

PROGRESS_INTERVAL_S = 1.0


class ExactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder (internal bug)."""


def term_coefficient(perm: Sequence[int], p: int) -> int:
    """The falling-factorial product for one permutation; 0 if it vanishes.

    The running exponents seen by the p-th derivatives, innermost weight
    first, are the suffix partial sums shifted by p: E_k = T_k + p. The term
    vanishes as soon as some E_k < p (some T_k < 0). Strictly positive on
    contributing permutations, so all sign variation in the signed sum
    comes from permutation signs alone.
    """
    from .permutations import suffix_partial_sums

    sums = suffix_partial_sums(perm, p)
    if min(sums) < 0:
        return 0
    return math.prod(math.perm(t + p, p) for t in sums)


@lru_cache(maxsize=None)
def wronskian_of_monomials(n: int) -> int:
    """0! * 1! * ... * (n-1)!: the Wronskian of 1, x, ..., x^(n-1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.prod(math.factorial(k) for k in range(n))


class ConstReport(NamedTuple):
    """Everything computed for one p: counts, exact sums, and ratios.

    Stores the four computed facts; |Phi_p|, the Wronskian, the constant
    and its two ratios follow from them. ``to_record`` writes the report
    out; the package reads no record back, so ``const_of_p`` is the one
    place where the exact division is checked.
    """

    p: int
    signed_sum: int
    even_count: int
    odd_count: int

    @property
    def phi_size(self) -> int:
        return self.even_count + self.odd_count

    @property
    def wronskian(self) -> int:
        return wronskian_of_monomials(2 * self.p)

    @property
    def const_p(self) -> int:
        return self.signed_sum // self.wronskian

    @property
    def ratio_p_factorial(self) -> Fraction:
        return Fraction(self.const_p, math.factorial(self.p))

    @property
    def ratio_N_factorial(self) -> Fraction:
        return Fraction(self.const_p, math.factorial(2 * self.p))

    def to_record(self) -> dict[str, object]:
        """Flat record; big integers as decimal strings, ratios as "n/d".

        Survives JSON and CSV round trips without precision loss.
        """
        return {
            "p": self.p,
            "phi_size": self.phi_size,
            "even_count": self.even_count,
            "odd_count": self.odd_count,
            "wronskian": str(self.wronskian),
            "signed_sum": str(self.signed_sum),
            "const_p": str(self.const_p),
            "ratio_p_factorial": _format_fraction(self.ratio_p_factorial),
            "ratio_N_factorial": _format_fraction(self.ratio_N_factorial),
        }


def _format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class PartialResult(NamedTuple):
    """Exact sum over a set of permutations; addition is componentwise."""

    signed_sum: int
    even_count: int
    odd_count: int

    @property
    def terms_evaluated(self) -> int:
        """The permutations summed: |Phi_p| for the whole contributing set."""
        return self.even_count + self.odd_count

    def __add__(self, other: PartialResult) -> PartialResult:
        if not isinstance(other, PartialResult):
            return NotImplemented
        return PartialResult(self.signed_sum + other.signed_sum,
                             self.even_count + other.even_count,
                             self.odd_count + other.odd_count)


@lru_cache(maxsize=None)
def _falling_factorials(p: int) -> tuple[int, ...]:
    # fall[e] = e(e-1)...(e-p+1); the running sum never exceeds p(p-1)/2,
    # so exponents e = sum + p stay within p(p+1)/2.
    top = p * (p + 1) // 2
    return tuple(math.perm(e, p) for e in range(top + 1))


def subset_dp(p: int, progress: bool = False) -> PartialResult:
    """The contributing-set sum by a DP over the sets of placed values.

    Returns the same ``PartialResult`` as ``parallel.compute(p)``. Values
    1..2p-1 are placed right to left, as in the walk. For a set ``mask`` of
    placed values, the running sum t = sum(v - p) is fixed by the set, so
    placing ``v`` next is allowed iff t + v - p >= 0, its factor
    fall[t + v] depends only on the new set, and it flips the sign iff an
    odd number of placed values lie below ``v``. Each layer maps a set of
    k values to (t, signed weight, signed count, count) summed over all
    allowed orderings of it, and is built by pulling from the layer below.
    Each set is generated once, by adding its smallest value to the rest,
    whose t is never negative: the values added to ``mask`` run from
    max(1, p - t), the least that keeps the new t >= 0, to one below the
    lowest member of ``mask`` (to 2p - 1 for the empty set). A set's
    orderings end in one of its members u <= t + p, t being the set's own
    sum (so that the set without u had t >= 0), and the pull loop runs
    over exactly those members.

    With ``progress`` set, prints "layer k/2p-1, S states" to stderr at
    most once per ``PROGRESS_INTERVAL_S``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    fall = _falling_factorials(p)
    n = 2 * p
    layer = {0: (0, 1, 1, 1)}
    last_report = time.monotonic()
    for k in range(1, n):
        below, layer = layer, {}
        for mask, (t, _, _, _) in below.items():
            top = (mask & -mask).bit_length() - 1 if mask else n
            for v in range(max(1, p - t), top):
                target = mask | 1 << v
                t2 = t + v - p
                weight = signed = count = 0
                rest = target & ((2 << (t2 + p)) - 1)
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    _, w, s, c = below[target ^ bit]
                    if (target & (bit - 1)).bit_count() & 1:
                        weight -= w
                        signed -= s
                    else:
                        weight += w
                        signed += s
                    count += c
                layer[target] = (t2, weight * fall[t2 + p], signed, count)
        now = time.monotonic()
        if progress and now - last_report >= PROGRESS_INTERVAL_S:
            last_report = now
            print(f"layer {k}/{n - 1}, {len(layer)} states", file=sys.stderr)
    ((_, weight, signed, count),) = layer.values()
    even = (count + signed) // 2
    return PartialResult(weight, even, count - even)


def const_of_p(p: int, workers: int = 1, depth: int | None = None,
               progress: bool = False) -> ConstReport:
    """Compute the universal constant for 2p operators, with full statistics.

    Evaluates the signed sum with ``subset_dp``, unless ``workers > 1`` or a
    ``depth`` asks for the pruned backtracking walk, split over ``workers``
    processes at split ``depth`` (see ``parallel``). Either way the sum is
    divided exactly by the monomial Wronskian, and the report is
    bit-identical for both paths and every worker count and split depth.
    """
    if workers != 1 or depth is not None:
        from . import parallel

        part = parallel.compute(p, workers=workers, depth=depth,
                                progress=progress)
    else:
        part = subset_dp(p, progress=progress)
    wronskian = wronskian_of_monomials(2 * p)
    if part.signed_sum % wronskian:
        raise ExactDivisionError(
            f"signed sum {part.signed_sum} is not a multiple of the "
            f"Wronskian {wronskian} (p={p}); this is a bug"
        )
    return ConstReport(p, *part)


def ratios(report: ConstReport) -> tuple[Fraction, Fraction, tuple[str, str]]:
    """The two normalisations of the constant, exact plus display strings."""
    small = report.ratio_p_factorial
    large = report.ratio_N_factorial
    return small, large, (render_ratio(small), render_ratio(large))


def render_ratio(value: Fraction) -> str:
    """Display rendering: exact integers verbatim, otherwise short decimals.

    Values below 1 get three decimal places, values up to 10^5 two, both
    with trailing zeros stripped; anything larger is shown as scientific
    notation with a single mantissa decimal. Either way one step rounds:
    the magnitude times 10^places, round-half-even, whose digits then get
    their decimal point (and, past 10^5, their exponent).
    """
    if value.denominator == 1:
        return str(value.numerator)
    magnitude = abs(value)
    if magnitude < 100_000:
        places = 3 if magnitude < 1 else 2
    else:  # two significant digits
        places = 2 - len(str(int(magnitude)))
    scaled = round(magnitude * Fraction(10) ** places)
    sign = "-" if value < 0 and scaled else ""
    digits = str(scaled).zfill(places + 1)
    if magnitude < 100_000:
        point, suffix = len(digits) - places, ""
    else:  # a mantissa that rounds to 10.0 carries into the exponent
        point, suffix = 1, f"e{len(digits) - 1 - places}"
    frac = digits[point:].rstrip("0") or "0"
    return f"{sign}{digits[:point]}.{frac}{suffix}"
