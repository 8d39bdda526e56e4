import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from altwronsk import parallel
from altwronsk.engine import (
    ConstReport,
    const_of_p,
    ratios,
    render_ratio,
    subset_dp,
    term_coefficient,
    wronskian_of_monomials,
)
from altwronsk.permutations import (
    enumerate_backtracking,
    enumerate_filtered,
    parse_permutation,
    sign,
    suffix_partial_sums,
)

P = parse_permutation

# p, phi, even, odd, const - the cheap reference rows. The constants up to
# p = 6 are also derived without the package (monomial composition, below);
# p = 7 and 8 are checked through the subset DP only; their walks take
# minutes and more.
REFERENCE_ROWS = [
    (1, 1, 1, 0, 1),
    (2, 3, 1, 2, 2),
    (3, 35, 18, 17, 90),
    (4, 1001, 500, 501, 586656),
    (5, 53109, 26555, 26554, 1915103977500),
    (6, 4_605_271, 2_302_635, 2_302_636, 7_886_133_184_567_796_056_800),
    (7, 589_809_987, 294_904_994, 294_904_993,
     85873408332103907284746052081828368),
    (8, 104_899_483_845, 52_449_741_922, 52_449_741_923,
     4_594_491_123_326_092_088_701_002_220_876_785_865_521_537_220_214_784),
]


def direct_exponents(perm, p):
    n = len(perm)
    return tuple(
        sum(perm[n - 1 - j] for j in range(k)) - (k - 1) * p
        for k in range(1, n)
    )


def exponents(perm, p):
    return tuple(t + p for t in suffix_partial_sums(perm, p))


@pytest.mark.parametrize("p", [2, 3])
def test_exponent_recurrence_matches_direct_formula(p):
    # The running exponents are the suffix partial sums shifted by p, and
    # the term is the product of their falling factorials, or 0 once one
    # of them drops below p.
    for perm in itertools.permutations(range(2 * p)):
        direct = direct_exponents(perm, p)
        assert exponents(perm, p) == direct
        expected = (math.prod(math.perm(e, p) for e in direct)
                    if all(e >= p for e in direct) else 0)
        assert term_coefficient(perm, p) == expected


def test_exponent_sequence_examples():
    # The exponent sequence is the suffix partial sums shifted by p.
    assert exponents(P("(1,2,3,4)"), 2) == (3, 3, 2)
    assert exponents(P("(1,2,4,3)"), 2) == (2, 3, 2)
    assert exponents(P("(1,2)"), 1) == (1,)


def test_exponent_sequence_vanishing_signal():
    # Discarded permutations vanish: some running exponent drops below p,
    # and the term is 0 rather than an exception.
    for text in ("(1,3,4,2)", "(1,4,3,2)"):
        assert min(exponents(P(text), 2)) < 2
        assert term_coefficient(P(text), 2) == 0


def test_exponent_sequence_rejects_bad_length():
    with pytest.raises(ValueError):
        suffix_partial_sums((0, 1, 2), 2)
    with pytest.raises(ValueError):
        term_coefficient((0, 1, 2), 2)


def test_term_coefficient_examples():
    assert term_coefficient(P("(1,2,3,4)"), 2) == 72
    assert term_coefficient(P("(1,2,4,3)"), 2) == 24
    assert term_coefficient(P("(1,2)"), 1) == 1
    assert term_coefficient(P("(1,4,2,3)"), 2) == 0


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_term_coefficient_positive_on_contributing(p):
    for perm in enumerate_backtracking(p):
        assert term_coefficient(perm, p) > 0


def test_wronskian_of_monomials():
    assert wronskian_of_monomials(1) == 1
    assert wronskian_of_monomials(4) == 12
    assert wronskian_of_monomials(6) == 34560
    with pytest.raises(ValueError):
        wronskian_of_monomials(0)


@pytest.mark.parametrize("p, phi, even, odd, const", REFERENCE_ROWS)
def test_const_of_p_reference_rows(p, phi, even, odd, const):
    report = const_of_p(p)
    assert report.phi_size == phi
    assert report.even_count == even
    assert report.odd_count == odd
    assert report.const_p == const
    assert report.even_count + report.odd_count == report.phi_size
    assert report.const_p * report.wronskian == report.signed_sum


def test_published_rows_arithmetic_sentinels():
    # Facts about the published rows p <= 10, not conjectures about all p.
    # A new row that breaks one deserves a second look before it is
    # published.
    consts = {p: const for p, *_, const in REFERENCE_ROWS}
    consts.update((p, const_of_p(p).const_p) for p in (9, 10))

    def valuation(n, prime):
        k = 0
        while n % prime == 0:
            n //= prime
            k += 1
        return k

    for prime in (2, 3, 5, 7):
        assert valuation(consts[prime], prime) == prime - 1
    for p in (3, 4, 6, 7, 9, 10):  # 2p - 1 is a prime >= 5
        assert consts[p] % (2 * p - 1) == 0
    integral = [p for p in sorted(consts)
                if consts[p] % math.factorial(p) == 0]
    assert integral == [1, 2, 3, 4, 6]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_const_matches_filtered_per_term_summation(p):
    # Same sum assembled the slow way: exhaustive filter, quadratic-time
    # signs, per-permutation falling-factorial products.
    slow = sum(
        sign(perm) * term_coefficient(perm, p) for perm in enumerate_filtered(p)
    )
    assert slow == const_of_p(p).signed_sum


def test_const_of_p_rejects_bad_p():
    with pytest.raises(ValueError):
        const_of_p(0)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_subset_dp_matches_walk(p):
    assert subset_dp(p) == parallel.compute(p)


def test_subset_dp_progress_goes_to_stderr(capsys, monkeypatch):
    monkeypatch.setattr(parallel, "PROGRESS_INTERVAL_S", 0.0)
    subset_dp(3, progress=True)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == "layer 1/5, 3 states"
    assert lines[-1] == "layer 5/5, 1 states"


def test_const_of_p_rejects_bad_workers():
    with pytest.raises(ValueError):
        const_of_p(4, workers=0)


def test_determinism_across_workers_and_depths():
    baseline = const_of_p(4)
    for workers, depth in [(1, 1), (1, 3), (2, 2), (2, None)]:
        assert const_of_p(4, workers=workers, depth=depth) == baseline


def test_ratios_reference_values():
    small4, large4, (small4_text, large4_text) = ratios(const_of_p(4))
    assert small4 == 24444
    assert large4 == Fraction(586656, math.factorial(8))
    assert small4_text == "24444"
    assert large4_text == "14.55"

    _, large2, (small2_text, large2_text) = ratios(const_of_p(2))
    assert large2 == Fraction(1, 12)
    assert small2_text == "1"
    assert large2_text == "0.083"

    _, _, (small1_text, large1_text) = ratios(const_of_p(1))
    assert small1_text == "1"
    assert large1_text == "0.5"

    _, _, (_, large3_text) = ratios(const_of_p(3))
    assert large3_text == "0.125"


def test_render_ratio_scientific():
    report = const_of_p(5)
    assert render_ratio(report.ratio_p_factorial) == "1.6e10"
    assert render_ratio(report.ratio_N_factorial) == "5.3e5"
    assert render_ratio(Fraction(-527751317, 1000)) == "-5.3e5"
    assert render_ratio(Fraction(7886133184567796056800)) == \
        "7886133184567796056800"


def test_render_ratio_half_even():
    assert render_ratio(Fraction(25, 1000)) == "0.025"
    assert render_ratio(Fraction(25, 10000)) == "0.002"  # tie rounds to even
    assert render_ratio(Fraction(35, 10000)) == "0.004"  # tie rounds to even
    assert render_ratio(Fraction(-1, 12)) == "-0.083"


def test_report_record_round_trip():
    report = const_of_p(4)
    record = report.to_record()
    assert ConstReport.from_record(record) == report
    # and through a JSON round trip
    assert ConstReport.from_record(json.loads(json.dumps(record))) == report
    # and with every field as text, as a CSV reader would deliver it
    assert ConstReport.from_record(
        {key: str(value) for key, value in record.items()}
    ) == report


def test_signed_sum_dominated_by_positive_terms():
    # The even/odd split leaves a sign gap of one permutation, yet the sum
    # stays positive and exactly divisible for each small p.
    rng = random.Random(5)
    for p in rng.sample(range(1, 6), k=5):
        report = const_of_p(p)
        assert report.signed_sum > 0
        assert report.signed_sum % report.wronskian == 0


def monomial_composition_const(p, exponents, m):
    """const(p) from the alternating composition on monomial weights.

    The weights are ``x^a`` for the distinct ``exponents`` (in index order)
    and ``f = x^m``. Every ordering of the 2p operators maps ``f`` to a
    multiple of one power of x, so the composition is summed as a layered
    DP over the sets S of weight indices placed so far, right to left:
    placing index v after S multiplies by the falling factorial ``(e)_p``
    of the current exponent ``e = m + sum(a_u, u in S) - |S| p`` and flips
    the sign when an odd number of indices in S lie below v. The theorem's
    right-hand side is const(p) times the Vandermonde
    ``prod_{i<j}(a_j - a_i)`` (the Wronskian's coefficient) times
    ``(m)_p`` (that of ``f^(p)``); the division must be exact.
    Standard library only.
    """
    n = len(exponents)
    layer = {0: 1}
    for _ in range(n):
        following = {}
        for placed, total in layer.items():
            members = [u for u in range(n) if placed >> u & 1]
            e = m + sum(exponents[u] for u in members) - len(members) * p
            step = total * math.prod(range(e, e - p, -1))
            if step == 0:
                continue
            for v in range(n):
                if placed >> v & 1:
                    continue
                below = sum(1 for u in members if u < v)
                target = placed | 1 << v
                following[target] = following.get(target, 0) + (
                    -step if below % 2 else step)
        layer = following
    vandermonde = math.prod(
        exponents[j] - exponents[i] for i in range(n) for j in range(i + 1, n)
    )
    quotient, remainder = divmod(
        layer.get((1 << n) - 1, 0), vandermonde * math.prod(range(m, m - p, -1))
    )
    assert remainder == 0
    return quotient


@pytest.mark.parametrize(
    "p, const", [(row[0], row[4]) for row in REFERENCE_ROWS if row[0] <= 6])
def test_monomial_composition_gives_exact_constant(p, const):
    rng = random.Random(20260511 + p)
    draws = [(list(range(2 * p)), p)]
    for _ in range(3):
        draws.append((rng.sample(range(4 * p + 6), 2 * p),
                      rng.randint(p, 3 * p)))
    for exponents, m in draws:
        assert monomial_composition_const(p, exponents, m) == const, \
            (exponents, m)
