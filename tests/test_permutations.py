import collections
import itertools
import random

import pytest

from altwronsk import permutations
from altwronsk.permutations import (
    count_late_growing,
    enumerate_backtracking,
    enumerate_backtracking_signed,
    enumerate_filtered,
    format_permutation,
    is_contributing,
    is_late_growing,
    pruned_suffixes,
    sign,
    suffix_partial_sums,
)


def direct_suffix_sums(perm, p):
    """T_k straight from the defining sum, no recurrence."""
    n = len(perm)
    return tuple(
        sum(perm[i] - p for i in range(n - k, n)) for k in range(1, n)
    )


def direct_exponents(perm, p):
    """E_k straight from the defining sum, no recurrence or early exit."""
    n = len(perm)
    return tuple(
        sum(perm[n - 1 - j] for j in range(k)) - (k - 1) * p
        for k in range(1, n)
    )


# -- representation -------------------------------------------------------


def test_parse_and_format_round_trip():
    assert format_permutation((0, 2, 1, 3)) == "(1,3,2,4)"
    assert format_permutation((0,)) == "(1)"
    for perm in itertools.permutations(range(5)):
        text = format_permutation(perm)
        assert tuple(int(v) - 1 for v in text[1:-1].split(",")) == perm


# -- sign -----------------------------------------------------------------


def test_sign_examples():
    assert sign((0, 1, 2, 3)) == 1
    assert sign((0, 1, 3, 2)) == -1
    assert sign((0, 2, 1, 3)) == -1


def test_sign_matches_transposition_parity():
    # Build permutations as products of k random transpositions; the sign
    # must be (-1)**k.
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(2, 9)
        perm = list(range(n))
        swaps = rng.randint(0, 12)
        for _ in range(swaps):
            i, j = rng.sample(range(n), 2)
            perm[i], perm[j] = perm[j], perm[i]
        assert sign(perm) == (-1) ** swaps


# -- suffix sums and the contributing predicate ---------------------------


def test_suffix_partial_sums_examples():
    assert suffix_partial_sums((0, 1, 2, 3), 2) == (1, 1, 0)
    assert suffix_partial_sums((0, 2, 3, 1), 2) == (-1, 0, 0)
    assert suffix_partial_sums((0, 1), 1) == (0,)


def test_suffix_partial_sums_match_direct_formula():
    for perm in itertools.permutations(range(6)):
        assert suffix_partial_sums(perm, 3) == direct_suffix_sums(perm, 3)


def test_suffix_partial_sums_rejects_bad_length():
    with pytest.raises(ValueError):
        suffix_partial_sums((0, 1, 2), 2)
    with pytest.raises(ValueError):
        suffix_partial_sums((0, 1), 0)


def test_is_contributing_examples():
    assert is_contributing((0, 1, 3, 2), 2)
    assert not is_contributing((2, 0, 3, 1), 2)
    assert not is_contributing((0, 3, 1, 2), 2)
    for wrong_length in ((), (1, 0, 2), (0, 1, 2)):
        with pytest.raises(ValueError):
            is_contributing(wrong_length, 2)


def test_contributing_equals_exponent_threshold():
    # Equivalent characterisation: first entry smallest and every running
    # exponent at least p. The exponent condition alone gives the same
    # verdict, because the last running sum is minus the first entry; and
    # the filter's fast form agrees with the definition.
    for p in (1, 2, 3, 4):
        for perm in itertools.permutations(range(2 * p)):
            by_exponents = all(e >= p for e in direct_exponents(perm, p))
            assert (perm[0] == 0 and by_exponents) == by_exponents
            assert is_contributing(perm, p) == by_exponents
            assert permutations._contributes(perm, p) == by_exponents
            assert suffix_partial_sums(perm, p)[-1] == -perm[0]


def test_suffix_sums_are_exponents_shifted_by_p():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.randint(1, 5)
        rest = list(range(1, 2 * p))
        rng.shuffle(rest)
        perm = (0, *rest)
        t = suffix_partial_sums(perm, p)
        e = direct_exponents(perm, p)
        assert all(t[k] == e[k] - p for k in range(len(t)))


# -- the two generators ---------------------------------------------------


def test_filtered_small_sets():
    assert [format_permutation(s) for s in enumerate_filtered(1)] == ["(1,2)"]
    assert [format_permutation(s) for s in enumerate_filtered(2)] == [
        "(1,2,3,4)", "(1,2,4,3)", "(1,3,2,4)"
    ]
    assert sum(1 for _ in enumerate_filtered(3)) == 35


def test_filtered_emits_in_lexicographic_order():
    emitted = list(enumerate_filtered(3))
    assert emitted == sorted(emitted)


def test_filtered_has_no_cap_of_its_own():
    # cli._CAPS is the one limit on the filter. The identity comes first,
    # so the first item returns at once at any p.
    assert next(enumerate_filtered(9)) == tuple(range(18))
    assert next(enumerate_filtered(1000)) == tuple(range(2000))


def test_backtracking_order_is_deterministic():
    assert list(enumerate_backtracking(2)) == [
        (0, 1, 3, 2), (0, 2, 1, 3), (0, 1, 2, 3)
    ]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_generators_agree(p):
    assert set(enumerate_backtracking(p)) == set(enumerate_filtered(p))


def test_backtracking_counts():
    assert sum(1 for _ in enumerate_backtracking(4)) == 1001
    assert sum(1 for _ in enumerate_backtracking(5)) == 53109


def test_backtracking_emits_permutations():
    for perm in enumerate_backtracking(3):
        assert sorted(perm) == list(range(6))
        assert is_contributing(perm, 3)


def test_signed_stream_matches_sign():
    for p in (1, 2, 3, 4):
        for perm, s in enumerate_backtracking_signed(p):
            assert s == sign(perm)


def test_identity_contributes_for_every_p():
    for p in range(1, 9):
        assert is_contributing(tuple(range(2 * p)), p)


def test_streams_are_independent():
    first = enumerate_backtracking(3)
    second = enumerate_backtracking(3)
    next(first)  # advancing one stream must not disturb the other
    assert list(second) == list(enumerate_backtracking(3))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_signed_stream_is_the_full_pruned_search(p):
    # Item for item, in order and with the same placement count, the stream
    # is the pruned search run to full length and completed by the pinned 0.
    streamed, searched = [0], [0]
    expected = [((0, *reversed(suffix)), -1 if parity else 1)
                for suffix, _, parity in pruned_suffixes(p, 2 * p - 1,
                                                         searched)]
    assert list(enumerate_backtracking_signed(p, streamed)) == expected
    assert streamed == searched


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_pruned_search_at_every_cut_length(p):
    # References from the exhaustive filter alone: at each length the search
    # yields the distinct suffixes of the contributing set (rightmost value
    # first) in increasing order, each with its own running sum and parity,
    # and counts the whole pool of every node above that length. Length 0
    # yields the one empty suffix and counts nothing.
    n = 2 * p
    filtered = list(enumerate_filtered(p))
    distinct = [sorted({tuple(reversed(perm[n - d:])) for perm in filtered})
                for d in range(n)]
    for length in range(n):
        counter = [0]
        got = [(tuple(suffix), t, parity)
               for suffix, t, parity in pruned_suffixes(p, length, counter)]
        assert got == [(suffix, sum(v - p for v in suffix),
                        int(sign(suffix[::-1]) == -1))
                       for suffix in distinct[length]]
        assert counter[0] == sum(len(distinct[d]) * (n - 1 - d)
                                 for d in range(length))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_search_over_the_values_left_is_the_subtree_below_a_head(p):
    # Resumed over the values a head leaves unplaced, the search yields the
    # full search's continuations of that head, in order, with the full
    # running sums, parities relative to the head's, and the placements the
    # full search attempts at and below the head.
    n = 2 * p
    full = [(tuple(suffix), t, parity)
            for suffix, t, parity in pruned_suffixes(p, n - 1)]
    below = collections.Counter()
    for depth in range(n - 1):
        for node, _, _ in pruned_suffixes(p, depth):
            for k in range(depth + 1):
                below[tuple(node[:k])] += n - 1 - depth
    for k in range(n):
        heads = [(tuple(head), parity)
                 for head, _, parity in pruned_suffixes(p, k)]
        for head, head_parity in heads:
            counter = [0]
            rest = set(range(1, n)).difference(head)
            got = [(head + tuple(tail), t, parity ^ head_parity)
                   for tail, t, parity
                   in pruned_suffixes(p, n - 1 - k, counter, rest)]
            assert got == [item for item in full if item[0][:k] == head]
            assert counter == [below[head]]


@pytest.mark.parametrize("p, placements", [(4, 3_395), (5, 176_992)])
def test_signed_stream_placement_counts(p, placements):
    counter = [0]
    for _ in enumerate_backtracking_signed(p, counter):
        pass
    assert counter == [placements]


def test_interleaved_signed_streams_are_independent():
    # Each call completes its heads from a table of its own, not from one
    # shared between calls: streams for two p advanced in turn, with their
    # own counters, match each stream run alone.
    counters = {4: [0], 5: [0]}
    streams = {p: enumerate_backtracking_signed(p, c)
               for p, c in counters.items()}
    got = {p: [] for p in counters}
    for pairs in itertools.zip_longest(*streams.values()):
        for p, pair in zip(streams, pairs):
            if pair is not None:
                got[p].append(pair)
    for p, counter in counters.items():
        alone = [0]
        assert got[p] == list(enumerate_backtracking_signed(p, alone))
        assert counter == alone


# -- late-growing permutations --------------------------------------------


def test_late_growing_examples():
    assert is_late_growing((0, 1))
    assert not is_late_growing((1, 0))
    assert sum(1 for s in itertools.permutations(range(4))
               if is_late_growing(s)) == 3


def test_count_late_growing_values():
    assert count_late_growing(2) == 1
    assert count_late_growing(4) == 3
    assert count_late_growing(6) == 35
    assert count_late_growing(8) == 1001
    # |Phi_6| and |Phi_7|, far past any brute force.
    assert count_late_growing(12) == 4_605_271
    assert count_late_growing(14) == 589_809_987


@pytest.mark.parametrize("n", range(1, 11))
def test_count_late_growing_matches_brute_force(n):
    brute = sum(1 for perm in itertools.permutations(range(n))
                if is_late_growing(perm))
    assert count_late_growing(n) == brute


def test_count_late_growing_rejects_bad_n():
    with pytest.raises(ValueError):
        count_late_growing(0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_contributing_count_matches_late_growing(p):
    phi = sum(1 for _ in enumerate_backtracking(p))
    assert phi == count_late_growing(2 * p)
