"""Permutations in one-line notation and the contributing-set generators.

A permutation of N symbols is a tuple of the integers 0..N-1: entry i is the
0-based value at position i+1. Text output uses the 1-based one-line
convention, e.g. "(1,3,2,4)" for the tuple (0, 2, 1, 3); see
``format_permutation``. In operator work the 0-based value at a position is
exactly the degree of the monomial weight placed there, which is why the
0-based form is the internal one.

For even N = 2p, the "contributing" permutations are those whose weighted
derivative-operator term survives: sigma(1) = 1 and every suffix partial sum
T_k = sum over the last k entries of (value - p) stays non-negative (the
running exponent of x never dips below zero during the right-to-left operator
applications). ``enumerate_filtered`` realises the definition by filtering
all of S_N. It has no cap of its own: ``cli._CAPS`` is the one limit on
work. ``pruned_suffixes`` is the one pruned search of the package: it fills
positions right to left and abandons any branch whose running sum would go
negative. Cut at length p it yields the heads of the contributing-set
stream (``enumerate_backtracking_signed``), which finishes each head from a
table keyed by the p - 1 values left, each entry filled by the same search
over those values; cut at a smaller length it yields the subtrees that
``parallel.partition_work`` hands out as tasks.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence


def sign(perm: Sequence[int]) -> int:
    """The sign (-1)**inversions of a permutation; +1 or -1.

    O(n^2) inversion count, fine for the small n used here. Agrees with the
    parity of any decomposition into transpositions.
    """
    n = len(perm)
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
    )
    return -1 if inversions & 1 else 1


def format_permutation(perm: Sequence[int]) -> str:
    """Render in the 1-based one-line convention, e.g. "(1,3,2,4)"."""
    return "(" + ",".join(str(v + 1) for v in perm) + ")"


def _require_length(perm: Sequence[int], p: int) -> None:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = 2 * p
    if len(perm) != n:
        raise ValueError(f"permutation has length {len(perm)}, expected 2p = {n}")


def suffix_partial_sums(perm: Sequence[int], p: int) -> tuple[int, ...]:
    """The running sums (T_1, ..., T_{N-1}) over the reversed suffix.

    T_k adds up (value - p) over the last k entries; the term of a
    permutation survives iff sigma(1) = 1 and every T_k >= 0. T_k + p is
    the running exponent the k-th p-th derivative meets (see
    ``engine.term_coefficient``).
    """
    _require_length(perm, p)
    return tuple(itertools.accumulate(v - p for v in perm[:0:-1]))


def is_contributing(perm: Sequence[int], p: int) -> bool:
    """True iff the permutation's operator term survives (is in Phi_p)."""
    _require_length(perm, p)
    return _contributes(perm, p)


def _contributes(perm: Sequence[int], p: int) -> bool:
    # is_contributing for a permutation already known to have length 2p:
    # sigma(1) = 1 and no suffix_partial_sums entry below 0.
    return perm[0] == 0 and min(
        itertools.accumulate(v - p for v in perm[:0:-1])) >= 0


def enumerate_filtered(p: int) -> Iterator[tuple[int, ...]]:
    """All contributing permutations for N = 2p by filtering S_N.

    Reference path: walks every one of the N! permutations in lexicographic
    order and keeps the contributing ones, about 2.5 M a second. It runs
    any p it is given; ``cli._CAPS`` is the one limit on how far the
    commands take it.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    for perm in itertools.permutations(range(2 * p)):
        if _contributes(perm, p):
            yield perm


def pruned_suffixes(
    p: int, length: int, counter: list[int] | None = None,
    values: Iterable[int] | None = None,
) -> Iterator[tuple[list[int], int, int]]:
    """Every pruned suffix of ``length`` placed values, for N = 2p.

    Position 1 is left to the smallest value 0; values 1..N-1 fill the
    positions right to left, trying the remaining candidates in increasing
    order, and a branch is abandoned as soon as the running sum of
    (value - p) over the placed suffix would go negative. Yields
    ``(suffix, running_sum, parity)``: ``suffix`` lists the placed values
    rightmost first and is reused between yields (copy it to keep it), and
    ``parity`` is that of the inversions within the suffix. Placing value v
    with rank ``idx`` among the remaining candidates creates exactly
    (v - 1 - idx) inversions with the values already placed, so the parity
    is kept incrementally. ``length`` is at most N - 1; at N - 1 every
    yield is a complete contributing permutation.

    ``values``, when given, are the values still unplaced: the search then
    resumes below a suffix that placed the others. The values 1..N-1 sum to
    p(N - 1), so the running sum starts at the sum of (p - v) over
    ``values``, which is what the placed values reached; ``suffix`` holds
    only the values placed here, and ``parity`` counts their inversions
    with every value to their right, the placed ones included.

    The search recurses like ``parallel._walk``, one call per placed value,
    and loops as it does: the pool of remaining values stays sorted, so at
    running sum t the feasible candidates, those with v >= p - t, start at
    ``bisect_left(pool, p - t)``.

    ``counter``, when given, has its first element incremented once per
    candidate placement attempted (pruned or not) - instrumentation for
    benchmarking. Every remaining value is a candidate, so each node below
    ``length`` adds the size of its pool.
    """
    pool = list(range(1, 2 * p)) if values is None else sorted(values)
    suffix: list[int] = []

    def grow(t: int, parity: int) -> Iterator[tuple[list[int], int, int]]:
        if len(suffix) == length:
            yield suffix, t, parity
            return
        if counter is not None:
            counter[0] += len(pool)
        for idx in range(bisect_left(pool, p - t), len(pool)):
            v = pool.pop(idx)
            suffix.append(v)
            yield from grow(t + v - p, parity ^ ((v - 1 - idx) & 1))
            suffix.pop()
            pool.insert(idx, v)

    yield from grow(sum(p - v for v in pool), 0)


def enumerate_backtracking_signed(
    p: int, counter: list[int] | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(permutation, sign) pairs for the contributing set, built by pruning.

    The same pairs, in the same order, as completing every full-length
    ``pruned_suffixes`` by the pinned 0 in position 1 (which adds no
    inversion), with less work per permutation. The search runs to length
    p only; what completes a head of p values depends only on the p - 1
    values left, so each such set is completed once, by the same search
    over those values, in a table that belongs to this call, and every
    head that leaves it reuses the completions with its own parity.

    ``counter``, when given, ends with the count of candidate placements
    the full pruned search attempts, as ``pruned_suffixes`` counts them:
    the search to length p counts its own, and each head adds the count
    its table entry took, without attempting those placements again.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    values = frozenset(range(1, 2 * p))
    table: dict = {}
    for suffix, _, parity in pruned_suffixes(p, p, counter):
        rest = values.difference(suffix)
        if rest not in table:
            below = [0]
            tails = pruned_suffixes(p, p - 1, below, rest)
            table[rest] = [((0, *reversed(tail)), -1 if odd else 1)
                           for tail, _, odd in tails], below[0]
        items, placements = table[rest]
        if counter is not None:
            counter[0] += placements
        head = tuple(reversed(suffix))
        flip = -1 if parity else 1
        for prefix, s in items:
            yield prefix + head, s * flip


def enumerate_backtracking(p: int) -> Iterator[tuple[int, ...]]:
    """The contributing set for N = 2p, streamed without touching all of S_N.

    Emits the same set as ``enumerate_filtered`` (in a different, but
    deterministic, order).
    """
    for perm, _ in enumerate_backtracking_signed(p):
        yield perm


def is_late_growing(perm: Sequence[int]) -> bool:
    """True iff every proper-prefix mean of the 1-based values is <= n/2.

    Compared in integers: 2 * prefix_sum <= k * n for every prefix length
    k < n (the full prefix always exceeds the bound, so it is excluded).
    For even n these permutations are the reverse-complement images of the
    contributing ones, which is why the counts agree.
    """
    n = len(perm)
    acc = 0
    for k in range(1, n):
        acc += perm[k - 1] + 1  # 1-based value
        if 2 * acc > k * n:
            return False
    return True


def count_late_growing(n: int) -> int:
    """Number of late-growing permutations of n symbols.

    A DP over the set of values used by a prefix: the prefix condition
    2 * sum <= k * n depends only on that set, so the allowed orderings of
    each set of k < n values are summed over its allowed last values. A
    prefix of k values with sum ``total`` extends by an unused v iff
    2 * (total + v) <= k * n, that is v <= k * n // 2 - total, which is
    the value loop's upper end. The last value of a full permutation is
    forced and never constrained.
    ``is_late_growing`` is the per-permutation definition it is tested
    against.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    layer = {0: (0, 1)}  # set of used 1-based values -> (sum, orderings)
    for k in range(1, n):
        below, layer = layer, {}
        for used, (total, ways) in below.items():
            for v in range(1, min(n, k * n // 2 - total) + 1):
                if not used >> v & 1:
                    key = used | 1 << v
                    layer[key] = (total + v, layer.get(key, (0, 0))[1] + ways)
    return sum(ways for _, ways in layer.values())
