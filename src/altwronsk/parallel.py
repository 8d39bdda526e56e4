"""Deterministic work partitioning of the contributing-permutation tree.

The pruned search that builds the contributing set for N = 2p
(``permutations.pruned_suffixes``) fills positions right to left. Cutting it
at ``depth`` placed values (the rightmost ``depth`` positions) splits the
search tree into disjoint subtrees; each pruned suffix of that length
becomes a ``SubtreeTask``. ``run_task`` finishes the search below one task
with ``_walk``, the accumulating kernel, which adds up per completed
permutation its sign and the product of falling factorials of the running
exponents - the per-term value of the signed sum. ``run_tasks`` is the one
place a process pool runs. Partial results form a commutative monoid under
componentwise addition, so any schedule, worker count or split depth
reduces to the identical exact total.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .permutations import pruned_suffixes

PROGRESS_INTERVAL_S = 1.0


@dataclass(frozen=True)
class SubtreeTask:
    """A pruned partial suffix: the rightmost placements already fixed.

    ``fixed_suffix`` lists 0-based values, first element = rightmost
    position. ``running_sum`` is the sum of (value - p) over the suffix and
    must match it; every prefix of the suffix must already satisfy the
    non-negativity pruning rule, otherwise the task could not arise.
    """

    p: int
    fixed_suffix: tuple[int, ...]
    running_sum: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        n = 2 * self.p
        if len(set(self.fixed_suffix)) != len(self.fixed_suffix) or any(
            not 1 <= v <= n - 1 for v in self.fixed_suffix
        ):
            raise ValueError(f"suffix must be distinct values in 1..{n - 1}")
        acc = 0
        for v in self.fixed_suffix:
            acc += v - self.p
            if acc < 0:
                raise ValueError(f"suffix {self.fixed_suffix} violates pruning")
        if acc != self.running_sum:
            raise ValueError(
                f"running_sum {self.running_sum} inconsistent with suffix (is {acc})"
            )


@dataclass(frozen=True)
class PartialResult:
    """Exact accumulation over one subtree; addition is componentwise."""

    signed_sum: int
    even_count: int
    odd_count: int
    terms_evaluated: int

    def __post_init__(self):
        if self.terms_evaluated != self.even_count + self.odd_count:
            raise ValueError("terms_evaluated must equal even_count + odd_count")

    def __add__(self, other: PartialResult) -> PartialResult:
        if not isinstance(other, PartialResult):
            return NotImplemented
        return PartialResult(
            self.signed_sum + other.signed_sum,
            self.even_count + other.even_count,
            self.odd_count + other.odd_count,
            self.terms_evaluated + other.terms_evaluated,
        )


ZERO_RESULT = PartialResult(0, 0, 0, 0)


@lru_cache(maxsize=None)
def _falling_factorials(p: int) -> tuple[int, ...]:
    # fall[e] = e(e-1)...(e-p+1); the running sum never exceeds p(p-1)/2,
    # so exponents e = sum + p stay within p(p+1)/2.
    top = p * (p + 1) // 2
    return tuple(math.perm(e, p) for e in range(top + 1))


def partition_work(p: int, depth: int) -> list[SubtreeTask]:
    """All pruned suffixes of the given length, in increasing lex order.

    The subtrees below the returned tasks cover the contributing set
    exactly once. ``depth`` must lie in 1..2p-2 so every task leaves at
    least one position to fill; p = 1 has no splittable interior and
    returns the single whole-tree task.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 1:
        return [SubtreeTask(1, (), 0)]
    if not 1 <= depth <= 2 * p - 2:
        raise ValueError(f"depth must be in 1..{2 * p - 2}, got {depth}")
    return [SubtreeTask(p, tuple(suffix), t)
            for suffix, t, _ in pruned_suffixes(p, depth)]


def _walk(pool: list[int], t: int, parity: int, product: int,
          fall: tuple[int, ...], p: int, out: list[int]) -> None:
    # out = [signed_sum, even, odd, placements_attempted]
    if len(pool) == 1:
        v = pool[0]
        out[3] += 1
        t2 = t + v - p
        if t2 >= 0:
            product *= fall[t2 + p]
            if parity ^ ((v - 1) & 1):
                out[0] -= product
                out[2] += 1
            else:
                out[0] += product
                out[1] += 1
        return
    for idx in range(len(pool)):
        v = pool[idx]
        out[3] += 1
        t2 = t + v - p
        if t2 < 0:
            continue
        pool.pop(idx)
        _walk(pool, t2, parity ^ ((v - 1 - idx) & 1),
              product * fall[t2 + p], fall, p, out)
        pool.insert(idx, v)


def run_task_counting(task: SubtreeTask) -> tuple[PartialResult, int]:
    """Like ``run_task`` but also reports candidate placements attempted.

    The second element counts every extension tried, pruned or not - the
    instrumentation behind benchmark "examined" figures.
    """
    p = task.p
    n = 2 * p
    fall = _falling_factorials(p)
    # Replay the fixed suffix: its factors and its share of the sign. The
    # placements below pick up inversions against the suffix automatically,
    # because a value v with idx smaller remaining candidates has exactly
    # (v - 1 - idx) placed values below it.
    product = 1
    parity = 0
    acc = 0
    for k, v in enumerate(task.fixed_suffix):
        acc += v - p
        product *= fall[acc + p]
        parity ^= sum(1 for w in task.fixed_suffix[:k] if w < v) & 1
    placed = set(task.fixed_suffix)
    pool = [v for v in range(1, n) if v not in placed]
    if not pool:
        result = PartialResult(
            -product if parity else product, 1 - parity, parity, 1
        )
        return result, 0
    out = [0, 0, 0, 0]
    _walk(pool, task.running_sum, parity, product, fall, p, out)
    return PartialResult(out[0], out[1], out[2], out[1] + out[2]), out[3]


def run_task(task: SubtreeTask) -> PartialResult:
    """Finish the search below a task, accumulating signed per-term values."""
    return run_task_counting(task)[0]


def run_tasks(tasks: list[SubtreeTask],
              workers: int) -> Iterator[tuple[PartialResult, int]]:
    """``run_task_counting`` over every task, yielding each result as it ends.

    Runs in this process when ``workers`` is 1 or there is a single task,
    else on a pool of ``workers`` processes, in completion order.
    """
    if workers == 1 or len(tasks) == 1:
        for task in tasks:
            yield run_task_counting(task)
        return
    with ProcessPoolExecutor(max_workers=workers) as executor:
        futures = [executor.submit(run_task_counting, task) for task in tasks]
        try:
            for future in as_completed(futures):
                yield future.result()
        finally:
            # After an error or Ctrl-C, wait only for the running tasks.
            executor.shutdown(cancel_futures=True)


def reduce(parts: Iterable[PartialResult]) -> PartialResult:
    """Componentwise exact sum; empty input gives the zero result."""
    total = ZERO_RESULT
    for part in parts:
        total = total + part
    return total


def default_depth(p: int, workers: int) -> int:
    """Smallest split depth giving at least 8 tasks per worker, capped at 4."""
    cap = min(4, max(1, 2 * p - 2))
    for depth in range(1, cap + 1):
        if len(partition_work(p, depth)) >= 8 * workers:
            return depth
    return cap


def compute(p: int, workers: int = 1, depth: int | None = None,
            progress: bool = False) -> PartialResult:
    """Reduce the whole contributing set for N = 2p to one PartialResult.

    The result is identical for every worker count and split depth. With
    ``progress`` set, emits "done/total tasks, terms terms" lines to stderr
    at most once per second.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if depth is None and workers == 1:
        # No splitting needed; run the whole tree as one root task.
        tasks = [SubtreeTask(p, (), 0)]
    else:
        tasks = partition_work(p, depth if depth is not None
                               else default_depth(p, workers))
    last_report = time.monotonic()
    total = ZERO_RESULT
    for done, (part, _) in enumerate(run_tasks(tasks, workers), start=1):
        total = total + part
        now = time.monotonic()
        if progress and now - last_report >= PROGRESS_INTERVAL_S:
            last_report = now
            print(f"{done}/{len(tasks)} tasks, "
                  f"{total.terms_evaluated} terms", file=sys.stderr)
    return total
