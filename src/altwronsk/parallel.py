"""Deterministic work partitioning of the contributing-permutation tree.

The pruned search that builds the contributing set for N = 2p
(``permutations.pruned_suffixes``) fills positions right to left. Cut at
``depth`` placed values, it splits the tree into disjoint subtrees, and
``partition_work`` makes each pruned suffix of that length a ``SubtreeTask``
carrying the search's state there. ``run_task_counting`` resumes the search
from that state with ``_walk``, the accumulating kernel, which adds up per
completed permutation its sign and the product of falling factorials of the
running exponents - the per-term value of the signed sum. ``run_tasks`` is
the one place a process pool runs. A ``PartialResult`` holds the signed sum
and the counts of even and odd permutations, whose total is the number of
terms. Partial results form a commutative monoid under componentwise
addition, so any schedule, worker count or split depth reduces to the
identical exact total.
"""

from __future__ import annotations

import math
import os
import sys
import time
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

from .permutations import pruned_suffixes

PROGRESS_INTERVAL_S = 1.0


class SubtreeTask(NamedTuple):
    """One subtree of the pruned search, with the walk state at its root.

    ``fixed_suffix`` lists the placed 0-based values, rightmost first; the
    rest is the search's state there, as ``partition_work`` found it: the
    sum of (value - p) over the suffix, its inversion parity, and the
    product of ``fall[t_k + p]`` over its running sums t_k.
    """

    p: int
    fixed_suffix: tuple[int, ...]
    running_sum: int
    parity: int
    product: int


class PartialResult(NamedTuple):
    """Exact accumulation over one subtree; addition is componentwise."""

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


ZERO_RESULT = PartialResult(0, 0, 0)


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
    least one position to fill; p = 1 has no splittable interior, so its
    single task is the search cut at length 0, whatever ``depth``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 1:
        depth = 0
    elif not 1 <= depth <= 2 * p - 2:
        raise ValueError(f"depth must be in 1..{2 * p - 2}, got {depth}")
    fall = _falling_factorials(p)
    return [SubtreeTask(p, tuple(suffix), t, parity,
                        math.prod(fall[tk + p] for tk in
                                  accumulate(v - p for v in suffix)))
            for suffix, t, parity in pruned_suffixes(p, depth)]


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
    """Finish the search below a task, accumulating signed per-term values.

    Returns the task's ``PartialResult`` and the number of candidate
    placements attempted, pruned or not - the instrumentation behind
    benchmark "examined" figures. The walk resumes from the task's carried
    state: a value v placed with idx smaller candidates left has
    (v - 1 - idx) placed values below it.
    """
    placed = set(task.fixed_suffix)
    pool = [v for v in range(1, 2 * task.p) if v not in placed]
    out = [0, 0, 0, 0]
    _walk(pool, task.running_sum, task.parity, task.product,
          _falling_factorials(task.p), task.p, out)
    return PartialResult(out[0], out[1], out[2]), out[3]


def run_task(task: SubtreeTask) -> PartialResult:
    """``run_task_counting``'s result without the placement count.

    Kept because ``perfbench/layers.py`` wraps ``parallel.run_task`` by name.
    """
    return run_task_counting(task)[0]


def run_tasks(tasks: list[SubtreeTask],
              workers: int) -> Iterator[tuple[PartialResult, int]]:
    """``run_task_counting`` over every task, yielding each result as it ends.

    Starts at most ``workers`` processes, and never more than there are
    tasks or CPUs (``os.cpu_count()``); runs in this process when that
    leaves one, else on the pool, in completion order.
    """
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        for task in tasks:
            yield run_task_counting(task)
        return
    # Imported here, so the commands that never start a pool do not pay
    # for it at start-up.
    from concurrent.futures import ProcessPoolExecutor, as_completed

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
    return sum(parts, ZERO_RESULT)


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

    Runs the tasks of ``partition_work`` at ``depth`` (by default
    ``default_depth(p, workers)``), one process or a pool; the result is
    identical for every worker count and split depth. With
    ``progress`` set, emits "done/total tasks, terms terms" lines to stderr
    at most once per second.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
