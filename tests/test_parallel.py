import concurrent.futures
import itertools
import math
import os
import pickle
import random

import pytest

from altwronsk import engine, parallel
from altwronsk.parallel import (
    ZERO_RESULT,
    PartialResult,
    SubtreeTask,
    compute,
    default_depth,
    partition_work,
    reduce,
    run_task,
    run_task_counting,
)
from altwronsk.permutations import (
    enumerate_backtracking,
    pruned_suffixes,
    sign,
)


def test_partition_smallest_split():
    # At p = 2 only the two largest values may sit rightmost.
    tasks = partition_work(2, 1)
    assert [task.fixed_suffix for task in tasks] == [(2,), (3,)]
    assert [task.running_sum for task in tasks] == [0, 1]


def test_partition_degenerate_p1():
    for depth in (1, 2, 5):
        tasks = partition_work(1, depth)
        assert len(tasks) == 1
        assert tasks[0].fixed_suffix == ()


def test_partition_rejects_bad_depth():
    with pytest.raises(ValueError):
        partition_work(3, 0)
    with pytest.raises(ValueError):
        partition_work(3, 5)  # 2p - 2 = 4


def test_partition_order_and_coverage():
    tasks = partition_work(3, 2)
    suffixes = [task.fixed_suffix for task in tasks]
    assert suffixes == sorted(suffixes)
    total = reduce(run_task(task) for task in tasks)
    assert total.terms_evaluated == 35


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_partition_is_the_search_cut_at_depth(p):
    # Every pruned suffix extends to a contributing permutation, so the
    # tasks at depth d are the distinct length-d suffixes of the stream.
    stream = list(enumerate_backtracking(p))
    for depth in range(1, 2 * p - 1):
        tasks = [(task.fixed_suffix, task.running_sum)
                 for task in partition_work(p, depth)]
        cut = [(tuple(suffix), t)
               for suffix, t, _ in pruned_suffixes(p, depth)]
        from_stream = sorted({perm[:-depth - 1:-1] for perm in stream})
        assert tasks == cut
        assert [suffix for suffix, _ in tasks] == from_stream
        assert all(t == sum(v - p for v in suffix) for suffix, t in tasks)


def test_pruned_suffix_parity_is_inversion_parity():
    for suffix, _, parity in pruned_suffixes(3, 3):
        assert (-1 if parity else 1) == sign(list(reversed(suffix)))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_tasks_carry_the_search_state(p):
    # Each task's carried state, recomputed from its suffix alone: the
    # running sum, the inversions counted pair by pair, and the falling
    # factorials of the running exponents.
    for depth in range(1, max(2, 2 * p - 1)):
        for task in partition_work(p, depth):
            suffix = task.fixed_suffix
            sums = list(itertools.accumulate(v - p for v in suffix))
            # suffix runs right to left: a smaller value first is an inversion
            inversions = sum(1 for a, b in itertools.combinations(suffix, 2)
                             if a < b)
            assert task.p == p
            assert task.running_sum == (sums[-1] if sums else 0)
            assert task.parity == inversions % 2
            assert task.product == math.prod(math.perm(t + p, p) for t in sums)


def test_run_task_reference_values():
    # The two p = 2 subtrees, worked out by hand from the three
    # contributing permutations and their term values 72, 24, 24.
    low, top = partition_work(2, 1)
    assert (low.fixed_suffix, top.fixed_suffix) == ((2,), (3,))
    assert run_task(top) == PartialResult(72 - 24, 1, 1)
    assert run_task(low) == PartialResult(-24, 0, 1)
    assert run_task(top).terms_evaluated == 2


def test_run_task_is_pure():
    (task,) = [task for task in partition_work(3, 2)
               if task.fixed_suffix == (4, 3)]
    assert run_task(task) == run_task(task)


def test_run_task_counting_reports_attempts():
    # The p = 2 root: nothing placed, sum 0, even parity, empty product.
    # Its pools hold 3 values, then 2 under each of 2 and 3, then 1 under
    # each of the 3 feasible pairs: 3 + 2 * 2 + 3 = 10 placements.
    assert run_task_counting(SubtreeTask(2, (), 0, 0, 1)) == (
        PartialResult(24, 1, 2), 10)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_walk_counts_what_the_search_counts(p):
    # Below each task the walk attempts the placements the pruned search
    # attempts over the values left, and reaches the leaves it yields.
    # p = 5 runs depths 1-2 only: all its depths take about 2 s.
    for depth in range(1, 3 if p == 5 else max(2, 2 * p - 1)):
        for task in partition_work(p, depth):
            rest = [v for v in range(1, 2 * p) if v not in task.fixed_suffix]
            counter = [0]
            leaves = sum(1 for _ in pruned_suffixes(p, len(rest), counter,
                                                    rest))
            result, attempts = run_task_counting(task)
            assert attempts == counter[0]
            assert result.terms_evaluated == leaves


@pytest.mark.parametrize(
    "record", [partition_work(3, 2)[0], PartialResult(5, 2, 1)],
    ids=["SubtreeTask", "PartialResult"])
def test_records_survive_pickling(record):
    # The process pool ships tasks and results between processes by pickle.
    again = pickle.loads(pickle.dumps(record))
    assert again == record
    assert type(again) is type(record)


def test_reduce_monoid():
    assert reduce([]) == ZERO_RESULT
    single = PartialResult(5, 2, 1)
    assert reduce([single]) == single
    parts = [PartialResult(1, 1, 0), PartialResult(-4, 0, 2),
             PartialResult(10, 3, 1)]
    rng = random.Random(8)
    baseline = reduce(parts)
    for _ in range(5):
        rng.shuffle(parts)
        assert reduce(parts) == baseline


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_every_depth_covers_the_whole_set(p):
    phi = sum(1 for _ in enumerate_backtracking(p))
    results = []
    for depth in range(1, 2 * p - 1):
        total = reduce(run_task(task) for task in partition_work(p, depth))
        assert total.terms_evaluated == phi
        results.append(total)
    assert len(set(results)) == 1


def test_tasks_partition_without_overlap():
    # Rebuild the completed permutations per task and check their union is
    # exactly the contributing set, with no permutation under two tasks.
    contributing = set(enumerate_backtracking(3))
    seen = set()
    for task in partition_work(3, 2):
        placed = set(task.fixed_suffix)
        remaining = [v for v in range(1, 6) if v not in placed]
        suffix_block = tuple(reversed(task.fixed_suffix))
        for order in itertools.permutations(remaining):
            candidate = (0, *reversed(order), *suffix_block)
            if candidate in contributing:
                assert candidate not in seen
                seen.add(candidate)
    assert seen == contributing


def test_compute_matches_across_workers():
    baseline = compute(4, workers=1)
    assert compute(4, workers=2) == baseline
    assert compute(4, workers=1, depth=2) == baseline
    assert compute(4, workers=2, depth=3) == baseline


def test_compute_progress_goes_to_stderr_only(capsys, monkeypatch):
    monkeypatch.setattr(engine, "PROGRESS_INTERVAL_S", 0)
    assert compute(4, workers=2, progress=True).terms_evaluated == 1001
    captured = capsys.readouterr()
    assert captured.out == ""
    tasks = len(partition_work(4, default_depth(4, 2)))
    lines = captured.err.splitlines()
    assert len(lines) == tasks
    assert lines[-1] == f"{tasks}/{tasks} tasks, 1001 terms"


@pytest.mark.parametrize(
    "workers, cpus, pool_size",
    [(1000, 64, 64), (1000, 1000, 247), (3, 64, 3), (1000, 1, None),
     (1000, None, None), (1, 64, None)],
)
def test_pool_never_exceeds_the_cpus_or_the_tasks(monkeypatch, workers, cpus,
                                                  pool_size):
    # A stand-in pool records its size and runs each task as it is
    # submitted, in this process: no process starts. None: no pool at all.
    # At p = 4, 1000 workers split the walk into 247 tasks.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    expected = compute(4)
    tasks = partition_work(4, default_depth(4, workers))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    parts = [part for part, _ in parallel.run_tasks(tasks, workers)]
    assert sizes == ([] if pool_size is None else [pool_size])
    assert reduce(parts) == expected


def test_compute_validates_arguments():
    with pytest.raises(ValueError):
        compute(0)
    with pytest.raises(ValueError):
        compute(2, workers=0)


def test_default_depth_bounds():
    for p in (1, 2, 3, 4, 5, 6):
        for workers in (1, 2, 8):
            depth = default_depth(p, workers)
            assert 1 <= depth <= 4
            if p > 1:
                assert depth <= 2 * p - 2
