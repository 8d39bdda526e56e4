"""Command-line front end: constant reports, tables, verification, benchmarks.

Results go to stdout; progress and diagnostics to stderr. Exit codes:
0 success/pass, 1 verification failure, 2 usage error or refusal,
3 internal error (a failed consistency check, a crashed worker process or
any other exception that no argument caused), 130 interrupted.

Every command's work grows too fast with p. One table, ``_CAPS``, holds the
two caps of each kind of work, without and with ``--slow``: one row per
kind, so commands that run the same work share its caps. ``main`` checks p
against the row of the work a command runs before any handler starts;
past them it ends with one ``refusing: ...`` line and exit 2. Each verify
mode is one row of ``_VERIFY``: its ``_CAPS`` row and its check.

A module that only some commands use (the oracle, ``random``, ``json``,
``csv``) is imported where that command runs, so a cold process pays only
for its own command.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import time

from . import parallel
from .engine import ConstReport, const_of_p, render_ratio
from .permutations import (
    count_late_growing,
    enumerate_backtracking,
    enumerate_backtracking_signed,
    enumerate_filtered,
    format_permutation,
)

FORMATS = ("human", "jsonl", "csv")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


def _ran_up_to(work: str, cap: int, cost: str):
    """A ``_CAPS`` row for work that no ``--slow`` lifts past its cap."""
    return cap, cap, lambda p: (f"{work} has run only up to p={cap} ({cost}); "
                                f"p={p} is past it")


def _cost(p: int) -> str:
    """The oracle's work at p: its derivatives and products."""
    n = 2 * p
    return f"2^{n} derivatives and {n} * 2^{n - 1} products"


# Each kind of work: the largest p it runs without --slow, the largest with
# it, and the reason a refusal gives at p. A cap with --slow is the largest
# p that work has run: the subset DP at 13 (185.8 s and 1,703 MB; its
# memory grows about 4x per step), the walk at 7 (495 s on 2 processes),
# the one-process stream of the contributing set at 6 (about 1.3 s), the
# exhaustive filter at 5 (all 3.6 M orderings, about 1.3 s), the oracle at
# 10 (about 23 s) and one theorem-random trial at 8 (about 35 s). Where
# --slow lifts a cap, the cap without it stops at a few seconds.
_CAPS = {
    "dp": _ran_up_to("the subset DP", 13,
                     "about 3 min and 1.7 GB, 4x the memory per step"),
    "walk": _ran_up_to("the walk", 7, "495 s on 2 processes"),
    "stream": _ran_up_to("the contributing-set stream", 6,
                         "about 1.3 s in one process"),
    "filter": _ran_up_to("the exhaustive filter", 5,
                         "all 3,628,800 orderings, about 1.3 s"),
    "oracle": (8, 10, lambda p: f"oracle mode takes {_cost(p)} at p={p}"),
    "theorem-random": (5, 8, lambda p: f"theorem-random at p={p} takes "
                                       f"{_cost(p)} per trial"),
}


def _refusal(args: argparse.Namespace) -> str | None:
    """Why the command declines its p, or None when p is within its cap.

    The row is that of the work the command runs: ``table`` the DP, checked
    on ``--max-p``; ``verify`` its mode's row in ``_VERIFY``; ``bench``
    the filter for v1, else the stream with one worker or the walk with
    more; ``const`` the walk above one worker, else the DP. The reason
    suggests ``--slow`` only when that would let this p run.
    """
    p = args.max_p if args.command == "table" else args.p
    kind = "walk" if getattr(args, "workers", 1) > 1 else "dp"
    if args.command == "verify":
        kind = _VERIFY[args.mode][0]
    elif args.command == "bench" and args.algo == "v1":
        kind = "filter"
    elif args.command == "bench" and kind == "dp":
        kind = "stream"
    cap, slow_cap, reason = _CAPS[kind]
    if p <= cap or (p <= slow_cap and getattr(args, "slow", False)):
        return None
    return reason(p) + (" (pass --slow to override)" if p <= slow_cap else "")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altwronsk",
        description="Exact universal constants of alternating weighted-"
                    "derivative compositions, with verification tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("const", help="compute the constant for one p")
    p_const.add_argument("--p", type=_positive, required=True)
    p_const.add_argument(
        "--workers", type=_positive, default=1,
        help="1 (default): the subset DP in one process; more: the pruned "
             "walk over the contributing set, split over up to that many "
             "processes (never more than the CPUs or the tasks)")
    p_const.add_argument("--format", choices=FORMATS, default="human")
    p_const.add_argument("--no-progress", action="store_true",
                         help="suppress progress lines on stderr")
    p_const.set_defaults(handler=cmd_const)

    p_table = sub.add_parser("table", help="summary table for p = 1..max-p")
    p_table.add_argument("--max-p", type=_positive, default=4)
    p_table.add_argument("--which", type=int, choices=(2, 3), default=2,
                         help="2: counts and constants; 3: growth ratios")
    p_table.add_argument("--format", choices=FORMATS, default="human")
    p_table.add_argument("--no-progress", action="store_true")
    p_table.set_defaults(handler=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--p", type=_positive, required=True)
    p_verify.add_argument("--mode", required=True, choices=_VERIFY)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=_positive, default=5)
    p_verify.add_argument("--slow", action="store_true",
                          help="allow p beyond the default feasibility cap")
    p_verify.add_argument("--format", choices=FORMATS, default="human")
    p_verify.set_defaults(handler=cmd_verify)

    p_bench = sub.add_parser("bench", help="time one generator")
    p_bench.add_argument("--p", type=_positive, required=True)
    p_bench.add_argument("--algo", choices=("v1", "v2"), default="v2")
    p_bench.add_argument(
        "--workers", type=_positive, default=1,
        help="1 (default): the contributing-set stream in one process; more: "
             "the walk, split over up to that many processes")
    p_bench.add_argument("--format", choices=FORMATS, default="human")
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if refusal := _refusal(args):
        print(f"refusing: {refusal}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # With file descriptor 1 closed at start, sys.stdout is None and
        # print would drop every line without a word.
        if sys.stdout is None:
            raise RuntimeError("stdout is closed")
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except Exception as exc:  # a dead pool, a failed fork, MemoryError, a bug
        print(f"internal error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


# -- output helpers -------------------------------------------------------


def _emit(fmt: str, records: list[dict], human_lines: list[str]) -> None:
    if fmt == "human":
        for line in human_lines:
            print(line)
    elif fmt == "jsonl":
        import json

        for record in records:
            print(json.dumps(record))
    else:
        import csv
        import json

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(records[0].keys()))
        writer.writeheader()
        writer.writerows({k: json.dumps(v) if isinstance(v, list) else v
                          for k, v in record.items()} for record in records)
        sys.stdout.write(buffer.getvalue())


def _underscored(value: int) -> str:
    return f"{value:_d}"


def _display_ratio(value) -> str:
    # Integers pick up thousands separators in human output.
    if value.denominator == 1:
        return _underscored(value.numerator)
    return render_ratio(value)


def _phi_fraction(phi_size: int, n_factorial: int) -> str:
    """The share of the symmetric group, in the 1/k style, e.g. "≈1/20"."""
    k, remainder = divmod(n_factorial, phi_size)
    return f"1/{k}" if remainder == 0 else f"≈1/{k}"


def _cells(report: ConstReport) -> dict[str, str]:
    """Every human-readable field of a report, by its column name."""
    n_factorial = math.factorial(2 * report.p)
    return {
        "p": str(report.p),
        "p!": _underscored(math.factorial(report.p)),
        "N!": _underscored(n_factorial),
        "|Phi_p|": _underscored(report.phi_size),
        "|Phi_p|/N!": _phi_fraction(report.phi_size, n_factorial),
        "even": _underscored(report.even_count),
        "odd": _underscored(report.odd_count),
        "const(p)": _underscored(report.const_p),
        "signed_sum": _underscored(report.signed_sum),
        "wronskian": _underscored(report.wronskian),
        "const(p)/p!": _display_ratio(report.ratio_p_factorial),
        "const(p)/N!": _display_ratio(report.ratio_N_factorial),
    }


def _aligned(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in [headers, *rows]]


# -- const ----------------------------------------------------------------


def cmd_const(args: argparse.Namespace) -> int:
    report = const_of_p(args.p, workers=args.workers,
                        progress=not args.no_progress)
    cells = _cells(report)
    del cells["p!"]
    width = max(map(len, cells))
    lines = [f"{name.ljust(width)} = {value}" for name, value in cells.items()]
    _emit(args.format, [report.to_record()], lines)
    return EXIT_OK


# -- table ----------------------------------------------------------------

TABLE_COLUMNS = {
    2: ["p", "N!", "|Phi_p|", "|Phi_p|/N!", "even", "odd", "const(p)"],
    3: ["p", "p!", "N!", "const(p)", "const(p)/p!", "const(p)/N!"],
}


def cmd_table(args: argparse.Namespace) -> int:
    reports = [
        const_of_p(p, progress=not args.no_progress)
        for p in range(1, args.max_p + 1)
    ]
    headers = TABLE_COLUMNS[args.which]
    rows = [[cells[h] for h in headers] for cells in map(_cells, reports)]
    _emit(args.format, [report.to_record() for report in reports],
          _aligned(headers, rows))
    return EXIT_OK


# -- verify ---------------------------------------------------------------


# Each check returns whether it passed, its record fields and its lines; the
# first line is what follows the "PASS|FAIL <mode> p=<p>" head.


def _verify_oracle(args):
    from .oracle import brute_force_const

    engine_value = const_of_p(args.p).const_p
    oracle_value = brute_force_const(args.p)
    passed = engine_value == oracle_value
    line = (f": engine={_underscored(engine_value)} "
            f"brute-force={_underscored(oracle_value)}")
    record = {"engine": str(engine_value), "brute_force": str(oracle_value)}
    return passed, record, [line]


def _verify_theorem_random(args):
    import random

    from .oracle import random_polynomial, random_weight_tuple, verify_theorem

    expected = const_of_p(args.p).const_p
    rng = random.Random(args.seed)
    failures = []
    for trial in range(args.trials):
        weights = random_weight_tuple(rng, 2 * args.p)
        f = random_polynomial(rng, max_degree=args.p + 3, min_degree=args.p)
        result = verify_theorem(args.p, weights, f)
        if not result.holds or result.extracted_const != expected:
            failures.append({
                "trial": trial,
                "weights": [str(w) for w in weights],
                "f": str(f),
                "holds": result.holds,
                "extracted": str(result.extracted_const),
            })
    passed = not failures
    lines = [f" seed={args.seed} trials={args.trials} expected={expected}"]
    for failure in failures:
        lines.append(f"  counterexample trial {failure['trial']}: "
                     f"weights={failure['weights']} f={failure['f']} "
                     f"extracted={failure['extracted']}")
    record = {"seed": args.seed, "trials": args.trials,
              "expected": str(expected), "failures": failures}
    return passed, record, lines


def _verify_generators(args):
    filtered = set(enumerate_filtered(args.p))
    generated = set(enumerate_backtracking(args.p))
    passed = filtered == generated
    lines = [f": filtered={len(filtered)} backtracking={len(generated)}"]
    extra = sorted(filtered ^ generated)[:5]
    if extra:
        lines.append(f"  first differing permutations: "
                     f"{', '.join(map(format_permutation, extra))}")
    record = {"filtered": len(filtered), "backtracking": len(generated),
              "difference": len(filtered ^ generated)}
    return passed, record, lines


def _verify_oeis(args):
    phi_size = sum(1 for _ in enumerate_backtracking(args.p))
    late = count_late_growing(2 * args.p)
    passed = phi_size == late
    line = f": |Phi_p|={phi_size} late-growing({2 * args.p})={late}"
    record = {"phi_size": phi_size, "late_growing": late}
    return passed, record, [line]


def _verify_parity(args):
    report = const_of_p(args.p)
    gap = report.even_count - report.odd_count
    expected_gap = 1 if args.p % 2 else -1  # even perms lead at odd p
    passed = gap == expected_gap
    line = (f": even={_underscored(report.even_count)} "
            f"odd={_underscored(report.odd_count)} gap={gap:+d}")
    record = {"even": report.even_count, "odd": report.odd_count, "gap": gap}
    return passed, record, [line]


# Each verify mode: its row in _CAPS and its check. The one list of modes.
_VERIFY = {
    "oracle": ("oracle", _verify_oracle),
    "theorem-random": ("theorem-random", _verify_theorem_random),
    "generators": ("filter", _verify_generators),
    "oeis": ("stream", _verify_oeis),
    "parity": ("dp", _verify_parity),
}


def cmd_verify(args: argparse.Namespace) -> int:
    passed, record, (rest, *more) = _VERIFY[args.mode][1](args)
    head = f"{'PASS' if passed else 'FAIL'} {args.mode} p={args.p}{rest}"
    record = {"command": "verify", "mode": args.mode, "p": args.p,
              "passed": passed, **record}
    _emit(args.format, [record], [head, *more])
    return EXIT_OK if passed else EXIT_FAIL


# -- bench ----------------------------------------------------------------


def cmd_bench(args: argparse.Namespace) -> int:
    tasks = workers = 1  # the filter and the stream run in this process
    started = time.perf_counter()
    if args.algo == "v1":
        emitted = sum(1 for _ in enumerate_filtered(args.p))
        examined = math.factorial(2 * args.p)
    elif args.workers == 1:
        counter = [0]
        emitted = sum(1 for _ in enumerate_backtracking_signed(args.p, counter))
        examined = counter[0]
    else:
        work = parallel.partition_work(
            args.p, parallel.default_depth(args.p, args.workers))
        pairs = list(parallel.run_tasks(work, args.workers))
        emitted = parallel.reduce(pr for pr, _ in pairs).terms_evaluated
        examined = sum(count for _, count in pairs)
        tasks = len(work)
        workers = parallel.pool_size(args.workers, tasks)
    elapsed = time.perf_counter() - started
    record = {
        "command": "bench", "algo": args.algo, "p": args.p,
        "workers": workers, "emitted": emitted, "examined": examined,
        "tasks": tasks, "elapsed_s": round(elapsed, 6),
    }
    line = (f"bench {args.algo} p={args.p} workers={workers}: "
            f"emitted={_underscored(emitted)} examined={_underscored(examined)} "
            f"tasks={tasks} elapsed={elapsed:.3f}s")
    _emit(args.format, [record], [line])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
