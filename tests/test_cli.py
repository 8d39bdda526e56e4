import concurrent.futures
import csv
import io
import json
import multiprocessing
import os
import shlex
import subprocess
import sys

from concurrent.futures.process import BrokenProcessPool

import pytest

import altwronsk
from altwronsk import cli, oracle, parallel, permutations
from altwronsk.cli import _VERIFY, main
from altwronsk.engine import const_of_p


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_const_human_output(capsys):
    code, out, _ = run_cli(capsys, "const", "--p", "3", "--workers", "1")
    assert code == 0
    assert "const(p)    = 90" in out
    assert "|Phi_p|     = 35" in out
    assert "≈1/20" in out


# Human output pinned byte for byte: every cell of the report-cell map, as the
# const report and both tables lay it out.
GOLDEN_HUMAN = {
    ("const", "--p", "4"): (
        "p           = 4\n"
        "N!          = 40_320\n"
        "|Phi_p|     = 1_001\n"
        "|Phi_p|/N!  = ≈1/40\n"
        "even        = 500\n"
        "odd         = 501\n"
        "const(p)    = 586_656\n"
        "signed_sum  = 73_573_308_039_168_000\n"
        "wronskian   = 125_411_328_000\n"
        "const(p)/p! = 24_444\n"
        "const(p)/N! = 14.55\n"),
    ("table", "--max-p", "4", "--which", "2"): (
        "p      N!  |Phi_p|  |Phi_p|/N!  even  odd  const(p)\n"
        "1       2        1         1/2     1    0         1\n"
        "2      24        3         1/8     1    2         2\n"
        "3     720       35       ≈1/20    18   17        90\n"
        "4  40_320    1_001       ≈1/40   500  501   586_656\n"),
    ("table", "--max-p", "4", "--which", "3"): (
        "p  p!      N!  const(p)  const(p)/p!  const(p)/N!\n"
        "1   1       2         1            1          0.5\n"
        "2   2      24         2            1        0.083\n"
        "3   6     720        90           15        0.125\n"
        "4  24  40_320   586_656       24_444        14.55\n"),
}


@pytest.mark.parametrize("argv", GOLDEN_HUMAN, ids=" ".join)
def test_human_output_is_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--no-progress")
    assert (code, out) == (0, GOLDEN_HUMAN[argv])


def test_const_jsonl_round_trip(capsys):
    code, out, _ = run_cli(capsys, "const", "--p", "4", "--workers", "1",
                           "--format", "jsonl")
    assert code == 0
    assert json.loads(out) == const_of_p(4).to_record()


def test_const_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "const", "--p", "3", "--workers", "1",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows == [{k: str(v) for k, v in const_of_p(3).to_record().items()}]


def test_const_identical_across_workers(capsys):
    _, out_one, _ = run_cli(capsys, "const", "--p", "4", "--workers", "1",
                            "--format", "jsonl")
    _, out_two, _ = run_cli(capsys, "const", "--p", "4", "--workers", "2",
                            "--format", "jsonl")
    assert out_one == out_two


def test_const_walk_matches_default(capsys):
    _, out_walk, _ = run_cli(capsys, "const", "--p", "5", "--workers", "2",
                             "--format", "jsonl")
    _, out_default, _ = run_cli(capsys, "const", "--p", "5", "--format",
                                "jsonl")
    assert out_walk == out_default


def test_const_rejects_bad_p(capsys):
    code, _, _ = run_cli(capsys, "const", "--p", "0")
    assert code == 2


def test_table_two(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-p", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "p", "N!", "|Phi_p|", "|Phi_p|/N!", "even", "odd", "const(p)"
    ]
    assert lines[1].split() == ["1", "2", "1", "1/2", "1", "0", "1"]
    assert lines[2].split() == ["2", "24", "3", "1/8", "1", "2", "2"]


def test_table_three_ratio_column(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-p", "3", "--which", "3")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[4] for row in rows] == ["1", "1", "15"]
    assert [row[5] for row in rows] == ["0.5", "0.083", "0.125"]


def test_table_jsonl_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-p", "3", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [const_of_p(p).to_record() for p in (1, 2, 3)]
    assert [r["const_p"] for r in records] == ["1", "2", "90"]


def test_table_rejects_bad_which(capsys):
    code, _, _ = run_cli(capsys, "table", "--which", "4")
    assert code == 2


@pytest.mark.parametrize(
    "mode, p",
    [("oracle", 2), ("theorem-random", 1), ("theorem-random", 4),
     ("theorem-random", 5), ("generators", 2), ("oeis", 2), ("parity", 3)],
)
def test_verify_modes_pass(capsys, mode, p):
    code, out, _ = run_cli(capsys, "verify", "--p", str(p), "--mode", mode,
                           "--seed", "7", "--trials", "3")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_seed_echoed(capsys):
    _, out, _ = run_cli(capsys, "verify", "--p", "1", "--mode",
                        "theorem-random", "--seed", "99", "--trials", "2")
    assert "seed=99" in out


def test_verify_jsonl_record(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--mode", "oeis",
                           "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert record["passed"] is True
    assert record["phi_size"] == 3
    assert record["late_growing"] == 3


def test_verify_csv_writes_failures_as_json(capsys, monkeypatch):
    # A failing run's list of failures is JSON text in its csv cell, the
    # same list that jsonl nests.
    monkeypatch.setattr(oracle, "verify_theorem",
                        lambda *_: oracle.VerificationRecord(False, None))
    argv = ("verify", "--p", "1", "--mode", "theorem-random", "--trials", "1")
    _, jsonl, _ = run_cli(capsys, *argv, "--format", "jsonl")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    (row,) = csv.DictReader(io.StringIO(out))
    failures = json.loads(jsonl)["failures"]
    assert code == 1 and len(failures) == 1
    assert json.loads(row["failures"]) == failures


def _refusal(capsys, *argv) -> str:
    """The one stderr line of a refused command, checked for exit 2."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("refusing: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "mode, p", [("oracle", 9), ("theorem-random", 6)],
)
def test_verify_refuses_infeasible_without_slow(capsys, mode, p):
    err = _refusal(capsys, "verify", "--p", str(p), "--mode", mode)
    assert err.endswith(" (pass --slow to override)\n")


@pytest.mark.parametrize(
    "argv",
    [("verify", "--p", "9", "--mode", "generators", "--slow"),
     ("verify", "--p", "9", "--mode", "generators"),
     ("bench", "--p", "6", "--algo", "v1")],
    ids=" ".join,
)
def test_refusal_suggests_slow_only_where_it_lifts_the_cap(capsys, argv):
    assert "--slow" not in _refusal(capsys, *argv)


def test_verify_oeis_p5_runs_without_slow(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--mode", "oeis")
    assert code == 0
    assert out == "PASS oeis p=5: |Phi_p|=53109 late-growing(10)=53109\n"


@pytest.mark.parametrize(
    "argv",
    [*(("verify", "--p", "1000", "--mode", mode, *slow)
       for mode in _VERIFY for slow in ((), ("--slow",))),
     ("bench", "--p", "1000", "--algo", "v1"),
     ("bench", "--p", "1000", "--algo", "v2"),
     ("bench", "--p", "1000", "--algo", "v2", "--workers", "2")],
    ids=" ".join,
)
def test_refusal_at_large_p_is_a_refusal(capsys, argv):
    # Even at p = 1000 the reason is one short line.
    assert len(_refusal(capsys, *argv)) < 200


def test_a_refusal_loads_no_oracle():
    # The oracle modes' refusals word the oracle's cost without loading it.
    assert _fresh_interpreter(
        "from altwronsk.cli import main; "
        "print(*[main(['verify', '--p', '1000', '--mode', mode, '--slow']) "
        "for mode in ('oracle', 'theorem-random')]); "
        "print(*[m for m in ('altwronsk.oracle', 'altwronsk.polynomial') "
        "if m in sys.modules])").splitlines() == ["2 2", ""]


def test_verify_theorem_random_slow_extends_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "6", "--mode",
                           "theorem-random", "--trials", "1", "--slow")
    assert code == 0
    assert "expected=7886133184567796056800" in out


# The largest p each capped verify mode runs with --slow, and the function
# where its work starts.
SLOW_CAPS = [("oracle", 12, "const_of_p"), ("theorem-random", 8, "const_of_p"),
             ("generators", 5, "enumerate_filtered"),
             ("oeis", 6, "enumerate_backtracking")]


def _work_starts(monkeypatch, name):
    def started(*args, **kwargs):
        raise ValueError("work started")

    # A name that cli imports when it loads (const_of_p) is patched in cli.
    # cli imports the walk and the stream only where their work runs, so
    # those names are patched in the module that defines them; a dotted
    # name such as "parallel.partition_work" names that module.
    if "." not in name:
        owner = "cli" if hasattr(cli, name) else altwronsk._OWNER[name]
        name = f"{owner}.{name}"
    monkeypatch.setattr(f"altwronsk.{name}", started)


@pytest.mark.parametrize("mode, cap, work", SLOW_CAPS)
def test_slow_runs_up_to_its_cap(capsys, monkeypatch, mode, cap, work):
    _work_starts(monkeypatch, work)
    code, out, err = run_cli(capsys, "verify", "--p", str(cap), "--mode",
                             mode, "--slow")
    assert (code, out, err) == (3, "", "internal error: work started\n")


@pytest.mark.parametrize("mode, cap, work", SLOW_CAPS)
def test_slow_refuses_past_its_cap(capsys, monkeypatch, mode, cap, work):
    # Refused before any work starts, and with no hint: --slow is given.
    _work_starts(monkeypatch, work)
    for p in (cap + 1, 1000):
        err = _refusal(capsys, "verify", "--p", str(p), "--mode", mode,
                       "--slow")
        assert "--slow" not in err


@pytest.mark.parametrize(
    "argv",
    [("const", "--p", "14"),
     ("const", "--p", "100"),
     ("const", "--p", "8", "--workers", "2"),
     ("table", "--max-p", "14"),
     ("verify", "--p", "14", "--mode", "parity"),
     ("verify", "--p", "14", "--mode", "parity", "--slow")],
    ids=" ".join,
)
def test_dp_and_walk_refuse_past_their_largest_run(capsys, monkeypatch,
                                                   argv):
    # Refused before the DP or the walk starts (a table before its first
    # row), and with no hint: no --slow lifts these caps.
    _work_starts(monkeypatch, "const_of_p")
    assert "--slow" not in _refusal(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [("const", "--p", "13"),
     ("const", "--p", "7", "--workers", "2"),
     ("table", "--max-p", "13"),
     ("verify", "--p", "13", "--mode", "parity")],
    ids=" ".join,
)
def test_dp_and_walk_run_up_to_their_largest_run(capsys, monkeypatch, argv):
    _work_starts(monkeypatch, "const_of_p")
    assert run_cli(capsys, *argv) == (3, "", "internal error: work started\n")


# The largest p bench --algo v2 runs, by its workers, and where its work
# starts: one worker streams the contributing set, more run the walk.
BENCH_V2_CAPS = [("1", 6, "enumerate_backtracking_signed"),
                 ("2", 7, "parallel.partition_work")]


@pytest.mark.parametrize("workers, cap, work", BENCH_V2_CAPS)
def test_bench_v2_runs_up_to_its_cap(capsys, monkeypatch, workers, cap, work):
    _work_starts(monkeypatch, work)
    assert run_cli(capsys, "bench", "--p", str(cap), "--algo", "v2",
                   "--workers", workers) == (3, "", "internal error: work "
                                                    "started\n")


@pytest.mark.parametrize("workers, cap, work", BENCH_V2_CAPS)
def test_bench_v2_refuses_past_its_cap(capsys, monkeypatch, workers, cap,
                                       work):
    # Refused before any work starts, and with no hint: bench has no --slow.
    _work_starts(monkeypatch, work)
    assert "--slow" not in _refusal(capsys, "bench", "--p", str(cap + 1),
                                    "--algo", "v2", "--workers", workers)


# Commands that run the same kind of work, by their row in cli._CAPS, and
# the function where each one's work starts.
SAME_WORK = [
    ("dp", "const --p {p}", "const_of_p"),
    ("dp", "table --max-p {p}", "const_of_p"),
    ("dp", "verify --p {p} --mode parity", "const_of_p"),
    ("walk", "const --p {p} --workers 2", "const_of_p"),
    ("walk", "bench --p {p} --algo v2 --workers 2", "parallel.partition_work"),
    ("stream", "bench --p {p} --algo v2", "enumerate_backtracking_signed"),
    ("stream", "verify --p {p} --mode oeis", "enumerate_backtracking"),
    ("filter", "bench --p {p} --algo v1", "enumerate_filtered"),
    ("filter", "verify --p {p} --mode generators", "enumerate_filtered"),
]


@pytest.mark.parametrize("kind, command, work", SAME_WORK,
                         ids=[c.format(p="P") for _, c, _ in SAME_WORK])
def test_the_same_work_has_the_same_cap(capsys, monkeypatch, kind, command,
                                        work):
    from altwronsk.cli import _CAPS

    _work_starts(monkeypatch, work)
    cap = _CAPS[kind][0]
    assert run_cli(capsys, *command.format(p=cap).split()) == (
        3, "", "internal error: work started\n")
    _refusal(capsys, *command.format(p=cap + 1).split())


def test_verify_generators_failure_names_permutations_one_based(
        capsys, monkeypatch):
    stream = permutations.enumerate_backtracking
    monkeypatch.setattr(permutations, "enumerate_backtracking",
                        lambda p: list(stream(p))[1:])
    code, out, _ = run_cli(capsys, "verify", "--p", "2", "--mode",
                           "generators")
    assert code == 1
    assert out == ("FAIL generators p=2: filtered=3 backtracking=2\n"
                   "  first differing permutations: (1,2,4,3)\n")


@pytest.mark.parametrize(
    "raised, code, message",
    [(BrokenProcessPool("a worker died"), 3, "internal error: a worker died\n"),
     (KeyboardInterrupt(), 130, "interrupted\n")],
)
def test_pool_failures_end_cleanly(capsys, monkeypatch, raised, code,
                                   message):
    def run_tasks(tasks, workers):
        raise raised

    monkeypatch.setattr(parallel, "run_tasks", run_tasks)
    got, out, err = run_cli(capsys, "const", "--p", "4", "--workers", "2",
                            "--no-progress")
    assert (got, out, err) == (code, "", message)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers inherit the patched walk only when "
                           "forked")
def test_a_pool_worker_that_dies_ends_cleanly(capsys, monkeypatch):
    # A real 2-process pool whose workers exit as soon as they walk. The
    # forked workers inherit the patched kernel; this process never runs it.
    test_process = os.getpid()

    def dying_walk(*args):
        assert os.getpid() != test_process, "the walk ran in the test process"
        os._exit(1)

    monkeypatch.setattr(parallel, "_walk", dying_walk)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, "const", "--p", "4", "--workers", "2",
                             "--no-progress")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ") and err.count("\n") == 1


def _fresh_interpreter(statements: str) -> str:
    """stdout of a new interpreter that runs ``statements`` with src on the path."""
    src_dir = os.path.dirname(os.path.dirname(altwronsk.__file__))
    code = f"import sys; sys.path.insert(0, {src_dir!r}); {statements}"
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout


def _loaded_by_cli_import(modules: list[str]) -> list[str]:
    """Those of ``modules`` that a cold ``import altwronsk.cli`` loads."""
    return _fresh_interpreter(
        f"import altwronsk.cli; "
        f"print(*[m for m in {modules!r} if m in sys.modules])").split()


def test_cli_import_leaves_the_pool_out():
    # Only a command that starts a pool pays for importing one.
    assert _loaded_by_cli_import(["concurrent.futures"]) == []


def test_cli_import_leaves_out_what_only_some_commands_run():
    # The oracle modes of verify load the oracle side; the walk and the
    # stream load only for the commands that run them; jsonl and csv output
    # load their own encoders; no record needs dataclasses (and inspect).
    assert _loaded_by_cli_import(
        ["dataclasses", "inspect", "json", "csv", "altwronsk.oracle",
         "altwronsk.polynomial", "altwronsk.parallel",
         "altwronsk.permutations"]) == []


def test_the_dp_and_the_oracle_run_without_the_walk_or_the_stream():
    # const, table and verify --mode parity run the subset DP alone, and
    # the oracle modes compare against it; none loads parallel or
    # permutations.
    commands = ["const --p 3 --format jsonl", "table --max-p 3",
                "verify --p 3 --mode parity", "verify --p 2 --mode oracle",
                "verify --p 2 --mode theorem-random --trials 1"]
    assert _fresh_interpreter(
        "from altwronsk.cli import main; "
        f"codes = [main(argv.split()) for argv in {commands!r}]; "
        "print(*codes); "
        "print(*[m for m in ('altwronsk.parallel', 'altwronsk.permutations') "
        "if m in sys.modules])").splitlines()[-2:] == ["0 0 0 0 0", ""]


def test_partial_result_resolves_without_the_walk():
    # The DP's result type is the engine's, so naming it loads no walk.
    assert _fresh_interpreter(
        "import altwronsk; print(altwronsk.PartialResult.__module__, "
        "'altwronsk.parallel' in sys.modules)") == "altwronsk.engine False\n"


def test_python_dash_m_runs_the_cli():
    src_dir = os.path.dirname(os.path.dirname(altwronsk.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    done = subprocess.run(
        [sys.executable, "-m", "altwronsk.cli", "const", "--p", "2",
         "--format", "jsonl", "--no-progress"],
        capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == const_of_p(2).to_record()


def test_closed_stdout_is_an_internal_error():
    # With file descriptor 1 closed at start the interpreter has no
    # sys.stdout; the report would be lost, so the run must not pass.
    src_dir = os.path.dirname(os.path.dirname(altwronsk.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    command = (f"{shlex.quote(sys.executable)} -m altwronsk.cli const --p 2 "
               f"--no-progress >&-")
    done = subprocess.run(["sh", "-c", command], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 3
    assert done.stderr.startswith("internal error: ")
    assert done.stderr.count("\n") == 1


def test_every_public_name_resolves():
    # A bare import loads no submodule. Every name is resolved on first
    # use: each submodule by attribute access, and every name of __all__ by
    # star-import.
    submodules = ["engine", "parallel", "permutations", "oracle", "polynomial"]
    assert _fresh_interpreter(
        "import altwronsk; "
        "print([m for m in sys.modules if m.startswith('altwronsk.')]); "
        f"print([getattr(altwronsk, m) is sys.modules['altwronsk.' + m] "
        f"for m in {submodules!r}]); "
        "from altwronsk import *; "
        "print([n for n in altwronsk.__all__ if n not in globals()])"
    ).splitlines() == ["[]", str([True] * len(submodules)), "[]"]
    from altwronsk import oracle, polynomial

    assert altwronsk.brute_force_const is oracle.brute_force_const
    assert altwronsk.Polynomial is polynomial.Polynomial
    assert altwronsk.const_of_p is const_of_p
    with pytest.raises(AttributeError):
        altwronsk.no_such_name


def test_verify_unknown_mode(capsys):
    code, _, _ = run_cli(capsys, "verify", "--p", "2", "--mode", "bogus")
    assert code == 2


def test_bench_v1(capsys):
    # The filter runs in one process, whatever --workers asks for.
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "bench", "--p", "3", "--algo", "v1",
                               "--workers", workers, "--format", "jsonl")
        assert code == 0
        record = json.loads(out)
        assert record["examined"] == 720
        assert record["emitted"] == 35
        assert record["workers"] == 1


def test_bench_v1_refuses_large_p(capsys):
    code, _, err = run_cli(capsys, "bench", "--p", "6", "--algo", "v1")
    assert code == 2
    assert "refusing" in err


def test_bench_v2(capsys):
    code, out, _ = run_cli(capsys, "bench", "--p", "4", "--algo", "v2",
                           "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert record["emitted"] == 1001
    assert record["examined"] >= 1001


def test_bench_v2_single_permutation(capsys):
    code, out, _ = run_cli(capsys, "bench", "--p", "1", "--format", "jsonl")
    assert code == 0
    assert json.loads(out)["emitted"] == 1


@pytest.mark.parametrize(
    "p, workers, examined, tasks",
    [(3, 1, 123, 1), (5, 1, 176_992, 1), (3, 2, 79, 22), (5, 2, 176_943, 30)],
)
def test_bench_v2_counts(capsys, p, workers, examined, tasks):
    # Placements attempted: the stream with one worker; with more, the
    # walks below the default split, partition placements not counted.
    code, out, _ = run_cli(capsys, "bench", "--p", str(p), "--algo", "v2",
                           "--workers", str(workers), "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert (record["examined"], record["tasks"]) == (examined, tasks)


def test_bench_v2_parallel(capsys):
    code, out, _ = run_cli(capsys, "bench", "--p", "3", "--algo", "v2",
                           "--workers", "2", "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert record["emitted"] == 35
    assert record["tasks"] > 1


def test_bench_v2_reports_the_processes_it_ran(capsys, monkeypatch):
    # With one CPU, --workers 8 runs in this process, and says so.
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, out, _ = run_cli(capsys, "bench", "--p", "3", "--algo", "v2",
                           "--workers", "8", "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert (record["workers"], record["emitted"]) == (1, 35)


def test_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys, "--nonsense")
    assert code == 2


def test_internal_consistency_exit_code(capsys, monkeypatch):
    # A failed exact division is an internal error like any other.
    import altwronsk.cli as cli
    from altwronsk.engine import ExactDivisionError

    def induced_failure(*args, **kwargs):
        raise ExactDivisionError("induced for the exit-code contract; "
                                 "this is a bug")

    monkeypatch.setattr(cli, "const_of_p", induced_failure)
    code, out, err = run_cli(capsys, "const", "--p", "2")
    assert (code, out, err) == (3, "", "internal error: induced for the "
                                "exit-code contract; this is a bug\n")


def test_internal_value_error_exit_code(capsys, monkeypatch):
    # A ValueError that no argument caused is a bug, not a usage error.
    import altwronsk.cli as cli

    def induced_failure(*args, **kwargs):
        raise ValueError("induced internal ValueError")

    monkeypatch.setattr(cli, "const_of_p", induced_failure)
    code, out, err = run_cli(capsys, "const", "--p", "2")
    assert (code, out, err) == (3, "", "internal error: induced internal "
                                "ValueError\n")


@pytest.mark.parametrize(
    "raised, message",
    [(BlockingIOError(11, "Resource temporarily unavailable"),
      "[Errno 11] Resource temporarily unavailable"),
     (MemoryError(), "MemoryError"),
     (TypeError("induced internal TypeError"), "induced internal TypeError")],
    ids=["BlockingIOError", "MemoryError", "TypeError"],
)
def test_any_other_internal_error_exit_code(capsys, monkeypatch, raised,
                                            message):
    # Whatever else escapes a handler ends as one line and exit 3, not as a
    # traceback with exit 1, the verification-failure code. A stand-in pool
    # raises at its first submit, as a fork does when no process can start
    # (BlockingIOError); no process starts. An empty message names the type.
    class Pool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            raise raised

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, err = run_cli(capsys, "const", "--p", "4", "--workers", "2",
                             "--no-progress")
    assert (code, out, err) == (3, "", f"internal error: {message}\n")
