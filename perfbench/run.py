"""Cold-process benchmark of the altwronsk CLI, with a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --self-check

With ``--trace 0`` each iteration starts every command of the workload as a
cold ``python3`` process, one after another (a closed loop with one client),
and iterations repeat until the next one would end after ``--seconds``. Each
iteration also times a few cold set-up processes. Every process's exit code
and stdout are compared byte for byte with ``perfbench/expected.json``.

With ``--trace 1`` the workload runs once in this process, with spans around
the calls into each module (see ``layers.py``), and the per-layer metrics are
printed instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 means the run finished
(``correct`` tells whether the outputs matched); 2 means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

LAUNCH = "import sys; from altwronsk.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = "import altwronsk.cli; altwronsk.cli.build_parser()"
SETUP_PROBES_PER_ITERATION = 3
PROCESS_TIMEOUT_S = 150
# The one output that is a timing; it is masked before the comparison.
ELAPSED = re.compile(r"elapsed=[0-9.]+s")
MASKED_ELAPSED = "elapsed=<masked>s"


@dataclass(frozen=True)
class Workload:
    """CLI commands run in order; "{seed}" takes each iteration's seed."""

    commands: tuple[str, ...]
    probe_p: int  # the p at which the traced run probes ``parallel``


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "const-p6-serial": Workload(
        ("const --p 6 --workers 1 --format jsonl --no-progress",), 6),
    "const-p6-pool": Workload(
        ("const --p 6 --workers 2 --format jsonl --no-progress",), 6),
    "oracle-p4": Workload(("verify --p 4 --mode oracle --format jsonl",), 4),
    "small-p-checks": Workload((
        "table --max-p 5",
        "verify --p 4 --mode generators",
        "verify --p 4 --mode oeis",
        "bench --p 5 --algo v2 --workers 1",
        "verify --p 3 --mode theorem-random --slow --seed {seed} --trials 20",
    ), 5),
}

# The same workloads at reduced p, for --self-check.
QUICK_WORKLOADS = {
    "const-p6-serial": Workload(
        ("const --p 4 --workers 1 --format jsonl --no-progress",), 4),
    "const-p6-pool": Workload(
        ("const --p 4 --workers 2 --format jsonl --no-progress",), 4),
    "oracle-p4": Workload(("verify --p 3 --mode oracle --format jsonl",), 3),
    "small-p-checks": Workload((
        "table --max-p 3",
        "verify --p 3 --mode generators",
        "verify --p 3 --mode oeis",
        "bench --p 3 --algo v2 --workers 1",
        "verify --p 2 --mode theorem-random --slow --seed {seed} --trials 20",
    ), 3),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- cold processes ------------------------------------------------------


@dataclass(frozen=True)
class Process:
    wall: float
    cpu: float  # user + system of the process and every child it waited for
    rss_mb: float  # largest resident set of the process or those children
    code: int
    stdout: str
    stderr: str


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(code: str, args: list[str]) -> Process:
    """Start ``python3 -c code args`` cold and wait for it and its pool."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryFile(dir=BUILD) as out, \
            tempfile.TemporaryFile(dir=BUILD) as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=ROOT,
                                env=env, stdout=out, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Process(wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024, proc.returncode,
                       out.read().decode(), err.read().decode())


def setup_probe() -> float:
    probe = run_process(SETUP, [])
    if probe.code != 0:
        raise BenchError(f"set-up process exited {probe.code}: "
                         f"{probe.stderr.strip()[-500:]}")
    return probe.wall


def command_args(command: str, seed: int) -> list[str]:
    return command.replace("{seed}", str(seed)).split()


def output_matches(expected: dict, command: str, seed: int, code: int,
                   stdout: str) -> bool:
    want = expected["outputs"][command]
    return (code == want["exit"]
            and ELAPSED.sub(MASKED_ELAPSED, stdout)
            == want["stdout"].replace("{seed}", str(seed)))


@dataclass
class ColdResult:
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure_cold(workload: Workload, expected: dict, seed: int,
                 seconds: float) -> ColdResult:
    """Repeat the workload's cold processes for about ``seconds``."""
    rng = random.Random(seed)
    result = ColdResult()
    setup_probe()  # untimed: bytecode and file caches, paid once per install
    started = time.perf_counter()
    longest = 0.0
    while True:
        iteration_started = time.perf_counter()
        result.setups += [setup_probe()
                          for _ in range(SETUP_PROBES_PER_ITERATION)]
        iteration_seed = rng.randrange(1_000_000)
        wall = cpu = rss = 0.0
        for command in workload.commands:
            proc = run_process(LAUNCH, command_args(command, iteration_seed))
            result.attempted += 1
            if not output_matches(expected, command, iteration_seed,
                                  proc.code, proc.stdout):
                result.failed += 1
                print(f"unexpected output (exit {proc.code}) from: "
                      f"{command}\n{proc.stderr.strip()[-500:]}",
                      file=sys.stderr)
            wall += proc.wall
            cpu += proc.cpu
            rss = max(rss, proc.rss_mb)
        result.walls.append(wall)
        result.cpus.append(cpu)
        result.rss.append(rss)
        longest = max(longest, time.perf_counter() - iteration_started)
        if time.perf_counter() - started + longest > seconds:
            return result


def cold_metrics(result: ColdResult) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics: name -> (median, unit, sample count)."""
    return {
        "wall_s": (statistics.median(result.walls), "s", len(result.walls)),
        "cpu_s": (statistics.median(result.cpus), "s", len(result.cpus)),
        "peak_rss_mb": (statistics.median(result.rss), "MB", len(result.rss)),
        "setup_s": (statistics.median(result.setups), "s",
                    len(result.setups)),
    }


# -- traced run ----------------------------------------------------------


@dataclass
class TracedResult:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    counts_match: bool
    spans_path: Path


def measure_traced(name: str, workload: Workload, expected: dict,
                   expected_counts: dict, seed: int) -> TracedResult:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    iteration_seed = random.Random(seed).randrange(1_000_000)
    invocations = [command_args(c, iteration_seed) for c in workload.commands]

    def check(index: int, code: int, stdout: str) -> bool:
        return output_matches(expected, workload.commands[index],
                              iteration_seed, code, stdout)

    tracer, attempted, failed = layers.traced_run(
        invocations, check, workload.probe_p)
    metrics = layers.layer_metrics(tracer)
    mismatched = [key for key in layers.EXACT_COUNTS
                  if metrics[key][0] != expected_counts[key]]
    for key in mismatched:
        print(f"count {key} = {metrics[key][0]}, expected "
              f"{expected_counts[key]}", file=sys.stderr)
    run_id = uuid.uuid4().hex[:12]
    spans_path = BUILD / "spans" / f"{name}-seed{seed}-{run_id}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.record(run_id)) + "\n")
    return TracedResult(metrics, attempted, failed, not mismatched,
                        spans_path)


# -- environment and reporting -------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "trace": trace,
    }


def run_workload(name: str, workload: Workload, expected: dict,
                 expected_counts: dict, seed: int, seconds: float,
                 trace: bool) -> tuple[bool, int, int, dict]:
    """Measure one workload, print its report; return the result fields."""
    load_before = os.getloadavg()
    if trace:
        traced = measure_traced(name, workload, expected, expected_counts,
                                seed)
        metrics = {k: (v, unit) for k, (v, unit) in traced.metrics.items()}
        attempted, failed = traced.attempted, traced.failed
        correct = failed == 0 and traced.counts_match
        print(f"{name}: traced run, {attempted} in-process invocations, "
              f"spans in {traced.spans_path.relative_to(ROOT)}")
        for key, (value, unit) in metrics.items():
            print(f"  {key:<38} {value:>16.6g} {unit}")
        print(f"  exact counts {'match' if traced.counts_match else 'DIFFER'}")
    else:
        cold = measure_cold(workload, expected, seed, seconds)
        stats = cold_metrics(cold)
        metrics = {k: (v, unit) for k, (v, unit, _) in stats.items()}
        attempted, failed = cold.attempted, cold.failed
        correct = failed == 0
        print(f"{name}: {len(cold.walls)} runs, {attempted} cold invocations")
        samples = {"wall_s": cold.walls, "cpu_s": cold.cpus,
                   "peak_rss_mb": cold.rss, "setup_s": cold.setups}
        for key, (value, unit, n) in stats.items():
            print(f"  {key:<12} {value:>12.6g} {unit:<3} median of n={n} "
                  f"(min {min(samples[key]):.6g}, max {max(samples[key]):.6g})")
        print(f"  {'failed_frac':<12} {failed / attempted:>12.6g} ratio "
              f"{failed}/{attempted} invocations")
    print("env " + json.dumps({**environment(trace),
                               "workload": name, "seed": seed,
                               "loadavg_before": load_before,
                               "loadavg_after": os.getloadavg()}))
    return correct, attempted, failed, metrics


def load_expected() -> dict:
    with (BENCH / "expected.json").open() as handle:
        return json.load(handle)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    })


# -- self-check ----------------------------------------------------------


def _corrupted(expected: dict) -> dict:
    """Every expected output made wrong: stdout for half, exit for half."""
    outputs = {}
    for index, (command, want) in enumerate(expected["outputs"].items()):
        if index % 2:
            outputs[command] = {**want, "exit": want["exit"] + 1}
        else:
            outputs[command] = {**want, "stdout": "corrupted " + want["stdout"]}
    return {**expected, "outputs": outputs}


def self_check() -> int:
    """Every workload once at reduced p, then with corrupted expectations."""
    expected = load_expected()
    bad_outputs = _corrupted(expected)
    verdicts = []

    def verdict(ok: bool, text: str) -> None:
        verdicts.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {text}")

    for name, workload in QUICK_WORKLOADS.items():
        counts = expected["counts"]["quick"][name]
        cold = measure_cold(workload, expected, seed=1, seconds=0)
        verdict(cold.failed == 0,
                f"{name} cold: failed_frac {cold.failed}/{cold.attempted}")
        cold = measure_cold(workload, bad_outputs, seed=1, seconds=0)
        verdict(cold.failed == cold.attempted,
                f"{name} cold, corrupted expected outputs: failed_frac "
                f"{cold.failed}/{cold.attempted}")
        traced = measure_traced(name, workload, expected, counts, seed=1)
        verdict(traced.failed == 0 and traced.counts_match,
                f"{name} traced: {traced.failed}/{traced.attempted} failed, "
                f"counts {'match' if traced.counts_match else 'differ'}")
        off_by_one = {key: value + 1 for key, value in counts.items()}
        traced = measure_traced(name, workload, expected, off_by_one, seed=1)
        verdict(not traced.counts_match,
                f"{name} traced, corrupted expected counts: counts "
                f"{'match' if traced.counts_match else 'differ'}")
    print(f"self-check: {sum(verdicts)}/{len(verdicts)} passed")
    return 0 if all(verdicts) else 1


# -- entry point ---------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once at reduced p, and "
                             "check that wrong outputs are caught")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload or --self-check is required")
    try:
        if not (SRC / "altwronsk" / "cli.py").is_file():
            raise BenchError(f"no altwronsk sources under {SRC}")
        BUILD.mkdir(parents=True, exist_ok=True)
        if args.self_check:
            return self_check()
        expected = load_expected()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        correct, attempted, failed, metrics = True, 0, 0, {}
        for name in names:
            ok, tried, bad, found = run_workload(
                name, WORKLOADS[name], expected,
                expected["counts"]["full"][name], args.seed, args.seconds,
                bool(args.trace))
            correct &= ok
            attempted += tried
            failed += bad
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in found.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
