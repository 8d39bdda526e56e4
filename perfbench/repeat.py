"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/repeat.py --workload NAME [--workload NAME ...]
        --seeds 1-10 [--seconds 55] [--trace 0] [--out FILE]

Runs ``run.py`` once per seed and workload, in separate processes, and
prints for every metric the median, the quartiles and the spread: the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median. ``--out`` also writes every run's result
line and environment record, with that summary, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in args.workload:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-1000:]}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            env = next((json.loads(line[4:]) for line in lines
                        if line.startswith("env ")), None)
            ok &= result["correct"]
            runs.append({"seed": seed, "result": result, "env": env})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in result["metrics"].items()
                if args.trace == 0 or k.endswith("_s")), flush=True)
        if len(runs) < 2:
            continue
        summary = {}
        for key, first in runs[0]["result"]["metrics"].items():
            summary[key] = {**summarise([r["result"]["metrics"][key]["value"]
                                         for r in runs]),
                            "unit": first["unit"]}
        report["workloads"][name] = {"runs": runs, "summary": summary}
        for key, s in summary.items():
            print(f"  {name} {key}: median {s['median']:.6g} {s['unit']}, "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, "
                  f"spread {s['spread']:.2%} (n={s['n']})")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
