"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload invoice-sweep --seeds 0-9 [--trace 1] [--out FILE]

Runs perfbench/run.py once per seed and workload, in turn, and prints for
every metric its median, quartiles and spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median. End-to-end metrics are marked against their bound
from BENCHMARK.json. ``--out`` also writes every run, with its machine
context, and the summary as JSON: this is how perfbench/baseline.json is
recorded, and how two commits are compared on the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, args) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--seed-set", args.seed_set],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    context = json.loads(lines[0].removeprefix("context "))
    return {"workload": workload, "seed": seed, "context": context,
            "result": json.loads(lines[-1])}


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-set", choices=("default", "heldout"), default="default")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace, "seed_set": args.seed_set,
              "workloads": {}}
    for workload in args.workload:
        runs = [run_once(workload, seed, args) for seed in args.seeds]
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        print(f"== {workload}: {len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}")
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {name:34s} median {s['median']:<14.6g} spread {s['spread']:8.4f} {flag}")
        failed = sum(run["result"]["failed"] for run in runs)
        print(f"  failed runs {failed} of {sum(run['result']['attempted'] for run in runs)}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
