"""chaintime benchmark: one workload, host-time metrics, checked outputs.

    python3 perfbench/run.py --workload invoice-sweep --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the workload runs untraced for ``--seconds`` and the
end-to-end metrics are reported. With ``--trace 1`` a fixed number of items
runs twice, untraced and then with every layer wrapped in spans (see
tracing.py), and the per-layer metrics are reported together with the
tracing overhead. Every item's outputs are checked (see workloads.py) in
both modes. ``--workload all`` runs every workload, each in its own process.

Standard output carries the machine context, a table of every metric with
its unit, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("invoice-sweep", "oracle-flood", "race-sweep", "trace-export")
SETUP_REPEATS = 7

# Set-up as a user pays it: a fresh interpreter importing chaintime and
# building and validating the workload's scenario configs.
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "workloads.WORKLOADS[sys.argv[3]]()\n"
    "print(time.perf_counter() - start)\n"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--seed-set", choices=("default", "heldout"), default="default",
        help="pinned pool the items come from; claims must also pass on 'heldout'",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_context(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_set": args.seed_set,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def measure_setup(name: str) -> float:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_items(workload, keys, pinned: dict, tracer=None) -> list:
    results = []
    for key in keys:
        result = workload.run_item(key, tracer)
        result.check_pinned(pinned.get(str(key)))
        results.append(result)
    return results


def timed_loop(workload, keys, pinned: dict, seconds: float) -> tuple[list, float]:
    """Run whole groups of items while the next group is expected to end
    within ``seconds`` of host time; at least one group.

    Returns the results and the peak RSS in MB when the first group ended.
    Peak RSS keeps creeping up in steps of a freed chain column as the
    allocator fragments, so a reading after a fixed amount of work does not
    depend on how many items the host's speed allowed.
    """
    results = []
    start = perf_counter()
    groups = 0
    while True:
        group = [next(keys) for _ in range(workload.group)]
        results.extend(run_items(workload, group, pinned))
        groups += 1
        if groups == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = perf_counter() - start
        if elapsed + elapsed / groups > seconds:
            return results, peak_rss_mb


def flatten(results, attr: str) -> list[float]:
    return [value for result in results for value in getattr(result, attr)]


def end_to_end(results, group: int, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """(metrics for the result line, further metrics for the table).

    ``group`` is the number of items the loop runs as one unit; the
    simulator speed is a median over these units, so that trace-export's
    rounds weigh its five measures alike.
    """
    seed_s = flatten(results, "seed_s")
    run_s = flatten(results, "run_s")
    wall_s = sum(result.wall_s for result in results)
    tx_per_s = []
    for i in range(0, len(results), group):
        unit = results[i:i + group]
        tx = sum(result.counts["tx_simulated"] for result in unit)
        tx_per_s.append(tx / sum(result.wall_s for result in unit))
    metrics = {
        "setup_s": (setup_s, "s"),
        "seed_s_p50": (statistics.median(seed_s), "s"),
        "run_s_p50": (statistics.median(run_s), "s"),
        "sim_tx_per_s": (statistics.median(tx_per_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"wall_s": (wall_s, "s")}
    # a percentile is reported only with at least ten samples beyond it
    if len(run_s) >= 100:
        extra["run_s_p90"] = (statistics.quantiles(run_s, n=10)[8], "s")
    so_run_s = flatten(results, "so_run_s")
    if so_run_s:
        extra["so_run_s_p50"] = (statistics.median(so_run_s), "s")
    export_s = sum(result.export_s for result in results)
    if export_s:
        export_mb = sum(result.export_bytes for result in results) / 1e6
        extra["export_mb_per_s"] = (export_mb / export_s, "MB/s")
    extra["failed_ratio"] = (failed_runs(results) / attempted_runs(results), "ratio")
    extra["seeds"] = (len(seed_s), "count")
    extra["runs"] = (len(run_s), "count")
    return metrics, extra


def per_layer(tracer, untraced, traced) -> dict:
    from tracing import SPAN_NAMES
    from workloads import COUNT_NAMES

    metrics = {}
    for name in SPAN_NAMES:
        calls, total_s, self_s = tracer.stats[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (total_s, "s")
        metrics[f"{name}.self_s"] = (self_s, "s")
    tx = sum(result.counts["tx_simulated"] for result in traced)
    metrics["sim.us_per_tx"] = (tracer.stats["sim.run"][2] / tx * 1e6, "us")
    metrics["chain.export_trace.mb"] = (
        sum(result.export_bytes for result in traced) / 1e6, "MB")
    for name in COUNT_NAMES:
        metrics[f"count.{name}"] = (sum(result.counts[name] for result in traced), "count")
    traced_s = sum(result.wall_s for result in traced)
    untraced_s = sum(result.wall_s for result in untraced)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    return metrics


def compare_passes(untraced, traced) -> None:
    """Tracing must not change any output: flag items whose passes differ."""
    for plain, wrapped in zip(untraced, traced):
        if (plain.digests, plain.counts) != (wrapped.digests, wrapped.counts):
            wrapped.problems.append(f"item {wrapped.key}: traced outputs differ from untraced")


def attempted_runs(results) -> int:
    return sum(result.counts["runs"] for result in results)


def failed_runs(results) -> int:
    return sum(result.counts["runs"] for result in results if result.problems)


def print_table(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value!r:>24} {unit}")


def run_workload(args) -> int:
    import workloads

    context = machine_context(args)
    print("context " + json.dumps(context))
    workload = workloads.WORKLOADS[args.workload]()
    with open(HERE / "pinned.json", encoding="utf-8") as fh:
        pinned = json.load(fh)[args.workload][args.seed_set]
    keys = workload.sequence(args.seed, args.seed_set)

    if args.trace:
        from tracing import Tracer

        items = [next(keys) for _ in range(workload.trace_items(args.seconds))]
        untraced = run_items(workload, items, pinned)
        tracer = Tracer()
        with tracer:
            traced = run_items(workload, items, pinned, tracer)
        compare_passes(untraced, traced)
        results = untraced + traced
        metrics = per_layer(tracer, untraced, traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed_set}-{args.seed}.json")
        print_table(metrics)
    else:
        setup_s = measure_setup(args.workload)
        results, peak_rss_mb = timed_loop(workload, keys, pinned, args.seconds)
        metrics, extra = end_to_end(results, workload.group, setup_s, peak_rss_mb)
        print_table({**metrics, **extra})

    problems = [problem for result in results for problem in result.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted_runs(results),
        "failed": failed_runs(results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--seed-set", args.seed_set],
            cwd=ROOT,
        )
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chaintime" / "__init__.py").is_file():
        print(f"error: no chaintime sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import chaintime

    if not Path(chaintime.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: chaintime imported from {chaintime.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
