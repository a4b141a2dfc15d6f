"""Pin the output digests and deterministic counts of every pooled item.

    python3 perfbench/pin.py [--workload NAME ...] [--out FILE]

Runs every key of the default and held-out pools of the named workloads
(all by default) and writes their digests and counts into pinned.json,
keeping the entries of other workloads. An item whose records break a
range invariant is not pinned. Re-pinning changes what the benchmark
accepts as correct: do it only for a change meant to alter the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402


def pin(name: str) -> dict:
    workload = WORKLOADS[name]()
    table = {}
    for seed_set in ("default", "heldout"):
        entries = table[seed_set] = {}
        for key in workload.pool(seed_set):
            result = workload.run_item(key)
            if result.problems:
                raise SystemExit(f"{name} item {key}: {result.problems[0]}")
            entries[str(key)] = {"digests": result.digests, "counts": result.counts}
            print(f"{name} {seed_set} {key} {result.counts}", flush=True)
    return table


def dumps(pinned: dict) -> str:
    """JSON with one line per pinned item."""
    workloads = []
    for name, seed_sets in pinned.items():
        sets = []
        for seed_set, entries in seed_sets.items():
            rows = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
            sets.append(f"  {json.dumps(seed_set)}: {{\n{rows}\n  }}")
        workloads.append(f" {json.dumps(name)}: {{\n" + ",\n".join(sets) + "\n }")
    return "{\n" + ",\n".join(workloads) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path, default=HERE / "pinned.json")
    args = parser.parse_args(argv)
    pinned = json.loads(args.out.read_text()) if args.out.exists() else {}
    for name in args.workload or list(WORKLOADS):
        pinned[name] = pin(name)
        args.out.write_text(dumps(pinned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
