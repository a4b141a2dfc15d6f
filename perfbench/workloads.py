"""The benchmark's four workloads, their inputs, and the checks on their outputs.

Each workload is a closed loop over *items*, one process and no threads. An
item is the unit the loop checks: an invoice-demo seed swept over all five
measures (invoice-sweep), one extended run (oracle-flood), a batch of
RACE_BATCH seeds of the two race presets (race-sweep), or one (seed,
measure) run exported in full (trace-export). Items are named by an int key.

Every item is checked twice. Its output digests and deterministic counts
are compared with the values pinned in pinned.json, when the key is pinned;
and every guard record is audited against the paper's range invariants.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import count
from time import perf_counter
from typing import Iterator

from chaintime import experiment, sim
from chaintime.measures import MeasureKind, PushOracleConfig
from chaintime.process import Outcome
from chaintime.scenario import (
    INVOICE_START_DUE,
    MS_PER_DAY,
    deferred_fifo_scenario,
    deferred_overtake_scenario,
    invoice_demo_scenario,
)

MEASURES = tuple(MeasureKind)
RACE_BATCH = 64
HELDOUT_BASE = 1_000_000
# Keys past the pinned pool start here, offset by the workload seed; both
# are multiples of RACE_BATCH and of len(MEASURES).
UNPINNED_BASE = 2_000_000_000
UNPINNED_STRIDE = 1_000_000

COUNT_NAMES = ("runs", "blocks", "tx_simulated", "tx_dropped", "oracle_events", "records")


class HashSink:
    """Text stream that keeps only the sha256 and the byte count of what it is given."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> None:
        data = text.encode()
        self._hash.update(data)
        self.bytes += len(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class ItemResult:
    """Host timings, output digests and counts of one workload item.

    seed_s holds one entry per simulator seed the item covers; run_s one
    per sim.run call. Neither includes the time spent checking outputs.
    """

    key: int
    seed_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    so_run_s: list[float] = field(default_factory=list)
    export_s: float = 0.0
    export_bytes: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNT_NAMES, 0))
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.seed_s)

    def observe(self, trace) -> None:
        """Count one run's output and audit its records."""
        counts = self.counts
        counts["runs"] += 1
        counts["blocks"] += len(trace.chain)
        counts["tx_simulated"] += len(trace.tx_meta)
        counts["tx_dropped"] += len(trace.dropped)
        counts["oracle_events"] += len(trace.oracle_events)
        counts["records"] += len(trace.records)
        self.problems.extend(audit(trace))

    def check_pinned(self, expected: dict | None) -> None:
        if expected is None:
            return
        for name, digest in expected["digests"].items():
            if self.digests.get(name) != digest:
                self.problems.append(f"item {self.key}: {name} digest differs from pinned")
        if self.counts != expected["counts"]:
            self.problems.append(
                f"item {self.key}: counts {self.counts} differ from pinned {expected['counts']}"
            )


def audit(trace) -> list[str]:
    """The paper's range invariants over every measured guard record.

    PA equals the true creation instant s_tx; BT equals the block timestamp
    s_i and gives FP exactly when s_tx < s_e <= s_i; BN is not before
    genesis; SO is not later than s_i; RO is not earlier than the block's
    real mining start plus its mining time. No workload enables miner clock
    drift, under which the BT conditions would not hold.
    """
    timestamps = trace.chain.timestamps
    mining = trace.chain.mining_durations
    starts = trace.real_starts
    genesis = int(timestamps[0])
    measure = trace.measure
    problems = []
    for record in trace.records:
        if record.raw_measured_ms is None or record.tx_id is None:
            continue
        where = f"{trace.scenario} seed={trace.seed} {measure.value} tx={record.tx_id}"
        meta = trace.tx_meta.get(record.tx_id)
        if meta is None:
            problems.append(f"{where}: no transaction metadata")
            continue
        s_tx = meta.created_at
        raw = record.raw_measured_ms
        block = record.block_number
        if measure is MeasureKind.PARAMETER and raw != s_tx:
            problems.append(f"{where}: PA {raw} != s_tx {s_tx}")
        elif measure is MeasureKind.BLOCK_TIMESTAMP:
            s_i = int(timestamps[block])
            if raw != s_i:
                problems.append(f"{where}: BT {raw} != s_i {s_i}")
            if record.deadline_ms is not None:
                is_fp = record.outcome is Outcome.FP
                if is_fp != (s_tx < record.deadline_ms <= s_i):
                    problems.append(f"{where}: FP={is_fp} disagrees with s_tx < s_e <= s_i")
        elif measure is MeasureKind.BLOCK_NUMBER and raw < genesis:
            problems.append(f"{where}: BN {raw} < s_0 {genesis}")
        elif measure is MeasureKind.STORAGE_ORACLE and raw > int(timestamps[block]):
            problems.append(f"{where}: SO {raw} > s_i")
        elif measure is MeasureKind.REQUEST_RESPONSE_ORACLE:
            if raw < int(starts[block]) + int(mining[block]):
                problems.append(f"{where}: RO {raw} < s_i + m_i")
    return problems


def _spans(tracer):
    """Span factory for benchmark code; a no-op when the run is untraced."""
    if tracer is None:
        return lambda name: nullcontext()
    return tracer.span


class Workload:
    """Inputs and item runner of one workload.

    The default and held-out seed sets are pools of pinned keys. A run
    shuffles its pool in groups of ``group`` keys by the workload seed,
    keeping each group's order.
    """

    name = ""
    step = 1  # distance between consecutive keys
    group = 1  # keys that stay together when the pool is shuffled
    default_keys = 0
    heldout_keys = 0
    item_s = 1.0  # host seconds per item at the commit that pinned the pools

    def __init__(self, configs):
        self.configs = configs
        for config in configs:
            config.validate()

    def pool(self, seed_set: str) -> list[int]:
        if seed_set == "default":
            base, size = 0, self.default_keys
        else:
            base, size = HELDOUT_BASE, self.heldout_keys
        return [base + i * self.step for i in range(size)]

    def sequence(self, workload_seed: int, seed_set: str = "default") -> Iterator[int]:
        """Item keys for one benchmark run: the shuffled pinned pool, then
        unpinned keys that only the range invariants check."""
        keys = self.pool(seed_set)
        groups = [keys[i:i + self.group] for i in range(0, len(keys), self.group)]
        random.Random(f"{self.name}/{seed_set}/{workload_seed}").shuffle(groups)
        for group in groups:
            yield from group
        base = UNPINNED_BASE + workload_seed * UNPINNED_STRIDE
        for i in count():
            yield base + i * self.step

    def trace_items(self, seconds: float) -> int:
        """Items in each pass of a traced run: about half of ``seconds`` at
        the pinning commit, and at least one group."""
        return max(self.group, round(seconds / 2 / self.item_s))

    def run_item(self, key: int, tracer=None) -> ItemResult:
        raise NotImplementedError


class InvoiceSweep(Workload):
    name = "invoice-sweep"
    default_keys = 48
    heldout_keys = 24
    item_s = 1.5

    def __init__(self, config=None):
        super().__init__([config or invoice_demo_scenario()])

    def run_item(self, key: int, tracer=None) -> ItemResult:
        span = _spans(tracer)
        result = ItemResult(key)
        records = HashSink()
        checking = 0.0
        with span("bench.item"):
            start = mark = perf_counter()

            def per_run(trace) -> None:
                nonlocal mark, checking
                with span("bench.per_run"):
                    now = perf_counter()
                    result.run_s.append(now - mark)
                    if trace.measure is MeasureKind.STORAGE_ORACLE:
                        result.so_run_s.append(now - mark)
                    experiment.write_records(trace, records)
                    checked = perf_counter()
                    result.observe(trace)
                    mark = perf_counter()
                    checking += mark - checked

            report = experiment.sweep(self.configs[0], [key], per_run=per_run)
            csv = experiment.emit_report(report, "csv")
            markdown = experiment.emit_report(report, "markdown")
            result.seed_s.append(perf_counter() - start - checking)
        result.digests = {
            "records": records.hexdigest(),
            "csv": hashlib.sha256(csv.encode()).hexdigest(),
            "markdown": hashlib.sha256(markdown.encode()).hexdigest(),
        }
        return result


def oracle_flood_scenario():
    """Invoice-demo plus a never-read push oracle ticking every 45 s, driven
    although no measure reads it. Criterion 10 starts the bystander at
    genesis (761k transactions a run); 30 days before the invoice window
    keeps the same per-transaction path at 118k."""
    base = invoice_demo_scenario()
    bystander = PushOracleConfig(
        provider="bystander",
        cadence_ms=45_000,
        active_from_ms=INVOICE_START_DUE - 30 * MS_PER_DAY,
    )
    return replace(
        base,
        push_oracles=base.push_oracles + (bystander,),
        simulate_unused_oracles=True,
    )


class OracleFlood(Workload):
    name = "oracle-flood"
    default_keys = 16
    heldout_keys = 8
    item_s = 4.6

    def __init__(self, config=None):
        super().__init__([config or oracle_flood_scenario()])

    def run_item(self, key: int, tracer=None) -> ItemResult:
        result = ItemResult(key)
        records = HashSink()
        with _spans(tracer)("bench.item"):
            start = perf_counter()
            trace = sim.run(self.configs[0], key, MeasureKind.BLOCK_TIMESTAMP)
            ran = perf_counter()
            experiment.write_records(trace, records)
            result.seed_s.append(perf_counter() - start)
            result.run_s.append(ran - start)
            result.observe(trace)
        result.digests = {"records": records.hexdigest()}
        return result


class RaceSweep(Workload):
    name = "race-sweep"
    step = RACE_BATCH
    default_keys = 128
    heldout_keys = 32
    item_s = 0.19

    def __init__(self, configs=None):
        super().__init__(configs or [deferred_overtake_scenario(), deferred_fifo_scenario()])

    def run_item(self, key: int, tracer=None) -> ItemResult:
        result = ItemResult(key)
        records = HashSink()
        with _spans(tracer)("bench.item"):
            for seed in range(key, key + RACE_BATCH):
                seed_s = 0.0
                for config in self.configs:
                    start = perf_counter()
                    trace = sim.run(config, seed)
                    ran = perf_counter()
                    experiment.write_records(trace, records)
                    seed_s += perf_counter() - start
                    result.run_s.append(ran - start)
                    result.observe(trace)
                result.seed_s.append(seed_s)
        result.digests = {"records": records.hexdigest()}
        return result


class TraceExport(Workload):
    """Key k runs seed k under measure k mod 5; groups of five keep one run
    of every measure together."""

    name = "trace-export"
    group = len(MEASURES)
    default_keys = 20
    heldout_keys = 10
    item_s = 3.8

    def __init__(self, config=None):
        super().__init__([config or invoice_demo_scenario()])

    def run_item(self, key: int, tracer=None) -> ItemResult:
        result = ItemResult(key)
        records = HashSink()
        exported = HashSink()
        measure = MEASURES[key % len(MEASURES)]
        with _spans(tracer)("bench.item"):
            start = perf_counter()
            trace = sim.run(self.configs[0], key, measure)
            ran = perf_counter()
            experiment.write_records(trace, records)
            export_start = perf_counter()
            trace.export_trace(exported)
            end = perf_counter()
            result.seed_s.append(end - start)
            result.run_s.append(ran - start)
            result.export_s = end - export_start
            result.export_bytes = exported.bytes
            result.observe(trace)
        result.digests = {"records": records.hexdigest(), "trace": exported.hexdigest()}
        return result


WORKLOADS = {w.name: w for w in (InvoiceSweep, OracleFlood, RaceSweep, TraceExport)}
