"""Seeded discrete-event simulator tying the chain, oracles, participants,
and the process contract together.

The block schedule (mining starts, durations, optional miner clock drift) is
precomputed vectorially; the event loop only carries dynamic events. Each is
a heap entry ``(at, kind, seq, handler, args)`` run as ``handler(at, *args)``,
ordered by (time, kind, insertion). At equal instants transaction creations
apply before oracle update ticks, then block sealing, block visibility, and
oracle callbacks. A sealed block's pull-oracle requests and newly enabled
elements are the args of its visibility event, which is scheduled only when
the block has something to announce.

Claims, oracle updates and callbacks are all made by one ``_send``, which
numbers them per sender. Each carries the call that executes it when its
block seals: a claim goes to the process, a callback to its parked guard, an
update to the log (and, from ``oracles.push[0]``, the one storage cell the
storage-oracle measure reads). Draws come from named substreams made on
first use: ``delay/<sender>``, ``participant/<name>`` and ``miner/order``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .chain import Chain, SimTime, Transaction
from .measures import (
    ChainParams,
    MeasureKind,
    OracleCell,
    PushOracleConfig,
    TxContext,
    in_outage,
    so_update_times,
)
from .process import ApplyResult, MessageCatch, ProcessInstance
from .rng import substream
from .scenario import Participant, ScenarioConfig, ScriptEntry, _check_provider

# event kind ranks; ties at one instant resolve in this order
K_TX_CREATED = 0
K_ORACLE_UPDATE = 1
K_BLOCK_SEAL = 2
K_BLOCK_VISIBLE = 3
K_ORACLE_CALLBACK = 4

_SCHEDULE_CHUNK = 1 << 16


@dataclass(frozen=True)
class TxMeta:
    created_at: SimTime
    sender: str
    visible_at: SimTime
    block: int | None


@dataclass
class RunTrace:
    """Everything one run produced: the ledger, oracle activity, and every
    guard decision with its ground-truth classification."""

    scenario: str
    seed: int
    measure: MeasureKind
    chain: Chain
    real_starts: np.ndarray
    records: list
    oracle_events: list[tuple[str, str, SimTime, int]]
    tx_meta: dict[str, TxMeta]
    dropped: list[str]
    stuck: list

    def export_trace(self, stream) -> None:
        self.chain.export_trace(stream)
        for provider, kind, at, value in self.oracle_events:
            stream.write(f"oracle,{provider},{kind},{at},{value}\n")


def block_schedule(
    config: ScenarioConfig, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(real mining starts, reported timestamps, mining durations).

    Reported timestamps differ from the real starts only when miner clock
    drift is enabled; a running clamp keeps them strictly increasing.
    """
    net = config.network
    rng_block = substream(seed, "chain/block_time")
    genesis = net.genesis_timestamp_ms
    chunks = [np.array([genesis], dtype=np.int64)]
    last = genesis
    while last <= config.horizon_ms:
        gaps = np.maximum(net.block_time.sample(rng_block, _SCHEDULE_CHUNK), 1)
        chunk = last + np.cumsum(gaps)
        chunks.append(chunk)
        last = int(chunk[-1])
    starts = np.concatenate(chunks)
    starts = starts[starts <= config.horizon_ms]
    n = len(starts)

    rng_mining = substream(seed, "chain/mining")
    mining = np.maximum(net.mining_time.sample(rng_mining, n), 0)
    mining[0] = 0

    if config.faults.miner_drift_enabled:
        rng_drift = substream(seed, "chain/drift")
        drift = rng_drift.integers(
            config.faults.miner_drift_min_ms,
            config.faults.miner_drift_max_ms + 1,
            size=n,
            dtype=np.int64,
        )
        drift[0] = 0
        index = np.arange(n, dtype=np.int64)
        # running clamp: ts_i = max(ts_{i-1} + 1, starts_i + drift_i)
        timestamps = np.maximum.accumulate(starts + drift - index) + index
    else:
        timestamps = starts
    return starts, timestamps, mining


class _Runner:
    def __init__(self, config: ScenarioConfig, seed: int, measure: MeasureKind):
        config.validate()
        _check_provider(config, measure)
        self.config = config
        self.seed = seed
        self.measure = measure
        self.starts, self.timestamps, self.mining = block_schedule(config, seed)
        self.chain_params = ChainParams(
            genesis_timestamp=int(self.timestamps[0]),
            assumed_mean_block_time_ms=config.network.assumed_mean_block_time_ms,
        )
        self.instance = None if config.process is None else ProcessInstance(
            config.process, measure, activation_floor_ms=config.activation_floor_ms,
            cycle_limit=config.cycle_limit,
        )
        drive_push = config.simulate_unused_oracles or measure is MeasureKind.STORAGE_ORACLE
        self.push_configs = tuple(config.push_oracles) if drive_push else ()
        # only the request/response measure makes requests
        self.pull_config = config.pull_oracles[0] if config.pull_oracles else None
        # storage_oracle reads oracles.push[0]; a bystander provider keeps no cell
        self.cell = OracleCell(self.push_configs[0].provider) if self.push_configs else None
        self.inclusion_delays = {
            p.name: p.inclusion_delay for p in config.participants
            if p.inclusion_delay is not None
        }

        self.heap: list = []
        self.seq = itertools.count()
        self.sent: Counter[str] = Counter()  # transactions created per sender
        self.streams: dict[str, np.random.Generator] = {}

        # blocks seal in number order; a key of pending_by_block is a block whose
        # seal event is scheduled, its entries (visible_at, tx, execute, args)
        self.pending_by_block: dict[int, list[tuple]] = {}
        self.last_sealed = 0  # genesis carries no transactions
        self.txs_by_block: dict[int, tuple[Transaction, ...]] = {}

        self.oracle_events: list[tuple[str, str, SimTime, int]] = []
        self.tx_meta: dict[str, TxMeta] = {}
        self.dropped: list[str] = []

    # -- event plumbing ----------------------------------------------------

    def _push(self, at: SimTime, kind: int, handler, *args) -> None:
        heapq.heappush(self.heap, (at, kind, next(self.seq), handler, args))

    def _stream(self, name: str) -> np.random.Generator:
        """The run's named substream, made on first use."""
        rng = self.streams.get(name)
        if rng is None:
            rng = self.streams[name] = substream(self.seed, name)
        return rng

    def _send(self, now: SimTime, sender: str, op: str, execute, *args, **fields) -> None:
        """Create the sender's next transaction and submit it."""
        n = self.sent[sender]
        self.sent[sender] = n + 1
        tx = Transaction(id=f"{sender}-{n}", sender=sender, created_at=now, op=op, **fields)
        self._submit(tx, execute, *args)

    def _submit(self, tx: Transaction, execute, *args) -> None:
        """Assign a created transaction to the first block mined after it
        becomes visible to the network and not sealed yet; sealing runs
        execute(now, tx, number, position, *args)."""
        dist = self.inclusion_delays.get(tx.sender, self.config.network.inclusion_delay)
        visible = tx.created_at + max(0, dist.sample_one(self._stream(f"delay/{tx.sender}")))
        idx = int(np.searchsorted(self.starts, visible, side="left"))
        idx = max(idx, self.last_sealed + 1)
        if idx >= len(self.starts):
            self.dropped.append(tx.id)
            self.tx_meta[tx.id] = TxMeta(tx.created_at, tx.sender, visible, None)
            return
        self.tx_meta[tx.id] = TxMeta(tx.created_at, tx.sender, visible, idx)
        pending = self.pending_by_block.get(idx)
        if pending is None:
            pending = self.pending_by_block[idx] = []
            self._push(int(self.starts[idx]), K_BLOCK_SEAL, self._seal_block, idx)
        pending.append((visible, tx, execute, args))

    # -- block sealing -----------------------------------------------------

    def _order_block(self, entries: list[tuple]) -> list[tuple]:
        """Ties keep the submission order: sorted is stable."""
        policy = self.config.network.miner_ordering
        if policy == "fifo_by_arrival":
            return sorted(entries, key=lambda e: e[0])
        if policy == "priority_then_arrival":
            return sorted(entries, key=lambda e: (-e[1].priority, e[0]))
        order = self._stream("miner/order").permutation(len(entries))
        return [entries[int(i)] for i in order]

    def _seal_block(self, now: SimTime, number: int) -> None:
        self.last_sealed = number
        entries = self._order_block(self.pending_by_block.pop(number))
        self.txs_by_block[number] = tuple(entry[1] for entry in entries)
        request_ids: list[int] = []
        enabled: list[str] = []
        for position, (_, tx, execute, args) in enumerate(entries):
            result = execute(now, tx, number, position, *args)
            if result is not None:
                request_ids.extend(result.requests)
                enabled.extend(result.newly_enabled)
        if request_ids or enabled:
            self._push(
                now + int(self.mining[number]), K_BLOCK_VISIBLE,
                self._block_visible, request_ids, enabled,
            )

    def _apply_claim(self, now, tx, number, position) -> ApplyResult | None:
        if self.instance is None:
            return None
        ctx = TxContext(
            tx=tx,
            block_number=number,
            block_timestamp=int(self.timestamps[number]),
            position_in_block=position,
            chain_params=self.chain_params,
            oracle_view=self.cell,
        )
        return self.instance.apply(tx, ctx, now)

    def _block_visible(self, now: SimTime, request_ids: list[int], enabled: list[str]) -> None:
        """The pull oracle sees the block's requests, then participants see
        its newly enabled elements."""
        pull = self.pull_config
        for request_id in request_ids:
            self.oracle_events.append((pull.provider, "request", now, request_id))
            if not in_outage(pull.outages, now):
                self._push(
                    now + pull.latency_ms, K_ORACLE_CALLBACK, self._create_callback, request_id
                )
        self._notify(now, enabled)

    # -- oracles -----------------------------------------------------------

    def _create_callback(self, now: SimTime, request_id: int) -> None:
        pull = self.pull_config
        self.oracle_events.append((pull.provider, "callback", now, now))
        sender = f"oracle:{pull.provider}"
        self._send(now, sender, "__callback__", self._deliver_callback, request_id)

    def _deliver_callback(self, now, tx, number, position, request_id: int) -> ApplyResult:
        """The callback answers with the instant it was created."""
        return self.instance.on_callback(request_id, tx.created_at, now)

    def _oracle_tick(self, now: SimTime, push: PushOracleConfig) -> None:
        """An update transaction; so_update_times already skips outages."""
        self._send(
            now, f"oracle:{push.provider}", "__oracle_update__",
            self._write_update, push.provider, now - push.staleness_ms,
        )

    def _write_update(self, now, tx, number, position, provider: str, value: SimTime) -> None:
        if provider == self.cell.provider:
            self.cell.write((number, position), value)
        self.oracle_events.append((provider, "update", now, value))

    # -- participants ------------------------------------------------------

    def _create_claim(self, now: SimTime, participant: Participant, entry: ScriptEntry) -> None:
        if self.instance is not None:
            element = self.config.process.elements.get(entry.element)
            if isinstance(element, MessageCatch):
                self.instance.note_message_created(entry.element, now)
        self._send(
            now, participant.name, entry.element, self._apply_claim,
            timestamp=now + participant.lie_ms, priority=entry.priority,
        )

    def _notify(self, now: SimTime, enabled: list[str]) -> None:
        enabled_set = set(enabled)
        for participant in self.config.participants:
            for entry in participant.script:
                if entry.element not in enabled_set:
                    continue
                if entry.on_enabled_delay_ms is not None:
                    self._push(
                        now + entry.on_enabled_delay_ms, K_TX_CREATED,
                        self._create_claim, participant, entry,
                    )
                elif entry.on_due:
                    self._schedule_due_claims(now, participant, entry)

    def _schedule_due_claims(
        self, now: SimTime, participant: Participant, entry: ScriptEntry
    ) -> None:
        dues = self.instance.element_due_times(entry.element)
        rng = self._stream(f"participant/{participant.name}")
        for iteration, due in enumerate(dues):
            jitter = entry.jitter.sample_one(rng) if entry.jitter is not None else 0
            first = max(now, due + entry.jitter_offset_ms + jitter)
            self._push(
                first, K_TX_CREATED,
                self._run_attempt, participant, entry, iteration, entry.max_attempts,
            )

    def _run_attempt(
        self, now: SimTime, participant: Participant, entry: ScriptEntry, iteration: int,
        attempts_left: int,
    ) -> None:
        instance = self.instance
        if instance.done or not instance.is_enabled(entry.element):
            return
        if instance.cycle_next_index(entry.element) > iteration:
            return
        self._create_claim(now, participant, entry)
        if attempts_left > 1:
            self._push(
                now + entry.retry_ms, K_TX_CREATED,
                self._run_attempt, participant, entry, iteration, attempts_left - 1,
            )

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunTrace:
        for push in self.push_configs:
            for tick in so_update_times(push, self.config.horizon_ms):
                self._push(tick, K_ORACLE_UPDATE, self._oracle_tick, push)
        for participant in self.config.participants:
            for entry in participant.script:
                if entry.at_ms is not None:
                    self._push(
                        entry.at_ms, K_TX_CREATED, self._create_claim, participant, entry
                    )
        if self.instance is not None:
            self._notify(int(self.starts[0]), self.instance.enabled_elements())

        horizon = self.config.horizon_ms
        while self.heap:
            at, _, _, handler, args = heapq.heappop(self.heap)
            if at > horizon:
                break
            handler(at, *args)

        records, stuck = [], []
        if self.instance is not None:
            stuck = self.instance.finalize(horizon)
            records = list(self.instance.records)
        return RunTrace(
            scenario=self.config.name, seed=self.seed, measure=self.measure,
            chain=Chain.from_schedule(self.timestamps, self.mining, self.txs_by_block),
            real_starts=self.starts, records=records, oracle_events=self.oracle_events,
            tx_meta=self.tx_meta, dropped=self.dropped, stuck=stuck,
        )


def run(config: ScenarioConfig, seed: int, measure: MeasureKind | None = None) -> RunTrace:
    """Execute one seeded run of a scenario under one time measure."""
    chosen = measure if measure is not None else config.measures[0]
    return _Runner(config, seed, chosen).run()
