"""Seeded discrete-event simulator tying the chain, oracles, participants,
and the process contract together.

A seed's world (``SeedWorld``), shared by its runs under each measure, is
built before any event: the block schedule (mining starts, durations,
optional miner clock drift), its chain of empty blocks, checked once (a run
attaches its transactions with ``dataclasses.replace``), the chain
parameters and, on first use, the push providers' update streams. An update
stream is arrays with one row per update: its tick, the instant it is
visible (one vector draw from ``delay/oracle:<provider>``), its block (the
first mined at or after that instant; past the last block it is dropped)
and its value (tick minus staleness).

A run's event loop carries only participant, seal, visibility and callback
events, never an update. Each is a heap entry ``(at, kind, seq, handler,
args)`` run as ``handler(at, *args)``, ordered by (time, kind, insertion).
At equal instants transaction creations apply first, then update ticks (not
events, but ranked), block sealing, block visibility, and oracle callbacks.
A sealed block's pull-oracle requests and newly enabled elements are the
args of its visibility event, scheduled only when the block has something
to announce.

Every update, claim and callback is one frozen ``Transaction`` that
carries the instant it is visible and its block (None if dropped);
``RunTrace.tx_meta`` maps each id to the object the chain's blocks hold.
Claims and callbacks are made by one ``_send``, which numbers them per
sender. Each goes to the first block mined at or after it is visible whose
start the loop has not passed at seal rank, whatever that block holds, and
carries the call that executes it when the block seals. A block that holds
updates too merges them in then, in the miner's order, which fixes where
they sit in the storage cell of ``oracles.push[0]``, the one the
storage-oracle measure reads; under adversarial_reorder a block of two or
more updates is sealed by an event of its own. Draws come from named
substreams made on first use: ``delay/<sender>``, ``participant/<name>``
and ``miner/order``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

import numpy as np

from .chain import Chain, SimTime, Transaction
from .measures import (
    ChainParams,
    MeasureKind,
    OracleCell,
    TxContext,
    in_outage,
    so_update_times,
)
from .process import ApplyResult, ProcessInstance
from .rng import substream
from .scenario import Participant, ScenarioConfig, ScriptEntry, _check_provider

# event kind ranks; ties at one instant resolve in this order
K_TX_CREATED = 0
K_BLOCK_SEAL = 2
K_BLOCK_VISIBLE = 3
K_ORACLE_CALLBACK = 4
# an update tick's rank: not a heap event, it still orders among the
# transactions submitted at its instant
UPDATE_RANK = 1

_SCHEDULE_CHUNK = 1 << 16


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
    tx_meta: dict[str, Transaction]  # every transaction created, dropped ones too
    dropped: list[str]

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


class _Updates:
    """The push providers' update transactions of one seed, from arrays.

    The included updates are rows sorted by block, then by their order among
    the block's updates when no other transaction joins them: (visible, tick,
    provider), the order of every miner policy but adversarial_reorder's.
    ``txs``, ``events``, ``by_block`` and ``cell`` (oracles.push[0]'s block,
    position and value columns) follow the rows; ``meta`` (by id) and
    ``dropped`` (each id with its submission key) cover the dropped updates
    too. All of them share one Transaction per update.
    """

    def __init__(self, config: ScenarioConfig, seed: int, starts: np.ndarray):
        pushes = config.push_oracles
        senders = [f"oracle:{push.provider}" for push in pushes]
        ticks = [so_update_times(push, config.horizon_ms) for push in pushes]
        counts = [len(t) for t in ticks]
        delays = [
            config.network.inclusion_delay.sample(substream(seed, f"delay/{sender}"), count)
            for sender, count in zip(senders, counts)
        ]
        provider = np.repeat(np.arange(len(pushes)), counts)
        tick = np.concatenate(ticks)
        visible = tick + np.maximum(np.concatenate(delays), 0)
        # Genesis carries no transactions. Otherwise the first block mined at
        # or after the update is visible is never sealed yet: it starts at or
        # after the tick, and a tick ranks before a seal of its instant.
        block = np.maximum(np.searchsorted(starts, visible, side="left"), 1)
        value = tick - np.array([push.staleness_ms for push in pushes], dtype=np.int64)[provider]
        ids = [f"{sender}-{n}" for sender, count in zip(senders, counts) for n in range(count)]
        n_blocks = len(starts)
        txs = list(map(
            Transaction, ids, [senders[p] for p in provider.tolist()], tick.tolist(),
            itertools.repeat("__oracle_update__"), itertools.repeat(None), itertools.repeat(0),
            visible.tolist(), [b if b < n_blocks else None for b in block.tolist()],
        ))
        self.meta = dict(zip(ids, txs))
        self.dropped = [
            ((int(tick[row]), UPDATE_RANK, int(provider[row])), ids[row])
            for row in np.flatnonzero(block >= n_blocks)
        ]
        kept = np.flatnonzero(block < n_blocks)
        rows = kept[np.lexsort((provider[kept], tick[kept], visible[kept], block[kept]))]
        block, tick, provider, value = (column[rows] for column in (block, tick, provider, value))
        self.block, self.tick, self.provider, self.value = block, tick, provider, value
        self.txs = [txs[row] for row in rows.tolist()]
        self.events = list(zip(
            [pushes[p].provider for p in provider.tolist()], itertools.repeat("update"),
            starts[block].tolist(), value.tolist(),
        ))
        self.by_block: dict[int, tuple[Transaction, ...]] = {}
        for number, tx in zip(block.tolist(), self.txs):
            self.by_block[number] = self.by_block.get(number, ()) + (tx,)
        numbers, sizes = np.unique(block, return_counts=True)
        self.multi = numbers[sizes > 1].tolist()  # blocks of two or more updates
        position = np.arange(len(block)) - np.searchsorted(block, block, side="left")
        first = provider == 0
        self.cell = (block[first], position[first], value[first])


class SeedWorld:
    """What every measure's run of one seed shares: the real block starts,
    the chain of empty blocks, the chain parameters and, built on first use,
    the push providers' update streams. experiment.sweep builds one per seed
    and passes it to run."""

    def __init__(self, config: ScenarioConfig, seed: int):
        self.key = _world_key(config, seed)
        self.config = config
        self.seed = seed
        self.starts, timestamps, mining = block_schedule(config, seed)
        self.chain = Chain.from_schedule(timestamps, mining)
        self.chain_params = ChainParams(
            genesis_timestamp=int(timestamps[0]),
            assumed_mean_block_time_ms=config.network.assumed_mean_block_time_ms,
        )

    @cached_property
    def updates(self) -> _Updates:
        return _Updates(self.config, self.seed, self.starts)


def _world_key(config: ScenarioConfig, seed: int) -> tuple:
    return (seed, config.network, config.faults, config.horizon_ms, config.push_oracles)


class _Runner:
    def __init__(
        self, config: ScenarioConfig, seed: int, measure: MeasureKind, world: SeedWorld | None
    ):
        config.validate()
        _check_provider(config, measure)
        if world is None:
            world = SeedWorld(config, seed)
        elif world.key != _world_key(config, seed):
            raise ValueError("the world was built for another seed or scenario")
        self.world = world
        self.config = config
        self.measure = measure
        self.instance = None if config.process is None else ProcessInstance(
            config.process, measure, activation_floor_ms=config.activation_floor_ms,
            cycle_limit=config.cycle_limit,
        )
        # only the request/response measure makes requests
        self.pull_config = config.pull_oracles[0] if config.pull_oracles else None
        self.updates: _Updates | None = None
        self.cell = None
        if config.push_oracles and (
            config.simulate_unused_oracles or measure is MeasureKind.STORAGE_ORACLE
        ):
            self.updates = u = world.updates
            # the run's copies, in which _place settles the order of a block
            self.update_events = list(u.events)
            self.cell_columns = tuple(column.copy() for column in u.cell)
            # storage_oracle reads oracles.push[0]; a bystander provider keeps no cell
            self.cell = OracleCell(config.push_oracles[0].provider)
            self.cell.write(*self.cell_columns)
        self.inclusion_delays = {
            p.name: p.inclusion_delay for p in config.participants
            if p.inclusion_delay is not None
        }

        self.heap: list = []
        self.seq = itertools.count()
        # the latest (instant, kind) the loop has reached: a transaction's
        # submission key, which places it after every update tick before it
        self.reached = (-1, 0)
        self.sent = defaultdict(itertools.count)  # numbers the transactions of each sender
        self.streams: dict[str, np.random.Generator] = {}

        # blocks seal in number order; a key of pending_by_block is a block whose
        # seal event is scheduled, its entries (submitted, tx, execute, args);
        # an update's entry has no execute and its row as args
        self.pending_by_block: dict[int, list[tuple]] = {}
        self.txs_by_block: dict[int, tuple[Transaction, ...]] = {}

        self.oracle_events: list[tuple[str, str, SimTime, int]] = []
        self.tx_meta: dict[str, Transaction] = {}
        self.dropped: list[tuple[tuple[int, int], str]] = []

    # -- event plumbing ----------------------------------------------------

    def _push(self, at: SimTime, kind: int, handler, *args) -> None:
        heapq.heappush(self.heap, (at, kind, next(self.seq), handler, args))

    def _stream(self, name: str) -> np.random.Generator:
        """The run's named substream, made on first use."""
        rng = self.streams.get(name)
        if rng is None:
            rng = self.streams[name] = substream(self.world.seed, name)
        return rng

    def _send(self, now: SimTime, sender: str, op: str, execute, *args, **fields) -> None:
        """Create the sender's next transaction and queue it in the first
        block mined after it becomes visible to the network and not sealed
        yet; sealing runs execute(now, tx, position, *args)."""
        n = next(self.sent[sender])
        starts = self.world.starts
        dist = self.inclusion_delays.get(sender, self.config.network.inclusion_delay)
        visible = now + max(0, dist.sample_one(self._stream(f"delay/{sender}")))
        # Genesis carries no transactions. A block is sealed once the loop has
        # passed its start at seal rank, whatever it holds: one starting at the
        # loop's instant, as the transaction is visible no earlier.
        idx = max(int(np.searchsorted(starts, visible, side="left")), 1)
        if idx < len(starts) and (int(starts[idx]), K_BLOCK_SEAL) < self.reached:
            idx += 1
        block = idx if idx < len(starts) else None
        tx = Transaction(
            f"{sender}-{n}", sender, now, op, visible_at=visible, block=block, **fields
        )
        self.tx_meta[tx.id] = tx
        if block is None:
            self.dropped.append((self.reached, tx.id))
            return
        pending = self.pending_by_block.get(idx)
        if pending is None:
            pending = self.pending_by_block[idx] = []
            self._push(int(starts[idx]), K_BLOCK_SEAL, self._seal_block, idx)
        pending.append((self.reached, tx, execute, args))

    # -- block sealing -----------------------------------------------------

    def _order_block(self, entries: list[tuple]) -> list[tuple]:
        """Ties keep the submission order, (submitted, then list order):
        sorted is stable."""
        policy = self.config.network.miner_ordering
        if policy == "fifo_by_arrival":
            return sorted(entries, key=lambda e: (e[1].visible_at, e[0]))
        if policy == "priority_then_arrival":
            return sorted(entries, key=lambda e: (-e[1].priority, e[1].visible_at, e[0]))
        entries = sorted(entries, key=itemgetter(0))
        order = self._stream("miner/order").permutation(len(entries))
        return [entries[int(i)] for i in order]

    def _update_entries(self, number: int) -> list[tuple]:
        """The block's updates as pending entries; an update is submitted at
        its tick with the update rank, after the providers before its own."""
        u = self.updates
        lo, hi = np.searchsorted(u.block, (number, number + 1)).tolist()
        return [
            ((int(u.tick[row]), UPDATE_RANK, int(u.provider[row])), u.txs[row], None, row)
            for row in range(lo, hi)
        ]

    def _place(self, number: int, entries: list[tuple]) -> None:
        """Keep the block's order, and where its updates sit in it: for the
        update events, and in the storage cell, before any claim reads it."""
        self.txs_by_block[number] = tuple(entry[1] for entry in entries)
        placed = [(position, e[3]) for position, e in enumerate(entries) if e[2] is None]
        if not placed:
            return
        u = self.updates
        first = int(np.searchsorted(u.block, number))
        self.update_events[first:first + len(placed)] = [u.events[row] for _, row in placed]
        own = [(position, row) for position, row in placed if u.provider[row] == 0]
        blocks, positions, values = self.cell_columns
        at = int(np.searchsorted(blocks, number))
        positions[at:at + len(own)] = [position for position, _ in own]
        values[at:at + len(own)] = [u.value[row] for _, row in own]

    def _seal_block(self, now: SimTime, number: int) -> None:
        entries = self.pending_by_block.pop(number)
        if self.updates is not None:
            entries += self._update_entries(number)
        entries = self._order_block(entries)
        self._place(number, entries)
        request_ids: list[int] = []
        enabled: list[str] = []
        for position, (_, tx, execute, args) in enumerate(entries):
            if execute is None:
                continue
            result = execute(now, tx, position, *args)
            if result is not None:
                request_ids.extend(result.requests)
                enabled.extend(result.newly_enabled)
        if request_ids or enabled:
            self._push(
                now + int(self.world.chain.mining_durations[number]), K_BLOCK_VISIBLE,
                self._block_visible, request_ids, enabled,
            )

    def _apply_claim(self, now, tx, position) -> ApplyResult | None:
        if self.instance is None:
            return None
        ctx = TxContext(
            tx=tx,
            block_number=tx.block,
            block_timestamp=int(self.world.chain.timestamps[tx.block]),
            position_in_block=position,
            chain_params=self.world.chain_params,
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

    def _deliver_callback(self, now, tx, position, request_id: int) -> ApplyResult:
        """The callback answers with the instant it was created."""
        return self.instance.on_callback(request_id, tx.created_at, now)

    # -- participants ------------------------------------------------------

    def _create_claim(self, now: SimTime, participant: Participant, entry: ScriptEntry) -> None:
        if self.instance is not None:
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
        for participant in self.config.participants:
            for entry in participant.script:
                if entry.at_ms is not None:
                    self._push(
                        entry.at_ms, K_TX_CREATED, self._create_claim, participant, entry
                    )
        if self.instance is not None:
            self._notify(int(self.world.starts[0]), self.instance.enabled_elements())
        if self.updates is not None and self.config.network.miner_ordering == "adversarial_reorder":
            # a block of two or more updates draws its miner/order permutation
            # when it seals, in block order; one of a single update draws nothing
            for number in self.updates.multi:
                self.pending_by_block[number] = []
                self._push(int(self.world.starts[number]), K_BLOCK_SEAL, self._seal_block, number)

        horizon = self.config.horizon_ms
        while self.heap:
            at, kind, _, handler, args = heapq.heappop(self.heap)
            if at > horizon:
                break
            self.reached = max(self.reached, (at, kind))
            handler(at, *args)

        records = []
        if self.instance is not None:
            self.instance.finalize()
            records = list(self.instance.records)
        txs, events, meta = self.txs_by_block, self.oracle_events, self.tx_meta
        dropped, u = self.dropped, self.updates
        if u is not None:
            # an update event belongs to its block's seal, so it comes before a
            # request or callback of its instant; dropped go by submission
            txs = {**u.by_block, **txs}
            events = list(heapq.merge(self.update_events, events, key=itemgetter(2)))
            meta = {**u.meta, **meta}
            dropped = sorted(u.dropped + dropped, key=itemgetter(0))
        return RunTrace(
            scenario=self.config.name, seed=self.world.seed, measure=self.measure,
            chain=replace(self.world.chain, txs=txs), real_starts=self.world.starts,
            records=records, oracle_events=events, tx_meta=meta,
            dropped=[tx_id for _, tx_id in dropped],
        )


def run(
    config: ScenarioConfig, seed: int, measure: MeasureKind | None = None, *,
    world: SeedWorld | None = None,
) -> RunTrace:
    """Execute one seeded run of a scenario under one time measure. A world
    built from the same seed and scenario shares its schedule and update
    streams with the other runs of that seed."""
    chosen = measure if measure is not None else config.measures[0]
    return _Runner(config, seed, chosen, world).run()
