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
carries the instant it is visible and its block (None if dropped); an
update's is built from its row on each lookup, equal each time but never
kept. ``RunTrace.tx_meta`` (by id), the chain's ``txs`` (by block) and the
oracle events are read-only views that lay the run's own objects over the
update columns, which have no rows in a run that drives no push provider.
Claims and callbacks are made by one ``_send``, which numbers them per
sender. Each goes to the first block mined at or after it is visible whose
start the loop has not passed at seal rank, whatever that block holds, and
carries the call that executes it when the block seals. A block that holds
updates too merges them in then, in the miner's order, and the run writes
those of ``oracles.push[0]`` (which storage_oracle reads) at their positions
to its storage cell, which reads other blocks from the world's columns;
under adversarial_reorder a block of two or more updates is sealed by an
event of its own and may reorder its rows.
Draws come from named substreams, each made on first draw; a distribution
that draws nothing makes none: ``chain/block_time``, ``chain/mining``,
``chain/drift``, ``delay/<sender>``, ``participant/<name>``, ``miner/order``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter

import numpy as np

from .chain import _EXPORT_CHUNK, _TX_LINE, Chain, SchemaError, SimTime, Transaction, tx_line
from .measures import (
    ChainParams,
    MeasureKind,
    OracleCell,
    TxContext,
    in_outage,
    so_update_times,
)
from .process import ProcessInstance
from .rng import substream
from .scenario import Distribution, Participant, ScenarioConfig, ScriptEntry

# event kind ranks; ties at one instant resolve in this order
K_TX_CREATED = 0
K_BLOCK_SEAL = 2
K_BLOCK_VISIBLE = 3
K_ORACLE_CALLBACK = 4
# an update tick's rank: not a heap event, it still orders among the
# transactions submitted at its instant
UPDATE_RANK = 1

_SCHEDULE_CHUNK = 1 << 16
# the most blocks a chain may have, 7.7 times invoice-demo's 2.18 million;
# the schedule stops drawing there, so that its memory stays bounded
MAX_BLOCKS = 1 << 24
# the most push updates a seed may have, 5.5 times criterion 10's 761k
MAX_UPDATES = 1 << 22


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
    oracle_events: Sequence[tuple[str, str, SimTime, int]]
    tx_meta: Mapping[str, Transaction]  # every transaction created, dropped ones too
    dropped: list[str]

    def export_trace(self, stream) -> None:
        self.chain.export_trace(stream)
        events = self.oracle_events
        for lo in range(0, len(events), _EXPORT_CHUNK):
            chunk = events[lo:lo + _EXPORT_CHUNK]
            stream.write("oracle,%s,%s,%s,%s\n" * len(chunk) % tuple(itertools.chain(*chunk)))


class _Streams(dict):
    """A seed's named substreams, each made on its first draw: a distribution
    that draws nothing (a constant) makes none."""

    def __init__(self, seed: int):
        self.seed = seed

    def __missing__(self, name: str) -> np.random.Generator:
        return self.setdefault(name, substream(self.seed, name))

    def draw(self, dist: Distribution, name: str, size: int | None = None):
        """size samples of dist from the named substream, or one int if size is None."""
        rng = None if dist.kind == "constant" else self[name]
        return dist.sample_one(rng) if size is None else dist.sample(rng, size)


def block_schedule(
    config: ScenarioConfig, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(real mining starts, reported timestamps, mining durations).

    Gaps are drawn in chunks of 64, 128, ... up to _SCHEDULE_CHUNK, each
    summed into the starts, which grow in place and are cut at the horizon.
    Drawing stops once more than MAX_BLOCKS blocks exist; a chain of more
    than MAX_BLOCKS blocks is refused. Reported timestamps differ from the
    real starts only when miner clock drift is enabled; a running clamp
    keeps them strictly increasing.
    """
    net = config.network
    streams = _Streams(seed)
    starts = np.array([net.genesis_timestamp_ms], dtype=np.int64)
    n, size = 1, 64
    while starts[-1] <= config.horizon_ms and n <= MAX_BLOCKS:
        starts.resize(n + size, refcheck=False)  # grow before the draw allocates its scratch
        chunk = streams.draw(net.block_time, "chain/block_time", size)
        np.cumsum(np.maximum(chunk, 1, out=chunk), out=starts[n:])
        starts[n:] += starts[n - 1]
        n, size = n + size, min(2 * size, _SCHEDULE_CHUNK)
    n = int(np.searchsorted(starts, config.horizon_ms, side="right"))
    if n > MAX_BLOCKS:
        raise SchemaError("horizon_ms", f"the chain would pass {MAX_BLOCKS:,} blocks")
    starts.resize(n, refcheck=False)

    mining = streams.draw(net.mining_time, "chain/mining", n)
    mining[0] = 0

    if config.faults.miner_drift_enabled:
        low, high = config.faults.miner_drift_min_ms, config.faults.miner_drift_max_ms
        drift = streams["chain/drift"].integers(low, high + 1, size=n, dtype=np.int64)
        drift[0] = 0
        index = np.arange(n, dtype=np.int64)
        # running clamp: ts_i = max(ts_{i-1} + 1, starts_i + drift_i)
        timestamps = np.maximum.accumulate(starts + drift - index) + index
    else:
        timestamps = starts
    return starts, timestamps, mining


def _first_block(starts: np.ndarray, instants):
    """The first block mined at or after each instant, never genesis (which
    carries no transactions); len(starts) past the end of the chain."""
    return np.searchsorted(starts[1:], instants, side="left") + 1


class _Updates:
    """The push providers' update transactions of one seed, as columns.

    One row per update: tick, visible, block (the chain's length if dropped),
    provider, number (among the provider's updates) and value. Rows go by
    block, then by their order among the block's updates when no other
    transaction joins them: (visible, tick, provider), the order of every
    miner policy but adversarial_reorder's. The first ``kept`` rows are the
    included ones; ``cell`` holds the block and value columns of those of
    oracles.push[0]. Each unsorted column is freed once its sorted copy exists.
    """

    def __init__(self, config: ScenarioConfig, seed: int, starts: np.ndarray):
        pushes = config.push_oracles
        # count the ticks before drawing them, outages aside, as for the blocks
        ticks = (range(p.active_from_ms, config.horizon_ms + 1, p.cadence_ms) for p in pushes)
        for i, total in enumerate(itertools.accumulate(map(len, ticks))):
            if total > MAX_UPDATES:
                raise SchemaError(
                    f"oracles.push[{i}].cadence_ms", f"the updates would pass {MAX_UPDATES:,}"
                )
        self.providers = [push.provider for push in pushes]
        self.senders = [f"oracle:{provider}" for provider in self.providers]
        ticks = [so_update_times(push, config.horizon_ms) for push in pushes]
        counts = [len(t) for t in ticks]
        delays = [
            _Streams(seed).draw(config.network.inclusion_delay, f"delay/{sender}", count)
            for sender, count in zip(self.senders, counts)
        ]
        provider = np.repeat(np.arange(len(pushes)), counts)
        offsets = np.cumsum(counts) - counts  # each provider's first update
        self.spans = dict(zip(self.senders, zip(offsets.tolist(), counts)))
        tick, visible = (np.concatenate([np.zeros(0, np.int64), *c]) for c in (ticks, delays))
        del ticks, delays
        visible += tick  # the delays, then the instants they are visible
        # the first block mined at or after an update is visible is never
        # sealed yet: it starts at or after the tick, which ranks before a seal
        block = _first_block(starts, visible)
        order = np.lexsort((provider, tick, visible, block))
        self.row_of = np.empty_like(order)  # by provider, then number: order's inverse
        self.row_of[order] = np.arange(len(order))
        unsorted = [tick, visible, block, provider]
        del tick, visible, block, provider
        self.tick, self.visible, self.block, self.provider = (
            unsorted.pop(0)[order] for _ in range(4)
        )
        self.number = order - offsets[self.provider]  # among the provider's updates
        staleness = np.array([push.staleness_ms for push in pushes], dtype=np.int64)
        self.value = self.tick - staleness[self.provider]
        self.kept = kept = int(np.searchsorted(self.block, len(starts)))
        self.dropped = [(self.key(row), self.tx_id(row)) for row in range(kept, len(order))]
        block = self.block[:kept]  # sorted: each block's rows are one run
        firsts = np.flatnonzero(np.append(kept > 0, block[1:] != block[:-1]))
        self.numbers = block[firsts]
        self.multi = self.numbers[np.diff(firsts, append=kept) > 1].tolist()  # of 2 or more
        rows = slice(None) if len(pushes) == 1 else self.provider[:kept] == 0  # views if alone
        self.cell = tuple(c[:kept][rows] for c in (self.block, self.value))
        for column in (self.row_of, self.tick, self.visible, self.block, self.provider,
                       self.number, self.value, self.numbers, *self.cell):
            column.setflags(write=False)  # shared by the seed's runs

    def tx_id(self, row: int) -> str:
        return f"{self.senders[self.provider[row]]}-{self.number[row]}"

    def key(self, row: int) -> tuple[int, int, int]:
        """The row's submission key: an update is submitted at its tick with
        the update rank, after the providers before its own."""
        return int(self.tick[row]), UPDATE_RANK, int(self.provider[row])

    def tx(self, row: int) -> Transaction:
        """The row's update, built from its columns on each lookup and not kept."""
        return Transaction(
            self.tx_id(row), self.senders[self.provider[row]], int(self.tick[row]),
            "__oracle_update__", visible_at=int(self.visible[row]),
            block=int(self.block[row]) if row < self.kept else None,
        )

    def rows(self, number) -> range:
        """The rows of a block's included updates."""
        if not (self.kept and isinstance(number, (int, np.integer))):
            return range(0)
        return range(*np.searchsorted(self.block[:self.kept], (number, number + 1)).tolist())


# the update table of a run that drives no push provider
_NO_UPDATES = _Updates(ScenarioConfig(horizon_ms=1), 0, np.zeros(1, np.int64))


class _BlockTxs(Mapping):
    """A run's transactions by block, read-only: the blocks it sealed laid
    over the world's blocks of updates only. It iterates, counts and
    compares as the dict {**update blocks, **sealed}."""

    def __init__(self, sealed: dict, updates: _Updates):
        self.sealed, self.u = sealed, updates

    def __getitem__(self, number) -> tuple[Transaction, ...]:
        txs = self.sealed.get(number) or tuple(map(self.u.tx, self.u.rows(number)))
        if not txs:
            raise KeyError(number)
        return txs

    def __iter__(self):
        yield from self.u.numbers.tolist()
        yield from (number for number in self.sealed if not self.u.rows(number))

    def __len__(self) -> int:
        return len(self.u.numbers) + sum(not self.u.rows(number) for number in self.sealed)

    def lines(self, numbers: list[int]) -> list[str]:
        """The tx lines of each of these blocks (one or more, ascending) for the export:
        a sealed block's from its transactions, the others' from the update rows."""
        u = self.u
        starts, stops = np.searchsorted(u.block[:u.kept], [numbers, np.add(numbers, 1)]).tolist()
        first, last = starts[0], stops[-1]
        senders = [u.senders[p] for p in u.provider[first:last].tolist()]
        ids = map("%s-%d".__mod__, zip(senders, u.number[first:last].tolist()))
        ops = itertools.repeat("__oracle_update__")
        fields = zip(ids, u.tick[first:last].tolist(), senders, ops)
        rows = (_TX_LINE * (last - first) % tuple(itertools.chain(*fields))).split("\n")
        return [
            "".join(map(tx_line, self.sealed[number])) if number in self.sealed
            else "\n".join(rows[start - first:stop - first]) + "\n"
            for number, start, stop in zip(numbers, starts, stops)
        ]


class _TxMeta(Mapping):
    """Every transaction of a run by id, read-only: its own claims and
    callbacks beside the world's updates (sender names are unique, so no id
    is both). It iterates, counts and compares as the dict {**updates, **own}."""

    def __init__(self, own: dict, updates: _Updates):
        self.own, self.u = own, updates

    def __getitem__(self, tx_id) -> Transaction:
        if tx_id in self.own:
            return self.own[tx_id]
        sender, _, n = tx_id.rpartition("-") if isinstance(tx_id, str) else ("", "", "")
        first, count = self.u.spans.get(sender, (0, 0))
        if not (n.isdecimal() and str(int(n)) == n and int(n) < count):
            raise KeyError(tx_id)
        return self.u.tx(int(self.u.row_of[first + int(n)]))

    def __iter__(self):
        for sender, (_, count) in self.u.spans.items():
            yield from (f"{sender}-{n}" for n in range(count))
        yield from self.own

    def __len__(self) -> int:
        return len(self.own) + len(self.u.tick)


class _OracleEvents(Sequence):
    """A run's oracle events, read-only: the included updates, each (provider,
    "update", its block's start, value) in the order the run placed them, and
    its own pull events merged in by instant, after the updates of the blocks
    sealed by then. It indexes, slices, iterates and compares as that list."""

    def __init__(self, own: list, updates: _Updates, starts: np.ndarray, row_order):
        self.own, self.u, self.starts, self.row_order = own, updates, starts, row_order

    @cached_property
    def _at(self) -> np.ndarray:  # each own event's index
        started = np.searchsorted(self.starts, [event[2] for event in self.own], side="right")
        return np.searchsorted(self.u.block[:self.u.kept], started) + np.arange(len(self.own))

    def _span(self, lo: int, hi: int) -> list[tuple]:  # 0 <= lo < hi <= len(self)
        u, (a, b) = self.u, np.searchsorted(self._at, (lo, hi)).tolist()
        rows = slice(lo - a, hi - b) if self.row_order is None else self.row_order[lo - a:hi - b]
        events = list(zip(
            map(u.providers.__getitem__, u.provider[rows].tolist()), itertools.repeat("update"),
            self.starts[u.block[rows]].tolist(), u.value[rows].tolist(),
        ))
        for at, event in zip(self._at[a:b].tolist(), self.own[a:b]):
            events.insert(at - lo, event)
        return events

    def __getitem__(self, index):
        span = range(len(self))[index]  # an int, or a range for a slice
        if not isinstance(span, range):
            return self._span(span, span + 1)[0]
        lo = min(span, default=0)
        return self._span(lo, max(span) + 1)[span.start - lo::span.step] if span else []

    def __iter__(self):
        for lo in range(0, len(self), _EXPORT_CHUNK):
            yield from self._span(lo, min(lo + _EXPORT_CHUNK, len(self)))

    def __len__(self) -> int:
        return self.u.kept + len(self.own)

    def __eq__(self, other) -> bool:
        return list(self) == other if isinstance(other, (list, _OracleEvents)) else NotImplemented


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
        for column in (self.starts, self.chain.timestamps, self.chain.mining_durations):
            column.setflags(write=False)  # shared by the seed's runs
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
        config.validate(measure)
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
        driven = config.push_oracles and (
            config.simulate_unused_oracles or measure is MeasureKind.STORAGE_ORACLE
        )
        self.updates = u = world.updates if driven else _NO_UPDATES
        # the included rows in the order _place put them, made when it first moves one
        self.row_order: np.ndarray | None = None
        # storage_oracle reads oracles.push[0]; a bystander provider keeps no cell
        self.cell = OracleCell(config.push_oracles[0].provider, *u.cell) if driven else None
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
        self.streams = _Streams(world.seed)

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

    def _send(self, now: SimTime, sender: str, op: str, execute, *args, **fields) -> None:
        """Create the sender's next transaction and queue it in the first
        block mined after it becomes visible to the network and not sealed
        yet; sealing runs execute(now, tx, position, *args)."""
        n = next(self.sent[sender])
        starts = self.world.starts
        dist = self.inclusion_delays.get(sender, self.config.network.inclusion_delay)
        visible = now + self.streams.draw(dist, f"delay/{sender}")
        # A block is sealed once the loop has passed its start at seal rank,
        # whatever it holds: one starting at the loop's instant, as the
        # transaction is visible no earlier.
        idx = int(_first_block(starts, visible))
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
        order = self.streams["miner/order"].permutation(len(entries))
        return [entries[int(i)] for i in order]

    def _place(self, number: int, entries: list[tuple]) -> None:
        """Keep the block's order, and where its updates sit in it: in the row
        order of the oracle events if it moved one, and, for oracles.push[0]'s,
        as the storage cell's write of the block, before any claim reads it."""
        self.txs_by_block[number] = tuple(entry[1] for entry in entries)
        placed = [(position, e[3]) for position, e in enumerate(entries) if e[2] is None]
        if not placed:
            return
        u = self.updates
        rows = [row for _, row in placed]
        if rows != sorted(rows):  # only adversarial_reorder moves an update
            if self.row_order is None:
                self.row_order = np.arange(u.kept)
            self.row_order[min(rows):min(rows) + len(rows)] = rows
        own = [(position, int(u.value[row])) for position, row in placed if u.provider[row] == 0]
        if own:
            self.cell.write(number, *zip(*own))

    def _seal_block(self, now: SimTime, number: int) -> None:
        u = self.updates
        updates = [(u.key(row), u.tx(row), None, row) for row in u.rows(number)]
        entries = self._order_block(self.pending_by_block.pop(number) + updates)
        self._place(number, entries)
        for position, (_, tx, execute, args) in enumerate(entries):
            if execute is not None:
                execute(now, tx, position, *args)
        inst = self.instance
        if inst is not None and (inst.requests or inst.newly_enabled):
            self._push(
                now + int(self.world.chain.mining_durations[number]), K_BLOCK_VISIBLE,
                self._block_visible, inst.requests, inst.newly_enabled,
            )
            inst.requests, inst.newly_enabled = [], []

    def _apply_claim(self, now, tx, position) -> None:
        if self.instance is None:
            return
        ctx = TxContext(
            tx=tx,
            block_number=tx.block,
            block_timestamp=int(self.world.chain.timestamps[tx.block]),
            position_in_block=position,
            chain_params=self.world.chain_params,
            oracle_view=self.cell,
        )
        self.instance.apply(tx, ctx, now)

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

    def _deliver_callback(self, now, tx, position, request_id: int) -> None:
        """The callback answers with the instant it was created."""
        self.instance.on_callback(request_id, tx.created_at, now)

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
        stream = f"participant/{participant.name}"
        for iteration, due in enumerate(dues):
            jitter = 0 if entry.jitter is None else self.streams.draw(entry.jitter, stream)
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
        if self.config.network.miner_ordering == "adversarial_reorder":
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
        u = self.updates
        dropped = sorted(u.dropped + self.dropped, key=itemgetter(0))
        events = _OracleEvents(self.oracle_events, u, self.world.starts, self.row_order)
        return RunTrace(
            scenario=self.config.name, seed=self.world.seed, measure=self.measure,
            chain=replace(self.world.chain, txs=_BlockTxs(self.txs_by_block, u)),
            real_starts=self.world.starts, records=records, oracle_events=events,
            tx_meta=_TxMeta(self.tx_meta, u), dropped=[tx_id for _, tx_id in dropped],
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
