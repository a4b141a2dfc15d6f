"""The chunked trace export against the per-line loop it replaced, and the
read-only transaction mappings of a run that it formats from.

``reference_export`` is the export as one write per line: a block line, then
one line per transaction of ``chain.txs.get(block, ())``, then one line per
oracle event, each an f-string. The export formats a chunk's block lines
from digit tables, four digits at a time, so block numbers, timestamps and
mining durations are drawn at digit-count edges, and block numbers cross
9,999 to 10,000 inside a chunk. The chunk constant is patched down to a few
blocks so that every case crosses chunk edges.
"""

import copy
import gc
import heapq
import io
import pickle
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaintime import chain as chain_module, sim
from chaintime.chain import Chain, Transaction
from chaintime.dists import constant, uniform
from chaintime.experiment import check_trace
from chaintime.measures import MeasureKind, PullOracleConfig, PushOracleConfig
from chaintime.scenario import (
    INVOICE_START_DUE,
    MS_PER_DAY,
    deferred_fifo_scenario,
    deferred_overtake_scenario,
    invoice_demo_scenario,
)
from chaintime.sim import SeedWorld, run

UPDATE = "__oracle_update__"


def reference_export(chain, oracle_events=()) -> str:
    out = io.StringIO()
    for i in range(len(chain)):
        out.write(f"block,{i},{int(chain.timestamps[i])},{int(chain.mining_durations[i])}\n")
        for tx in chain.txs.get(i, ()):
            out.write(f"tx,{tx.id},{tx.created_at},{tx.sender},{tx.op}\n")
    for provider, kind, at, value in oracle_events:
        out.write(f"oracle,{provider},{kind},{at},{value}\n")
    return out.getvalue()


def exported(item) -> str:
    out = io.StringIO()
    item.export_trace(out)
    return out.getvalue()


@contextmanager
def small_chunks(chunk: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chain_module, "_EXPORT_CHUNK", chunk)
        patch.setattr(sim, "_EXPORT_CHUNK", chunk)
        yield


def chain_with(length: int, tx_blocks: list[int]) -> Chain:
    timestamps = np.arange(length, dtype=np.int64) * 15_001 + 7
    mining = (np.arange(length, dtype=np.int64) * 37) % 1_000
    txs = {
        number: tuple(
            Transaction(f"s{k}-{number}", f"s{k}", abs(number) * 10 + k, op=f"op{k}")
            for k in range(1 + number % 3)
        )
        for number in tx_blocks
    }
    return replace(Chain.from_schedule(timestamps, mining), txs=txs)


CHUNK = 4


@pytest.mark.parametrize("length, tx_blocks", [
    (0, []),
    (1, [0]),
    (CHUNK - 1, [0, CHUNK - 2]),
    (CHUNK, [0, CHUNK - 1]),
    (CHUNK + 1, [CHUNK - 1, CHUNK]),
    (3 * CHUNK, [0, CHUNK - 1, CHUNK, 2 * CHUNK + 1, 3 * CHUNK - 1]),
    (2 * CHUNK, list(range(2 * CHUNK))),
    # keys that are not blocks of the chain are not exported
    (CHUNK + 1, [-1, CHUNK + 1, 50]),
])
def test_chunk_edges(length, tx_blocks):
    chain = chain_with(length, tx_blocks)
    with small_chunks(CHUNK):
        assert exported(chain) == reference_export(chain)


@given(
    st.integers(0, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, max(n - 1, 0)), unique=True))
    ),
    st.integers(1, 6),
)
def test_sparse_chain_exports_as_the_line_loop(shape, chunk):
    length, tx_blocks = shape
    chain = chain_with(length, tx_blocks if length else [])
    with small_chunks(chunk):
        assert exported(chain) == reference_export(chain)


def digit_edges(bits: int):
    """Values below 2**bits, often at a digit-count edge: 0, 9, 10, 9,999,
    10,000, 10**k - 1, 10**k, and 2**bits - 1."""
    edges = {0, 2**bits - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0)}
    return st.sampled_from(sorted(v for v in edges if v < 2**bits)) | st.integers(0, 2**bits - 1)


@given(
    st.lists(digit_edges(62), min_size=1, max_size=30, unique=True).flatmap(
        lambda stamps: st.tuples(
            st.just(sorted(stamps)),
            st.lists(digit_edges(45), min_size=len(stamps), max_size=len(stamps)),
            st.lists(st.integers(0, len(stamps) - 1), unique=True),
        )
    ),
    st.sampled_from([1, 3, 7, 4_096]),
)
def test_block_columns_at_digit_edges_export_as_the_line_loop(columns, chunk):
    # a chunk mixes numbers of every width: each takes its own digit groups
    timestamps, mining, tx_blocks = columns
    chain = Chain.from_schedule(np.array(timestamps), np.array(mining))
    chain = replace(chain, txs=chain_with(len(chain), tx_blocks).txs)
    with small_chunks(chunk):
        assert exported(chain) == reference_export(chain)


@pytest.mark.parametrize("chunk", [7, 4_096])
def test_block_numbers_cross_a_digit_group_inside_a_chunk(chunk):
    chain = chain_with(10_001, [9_998, 9_999, 10_000])
    with small_chunks(chunk):
        assert exported(chain) == reference_export(chain)


class RecordingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("timestamps, mining", [
    # the digit tables would write these as block,0,9995,0 and block,1,3,7655
    ([-5, 3], [0, -12345]),
    ([-5, 3], [0, 12345]),
    ([5, 3], [0, -12345]),
])
def test_a_negative_block_column_is_refused_before_any_write(timestamps, mining):
    # a Chain built directly skips from_schedule's checks
    chain, sink = Chain(np.array(timestamps), np.array(mining), {}), RecordingSink()
    with pytest.raises(ValueError, match="non-negative"):
        chain.export_trace(sink)
    assert sink.writes == 0


@st.composite
def push_cases(draw):
    """(config, seed, measure) of a short deferred-overtake run with one or
    two push providers, whose updates fill most blocks, some alone and some
    beside a claim, and a pull provider. Under the request/response measure,
    with no mining time, no inclusion delay and a latency of whole blocks, a
    callback is created at a block's start after that block sealed."""
    base = deferred_overtake_scenario()
    pushes = tuple(
        PushOracleConfig(
            provider=name,
            cadence_ms=draw(st.integers(2_000, 40_000)),
            staleness_ms=draw(st.integers(0, 5_000)),
            active_from_ms=draw(st.integers(0, 30_000)),
        )
        for name in draw(st.sampled_from([["feed"], ["feed", "by-stander"]]))
    )
    config = replace(
        base,
        network=replace(
            base.network,
            mining_time=constant(draw(st.sampled_from([0, 1_000]))),
            inclusion_delay=uniform(0, draw(st.just(0) | st.integers(0, 25_000))),
            miner_ordering=draw(st.sampled_from(
                ["fifo_by_arrival", "priority_then_arrival", "adversarial_reorder"]
            )),
        ),
        push_oracles=pushes,
        pull_oracles=(PullOracleConfig(
            provider="clock",
            latency_ms=draw(st.sampled_from([0, 10_000, 20_000]) | st.integers(0, 30_000)),
        ),),
        simulate_unused_oracles=True,
        horizon_ms=draw(st.integers(12_000, 400_000)),
    )
    measure = draw(st.sampled_from([
        MeasureKind.STORAGE_ORACLE, MeasureKind.BLOCK_TIMESTAMP,
        MeasureKind.REQUEST_RESPONSE_ORACLE,
    ]))
    return config, draw(st.integers(0, 50)), measure


def push_runs():
    return push_cases().map(lambda case: run(*case))


@settings(max_examples=60, deadline=None)
@given(push_runs(), st.integers(1, 7))
def test_run_exports_as_the_line_loop(trace, chunk):
    with small_chunks(chunk):
        assert exported(trace) == reference_export(trace.chain, trace.oracle_events)


def assert_blocks_are_unique_runs(updates) -> None:
    """The blocks of included updates, and those of two or more, as np.unique gives them."""
    numbers, sizes = np.unique(updates.block[:updates.kept], return_counts=True)
    assert updates.numbers.dtype == numbers.dtype
    assert updates.numbers.tolist() == numbers.tolist()
    assert updates.multi == numbers[sizes > 1].tolist()


@settings(max_examples=60, deadline=None)
@given(push_cases())
def test_update_blocks_are_the_runs_of_the_block_column(case):
    config, seed, _ = case
    assert_blocks_are_unique_runs(SeedWorld(config, seed).updates)


def test_update_blocks_of_no_included_row_and_of_no_row():
    # a feed whose one update is visible after the last block: rows, none kept
    base = deferred_fifo_scenario()
    late = PushOracleConfig(provider="late", cadence_ms=1_000, active_from_ms=base.horizon_ms)
    config = replace(
        base, push_oracles=(late,),
        network=replace(base.network, inclusion_delay=constant(1_000)),
    )
    updates = SeedWorld(config, 0).updates
    assert len(updates.tick) == 1 and updates.kept == 0
    for table in (updates, SeedWorld(base, 0).updates, sim._NO_UPDATES):
        assert_blocks_are_unique_runs(table)


# runs that hold no push update: no provider, and one not driven
without_updates = st.sampled_from([
    (deferred_overtake_scenario, None), (invoice_demo_scenario, MeasureKind.BLOCK_TIMESTAMP),
]).map(lambda case: run(case[0](), 0, case[1]))


@settings(max_examples=40, deadline=None)
@given(st.one_of(push_runs(), without_updates))
def test_run_mappings_behave_as_dicts(trace):
    # a trace pickles and copies like the dicts did
    assert pickle.loads(pickle.dumps(trace)).tx_meta == copy.deepcopy(trace).tx_meta
    txs, meta = trace.chain.txs, trace.tx_meta
    for mapping in (txs, meta):
        as_dict = dict(mapping.items())
        assert list(mapping) == list(as_dict) and len(mapping) == len(as_dict)
        assert mapping == as_dict and as_dict == mapping
        assert all(mapping.get(key) == value for key, value in as_dict.items())
    # the blocks hold the claims and callbacks tx_meta gives, and updates
    # equal to its own: each lookup builds an update from its row again
    for number, block in txs.items():
        assert all(tx.block == number for tx in block)
        assert all(meta[tx.id] == tx if tx.op == UPDATE else meta[tx.id] is tx for tx in block)
    assert all(txs.get(key) is None for key in (-1, len(trace.chain), 1.5, "1", None))
    for provider in {tx.sender for tx in meta.values() if tx.op == UPDATE}:
        count = sum(tx_id.startswith(f"{provider}-") for tx_id in meta)
        for bogus in (f"{provider}-{count}", f"{provider}-01", f"{provider}--1", f"{provider}-"):
            assert bogus not in meta and meta.get(bogus) is None
    assert meta.get(5) is None and "oracle:feed" not in meta and "mno-99" not in meta
    for mapping in (txs, meta):
        with pytest.raises(TypeError):
            mapping["x"] = None


@pytest.mark.parametrize("scenario, measure", [
    (deferred_overtake_scenario, None), (invoice_demo_scenario, MeasureKind.BLOCK_TIMESTAMP),
], ids=["no provider", "not driven"])
def test_a_run_without_updates_has_the_same_mappings(scenario, measure):
    trace = run(scenario(), 0, measure)
    assert type(trace.tx_meta) is sim._TxMeta and type(trace.chain.txs) is sim._BlockTxs
    assert not any(tx.op == UPDATE for tx in trace.tx_meta.values())


def first_block_at_or_after(starts, instant) -> int:
    """The placement rule, restated: genesis never, len(starts) past the end."""
    return max(int(np.searchsorted(starts, instant, side="left")), 1)


@settings(max_examples=80, deadline=None)
@given(push_runs())
def test_every_transaction_sits_in_the_first_block_mined_after_it_is_visible(trace):
    """Update rows, claims and callbacks alike. The one exception is the seal
    rule: a callback created at that block's start, with no inclusion delay,
    comes after the block sealed and goes to the next one."""
    starts = trace.real_starts
    for tx in trace.tx_meta.values():
        number = first_block_at_or_after(starts, tx.visible_at)
        if number < len(starts) and tx.op == "__callback__" and (
            tx.created_at == tx.visible_at == starts[number]
        ):
            number += 1
        assert tx.block == (number if number < len(starts) else None), tx


def test_a_callback_at_a_block_start_goes_to_the_next_block():
    config = replace(
        deferred_overtake_scenario(),
        network=replace(
            deferred_overtake_scenario().network,
            mining_time=constant(0), inclusion_delay=constant(0),
        ),
        pull_oracles=(PullOracleConfig(provider="clock", latency_ms=10_000),),
    )
    trace = run(config, 0, MeasureKind.REQUEST_RESPONSE_ORACLE)
    callbacks = [tx for tx in trace.tx_meta.values() if tx.op == "__callback__"]
    assert callbacks
    for tx in callbacks:
        number = first_block_at_or_after(trace.real_starts, tx.visible_at)
        assert trace.real_starts[number] == tx.created_at and tx.block == number + 1


def counting(monkeypatch) -> list[Transaction]:
    """Every Transaction the simulator builds from now on."""
    built = []

    def counted(*args, **kwargs):
        built.append(Transaction(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sim, "Transaction", counted)
    return built


def test_world_and_export_build_no_update(monkeypatch):
    built = counting(monkeypatch)
    config = invoice_demo_scenario()
    world = SeedWorld(config, 0)
    assert len(world.updates.tick) > 25_000
    assert built == []
    trace = run(config, 0, MeasureKind.STORAGE_ORACLE, world=world)
    in_run = [tx for tx in built if tx.op == UPDATE]
    text = exported(trace)
    assert [tx for tx in built if tx.op == UPDATE] == in_run
    # the run builds only the updates that share a block with a claim
    blocks, current = [], None
    for line in text.splitlines():
        kind, *fields = line.split(",")
        if kind == "block":
            current = []
            blocks.append(current)
        elif kind == "tx":
            current.append(fields[-1])
    shared = sum(ops.count(UPDATE) for ops in blocks if len(set(ops)) > 1 and UPDATE in ops)
    assert 0 < len(in_run) == shared


def invoice_from_two_days_early():
    """invoice-demo from two days before its start is due: its seed-1 world
    holds 25,981 updates over 113,844 blocks."""
    base = invoice_demo_scenario()
    genesis = INVOICE_START_DUE - 2 * MS_PER_DAY
    return replace(base, network=replace(base.network, genesis_timestamp_ms=genesis))


def test_a_second_run_of_one_world_builds_its_sealed_updates_again(monkeypatch):
    built = counting(monkeypatch)
    config = invoice_from_two_days_early()
    world = SeedWorld(config, 1)
    first = run(config, 1, MeasureKind.STORAGE_ORACLE, world=world)
    sealed_first = [tx for tx in built if tx.op == UPDATE]
    del built[:]
    second = run(config, 1, MeasureKind.STORAGE_ORACLE, world=world)
    sealed_second = [tx for tx in built if tx.op == UPDATE]
    assert sealed_first and len({tx.id for tx in sealed_first}) == len(sealed_first)
    assert sealed_second == sealed_first
    for tx, again in zip(sealed_first, sealed_second):
        assert again is not tx
        assert first.tx_meta[tx.id] == second.tx_meta[tx.id] == tx


def test_lookups_leave_the_world_as_built():
    # the world holds the update columns; a run and every lookup of its
    # transactions build updates from them and keep none there
    config = invoice_from_two_days_early()
    world = SeedWorld(config, 1)
    assert len(world.updates.tick) == 25_981
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(config, 1, MeasureKind.STORAGE_ORACLE, world=world)
        for _ in trace.tx_meta.values():
            pass
        for _ in trace.chain.txs.values():
            pass
        del trace
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 100_000


def reference_events(config, trace) -> list[tuple]:
    """The oracle events as the list the simulator once built: every placed
    update, block by block in the miner's order, heapq.merged by instant with
    the run's own requests and callbacks, updates first at equal instants."""
    staleness = {f"oracle:{push.provider}": push.staleness_ms for push in config.push_oracles}
    updates = [
        (tx.sender.removeprefix("oracle:"), "update", int(trace.real_starts[number]),
         tx.created_at - staleness[tx.sender])
        for number in sorted(trace.chain.txs) for tx in trace.chain.txs[number] if tx.op == UPDATE
    ]
    own = trace.oracle_events.own
    assert {kind for _, kind, _, _ in own} <= {"request", "callback"}
    return list(heapq.merge(updates, own, key=itemgetter(2)))


def assert_behaves_as_list(events, expected: list, probes=()) -> None:
    assert events == expected and expected == events and not events != expected
    assert len(events) == len(expected) and list(events) == expected
    assert events != expected + [("x", "update", 0, 0)] and events != tuple(expected)
    n = len(expected)
    for index in (0, n - 1, -1, -n, n // 2, *probes):
        if -n <= index < n:
            assert events[index] == expected[index]
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            events[index]
    for cut in (slice(None), slice(1, -1), slice(-3, None), slice(None, None, -1),
                slice(n, 0, -2), slice(2, n, 3), slice(5, 2)):
        assert events[cut] == expected[cut]


@settings(max_examples=80, deadline=None)
@given(push_cases(), st.integers(1, 7), st.lists(st.integers(-400, 400), max_size=4))
def test_oracle_events_equal_the_merged_list(case, chunk, probes):
    trace = run(*case)
    expected = reference_events(case[0], trace)
    with small_chunks(chunk):
        assert_behaves_as_list(trace.oracle_events, expected, tuple(probes))
        assert exported(trace) == reference_export(trace.chain, expected)
    assert pickle.loads(pickle.dumps(trace)).oracle_events == copy.deepcopy(expected)


def reordered_before_a_claim():
    """Seed 2 of a 3 s feed over 10 s blocks under adversarial_reorder: the
    claim seals first in block 2, after block 1's four updates, reordered."""
    base = deferred_overtake_scenario()
    return replace(
        base,
        network=replace(
            base.network, mining_time=constant(0), inclusion_delay=constant(0),
            miner_ordering="adversarial_reorder",
        ),
        push_oracles=(PushOracleConfig(provider="feed", cadence_ms=3_000),),
        horizon_ms=20_000,
    ), 2, MeasureKind.STORAGE_ORACLE


@settings(max_examples=300, deadline=None)
@given(push_cases().map(lambda case: (*case[:2], MeasureKind.STORAGE_ORACLE)))
@example(reordered_before_a_claim())
def test_a_storage_read_is_the_last_update_placed_before_the_claim(case):
    """The read is the last update of oracles.push[0] placed before the claim,
    check_trace's SO rule, under every ordering."""
    assert check_trace(case[0], run(*case)) == []


def overlapping_config(**network):
    """Constant 10 s blocks visible at their start with no inclusion delay, a
    feed ticking at every block start, and a pull oracle answering in one
    block: a request and a callback fall at an update's instant."""
    base = deferred_fifo_scenario()
    return replace(
        base,
        network=replace(base.network, **network),
        push_oracles=(PushOracleConfig(provider="feed", cadence_ms=10_000),
                      PushOracleConfig(provider="echo", cadence_ms=5_000, staleness_ms=7)),
        pull_oracles=(PullOracleConfig(provider="server", latency_ms=10_000),),
        simulate_unused_oracles=True,
    )


@pytest.mark.parametrize("ordering", [
    "fifo_by_arrival", "priority_then_arrival", "adversarial_reorder",
])
def test_updates_come_before_a_pull_event_of_their_instant(ordering):
    config = overlapping_config(miner_ordering=ordering)
    trace = run(config, 3, MeasureKind.REQUEST_RESPONSE_ORACLE)
    events = trace.oracle_events
    expected = reference_events(config, trace)
    assert_behaves_as_list(events, expected)
    with small_chunks(3):
        assert exported(trace) == reference_export(trace.chain, expected)
    kinds = [(kind, at) for _, kind, at, _ in events]
    for pull in ("request", "callback"):
        at = next(at for kind, at in kinds if kind == pull)
        same = [kind for kind, instant in kinds if instant == at]
        assert same.index(pull) == same.count("update") > 0
    # only a miner that moves an update gives the run its own row order
    moved = trace.oracle_events.row_order
    assert (moved is not None) == (ordering == "adversarial_reorder")
    if moved is not None:
        assert (moved != np.arange(len(moved))).any()


def test_a_world_whose_updates_are_all_dropped_logs_only_its_own_events():
    # the one tick, at 55 s, is visible after the last block of the horizon
    config = replace(
        overlapping_config(), horizon_ms=59_000,
        push_oracles=(PushOracleConfig(provider="feed", cadence_ms=60_000,
                                       active_from_ms=55_000),),
    )
    trace = run(config, 0, MeasureKind.REQUEST_RESPONSE_ORACLE)
    updates = trace.oracle_events.u
    assert updates.kept == 0 and len(updates.tick) == 1
    assert trace.dropped[-1:] == ["oracle:feed-0"]
    own = trace.oracle_events.own
    assert own and {kind for _, kind, _, _ in own} == {"request", "callback"}
    assert_behaves_as_list(trace.oracle_events, list(own))
    assert exported(trace) == reference_export(trace.chain, own)


@pytest.mark.parametrize("scenario, measure", [
    (deferred_overtake_scenario, None), (invoice_demo_scenario, MeasureKind.BLOCK_TIMESTAMP),
], ids=["no provider", "not driven"])
def test_a_run_without_update_rows_has_no_oracle_event(scenario, measure):
    events = run(scenario(), 0, measure).oracle_events
    assert events == [] and [] == events and len(events) == 0 and list(events) == []
    assert events[:] == [] and events[::-1] == []
    with pytest.raises(IndexError):
        events[0]
