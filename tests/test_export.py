"""The chunked trace export against the per-line loop it replaced, and the
read-only transaction mappings of a run that it formats from.

``reference_export`` is the export as one write per line: a block line, then
one line per transaction of ``chain.txs.get(block, ())``, then one line per
oracle event. The chunk constant is patched down to a few blocks so that
every case crosses chunk edges.
"""

import copy
import io
import pickle
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaintime import chain as chain_module, sim
from chaintime.chain import Chain, Transaction
from chaintime.dists import uniform
from chaintime.measures import MeasureKind, PushOracleConfig
from chaintime.scenario import (
    INVOICE_START_DUE,
    MS_PER_DAY,
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


@st.composite
def push_runs(draw):
    """A short deferred-overtake run with one or two push providers, whose
    updates fill most blocks, some alone and some beside a claim."""
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
            inclusion_delay=uniform(0, draw(st.integers(0, 25_000))),
            miner_ordering=draw(st.sampled_from(
                ["fifo_by_arrival", "priority_then_arrival", "adversarial_reorder"]
            )),
        ),
        push_oracles=pushes,
        simulate_unused_oracles=True,
        horizon_ms=draw(st.integers(12_000, 400_000)),
    )
    measure = draw(st.sampled_from([MeasureKind.STORAGE_ORACLE, MeasureKind.BLOCK_TIMESTAMP]))
    return run(config, draw(st.integers(0, 50)), measure)


@settings(max_examples=60, deadline=None)
@given(push_runs(), st.integers(1, 7))
def test_run_exports_as_the_line_loop(trace, chunk):
    with small_chunks(chunk):
        assert exported(trace) == reference_export(trace.chain, trace.oracle_events)


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
    # one object per transaction: the blocks hold the objects tx_meta gives
    for number, block in txs.items():
        assert all(meta[tx.id] is tx and tx.block == number for tx in block)
    assert all(txs.get(key) is None for key in (-1, len(trace.chain), 1.5, "1", None))
    for provider in {tx.sender for tx in meta.values() if tx.op == UPDATE}:
        count = sum(tx_id.startswith(f"{provider}-") for tx_id in meta)
        for bogus in (f"{provider}-{count}", f"{provider}-01", f"{provider}--1", f"{provider}-"):
            assert bogus not in meta and meta.get(bogus) is None
    assert meta.get(5) is None and "oracle:feed" not in meta and "mno-99" not in meta
    if not isinstance(meta, dict):  # a run without updates keeps its plain dicts
        with pytest.raises(TypeError):
            meta["x"] = None


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


def test_runs_of_one_world_share_each_update(monkeypatch):
    built = counting(monkeypatch)
    config = replace(
        invoice_demo_scenario(),
        network=replace(
            invoice_demo_scenario().network,
            genesis_timestamp_ms=INVOICE_START_DUE - 2 * MS_PER_DAY,
        ),
    )
    world = SeedWorld(config, 1)
    first = run(config, 1, MeasureKind.STORAGE_ORACLE, world=world)
    second = run(config, 1, MeasureKind.STORAGE_ORACLE, world=world)
    updates = [tx for tx in built if tx.op == UPDATE]
    assert updates and len({tx.id for tx in updates}) == len(updates)
    for tx in updates:
        assert first.tx_meta[tx.id] is second.tx_meta[tx.id] is tx
