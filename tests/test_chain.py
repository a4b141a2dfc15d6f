"""Ledger invariants and derived timings."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chaintime.chain import (
    Block,
    Chain,
    InsufficientBlocks,
    NonMonotonicTimestamp,
    OutOfRange,
    Transaction,
    TxNotFound,
)


def small_chain() -> Chain:
    tx_a = Transaction(id="a", sender="alice", created_at=90, payload={"op": "ping"})
    tx_b = Transaction(id="b", sender="bob", created_at=150)
    return Chain.from_schedule(
        np.array([0, 100, 230], dtype=np.int64),
        np.array([0, 5, 7], dtype=np.int64),
        {1: (tx_a,), 2: (tx_b,)},
    )


class TestAppend:
    def test_timestamps_strictly_increase(self):
        with pytest.raises(NonMonotonicTimestamp):
            Chain.from_schedule(np.array([50, 50]), np.zeros(2, dtype=np.int64))

    def test_negative_mining_rejected(self):
        with pytest.raises(ValueError):
            Block(number=0, timestamp=0, mining_duration=-1)


class TestDerived:
    def test_block_time(self):
        chain = small_chain()
        assert chain.block_time(1) == 100
        assert chain.block_time(2) == 130
        with pytest.raises(OutOfRange):
            chain.block_time(0)

    def test_inclusion_time(self):
        chain = small_chain()
        assert chain.inclusion_time("a") == 10
        assert chain.inclusion_time("b") == 80
        with pytest.raises(TxNotFound):
            chain.inclusion_time("nope")

    def test_mean_block_time_is_span_over_count(self):
        chain = small_chain()
        assert chain.mean_block_time() == pytest.approx(115.0)

    def test_mean_needs_two_blocks(self):
        chain = Chain.from_schedule(np.array([0]), np.zeros(1, dtype=np.int64))
        with pytest.raises(InsufficientBlocks):
            chain.mean_block_time()

    def test_locate_transaction(self):
        chain = small_chain()
        assert chain.locate_transaction("a") == (1, 0)
        assert chain.transaction("b").sender == "bob"


class TestFromSchedule:
    def test_matches_incremental_construction(self):
        timestamps = np.array([0, 100, 230], dtype=np.int64)
        mining = np.array([0, 5, 7], dtype=np.int64)
        tx = Transaction(id="a", sender="alice", created_at=90)
        chain = Chain.from_schedule(timestamps, mining, {1: (tx,)})
        assert len(chain) == 3
        assert chain.block(1).transactions == (tx,)
        assert chain.locate_transaction("a") == (1, 0)

    def test_rejects_non_monotonic_bulk(self):
        with pytest.raises(NonMonotonicTimestamp):
            Chain.from_schedule(np.array([0, 5, 5]), np.zeros(3, dtype=np.int64))

    def test_rejects_tx_outside_schedule(self):
        tx = Transaction(id="a", sender="alice", created_at=0)
        with pytest.raises(OutOfRange):
            Chain.from_schedule(np.array([0, 10]), np.zeros(2, dtype=np.int64), {5: (tx,)})


class TestTrace:
    def test_line_format(self):
        chain = small_chain()
        out = io.StringIO()
        chain.export_trace(out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "block,0,0,0"
        assert lines[1] == "block,1,100,5"
        assert lines[2] == "tx,a,90,alice,ping"
        assert lines[3] == "block,2,230,7"
        assert lines[4] == "tx,b,150,bob,"


@given(
    st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=200),
    st.integers(min_value=0, max_value=10_000_000),
)
def test_bulk_schedule_blocktimes_sum_to_span(gaps, genesis):
    timestamps = np.cumsum([genesis] + gaps)
    chain = Chain.from_schedule(timestamps, np.zeros(len(timestamps), dtype=np.int64))
    assert sum(chain.block_time(i) for i in range(1, len(chain))) == sum(gaps)
    assert chain.mean_block_time() == pytest.approx(sum(gaps) / len(gaps))
