"""Ledger invariants and the trace export."""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chaintime.chain import Chain, NonMonotonicTimestamp, OutOfRange, Transaction


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
            Chain.from_schedule(np.array([0, 10]), np.array([0, -1]))


class TestFromSchedule:
    def test_matches_incremental_construction(self):
        timestamps = np.array([0, 100, 230], dtype=np.int64)
        mining = np.array([0, 5, 7], dtype=np.int64)
        tx = Transaction(id="a", sender="alice", created_at=90)
        chain = Chain.from_schedule(timestamps, mining, {1: (tx,)})
        assert len(chain) == 3
        out = io.StringIO()
        chain.export_trace(out)
        assert out.getvalue().splitlines() == [
            "block,0,0,0", "block,1,100,5", "tx,a,90,alice,", "block,2,230,7",
        ]

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
    st.data(),
)
def test_bulk_schedule_blocktimes_sum_to_span(gaps, genesis, data):
    # from_schedule keeps both columns exactly as given
    timestamps = np.cumsum([genesis] + gaps)
    mining = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=100_000),
        min_size=len(timestamps), max_size=len(timestamps),
    )))
    chain = Chain.from_schedule(timestamps, mining)
    assert len(chain) == len(timestamps)
    assert chain.timestamps.tolist() == timestamps.tolist()
    assert chain.mining_durations.tolist() == mining.tolist()
    assert int(np.diff(chain.timestamps).sum()) == sum(gaps)
