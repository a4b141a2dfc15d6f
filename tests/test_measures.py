"""Unit checks for the five measures and the oracle provider helpers."""

import numpy as np
import pytest

from chaintime.chain import Transaction
from chaintime.measures import (
    ChainParams,
    OracleCell,
    PullOracleConfig,
    PushOracleConfig,
    TxContext,
    UninitializedOracle,
    MissingParameter,
    in_outage,
    measure_bn,
    measure_bt,
    measure_pa,
    measure_so,
    so_update_times,
)

PARAMS = ChainParams(genesis_timestamp=1_000_000, assumed_mean_block_time_ms=15_190)


def make_ctx(timestamp=None, block_number=10, block_timestamp=1_200_000, position=0, cell=None):
    tx = Transaction(id="t0", sender="alice", created_at=1_190_000, timestamp=timestamp)
    return TxContext(
        tx=tx,
        block_number=block_number,
        block_timestamp=block_timestamp,
        position_in_block=position,
        chain_params=PARAMS,
        oracle_view=cell,
    )


class TestSyncMeasures:
    def test_bt_is_block_timestamp(self):
        assert measure_bt(make_ctx()) == 1_200_000

    def test_bn_extrapolates_from_genesis(self):
        # [TRIVIAL] s_0 + i * assumed mean
        assert measure_bn(make_ctx(block_number=10)) == 1_000_000 + 10 * 15_190

    def test_bn_delta(self):
        # the interval BN estimates between two blocks: their distance times the mean
        delta = measure_bn(make_ctx(block_number=120)) - measure_bn(make_ctx(block_number=100))
        assert delta == 20 * 15_190

    def test_pa_reads_timestamp_parameter(self):
        assert measure_pa(make_ctx(timestamp=1_190_500)) == 1_190_500

    def test_pa_missing(self):
        with pytest.raises(MissingParameter):
            measure_pa(make_ctx())


def make_cell(*updates):
    """An OracleCell over the block and value columns of (block, value) updates in row order."""
    blocks, values = np.array(updates, dtype=np.int64).reshape(-1, 2).T
    return OracleCell("p", blocks, values)


class TestOracleCell:
    def test_read_sees_last_write_strictly_before(self):
        cell = make_cell((3, 111), (5, 222))
        cell.write(5, (2,), (222,))
        assert cell.read_before((5, 2)) == 111  # own position excluded
        assert cell.read_before((5, 3)) == 222
        assert cell.read_before((4, 0)) == 111
        assert cell.read_before((6, 0)) == 222

    def test_a_read_before_any_write_is_uninitialized(self):
        cell = make_cell((7, 999))
        cell.write(7, (1,), (999,))
        assert cell.read_before((7, 2)) == 999
        for position in ((7, 1), (7, 0), (2, 5)):
            with pytest.raises(UninitializedOracle):
                cell.read_before(position)
        with pytest.raises(UninitializedOracle):
            make_cell().read_before((1, 0))

    def test_writes_must_advance(self):
        cell = make_cell((3, 1), (3, 2))
        for positions in ((0, 0), (5, 2)):
            with pytest.raises(ValueError):
                cell.write(3, positions, (1, 2))
        # a refused write records nothing: block 3 reads from the columns
        assert cell.read_before((4, 0)) == 2

    def test_a_written_block_overrides_the_columns(self):
        # the columns hold block 3's updates in row order; the run sealed it
        # with a claim first and the miner swapped the updates
        blocks, values = np.array([3, 3]), np.array([1, 2])
        cell = OracleCell("p", blocks, values)
        assert cell.read_before((4, 0)) == 2
        cell.write(3, (1, 4), (2, 1))
        with pytest.raises(UninitializedOracle):
            cell.read_before((3, 1))
        assert cell.read_before((3, 4)) == 2
        assert cell.read_before((3, 5)) == 1
        assert cell.read_before((4, 0)) == cell.read_before((9, 3)) == 1
        # the columns are shared, never changed
        assert blocks.tolist() == [3, 3] and values.tolist() == [1, 2]

    def test_measure_so_uses_reader_position(self):
        cell = make_cell((9, 1_199_000), (10, 1_200_000))
        cell.write(10, (4,), (1_200_000,))
        assert measure_so(make_ctx(block_number=10, position=4, cell=cell)) == 1_199_000
        assert measure_so(make_ctx(block_number=10, position=5, cell=cell)) == 1_200_000

    def test_measure_so_without_cell(self):
        with pytest.raises(UninitializedOracle):
            measure_so(make_ctx())


class TestProviders:
    def test_update_times_skip_outages(self):
        cfg = PushOracleConfig(
            provider="p", cadence_ms=10_000, active_from_ms=0, outages=((15_000, 35_000),)
        )
        assert so_update_times(cfg, 50_000).tolist() == [0, 10_000, 40_000, 50_000]

    def test_in_outage_boundaries(self):
        assert in_outage(((10, 20),), 10)
        assert not in_outage(((10, 20),), 20)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PushOracleConfig(provider="p", cadence_ms=0)
        with pytest.raises(ValueError):
            PullOracleConfig(provider="p", latency_ms=-1)
