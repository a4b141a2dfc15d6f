"""The five on-chain time measures and the oracle provider actors.

Each measure estimates, from within a transaction's execution context, the
instant the transaction was originally created by its sender. Block
timestamp and block number come for free from the containing block, the
parameter measure reads the timestamp the sender attached to the
transaction, and the two oracle measures rely on third-party providers
(synchronous storage reads vs. asynchronous request/callback).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .chain import SchemaError, SimTime, Transaction, _check_bounds, _check_name, _Ident


class MeasureKind(str, Enum):
    BLOCK_TIMESTAMP = "block_timestamp"
    BLOCK_NUMBER = "block_number"
    PARAMETER = "parameter"
    STORAGE_ORACLE = "storage_oracle"
    REQUEST_RESPONSE_ORACLE = "request_response_oracle"


class MissingParameter(Exception):
    """Transaction carries no sender-supplied timestamp."""


class UninitializedOracle(Exception):
    """Storage oracle read with no update preceding the read position."""


@dataclass(frozen=True)
class ChainParams:
    """Static chain facts a contract may rely on."""

    genesis_timestamp: SimTime
    assumed_mean_block_time_ms: int


@dataclass(frozen=True)
class TxContext:
    """Per-transaction view available to guard evaluation."""

    tx: Transaction
    block_number: int
    block_timestamp: SimTime
    position_in_block: int
    chain_params: ChainParams
    oracle_view: "OracleCell | None" = None


class OracleCell:
    """On-chain storage cell a push provider updates via transactions.

    It reads shared block and value columns of the provider's updates, in
    row order, and never changes them; a run writes each block it seals at
    the updates' positions among its transactions. A read sees the last
    update strictly before the reader's position: the last write before it
    in its block, else the last update of the latest earlier block.
    """

    def __init__(self, provider: str, blocks: np.ndarray, values: np.ndarray):
        self.provider, self._blocks, self._values = provider, blocks, values
        self._written: dict[int, tuple] = {}

    def write(self, block: int, positions: tuple[int, ...], values: tuple[int, ...]) -> None:
        if any(a >= b for a, b in zip(positions, positions[1:])):
            raise ValueError("oracle writes must arrive in position order")
        self._written[block] = positions, values

    def read_before(self, position: tuple[int, int]) -> SimTime:
        block, index = position
        positions, values = self._written.get(block, ((), ()))
        if at := bisect_left(positions, index):
            return values[at - 1]
        at = int(np.searchsorted(self._blocks, block)) - 1
        if at < 0:
            raise UninitializedOracle(f"no update by {self.provider!r} before position {position}")
        written = self._written.get(int(self._blocks[at]))
        return written[1][-1] if written else int(self._values[at])


def measure_bt(ctx: TxContext) -> SimTime:
    """Block timestamp measure: the containing block's timestamp."""
    return ctx.block_timestamp


def measure_bn(ctx: TxContext) -> SimTime:
    """Block number measure: genesis plus block number times the mean block time."""
    p = ctx.chain_params
    return p.genesis_timestamp + ctx.block_number * p.assumed_mean_block_time_ms


def measure_pa(ctx: TxContext) -> SimTime:
    """Parameter measure: the timestamp the sender attached to the transaction."""
    if ctx.tx.timestamp is None:
        raise MissingParameter(f"transaction {ctx.tx.id} carries no timestamp parameter")
    return ctx.tx.timestamp


def measure_so(ctx: TxContext) -> SimTime:
    """Storage oracle measure: last provider value written before this read."""
    if ctx.oracle_view is None:
        raise UninitializedOracle("no storage oracle configured")
    return ctx.oracle_view.read_before((ctx.block_number, ctx.position_in_block))


# The measures a contract can read while it executes; request/response has no
# synchronous read and answers through a later callback transaction.
_SYNC_READS = {
    MeasureKind.BLOCK_TIMESTAMP: measure_bt,
    MeasureKind.BLOCK_NUMBER: measure_bn,
    MeasureKind.PARAMETER: measure_pa,
    MeasureKind.STORAGE_ORACLE: measure_so,
}


@dataclass(frozen=True)
class PushOracleConfig:
    """Provider that periodically writes a timestamp into its storage cell."""

    provider: _Ident
    cadence_ms: int = 60_000
    staleness_ms: int = 0
    active_from_ms: SimTime = 0
    outages: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _check_name("provider", self.provider)
        if self.cadence_ms <= 0:
            raise SchemaError("cadence_ms", "must be positive")
        for name in ("staleness_ms", "active_from_ms"):
            if getattr(self, name) < 0:
                raise SchemaError(name, "must be non-negative")
        _check_bounds(self, "cadence_ms", "staleness_ms")
        _check_outages(self.outages)


@dataclass(frozen=True)
class PullOracleConfig:
    """Provider that answers on-chain requests with a delayed callback."""

    provider: _Ident
    latency_ms: int = 30_000
    outages: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        _check_name("provider", self.provider)
        if self.latency_ms < 0:
            raise SchemaError("latency_ms", "must be non-negative")
        _check_outages(self.outages)


def _check_outages(outages: tuple[tuple[int, int], ...]) -> None:
    for i, (start, end) in enumerate(outages):
        if start >= end:
            raise SchemaError(f"outages[{i}]", f"[{start}, {end}] must start before it ends")


def in_outage(outages: tuple[tuple[int, int], ...], now: SimTime) -> bool:
    return any(start <= now < end for start, end in outages)


def so_update_times(config: PushOracleConfig, horizon_ms: SimTime) -> np.ndarray:
    """All cadence ticks up to the horizon, skipping outage intervals."""
    ticks = np.arange(config.active_from_ms, horizon_ms + 1, config.cadence_ms, dtype=np.int64)
    for start, end in config.outages:
        ticks = ticks[(ticks < start) | (ticks >= end)]
    return ticks
