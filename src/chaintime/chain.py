"""Ledger data model: blocks, transactions, and their derived timings.

Timestamps are integer milliseconds since the simulation epoch. The chain
stores block columns (timestamps, mining durations) as numpy arrays so that
multi-million-block runs stay cheap; transactions are kept sparsely per
block since most simulated blocks are empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterator, Mapping, NewType

import numpy as np

SimTime = int
DurationMs = int
# A name that ends up in the comma-separated, line-delimited trace and record
# streams (scenario, participant, provider, element): non-empty, with no ','
# and no line break. Scenario loading checks every field annotated with it.
_Ident = NewType("Ident", str)


class ChainError(Exception):
    """Base class for ledger integrity errors."""


class NonMonotonicTimestamp(ChainError):
    """Block timestamp does not strictly exceed its predecessor's."""


class OutOfRange(ChainError):
    """Block index outside the valid range for the operation."""


class TxNotFound(ChainError):
    """Transaction id not present in any block."""


class InsufficientBlocks(ChainError):
    """Chain too short for the requested statistic."""


@dataclass(frozen=True)
class Transaction:
    """A signed transaction; created_at is the sender-local creation instant."""

    id: str
    sender: str
    created_at: SimTime
    payload: Mapping[str, object] = field(default_factory=dict)
    priority: int = 0

    def __post_init__(self):
        if self.created_at < 0:
            raise ValueError("created_at must be non-negative")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")


@dataclass(frozen=True)
class Block:
    number: int
    timestamp: SimTime
    transactions: tuple[Transaction, ...] = ()
    mining_duration: DurationMs = 0

    def __post_init__(self):
        if self.number < 0:
            raise ValueError("block number must be non-negative")
        if self.mining_duration < 0:
            raise ValueError("mining duration must be non-negative")


class Chain:
    """Ordered list of blocks numbered consecutively from 0 (genesis).

    A chain is built in one shot by from_schedule, which enforces strictly
    increasing timestamps; a bare Chain() is empty.
    """

    def __init__(self):
        self._timestamps = np.empty(0, dtype=np.int64)
        self._mining = np.empty(0, dtype=np.int64)
        self._txs: dict[int, tuple[Transaction, ...]] = {}
        self._tx_index: dict[str, tuple[int, int]] = {}

    @classmethod
    def from_schedule(
        cls,
        timestamps: np.ndarray,
        mining_durations: np.ndarray,
        txs_by_block: Mapping[int, tuple[Transaction, ...]] | None = None,
    ) -> "Chain":
        """Build a chain in one shot from precomputed block columns."""
        chain = cls()
        timestamps = np.asarray(timestamps, dtype=np.int64)
        mining_durations = np.asarray(mining_durations, dtype=np.int64)
        if timestamps.shape != mining_durations.shape:
            raise ValueError("timestamp and mining arrays must align")
        if len(timestamps) and np.any(np.diff(timestamps) <= 0):
            raise NonMonotonicTimestamp("bulk schedule is not strictly increasing")
        if np.any(mining_durations < 0):
            raise ValueError("mining durations must be non-negative")
        chain._timestamps = timestamps
        chain._mining = mining_durations
        for number, txs in (txs_by_block or {}).items():
            if not 0 <= number < len(timestamps):
                raise OutOfRange(f"no block {number} in schedule")
            chain._txs[number] = tuple(txs)
            for pos, tx in enumerate(txs):
                chain._tx_index[tx.id] = (number, pos)
        return chain

    def __len__(self) -> int:
        return len(self._timestamps)

    @property
    def timestamps(self) -> np.ndarray:
        return self._timestamps

    @property
    def mining_durations(self) -> np.ndarray:
        return self._mining

    def block(self, i: int) -> Block:
        if not 0 <= i < len(self):
            raise OutOfRange(f"no block {i} on a chain of length {len(self)}")
        return Block(
            number=i,
            timestamp=int(self._timestamps[i]),
            transactions=self._txs.get(i, ()),
            mining_duration=int(self._mining[i]),
        )

    def blocks(self) -> Iterator[Block]:
        for i in range(len(self)):
            yield self.block(i)

    def block_time(self, i: int) -> DurationMs:
        """Interval between block i and its predecessor."""
        if not 0 < i < len(self):
            raise OutOfRange(f"block_time undefined for block {i}")
        return int(self._timestamps[i] - self._timestamps[i - 1])

    def locate_transaction(self, tx_id: str) -> tuple[int, int]:
        """(block number, position) of a transaction."""
        try:
            return self._tx_index[tx_id]
        except KeyError:
            raise TxNotFound(tx_id) from None

    def transaction(self, tx_id: str) -> Transaction:
        number, pos = self.locate_transaction(tx_id)
        return self._txs[number][pos]

    def inclusion_time(self, tx_id: str) -> DurationMs:
        """Delay between a transaction's creation and its block's timestamp.

        Negative only if a fault injector forged the containing block's
        timestamp; non-negative otherwise.
        """
        number, pos = self.locate_transaction(tx_id)
        tx = self._txs[number][pos]
        return int(self._timestamps[number]) - tx.created_at

    def mean_block_time(self) -> float:
        """Arithmetic mean of all block times, in milliseconds."""
        if len(self) < 2:
            raise InsufficientBlocks("need at least 2 blocks")
        span = int(self._timestamps[-1] - self._timestamps[0])
        return span / (len(self) - 1)

    def export_trace(self, stream: IO[str]) -> None:
        """Write the line-delimited trace: one block line, then its tx lines."""
        tx_blocks = self._txs
        for i in range(len(self)):
            stream.write(f"block,{i},{int(self._timestamps[i])},{int(self._mining[i])}\n")
            for tx in tx_blocks.get(i, ()):
                op = tx.payload.get("op", "")
                stream.write(f"tx,{tx.id},{tx.created_at},{tx.sender},{op}\n")
