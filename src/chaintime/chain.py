"""Ledger data model (block columns, transactions, trace export) and scenario field checks.

Timestamps are integer milliseconds since the simulation epoch. A chain is a
frozen value: its block columns (timestamps, mining durations) are numpy
arrays so that multi-million-block runs stay cheap, and its transactions are
kept sparsely per block, since most simulated blocks are empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import IO, Mapping, NewType

import numpy as np

SimTime = int
# A name that ends up in the comma-separated, line-delimited trace and record
# streams (scenario, participant, provider, element): non-empty, with no ','
# and no line break. The config type that holds one checks it with _check_name.
_Ident = NewType("Ident", str)


class SchemaError(ValueError):
    """Scenario validation failure, carrying the offending field path.

    A config object's own checks name the field relative to the object, or
    the object itself with an empty path; build_config prefixes the object's
    path in the scenario tree.
    """

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}" if path else reason)


def _check_bounds(config, *names: str) -> None:
    """Durations stay below 2**45 ms in magnitude, so that with instants below 2**62 ms
    no int64 sum in the simulator overflows: 65,536 gaps, an instant plus a drift or delay."""
    for name in names:
        if abs(getattr(config, name)) >> 45:
            raise SchemaError(name, "must be below 2**45 in magnitude")


def _check_name(path: str, name: str) -> None:
    if not name or any(c in name for c in ",\r\n"):
        raise SchemaError(path, f"expected a name without ',' or line breaks, got {name!r}")


# blocks per write of the trace export, about 130 kB of text
_EXPORT_CHUNK = 1 << 12
_TX_LINE = "tx,%s,%s,%s,%s\n"  # id, created_at, sender, op
# _quads() maps four digits to a uint32 quad of ASCII: zero-padded (+0), NUL for
# leading zeros (+10,000) and so but "0" for 0, for a number's last group (+20,000).
_GROUP = 10_000


@cache  # built on the first export, so that importing costs nothing
def _quads() -> np.ndarray:
    places = np.arange(_GROUP)[:, None] // [1000, 100, 10, 1]
    digits = places % 10 + 48
    tables = [digits, np.where(places > 0, digits, 0), np.where(places > [0, 0, 0, -1], digits, 0)]
    return np.array(tables, np.uint8).view(np.uint32).ravel()


def _block_lines(lo: int, timestamps: np.ndarray, mining: np.ndarray) -> str:
    """Block lines from block lo on, of non-negative columns: quad rows, NULs dropped."""
    columns = (np.arange(lo, lo + len(timestamps)), timestamps, mining)
    widths = [(len(str(column.max())) + 3) // 4 for column in columns]  # in groups
    rows = np.full((len(timestamps), 5 + sum(widths)), ord(","), np.uint32)
    rows[:, :2], rows[:, -1], end = np.frombuffer(b"block,\0\0", np.uint32), ord("\n"), 2
    for column, width in zip(columns, widths):
        rest, table = column, 2 * _GROUP
        for cell in range(end + width - 1, end - 1, -1):
            rest, group = np.divmod(rest, _GROUP)
            rows[:, cell] = _quads()[group + (rest == 0) * table]
            table = _GROUP
        end += width + 1
    return rows.tobytes().translate(None, b"\0").decode("ascii")


class NonMonotonicTimestamp(ValueError):
    """Block timestamp does not strictly exceed its predecessor's."""


@dataclass(frozen=True, slots=True)
class Transaction:
    """A signed transaction: created_at is the sender-local creation instant
    s_tx, op the element claimed (or ``__oracle_update__``, ``__callback__``),
    timestamp the sender-supplied PA parameter, visible_at the instant the
    network sees it and block its block (None if it is never mined)."""

    id: str
    sender: str
    created_at: SimTime
    op: str = ""
    timestamp: SimTime | None = None
    priority: int = 0
    visible_at: SimTime | None = None
    block: int | None = None

    def __post_init__(self):
        if self.created_at < 0:
            raise ValueError("created_at must be non-negative")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")


@dataclass(frozen=True, eq=False)
class Chain:
    """Blocks numbered consecutively from 0 (genesis): the timestamp and
    mining duration columns, and the transactions of each non-empty block
    by number. Build one with from_schedule, which checks the columns, and
    attach transactions with dataclasses.replace(chain, txs=...)."""

    timestamps: np.ndarray
    mining_durations: np.ndarray
    txs: Mapping[int, tuple[Transaction, ...]]

    @classmethod
    def from_schedule(cls, timestamps: np.ndarray, mining_durations: np.ndarray) -> "Chain":
        """A chain of empty blocks from precomputed block columns."""
        timestamps = np.asarray(timestamps, dtype=np.int64)
        mining_durations = np.asarray(mining_durations, dtype=np.int64)
        if timestamps.shape != mining_durations.shape:
            raise ValueError("timestamp and mining arrays must align")
        if len(timestamps) and timestamps[0] < 0:
            raise ValueError("timestamps must be non-negative")
        if np.any(timestamps[1:] <= timestamps[:-1]):
            raise NonMonotonicTimestamp("bulk schedule is not strictly increasing")
        if np.any(mining_durations < 0):
            raise ValueError("mining durations must be non-negative")
        return cls(timestamps, mining_durations, {})

    def __len__(self) -> int:
        return len(self.timestamps)

    def export_trace(self, stream: IO[str]) -> None:
        """Write the line-delimited trace: one block line, then its tx lines.

        One write per _EXPORT_CHUNK blocks keeps memory flat; a chunk's block
        lines are one vectorised format, cut after each non-empty block for the
        tx lines that a ``txs`` with a ``lines(numbers)`` method gives itself.
        """
        if min(self.timestamps.min(initial=0), self.mining_durations.min(initial=0)) < 0:
            raise ValueError("block columns must be non-negative")
        txs = self.txs
        lines = getattr(txs, "lines", None) or (
            lambda numbers: ["".join(map(tx_line, txs[number])) for number in numbers])
        numbers = np.array(sorted(txs), dtype=np.int64)
        for lo in range(0, len(self), _EXPORT_CHUNK):
            hi = min(lo + _EXPORT_CHUNK, len(self))
            text = _block_lines(lo, self.timestamps[lo:hi], self.mining_durations[lo:hi])
            first, last = np.searchsorted(numbers, (lo, hi))
            if first == last:
                stream.write(text)
                continue
            blocks = numbers[first:last]
            ends = np.flatnonzero(np.frombuffer(text.encode(), np.uint8) == ord("\n"))
            cuts = [0, *(ends[blocks - lo] + 1).tolist()]
            pieces = zip(cuts, cuts[1:], lines(blocks.tolist()))
            stream.write("".join([*(text[a:b] + tx for a, b, tx in pieces), text[cuts[-1]:]]))


def tx_line(tx: Transaction) -> str:
    return _TX_LINE % (tx.id, tx.created_at, tx.sender, tx.op)
