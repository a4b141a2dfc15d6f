"""Sampling distributions for block, mining, and inclusion timings.

All parameters and samples are integer milliseconds. A kind takes the
parameters that PARAMS names and refuses any other that is not 0. Every
sample is 0 or more: a constant draws its value_ms >= 0, and a uniform or a
clipped normal draws from [min_ms, max_ms], where 0 <= min_ms or 0 < min_ms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .chain import SchemaError, _check_bounds

# The parameters each distribution kind takes, all of them required.
PARAMS = {
    "constant": ("value_ms",),
    "uniform": ("min_ms", "max_ms"),
    "normal": ("mean_ms", "stddev_ms", "min_ms", "max_ms"),
}


@dataclass(frozen=True)
class Distribution:
    """constant, uniform(min,max), or clamped normal(mean, stddev, min, max)."""

    kind: str
    value_ms: int = 0
    min_ms: int = 0
    max_ms: int = 0
    mean_ms: int = 0
    stddev_ms: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in PARAMS:
            raise SchemaError("kind", f"unknown distribution kind {self.kind!r}")
        for f in fields(self)[1:]:  # in field order, so the path is deterministic
            if f.name not in PARAMS[self.kind] and getattr(self, f.name):
                raise SchemaError(f.name, f"a {self.kind} distribution takes no {f.name}")
        _check_bounds(self, *PARAMS[self.kind])
        if self.kind == "constant" and self.value_ms < 0:
            raise SchemaError("value_ms", "must be non-negative")
        if self.kind == "uniform" and not 0 <= self.min_ms <= self.max_ms:
            raise SchemaError("min_ms", "uniform needs 0 <= min <= max")
        if self.kind == "normal":
            if self.stddev_ms < 0:
                raise SchemaError("stddev_ms", "must be non-negative")
            if not 0 < self.min_ms <= self.max_ms:
                raise SchemaError("min_ms", "normal needs clamp bounds with 0 < min <= max")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.value_ms, dtype=np.int64)
        if self.kind == "uniform":
            return rng.integers(self.min_ms, self.max_ms + 1, size=size, dtype=np.int64)
        raw = rng.normal(self.mean_ms, self.stddev_ms, size=size)
        return np.clip(np.rint(raw, out=raw), self.min_ms, self.max_ms, out=raw).astype(np.int64)

    def sample_one(self, rng: np.random.Generator) -> int:
        return int(self.sample(rng, 1)[0])


def constant(value_ms: int) -> Distribution:
    return Distribution(kind="constant", value_ms=value_ms)


def uniform(min_ms: int, max_ms: int) -> Distribution:
    return Distribution(kind="uniform", min_ms=min_ms, max_ms=max_ms)


def normal(mean_ms: int, stddev_ms: int, min_ms: int, max_ms: int) -> Distribution:
    return Distribution(
        kind="normal", mean_ms=mean_ms, stddev_ms=stddev_ms, min_ms=min_ms, max_ms=max_ms
    )
