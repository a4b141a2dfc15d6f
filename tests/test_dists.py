"""The numpy draw facts that let the simulator draw a whole update stream at
once and still produce the bytes of one draw per transaction, and the range
of every sample, which the simulator relies on to leave samples unclamped."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from chaintime.chain import SchemaError
from chaintime.dists import Distribution, constant, normal, uniform
from chaintime.rng import substream

KINDS = {
    "constant": constant(4_000),
    "uniform": uniform(500, 6_000),
    "normal": normal(15_190, 2_710, 4_460, 30_310),
    "wide uniform": uniform(0, 1 << 40),
}


# sim.block_schedule's gap chunks: 64 doubling to 65,536, then 65,536 each
SCHEDULE_CHUNKS = (*(64 << k for k in range(11)), 1 << 16)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_vector_draw_equals_single_draws(kind):
    dist = KINDS[kind]
    for sizes in ((1_000, 3_000, 1_000), SCHEDULE_CHUNKS):
        singles_rng, vector_rng = substream(7, "delay/x"), substream(7, "delay/x")
        singles = [dist.sample_one(singles_rng) for _ in range(sum(sizes))]
        chunks = [dist.sample(vector_rng, size) for size in sizes]
        assert np.concatenate(chunks).tolist() == singles
        # both generators are left in the same state
        assert dist.sample_one(singles_rng) == dist.sample_one(vector_rng)


@pytest.mark.parametrize("n", [0, 1])
def test_short_permutation_draws_nothing(n):
    rng = substream(7, "miner/order")
    before = rng.bit_generator.state
    assert rng.permutation(n).tolist() == list(range(n))
    assert rng.bit_generator.state == before


BOUND = (1 << 45) - 1  # the largest parameter magnitude a distribution admits
bounds = st.lists(st.just(0) | st.integers(0, BOUND), min_size=2, max_size=2).map(sorted)
valid_dists = st.one_of(
    st.builds(constant, st.just(0) | st.integers(0, BOUND)),
    bounds.map(lambda b: uniform(*b)),
    st.tuples(st.integers(-BOUND, BOUND), st.integers(0, BOUND), bounds)
    .filter(lambda t: t[2][0] > 0)
    .map(lambda t: normal(t[0], t[1], *t[2])),
)


@given(valid_dists, st.integers(0, 2**32))
@example(KINDS["wide uniform"], 0)
@example(uniform(0, 0), 0)
@example(constant(0), 0)
@example(normal(-BOUND, BOUND, 1, 2), 0)
def test_every_sample_lies_in_its_range(dist, seed):
    samples = dist.sample(substream(seed, "delay/x"), 200)
    assert samples.dtype == np.int64
    if dist.kind == "constant":
        assert (samples == dist.value_ms).all()
    else:
        assert dist.min_ms <= samples.min() and samples.max() <= dist.max_ms
    assert samples.min() >= 0


@pytest.mark.parametrize("kwargs, path", [
    # a parameter that the kind does not take, the first in field order
    ({"kind": "constant", "value_ms": 10_000, "min_ms": 7}, "min_ms"),
    ({"kind": "uniform", "min_ms": 1, "max_ms": 2, "value_ms": -3, "mean_ms": 4}, "value_ms"),
    ({"kind": "normal", "mean_ms": 5, "stddev_ms": 1, "min_ms": 1, "max_ms": 9, "value_ms": 5},
     "value_ms"),
    # a bound that would admit a negative sample
    ({"kind": "constant", "value_ms": -1}, "value_ms"),
    ({"kind": "uniform", "min_ms": -1, "max_ms": 5}, "min_ms"),
    ({"kind": "normal", "mean_ms": 3, "stddev_ms": 1, "min_ms": 0, "max_ms": 5}, "min_ms"),
])
def test_a_parameter_outside_the_kind_or_its_range_is_refused(kwargs, path):
    with pytest.raises(SchemaError) as exc_info:
        Distribution(**kwargs)
    assert exc_info.value.path == path
