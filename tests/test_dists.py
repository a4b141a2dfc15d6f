"""The numpy draw facts that let the simulator draw a whole update stream at
once and still produce the bytes of one draw per transaction."""

import numpy as np
import pytest

from chaintime.dists import constant, normal, uniform
from chaintime.rng import substream

KINDS = {
    "constant": constant(4_000),
    "uniform": uniform(500, 6_000),
    "normal": normal(15_190, 2_710, 4_460, 30_310),
    "wide uniform": uniform(0, 1 << 40),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_vector_draw_equals_single_draws(kind):
    dist = KINDS[kind]
    singles_rng, vector_rng = substream(7, "delay/x"), substream(7, "delay/x")
    singles = [dist.sample_one(singles_rng) for _ in range(5_000)]
    chunks = [dist.sample(vector_rng, size) for size in (1_000, 3_000, 1_000)]
    assert np.concatenate(chunks).tolist() == singles
    # both generators are left in the same state
    assert dist.sample_one(singles_rng) == dist.sample_one(vector_rng)


@pytest.mark.parametrize("n", [0, 1])
def test_short_permutation_draws_nothing(n):
    rng = substream(7, "miner/order")
    before = rng.bit_generator.state
    assert rng.permutation(n).tolist() == list(range(n))
    assert rng.bit_generator.state == before
