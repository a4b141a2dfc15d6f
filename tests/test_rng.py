"""The raw draws that every pinned digest rests on.

The record, report and trace digests pinned in perfbench/pinned.json and in
the tests all follow from numpy's Generator algorithms and default_rng's
seeding, which numpy does not promise to keep across releases (NEP 19).
This pins the sha256 of the first draws of each Generator method the
simulator calls, from its substreams and with the presets' parameters, so
that a changed stream fails here, naming numpy, before the digests built on
it fail all at once.
"""

import hashlib

import numpy as np
import pytest

from chaintime.rng import substream

N = 64  # a block schedule's first chunk of gaps

# (substream of seed 0, method, args): the sha256 of its first N draws' bytes
DRAWS = {
    # invoice-demo's block time, normal(15190, 2710) clamped to [4460, 30310]
    ("chain/block_time", "normal", (15_190, 2_710)):
        "8bf0a479a7065fd750eded4be518a0a45a2c3b85fd428b3af997c12b8be0469d",
    # its mining time, uniform(500, 2500)
    ("chain/mining", "integers", (500, 2_501)):
        "4e569660e0985da58870a40b181bf238f4769edb2744e0b7c28f4b9428f1cded",
    # its inclusion delay, uniform(500, 6000)
    ("delay/mno", "integers", (500, 6_001)):
        "ec16c61586074fba2e6478278e42fa9799adfefb66a1bacbe70e9af99835b592",
    # the mno's claim jitter, uniform(0, 70000)
    ("participant/mno", "integers", (0, 70_001)):
        "34310724e607904f2e060e5a48eebb6edce62a5065eb469e7135af00770d2477",
    # miner clock drift at the fault defaults, [0, 15000]
    ("chain/drift", "integers", (0, 15_001)):
        "2378c57a80f419de9adb2cbbcb94062c1d9e14a87d68e6f4521d6cf95e3ee43b",
    # adversarial_reorder's order of a block's entries
    ("miner/order", "permutation", (N,)):
        "e126e64e998eeb47d8ebf1ff0e70e3ebe7d8926027c0955baffbd0481c541126",
}


def first_draws(stream: str, method: str, args: tuple) -> np.ndarray:
    """The draws as the simulator makes them: integers as int64, N of each."""
    generator = substream(0, stream)
    if method == "permutation":
        return generator.permutation(*args)
    kwargs = {"dtype": np.int64} if method == "integers" else {}
    return getattr(generator, method)(*args, size=N, **kwargs)


@pytest.mark.parametrize("stream, method, args", DRAWS, ids=[f"{s}:{m}" for s, m, _ in DRAWS])
def test_first_draws_of_each_stream_are_pinned(stream, method, args):
    digest = hashlib.sha256(first_draws(stream, method, args).tobytes()).hexdigest()
    assert digest == DRAWS[stream, method, args], (
        f"numpy's stream changed: under numpy {np.__version__} the first {method} draws "
        f"of substream(0, {stream!r}) differ from those numpy 2.4.6 made, so every "
        "pinned digest differs as well"
    )
