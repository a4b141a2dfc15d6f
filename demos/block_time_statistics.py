"""Chain timing basics: sampled block times, inclusion delays, visibility.

Simulates a plain chain (no process contract) under the default clamped
normal block-time distribution and summarizes the timings a contract
would experience.

Run with: python3 demos/block_time_statistics.py
"""

import numpy as np

from chaintime import MeasureKind, NetworkConfig, ScenarioConfig, normal, uniform
from chaintime.sim import run


def main() -> None:
    config = ScenarioConfig(
        name="plain-chain",
        network=NetworkConfig(
            block_time=normal(15_190, 2_710, 4_460, 30_310),
            mining_time=uniform(500, 2_500),
            inclusion_delay=uniform(500, 6_000),
        ),
        horizon_ms=160_000_000,  # a couple of days of chain history
        measures=(MeasureKind.BLOCK_TIMESTAMP,),
    )
    trace = run(config, seed=0)
    gaps = np.diff(trace.chain.timestamps)
    mining = trace.chain.mining_durations[1:]
    print(f"blocks mined: {len(trace.chain)}")
    print(f"block time: mean {gaps.mean():8.1f} ms  sd {gaps.std():7.1f} ms")
    print(f"            min  {gaps.min():8d} ms  max {gaps.max():7d} ms")
    print(f"mining time: mean {mining.mean():7.1f} ms (block visible at s_i + m_i)")
    print()
    print("Every block timestamp is fixed when mining starts, so a transaction")
    print("always lands in a block whose timestamp is at or after its network")
    print("arrival; the gap between creation and that timestamp is its")
    print("inclusion time d_tx.")


if __name__ == "__main__":
    main()
