"""One seeded run of the invoicing choreography, narrated decision by decision.

The process starts on the 1st of the month, sends an invoice, then races a
seven-day overdue timer against customer messages; after a complaint it
enters a daily patience cycle. Every temporal guard decision is shown with
its ground truth classification.

Run with: python3 demos/invoice_walkthrough.py [measure]
"""

import sys
from datetime import datetime, timezone

from chaintime import MeasureKind, Outcome
from chaintime.scenario import invoice_demo_scenario
from chaintime.sim import run


def show(ms) -> str:
    if ms is None:
        return "-"
    return datetime.fromtimestamp(ms / 1_000, tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M:%S"
    )


def main() -> None:
    measure = MeasureKind(sys.argv[1]) if len(sys.argv) > 1 else MeasureKind.BLOCK_TIMESTAMP
    config = invoice_demo_scenario()
    trace = run(config, seed=0, measure=measure)
    print(f"measure: {measure.value}, seed 0, {len(trace.chain)} blocks simulated\n")
    for record in trace.records:
        verdict = record.outcome.value
        if record.constraint_type == "deferred_choice":
            print(
                f"[{verdict:>5}] gateway {record.element}: applied winner "
                f"{record.winner!r}, ground-truth winner {record.truth_winner!r}"
            )
        elif record.required_delta_ms is not None:
            print(
                f"[{verdict:>5}] {record.element} ({record.constraint_type}): "
                f"measured delta {record.measured_ms} ms vs required "
                f"{record.required_delta_ms} ms (truth {record.ground_truth_ms} ms)"
                + (f", iteration {record.iteration}" if record.iteration is not None else "")
            )
        else:
            print(
                f"[{verdict:>5}] {record.element} ({record.constraint_type}): "
                f"deadline {show(record.deadline_ms)}, measured {show(record.measured_ms)}, "
                f"created {show(record.ground_truth_ms)}"
            )
    stuck = sum(record.outcome is Outcome.STUCK_PENDING for record in trace.records)
    if stuck:
        print(f"\n{stuck} guard(s) still pending at the horizon")


if __name__ == "__main__":
    main()
