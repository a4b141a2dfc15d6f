"""Golden slice: the first pinned item of three benchmark workloads, recomputed.

Each item's output digests (records, csv, markdown, trace export) and counts
must equal the values in perfbench/pinned.json, and its guard records must
satisfy the paper's range invariants. perfbench/pin.py checks every pooled
item; this slice keeps a cheap part of that check in the test suite.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

PINNED = json.loads((PERFBENCH / "pinned.json").read_text())


@pytest.mark.parametrize("name", ["race-sweep", "invoice-sweep", "trace-export"])
def test_first_pinned_item_reproduces(name):
    result = workloads.WORKLOADS[name]().run_item(0)
    expected = PINNED[name]["default"]["0"]
    assert result.problems == []
    assert result.digests == expected["digests"]
    assert result.counts == expected["counts"]
