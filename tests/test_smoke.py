"""Smoke tests: the demos run at their smallest size, the public names resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaintime

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# the smallest argument list of each demo
DEMO_ARGS = {
    "block_time_statistics.py": [],
    "invoice_walkthrough.py": [],
    "measure_accuracy.py": ["1"],
    "timer_parsing.py": [],
}


def test_every_demo_has_a_smoke_size():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_ARGS)


@pytest.mark.parametrize("demo", sorted(DEMO_ARGS))
def test_demo_exits_zero(demo):
    src = str(Path(chaintime.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo), *DEMO_ARGS[demo]],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_public_names_resolve():
    missing = [name for name in chaintime.__all__ if not hasattr(chaintime, name)]
    assert missing == []
