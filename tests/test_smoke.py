"""Smoke tests: the demos run at their smallest size, the public names resolve."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chaintime

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

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


def test_readme_line_counts_match_the_sources():
    # "`src/chaintime` is N lines: `sim.py` N, ... and `rng.py` N."
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(r"`src/chaintime` is ([\d,]+) lines: (.*?)\.(?:\s|$)", readme, re.S)
    total, sizes = (s.replace(",", "") for s in sentence.groups())
    stated = {name: int(n) for name, n in re.findall(r"`(\w+\.py)` (\d+)", sizes)}
    sources = ROOT / "src" / "chaintime"
    actual = {path.name: len(path.read_text().splitlines()) for path in sources.glob("*.py")}
    assert stated == actual
    assert int(total) == sum(actual.values())
