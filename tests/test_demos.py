"""Each demo prints exactly its saved output.

The files under ``tests/golden/demos/`` are the stdout of
``PYTHONPATH=src python demos/<name>.py``.  The demos print witness
matrices (pants, identity, symmetrizer) and gluing tables, so a change
that rewrites how they are built must leave these bytes alone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def test_every_demo_has_a_golden():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                         capture_output=True, check=True).stdout
    assert out == (GOLDEN / f"{demo.stem}.txt").read_bytes()
