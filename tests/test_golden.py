"""The canonical ``opencob verify`` reports at seed 42, byte for byte.

The files under ``tests/golden/`` are the stdout of
``opencob verify <suite> --seed 42`` (``--trials 20`` for ``theorem``).
A change that alters one of them changes what a seeded run reports, which
is meant to stay fixed across releases.
"""

from pathlib import Path

import pytest

from opencob.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUNS = {
    "constraints": [],
    "corollary": [],
    "dimensions": [],
    "homology-oracle": [],
    "lemma-cases": [],
    "pants": [],
    "theorem": ["--trials", "20"],
}


def test_every_golden_file_has_a_run():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(RUNS)


@pytest.mark.parametrize("suite", sorted(RUNS))
def test_report_matches_golden(suite, capsys):
    assert main(["verify", suite, "--seed", "42", *RUNS[suite]]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{suite}.txt").read_text(encoding="utf-8")
