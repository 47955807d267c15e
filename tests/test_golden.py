"""The canonical ``opencob verify`` reports at seed 42, byte for byte.

The files under ``tests/golden/`` are the stdout of
``opencob verify <suite> --seed 42`` (``--trials 20`` for ``theorem``).
Those under ``tests/golden/rational/`` are the stdout of ``glue`` and
``compose`` with ``--matrix`` at gradings whose degrees are not integers.
A change that alters one of them changes what a seeded run reports, which
is meant to stay fixed across releases.
"""

import random
from pathlib import Path

import pytest

from opencob.cli import main
from opencob.harness import Bounds, lemma_case_instances, random_composable_pair
from opencob.surface import format_surface

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


# ``glue --matrix`` at a rational shift: degrees such as (-7/3, 1) in the
# graded-rank table, one file per handcrafted lemma instance.
GLUE_FLAGS = ["--matrix", "--shift", "1/3,2,-1/2,5", "--parity", "1,0,1,1"]
# ``compose --matrix --preset half`` on seeded random_composable_pair draws.
COMPOSE_BOUNDS = Bounds(max_h=4)
COMPOSE_SEEDS = (9, 23, 36, 45, 63)


def _write(tmp_path, name, surface):
    path = tmp_path / f"{name}.surf"
    path.write_text(format_surface(surface), encoding="utf-8")
    return str(path)


def _lemma_instances():
    return [(f"glue-{case}-{variant}", surface, i1, i2)
            for case, variant, surface, i1, i2 in lemma_case_instances()]


@pytest.mark.parametrize("name,surface,i1,i2", _lemma_instances(),
                         ids=[n for n, *_ in _lemma_instances()])
def test_glue_at_rational_shift_matches_golden(name, surface, i1, i2,
                                               tmp_path, capsys):
    path = _write(tmp_path, name, surface)
    assert main(["glue", path, i1, i2, *GLUE_FLAGS]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / "rational" / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", COMPOSE_SEEDS)
def test_compose_half_matches_golden(seed, tmp_path, capsys):
    fp, f = random_composable_pair(random.Random(seed), COMPOSE_BOUNDS)
    argv = ["compose", _write(tmp_path, "outer", fp), _write(tmp_path, "inner", f),
            "--matrix", "--preset", "half"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    golden = GOLDEN / "rational" / f"compose-half-{seed}.txt"
    assert out == golden.read_text(encoding="utf-8")
