"""The benchmark's output checks pass on real witnesses and reject corrupted
ones.  Run with ``python3 -m pytest perfbench`` from the repository root."""

import dataclasses
import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import opencob  # noqa: E402
from opencob import gluing, harness  # noqa: E402
from opencob.snf import IntMat  # noqa: E402
from opencob.surface import classify_gluing, rank_h  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TENSOR = opencob.PRESET_TENSOR


def flipped(mat, j, i):
    """A copy of ``mat`` with the sign of entry (i, j) flipped."""
    cols = {c: dict(col) for c, col in mat.cols.items()}
    cols[j][i] = -cols[j][i]
    return IntMat(mat.nrows, mat.ncols, cols)


def entries(mat):
    return [(j, i) for j, col in sorted(mat.cols.items()) for i in sorted(col)]


def assert_sign_flips_rejected(iso, h):
    """The check passes the witness and rejects it with one entry's sign
    flipped, unless that flip is itself an isomorphism (a sign change on a
    direct summand), which the library's own full check then confirms."""
    assert checks.check_graded_iso(iso, h) is None
    rejected = 0
    for j, i in entries(iso.matrix):
        bad = dataclasses.replace(iso, matrix=flipped(iso.matrix, j, i))
        if checks.check_graded_iso(bad, h) is None:
            assert opencob.is_graded_iso(bad.matrix, bad.source, bad.target).ok
        else:
            rejected += 1
    assert rejected


def small_pair(seed):
    """A small pair whose composite is connected with two intervals, so
    that its generators tie the whole witness together."""
    rng = random.Random(seed)
    while True:
        fp, f = harness.random_composable_pair(rng, harness.Bounds(max_h=3))
        composite = opencob.compose(fp, f)
        if 3 <= rank_h(fp) + rank_h(f) <= 6 and len(composite.components) == 1 \
                and len(composite.interval_ids()) >= 2:
            return fp, f


def functor_pair(seed):
    rng = random.Random(seed)
    while True:
        f = harness.random_surface(rng, workloads.FUNCTOR_BOUNDS, prefix="f",
                                   all_outgoing=False)
        g = harness.random_surface(rng, workloads.FUNCTOR_BOUNDS, prefix="g",
                                   all_outgoing=False)
        if f.interval_ids() and g.interval_ids() and rank_h(f) and rank_h(g):
            return f, g


def test_h_formula_matches_rank_h():
    rng = random.Random(0)
    for k in range(2000):
        surface = harness.random_surface(rng, harness.Bounds(max_h=12),
                                         all_outgoing=k % 2 == 0)
        assert checks.h_of(surface) == rank_h(surface)


def test_gluing_case_and_shift_table():
    assert checks.CASE_DEGREE_SHIFT == gluing.CASE_DEGREE_SHIFT
    rng = random.Random(1)
    seen = set()
    for _ in range(300):
        surface = harness.random_surface(rng, harness.Bounds(max_h=8),
                                         require_intervals=2)
        for i1, i2 in itertools.permutations(surface.interval_ids(), 2):
            case = checks.gluing_case(surface, i1, i2)
            assert case == classify_gluing(surface, i1, i2)
            seen.add(case)
    assert seen == set(checks.CASE_DEGREE_SHIFT)


def test_side_check_rejects_a_wrong_size():
    fp, f = small_pair(2)
    iso = opencob.compose_iso(fp, f, TENSOR).iso
    h = checks.h_of(opencob.compose(fp, f))
    assert checks.check_graded_iso(iso, h) is None
    assert checks.check_graded_iso(iso, h + 1) is not None


def test_compose_witness_rejects_sign_flips():
    fp, f = small_pair(3)
    iso = opencob.compose_iso(fp, f, TENSOR).iso
    assert_sign_flips_rejected(iso, checks.h_of(opencob.compose(fp, f)))


def test_block_check_rejects_an_entry_moved_out_of_its_block():
    fp, f = small_pair(4)
    iso = opencob.compose_iso(fp, f, TENSOR).iso
    mat = iso.matrix
    j, col = next(iter(mat.cols.items()))
    i = next(iter(col))
    other = next(r for r in range(mat.nrows)
                 if iso.target.degrees[r] != iso.target.degrees[i])
    cols = {c: dict(v) for c, v in mat.cols.items()}
    cols[j][other] = cols[j].pop(i)
    moved = IntMat(mat.nrows, mat.ncols, cols)
    assert checks.check_even_degree_zero(
        moved, iso.source.degrees, iso.source.parities,
        iso.target.degrees, iso.target.parities) is not None


def glue_case(surface, i1, i2):
    res = opencob.self_glue_iso(surface, i1, i2, TENSOR)
    remaining = [s for s in surface.outgoing if s not in (i1, i2)
                 and s in surface.interval_ids()]
    src = {s: opencob.statespace.action_matrix(res.source_space, s)
           for s in remaining + [i1, i2]}
    dst = {s: opencob.statespace.action_matrix(res.target_space, s)
           for s in remaining}
    glued = opencob.glue_intervals(surface, i1, i2).surface

    def run(r):
        return checks.check_glue(r, surface, i1, i2, glued, src, dst)
    return res, run


def test_glue_checks_every_case():
    for case, _, surface, i1, i2 in harness.lemma_case_instances():
        res, run = glue_case(surface, i1, i2)
        assert res.case_tag == case and run(res) is None
        wrong_shift = dataclasses.replace(
            res, degree_shift=1 - checks.CASE_DEGREE_SHIFT[case])
        assert run(wrong_shift) is not None
        other = "1-2" if case != "1-2" else "1-3"
        assert run(dataclasses.replace(res, case_tag=other)) is not None


def test_glue_witness_rejects_every_sign_flip():
    # 2-1a with a third interval: psi must kill E1 + E2 and intertwine E_x
    mk = opencob.BoundaryCircle.mixed
    comp = opencob.Component(0, (mk("i1", "x", "i2", "y"),))
    surface = opencob.SuturedSurface((comp,), (), ("i1", "i2", "x", "y"))
    res, run = glue_case(surface, "i1", "i2")
    assert run(res) is None
    for j, i in entries(res.psi):
        assert run(dataclasses.replace(res, psi=flipped(res.psi, j, i))) is not None


def test_union_and_naturality_witnesses_reject_sign_flips():
    f, g = functor_pair(5)
    h = checks.h_of(f) + checks.h_of(g)
    fs, gs = opencob.build(f, TENSOR), opencob.build(g, TENSOR)
    assert_sign_flips_rejected(opencob.union_iso(fs, gs), h)
    assert_sign_flips_rejected(opencob.naturality_square(fs, gs), h)


def test_structural_witnesses_are_signed_permutations():
    isos = [(opencob.identity_iso(2, TENSOR), 2),
            (opencob.symmetrizer_iso(1, 2, TENSOR), 3),
            (opencob.pants_iso(3, TENSOR), 3)]
    for iso, h in isos:
        assert checks.check_signed_permutation(iso.matrix) is None
        assert_sign_flips_rejected(iso, h)
        j, col = next(iter(iso.matrix.cols.items()))
        i = next(iter(col))
        doubled = {c: dict(v) for c, v in iso.matrix.cols.items()}
        doubled[j][i] *= 2
        assert checks.check_signed_permutation(
            IntMat(iso.matrix.nrows, iso.matrix.ncols, doubled)) is not None
        twice = {c: dict(v) for c, v in iso.matrix.cols.items()}
        twice[j][(i + 1) % iso.matrix.nrows] = 1
        assert checks.check_signed_permutation(
            IntMat(iso.matrix.nrows, iso.matrix.ncols, twice)) is not None


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(spans.PER_LAYER)
