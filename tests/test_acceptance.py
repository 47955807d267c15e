"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` (or via
``opencob verify <suite>`` for the seeded harness form).  Everything here is
exact: integer/rational equality, zero tolerance.
"""

import random
from fractions import Fraction

import pytest

from opencob.grading import (PRESET_HALF, PRESET_TENSOR, ConstraintCoeffs,
                             constraint_residuals, delta_coeffs,
                             solve_constraints)
from opencob.gluing import (CASE_DEGREE_SHIFT, compose_iso, identity_iso,
                            naturality_square, pants_iso, self_glue_iso,
                            symmetrizer_iso)
from opencob.harness import (Bounds, lemma_case_instances,
                             random_composable_pair, random_shift,
                             random_surface)
from opencob.homology import canonical_basis, cw_relative_h1
from opencob.laurent import LaurentPoly
from opencob.statespace import (action_matrix, bimodule_of, build,
                                graded_superdim, reference_dimension_fgp)
from opencob.superalg import GradedIso, SuperAlgebra, regular_bimodule
from opencob.surface import (disjoint_union, rank_h, surface_fgp)

F = Fraction


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"{tag}: criterion {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_theorem_gluing():
    """200 seeded composable pairs, both presets: compose_iso verified."""
    rng = random.Random(42)
    bounds = Bounds(max_h=8)
    failures = []
    ran = 0
    for t in range(200):
        fp, f = random_composable_pair(rng, bounds)
        for grading in (PRESET_TENSOR, PRESET_HALF):
            if not (grading.defined_on(f) and grading.defined_on(fp)):
                continue
            try:
                res = compose_iso(fp, f, grading)
                assert isinstance(res.iso, GradedIso)
                assert res.iso.checks[-1] == "unimodular"
                ran += 1
            except Exception as exc:  # noqa: BLE001 - recorded, then reported
                failures.append((t, grading.describe(), repr(exc)))
    report(1, not failures and ran >= 200,
           f"{ran} verified compositions, {len(failures)} failures")


def test_criterion_2_lemma_cases():
    """Ten handcrafted instances: one per case and S- sub-case."""
    seen = []
    bad = []
    for case, created, surf, i1, i2 in lemma_case_instances():
        res = self_glue_iso(surf, i1, i2, PRESET_TENSOR)
        seen.append((res.case_tag, res.created_sminus_circles))
        ok = (res.case_tag == case
              and res.created_sminus_circles == created
              and res.degree_shift == CASE_DEGREE_SHIFT[case]
              and res.oracle.is_free()
              and res.checks[-1] == "unimodular")
        if not ok:
            bad.append((case, created))
    expected = [("1-1", 1), ("1-2", 0), ("1-3", 1), ("2-1a", 0), ("2-1a", 1),
                ("2-1a", 2), ("2-1b", 2), ("2-2a", 0), ("2-2a", 1), ("2-2b", 1)]
    report(2, seen == expected and not bad, f"cases {seen}")


def test_criterion_3_open_pants():
    """pants_iso verifies the tensor-power identification for p = 0..4."""
    ok = True
    for p in range(5):
        iso = pants_iso(p, PRESET_TENSOR)
        top = iso.source.dim - 1
        ok = ok and isinstance(iso, GradedIso)
        ok = ok and iso.matrix.col(top) in ({0: 1}, {0: -1})
        ok = ok and iso.source.degrees[top] == 0
        if p == 1:
            reg = regular_bimodule(SuperAlgebra(1))
            ok = ok and iso.target.left_actions == reg.left_actions
    report(3, ok)


def test_criterion_4_graded_dimension():
    """superdim(F_{g,p}; half preset) equals the reference polynomial."""
    ok = True
    for g in range(4):
        for p in range(1, 5):
            got = graded_superdim(build(surface_fgp(g, p), PRESET_HALF))
            want = reference_dimension_fgp(g, p)
            ok = ok and got == want and got.exponents_integral()
    report(4, ok)


def test_criterion_5_constraint_system():
    """Solver reproduces the family; 50 on-family and 50 off-family checks."""
    sol = solve_constraints()
    ok = sol.free == (2, 4, 6, 8)
    ok = ok and sol.exprs[0] == (F(0), {8: F(-2)})       # C1 = -2 C9
    ok = ok and sol.exprs[1] == (F(0), {8: F(2)})        # C2 = 2 C9
    ok = ok and sol.exprs[3] == (F(-1), {})              # C4 = -1
    ok = ok and sol.exprs[5] == (F(-1, 2), {8: F(1, 2)})  # C6 = (C9-1)/2
    ok = ok and sol.exprs[7] == (F(0), {8: F(1)})        # C8 = C9
    rng = random.Random(5)
    for _ in range(50):
        coeffs = delta_coeffs(random_shift(rng))
        ok = ok and all(r == 0 for r in constraint_residuals(coeffs))
    pivots = (0, 1, 3, 5, 7)
    for _ in range(50):
        base = sol.sample(*(F(rng.randint(-5, 5), rng.randint(1, 3))
                            for _ in range(4)))
        vec = list(base.c)
        vec[pivots[rng.randrange(5)]] += F(rng.randint(1, 4), rng.randint(1, 2))
        res = constraint_residuals(ConstraintCoeffs(tuple(vec)))
        ok = ok and any(r != 0 for r in res)
    report(5, ok)


def test_criterion_6_algebraic_invariants():
    """E-action relations and additivity on a seeded corpus."""
    rng = random.Random(6)
    ok = True
    for _ in range(25):
        s = random_surface(rng, Bounds(max_h=6), all_outgoing=False)
        space = build(s, PRESET_TENSOR)
        bimodule_of(space)  # squares, anticommutation, commutation, gradings
        ids = list(s.interval_ids())
        for sid in ids:
            mat = action_matrix(space, sid)
            ok = ok and (mat @ mat).is_zero()
        g = random_surface(rng, Bounds(max_h=4), prefix="g", all_outgoing=False)
        u = disjoint_union(s, g)
        ok = ok and (PRESET_TENSOR.delta(u)
                     == PRESET_TENSOR.delta(s) + PRESET_TENSOR.delta(g))
        ok = ok and (PRESET_TENSOR.pi(u)
                     == (PRESET_TENSOR.pi(s) + PRESET_TENSOR.pi(g)) % 2)
        su = graded_superdim(build(u, PRESET_TENSOR))
        ok = ok and su == (graded_superdim(space)
                           * graded_superdim(build(g, PRESET_TENSOR)))
    report(6, ok)


def test_criterion_7_open_tqft():
    """Identity -> regular, symmetrizer -> Koszul swap, naturality squares."""
    ok = True
    for m in (1, 2, 3):
        ok = ok and isinstance(identity_iso(m, PRESET_TENSOR), GradedIso)
    for m1, m2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
        ok = ok and isinstance(symmetrizer_iso(m1, m2, PRESET_TENSOR), GradedIso)
    rng = random.Random(7)
    small = Bounds(max_components=1, max_genus=1, max_circles=2,
                   max_arcs=2, max_h=3)
    pairs = 0
    while pairs < 20:
        f = random_surface(rng, small, prefix="f", all_outgoing=False)
        g = random_surface(rng, small, prefix="g", all_outgoing=False)
        iso = naturality_square(build(f, PRESET_TENSOR), build(g, PRESET_TENSOR))
        ok = ok and isinstance(iso, GradedIso)
        pairs += 1
    report(7, ok, f"{pairs} naturality squares")


def test_criterion_8_homology_oracle():
    """100 random surfaces: CW SNF rank equals the count formula, no torsion."""
    rng = random.Random(8)
    ok = True
    for _ in range(100):
        s = random_surface(rng, Bounds(max_h=8))
        rank, factors = cw_relative_h1(s)
        ok = ok and rank == rank_h(s)
        ok = ok and all(d == 1 for d in factors)
        ok = ok and len(canonical_basis(s)) == rank
    report(8, ok)
