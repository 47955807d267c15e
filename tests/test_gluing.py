import dataclasses
import gc
import random
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce

import pytest

import opencob.gluing as gluing
from opencob.grading import (PRESET_HALF, PRESET_TENSOR, Grading,
                             ParityParams, ShiftParams)
from opencob.gluing import (CASE_DEGREE_SHIFT, ConventionMismatch,
                            ParameterConstraintViolated, QuotientOracle,
                            WedgeMap, _monomial_actions,
                            certify_unimodular, compose_iso,
                            identity_iso, naturality_square, pants_iso,
                            quotient_oracle, self_glue_iso, symmetrizer_iso,
                            union_iso)
from opencob.harness import (Bounds, lemma_case_instances,
                             random_composable_pair, random_surface)
from opencob.homology import H1Basis, adapted_basis, change_of_basis
from opencob.snf import IntMat, smith
from opencob.statespace import action_matrix, bimodule_of, build, graded_superdim
from opencob.superalg import (Bimodule, GradedIso, Grades, SuperAlgebra,
                              TensorResult, bits, external_tensor,
                              is_graded_iso, regular_bimodule)
from opencob.surface import (BoundaryCircle, Component, NotOutgoing,
                             SuturedSurface, compose, disjoint_union,
                             identity_cobordism, open_pants, rank_h)

F = Fraction
mk = BoundaryCircle.mixed


def surf(comps):
    comps = tuple(comps)
    ids = tuple(i for c in comps for b in c.circles for i in b.plus_ids())
    return SuturedSurface(comps, (), ids)


GENERIC = Grading(ShiftParams(F(1, 3), 2, F(-1, 2), 5), ParityParams(1, 0, 1, 1))


def quotient_representatives(res, i1, i2):
    """The surviving adapted monomials and q, their columns in Z(F)."""
    space = res.source_space
    adapted = adapted_basis(space.surface, i1, i2)
    if res.case_tag in ("1-1", "2-1b", "2-2b"):
        survivors = list(space.monomials)
    else:
        survivors = [m for m in space.monomials if m & 1]
    from_adapted = WedgeMap(change_of_basis(adapted.basis, space.basis))
    q = IntMat(space.dim, len(survivors))
    for jq, amask in enumerate(survivors):
        q.set_col(jq, {space.index[m]: c
                       for m, c in from_adapted.expand(amask).items()})
    return survivors, q


def explicit_quotient_iso(res, i1, i2):
    """Reference check of a self-gluing, independent of its certificate.

    Builds Z(F)/im(E1+E2) as a bimodule on the surviving adapted monomials:
    the remaining generators act on q and are reduced back onto q modulo the
    relations by one Smith normal form of [q | E1+E2].  Then psi @ q must be
    a graded bimodule isomorphism onto Z(F-bar).
    """
    space, target = res.source_space, res.target_space
    rel = gluing._relation_matrix(space, i1, i2)
    survivors, q = quotient_representatives(res, i1, i2)
    stacked = IntMat(space.dim, q.ncols + rel.ncols)
    for j, col in q.cols.items():
        stacked.set_col(j, dict(col))
    for j, col in rel.cols.items():
        stacked.set_col(q.ncols + j, dict(col))
    sf = smith(stacked, want_u=True, want_v=True)

    def reduce_to_quotient(vec):
        y = {}
        for i, val in sf.u.apply(vec).items():
            assert i < sf.rank and val % sf.diag[i] == 0, "not in span(q) + im(E1+E2)"
            y[i] = val // sf.diag[i]
        return {k: v for k, v in sf.v.apply(y).items() if k < q.ncols}

    surface = space.surface
    remaining = [s for s in surface.outgoing if s not in (i1, i2)
                 and surface.is_interval(s)]
    lefts = []
    for sid in remaining:
        e_mat = action_matrix(space, sid)
        act = IntMat(len(survivors), len(survivors))
        for jq in range(len(survivors)):
            act.set_col(jq, reduce_to_quotient(e_mat.apply(q.col(jq))))
        lefts.append(act)
    quotient = Bimodule(SuperAlgebra(len(remaining)), SuperAlgebra(0),
                        space.grades.select([space.index[m] for m in survivors]),
                        lefts, [], label="Z(F)/im(E1+E2)")
    return is_graded_iso(res.psi @ q, quotient, bimodule_of(target))


class TestSelfGlue:
    @pytest.mark.parametrize("case,created,s,i1,i2", [
        (c, n, s, a, b) for c, n, s, a, b in lemma_case_instances()])
    def test_all_cases(self, case, created, s, i1, i2):
        for grading in (PRESET_TENSOR, GENERIC):
            res = self_glue_iso(s, i1, i2, grading)
            assert res.case_tag == case
            assert res.created_sminus_circles == created
            assert res.degree_shift == CASE_DEGREE_SHIFT[case]
            assert res.parity_shift == (rank_h(s) - rank_h(res.target_space.surface)) % 2
            assert res.checks[-1] == "unimodular"
            assert isinstance(explicit_quotient_iso(res, i1, i2), GradedIso)

    @pytest.mark.parametrize("case,created,s,i1,i2", [
        (c, n, s, a, b) for c, n, s, a, b in lemma_case_instances()])
    def test_certificate_refuses_a_doubled_column(self, case, created, s, i1, i2):
        res = self_glue_iso(s, i1, i2, GENERIC)
        survivors, q = quotient_representatives(res, i1, i2)
        space = res.source_space
        cols = space.grades.select([space.index[m] for m in survivors])
        rows = res.target_space.grades
        certify_unimodular(res.psi @ q, cols, rows, case)
        j = len(survivors) - 1
        q.set_col(j, {i: 2 * v for i, v in q.col(j).items()})
        with pytest.raises(ConventionMismatch, match="not unimodular"):
            certify_unimodular(res.psi @ q, cols, rows, case)

    def test_certificate_refuses_a_missing_column(self):
        s = surf([Component(0, (mk("i1", "x", "i2", "y"),))])
        res = self_glue_iso(s, "i1", "i2", PRESET_TENSOR)
        survivors, q = quotient_representatives(res, "i1", "i2")
        space = res.source_space
        cols = space.grades.select([space.index[m] for m in survivors[:-1]])
        short = q.submatrix(range(q.nrows), range(q.ncols - 1))
        with pytest.raises(ConventionMismatch, match="sizes"):
            certify_unimodular(res.psi @ short, cols, res.target_space.grades,
                               res.case_tag)

    def test_certificate_refuses_a_column_leaving_its_block(self):
        # unimodular, with equal block sizes, but column 1 (word 1, odd)
        # reaches row 0 (word 0, even)
        grades = Grades(0, [0, 1], [0, 1])
        phi = IntMat(2, 2, {0: {0: 1}, 1: {0: 1, 1: 1}})
        certify_unimodular(IntMat.identity(2), grades, grades, "1-1")
        with pytest.raises(ConventionMismatch,
                           match="case 1-1: psi on the quotient basis leaves "
                                 "column 1's block"):
            certify_unimodular(phi, grades, grades, "1-1")

    def test_case_2_1b_relations_vanish(self):
        s = surf([Component(0, (mk("i1", "i2"),))])
        res = self_glue_iso(s, "i1", "i2", PRESET_TENSOR)
        assert gluing._relation_matrix(res.source_space, "i1", "i2").is_zero()
        # quotient is the whole space
        assert len(res.quotient_basis) == res.source_space.dim

    def test_case_1_2_quotient_basis(self):
        s = surf([Component(0, (mk("i1", "u"),)), Component(0, (mk("i2"),))])
        res = self_glue_iso(s, "i1", "i2", PRESET_TENSOR)
        assert res.case_tag == "1-2"
        # surviving monomials are exactly those divisible by the adapted arc e1
        assert len(res.quotient_basis) == res.source_space.dim // 2
        assert all("i1" in label for label in res.quotient_basis)

    def test_two_disk_gluing_rank_one(self):
        s = surf([Component(0, (mk("i1"),)), Component(0, (mk("i2"),))])
        res = self_glue_iso(s, "i1", "i2", PRESET_TENSOR)
        assert res.case_tag == "1-1"
        assert res.source_space.dim == 1 and res.target_space.dim == 1
        assert res.degree_shift == 0

    def test_sigma_sign_flag(self):
        s = surf([Component(0, (mk("i1", "x", "i2", "y"),))])
        for sign in (1, -1):
            res = self_glue_iso(s, "i1", "i2", PRESET_TENSOR, sigma_sign=sign)
            assert isinstance(explicit_quotient_iso(res, "i1", "i2"), GradedIso)

    def test_requires_all_outgoing(self):
        s = SuturedSurface((Component(0, (mk("i1", "i2", "z"),)),),
                           ("z",), ("i1", "i2"))
        with pytest.raises(NotOutgoing):
            self_glue_iso(s, "i1", "i2", PRESET_TENSOR)

    def test_random_self_gluings(self):
        rng = random.Random(12)
        done = 0
        cases = set()
        while done < 25:
            s = random_surface(rng, Bounds(max_h=6))
            ids = list(s.interval_ids())
            if len(ids) < 2:
                continue
            i1, i2 = rng.sample(ids, 2)
            grading = PRESET_TENSOR if done % 2 else GENERIC
            res = self_glue_iso(s, i1, i2, grading)
            cases.add(res.case_tag)
            done += 1
        assert len(cases) >= 4

    def test_half_preset_when_defined(self):
        s = surf([Component(0, (mk("i1", "x", "i2", "y"),))])
        # k6 = 4, 2*(k8+k9) = 2 -> undefined; pick a defined instance instead
        s2 = surf([Component(0, (mk("i1", "i2"),))])
        assert PRESET_HALF.defined_on(s2)
        res = self_glue_iso(s2, "i1", "i2", PRESET_HALF)
        assert res.case_tag == "2-1b"


class TestQuotientOracle:
    def test_case_2_1b_full_rank(self):
        s = surf([Component(0, (mk("i1", "i2"),))])
        space = build(s, PRESET_TENSOR)
        oracle = quotient_oracle(space, "i1", "i2")
        assert sum(v[2] for v in oracle.blocks.values()) == space.dim
        assert all(rel == 0 for _, rel, _ in oracle.blocks.values())

    def test_identity_pair_rank_two(self):
        # two rectangles glued along one strand leave the regular bimodule
        u = disjoint_union(identity_cobordism(["a"]), identity_cobordism(["b"]))
        all_out = SuturedSurface(u.components, (), u.splus_ids())
        space = build(all_out, PRESET_TENSOR)
        oracle = quotient_oracle(space, "a.in", "b.out")
        assert sum(v[2] for v in oracle.blocks.values()) == 2
        assert oracle.is_free()

    def test_factors_unit_on_corpus(self):
        rng = random.Random(7)
        done = 0
        while done < 20:
            s = random_surface(rng, Bounds(max_h=6))
            ids = list(s.interval_ids())
            if len(ids) < 2:
                continue
            i1, i2 = rng.sample(ids, 2)
            oracle = quotient_oracle(build(s, PRESET_TENSOR), i1, i2)
            assert oracle.is_free()
            done += 1


class TestCorruptedInputs:
    """Each test corrupts only what one verdict site reads and expects that
    site's ConventionMismatch."""

    S = surf([Component(0, (mk("i1", "x", "i2", "y"),))])   # case 2-1a

    def corrupt_oracle(self, monkeypatch, corrupt):
        honest = gluing.quotient_oracle
        assert self_glue_iso(self.S, "i1", "i2", PRESET_TENSOR).oracle.is_free()
        monkeypatch.setattr(gluing, "quotient_oracle",
                            lambda *args: corrupt(honest(*args)))

    def test_quotient_torsion(self, monkeypatch):
        self.corrupt_oracle(monkeypatch, lambda oracle: QuotientOracle(
            oracle.offset, oracle.blocks, [2]))
        with pytest.raises(ConventionMismatch, match=r"quotient has torsion \[2\]"):
            self_glue_iso(self.S, "i1", "i2", PRESET_TENSOR)

    def test_oracle_ranks(self, monkeypatch):
        def shifted(oracle):
            key = next(k for k, v in oracle.blocks.items() if v[2])
            dim, rank, coker = oracle.blocks[key]
            blocks = {**oracle.blocks, key: (dim, rank - 1, coker + 1)}
            return QuotientOracle(oracle.offset, blocks, oracle.factors)

        self.corrupt_oracle(monkeypatch, shifted)
        with pytest.raises(ConventionMismatch, match="quotient ranks .* != target"):
            self_glue_iso(self.S, "i1", "i2", PRESET_TENSOR)

    def test_parity_shift(self, monkeypatch):
        # the glued space's prefactor parity is flipped; nothing else changes
        honest = gluing.build
        space = honest(self.S, PRESET_TENSOR)
        self_glue_iso(space, "i1", "i2")

        def flipped(*args):
            target = honest(*args)
            return dataclasses.replace(target, parity0=target.parity0 ^ 1)

        monkeypatch.setattr(gluing, "build", flipped)
        with pytest.raises(ConventionMismatch, match="case 2-1a: parity shift 0"):
            self_glue_iso(space, "i1", "i2")

    def corrupt_target(self, monkeypatch, corrupt):
        # the glued space that ``self_glue_iso`` builds, corrupted
        honest = gluing.build
        space = honest(self.S, PRESET_TENSOR)
        self_glue_iso(space, "i1", "i2")
        monkeypatch.setattr(gluing, "build",
                            lambda *args: corrupt(honest(*args)))
        return space

    def test_degree_shift(self, monkeypatch):
        # the glued space's delta is one more; its grades are untouched
        space = self.corrupt_target(monkeypatch, lambda target: dataclasses.replace(
            target, delta=target.delta + 1))
        shift = CASE_DEGREE_SHIFT["2-1a"]
        with pytest.raises(ConventionMismatch,
                           match=f"case 2-1a: degree shift {shift + 1}, "
                                 f"expected {shift}$"):
            self_glue_iso(space, "i1", "i2")

    def test_psi_even_of_degree_zero(self, monkeypatch):
        # the glued space's grades sit one degree higher, its delta does
        # not: psi now lowers the degree by one (the certificate's block
        # sizes would refuse it next)
        def raised(target):
            g = target.grades
            return dataclasses.replace(
                target, grades=Grades(g.offset + 1, g.words, g.parities))

        space = self.corrupt_target(monkeypatch, raised)
        with pytest.raises(ConventionMismatch,
                           match=r"case 2-1a: psi is not even of degree zero "
                                 r"\(column \d+\)"):
            self_glue_iso(space, "i1", "i2")

    def test_map_kills_the_relations(self, monkeypatch):
        # E1+E2 gains the unit column on a monomial that psi does not kill
        honest = gluing._relation_matrix
        space = build(self.S, PRESET_TENSOR)
        j = next(iter(self_glue_iso(space, "i1", "i2").psi.cols))
        unit = IntMat(space.dim, space.dim, {j: {j: 1}})
        monkeypatch.setattr(gluing, "_relation_matrix",
                            lambda *args: honest(*args) + unit)
        with pytest.raises(ConventionMismatch,
                           match=r"case 2-1a: map does not kill im\(E1\+E2\)"):
            self_glue_iso(space, "i1", "i2")

    def test_remaining_generator_intertwines(self, monkeypatch):
        # E_x on the glued space gains a unit entry on a row that psi hits;
        # the source's E_x and the relations are untouched
        honest = gluing.action_matrix
        space = build(self.S, PRESET_TENSOR)
        psi = self_glue_iso(space, "i1", "i2").psi
        r = next(iter(psi.cols[next(iter(psi.cols))]))
        unit = IntMat(psi.nrows, psi.nrows, {r: {r: 1}})

        def perturbed(sp, sid):
            act = honest(sp, sid)
            return act + unit if sp is not space and sid == "x" else act

        monkeypatch.setattr(gluing, "action_matrix", perturbed)
        with pytest.raises(ConventionMismatch,
                           match="case 2-1a: E_x does not intertwine"):
            self_glue_iso(space, "i1", "i2")

    def test_remaining_generator_anticommutes_with_the_relations(self, monkeypatch):
        # E_x gains rel @ U: psi kills rel, so E_x still intertwines, but
        # E_x rel + rel E_x = rel U rel is not zero
        honest = gluing.action_matrix
        space = build(self.S, PRESET_TENSOR)
        self_glue_iso(space, "i1", "i2")
        rel = honest(space, "i1") + honest(space, "i2")
        rows = {r for col in rel.cols.values() for r in col}
        unit = IntMat(space.dim, space.dim,
                      {min(rows): {next(iter(rel.cols)): 1}})
        assert not (rel @ unit @ rel).is_zero()
        bump = rel @ unit

        def bumped(sp, sid):
            act = honest(sp, sid)
            return act + bump if sp is space and sid == "x" else act

        monkeypatch.setattr(gluing, "action_matrix", bumped)
        with pytest.raises(ConventionMismatch,
                           match="E_x does not anticommute with E1\\+E2"):
            self_glue_iso(space, "i1", "i2")

    def test_balancing_relations(self, monkeypatch):
        # one more relation column, which chi maps onto a basis element
        honest = gluing.tensor_middle

        def extra(*args, **kwargs):
            t = honest(*args, **kwargs)
            rel = IntMat(t.relations.nrows, t.relations.ncols + 1,
                         dict(t.relations.cols))
            rel.set_col(t.relations.ncols, dict(t.section.col(0)))
            return TensorResult(t.bimodule, t.projection, t.section, rel)

        fp, f = identity_cobordism(["b"]), identity_cobordism(["a"])
        compose_iso(fp, f, PRESET_TENSOR)
        monkeypatch.setattr(gluing, "tensor_middle", extra)
        with pytest.raises(ConventionMismatch,
                           match="does not kill the balancing relations"):
            compose_iso(fp, f, PRESET_TENSOR)

    def test_composed_basis(self, monkeypatch):
        # the composite's own space comes on its canonical basis reversed
        fp = open_pants(2)
        f = disjoint_union(identity_cobordism(["a"]), identity_cobordism(["b"]))
        composed = compose(fp, f)
        compose_iso(fp, f, PRESET_TENSOR)
        honest = gluing.build

        def reversed_basis(surface, grading, basis=None):
            space = honest(surface, grading, basis)
            if surface != composed:
                return space
            elements = space.basis.elements
            assert len(elements) == 2
            return honest(surface, grading,
                          H1Basis(space.basis.model, elements[::-1]))

        monkeypatch.setattr(gluing, "build", reversed_basis)
        with pytest.raises(ConventionMismatch,
                           match="composed basis differs from the canonical basis"):
            compose_iso(fp, f, PRESET_TENSOR)


def three_identities():
    return disjoint_union(disjoint_union(identity_cobordism(["a"]),
                                         identity_cobordism(["b"])),
                          identity_cobordism(["c"]))


class TestComposeIso:
    def test_identity_composition(self):
        res = compose_iso(identity_cobordism(["b"]), identity_cobordism(["a"]),
                          PRESET_TENSOR)
        assert isinstance(res.iso, GradedIso)
        assert res.iso.source.dim == 2
        assert str(res.superdim()) == "1 - t^-1"

    def test_pants_against_two_identities(self):
        ii = disjoint_union(identity_cobordism(["a"]), identity_cobordism(["b"]))
        res = compose_iso(open_pants(2), ii, PRESET_TENSOR)
        assert res.iso.source.dim == 4
        p2 = build(open_pants(2), PRESET_TENSOR)
        assert res.superdim() == graded_superdim(p2)

    def test_matches_surface_compose(self):
        rng = random.Random(21)
        fp, f = random_composable_pair(rng, Bounds(max_h=5))
        res = compose_iso(fp, f, PRESET_TENSOR)
        composed = compose(fp, f)
        assert res.composed_space.surface.components == composed.components

    def test_order_independence(self):
        rng = random.Random(33)
        found = 0
        while found < 3:
            fp, f = random_composable_pair(rng, Bounds(max_h=5))
            if len(f.outgoing) < 2:
                continue
            k = len(f.outgoing)
            r1 = compose_iso(fp, f, PRESET_TENSOR)
            r2 = compose_iso(fp, f, PRESET_TENSOR, order=reversed(range(k)))
            assert isinstance(r1.iso, GradedIso) and isinstance(r2.iso, GradedIso)
            assert r1.superdim() == r2.superdim()
            found += 1

    @pytest.mark.parametrize("order", [[5], [0, 0], [], [2.0, 0, 1]])
    def test_order_must_be_a_permutation(self, order):
        fp, f = open_pants(3), three_identities()
        with pytest.raises(ValueError, match=r"order must be a permutation of "
                                             r"range\(3\)"):
            compose_iso(fp, f, PRESET_TENSOR, order=order)

    def test_step_results_die_before_the_next_gluing(self, monkeypatch):
        honest = gluing.self_glue_iso
        results, alive = [], []

        def tracked(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in results))
            res = honest(*args, **kwargs)
            results.append(weakref.ref(res))
            return res

        monkeypatch.setattr(gluing, "self_glue_iso", tracked)
        res = compose_iso(open_pants(3), three_identities(), PRESET_TENSOR)
        gc.collect()
        assert alive == [0, 0, 0]
        assert all(ref() is None for ref in results)
        assert res.step_checks == [gluing.GlueIsoResult.checks] * 3

    def test_relations_die_before_the_final_bimodule(self, monkeypatch):
        # the balancing relations are dropped once chi kills them, before
        # the composed surface's bimodule is built and the iso verified
        honest_tensor, honest_bimodule = gluing.tensor_middle, gluing.bimodule_of
        relations, alive = [], []

        class Tracked(IntMat):
            pass                     # a subclass has a __weakref__ slot

        def tracked_tensor(x, y):
            t = honest_tensor(x, y)
            rel = Tracked(t.relations.nrows, t.relations.ncols, t.relations.cols)
            relations.append(weakref.ref(rel))
            return TensorResult(t.bimodule, t.projection, t.section, rel)

        def tracked_bimodule(space):
            gc.collect()
            alive.append(sum(ref() is not None for ref in relations))
            return honest_bimodule(space)

        monkeypatch.setattr(gluing, "tensor_middle", tracked_tensor)
        monkeypatch.setattr(gluing, "bimodule_of", tracked_bimodule)
        res = compose_iso(open_pants(3), three_identities(), PRESET_TENSOR)
        assert isinstance(res.iso, GradedIso)
        # two factor bimodules before the tensor product, the final one after
        assert len(relations) == 1 and alive == [0, 0, 0]

    def test_random_pairs_both_presets(self):
        rng = random.Random(42)
        for _ in range(8):
            fp, f = random_composable_pair(rng, Bounds(max_h=6))
            for grading in (PRESET_TENSOR, PRESET_HALF):
                if not (grading.defined_on(f) and grading.defined_on(fp)):
                    continue
                res = compose_iso(fp, f, grading)
                assert isinstance(res.iso, GradedIso)
                assert res.iso.checks[-1] == "unimodular"
                assert all(c[-1] == "unimodular" for c in res.step_checks)
                assert res.superdim() == res.iso.source.superdim()

    def test_generic_params(self):
        rng = random.Random(5)
        fp, f = random_composable_pair(rng, Bounds(max_h=5))
        res = compose_iso(fp, f, GENERIC)
        assert isinstance(res.iso, GradedIso)

    def test_empty_interface_is_disjoint_union(self):
        f = surf([Component(1, (mk("a", "b"),))])
        f = SuturedSurface(f.components, ("a", "b"), ())
        fp = surf([Component(0, (mk("x"),))])
        res = compose_iso(fp, f, PRESET_TENSOR)
        assert isinstance(res.iso, GradedIso)
        assert res.case_tags == []
        u = disjoint_union(fp, f)
        assert res.superdim() == graded_superdim(build(u, PRESET_TENSOR))


class TestWorkingSet:
    """compose_iso's traced memory on one fixed pair with h_p + h_f = 12: a
    genus-5 surface with one incoming interval, after a planar surface with
    one interval on each side.  Under Python 3.11 the second call peaks at
    4.36 MB above its start and its result keeps 0.78 MB.  A result that
    keeps every gluing step's result and the whole tensor product, with the
    tensor built before the gluings, reads 6.28 MB and 3.78 MB; spaces that
    also cache their E-actions and gluings that keep their wedge-map memos
    to the end read 9.22 MB and 4.80 MB.  The bounds allow 25% more."""

    FP = SuturedSurface((Component(5, (mk("p1"),)),), ("p1",), ())
    F = SuturedSurface((Component(0, (mk("f1"), mk("f2"))),), ("f2",), ("f1",))
    PEAK_MB, RETAINED_MB = 4.36, 0.78

    def test_peak_and_retained_size(self):
        assert rank_h(self.FP) + rank_h(self.F) == 12
        # the first call builds the per-rank tables, which every later call
        # shares
        compose_iso(self.FP, self.F, PRESET_TENSOR)
        gc.collect()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = compose_iso(self.FP, self.F, PRESET_TENSOR)
            retained, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            if not tracing:
                tracemalloc.stop()
        assert isinstance(res.iso, GradedIso)
        assert peak < 1.25e6 * self.PEAK_MB, f"peak {peak / 1e6:.2f} MB"
        assert retained < 1.25e6 * self.RETAINED_MB, \
            f"retained {retained / 1e6:.2f} MB"


class TestPantsIso:
    @pytest.mark.parametrize("p", range(5))
    def test_verified(self, p):
        iso = pants_iso(p, PRESET_TENSOR)
        assert isinstance(iso, GradedIso)
        assert "unimodular" in iso.checks

    def test_top_monomial_to_unit(self):
        for p in range(5):
            iso = pants_iso(p, PRESET_TENSOR)
            col = iso.matrix.col(iso.source.dim - 1)
            assert col in ({0: 1}, {0: -1})
            assert iso.source.degrees[iso.source.dim - 1] == 0

    def test_p1_is_regular(self):
        from opencob.superalg import SuperAlgebra, regular_bimodule
        iso = pants_iso(1, PRESET_TENSOR)
        reg = regular_bimodule(SuperAlgebra(1))
        assert iso.target.left_actions == reg.left_actions
        assert iso.target.right_actions == reg.right_actions

    def test_size_budget(self, monkeypatch):
        import opencob.gluing as gluing_module

        def refuse(*args):
            raise AssertionError("open_pants must not run")
        monkeypatch.setattr(gluing_module, "open_pants", refuse)
        with pytest.raises(ParameterConstraintViolated, match="exceeds 13"):
            pants_iso(14, PRESET_TENSOR)

    def test_parameter_constraints(self):
        with pytest.raises(ParameterConstraintViolated):
            pants_iso(2, PRESET_HALF)
        with pytest.raises(ParameterConstraintViolated):
            pants_iso(2, Grading(ShiftParams(F(1, 2), 0, 0, 0),
                                 ParityParams(0, 0, 0, 0)))
        with pytest.raises(ParameterConstraintViolated):
            pants_iso(2, Grading(ShiftParams(1, 0, 0, 0),
                                 ParityParams(0, 0, 1, 0)))

    def test_other_a1_one_params_work(self):
        iso = pants_iso(3, Grading(ShiftParams(1, F(2, 3), -1, 5),
                                   ParityParams(1, 0, 0, 1)))
        assert isinstance(iso, GradedIso)


class TestMonoidalWitnesses:
    def test_union_iso(self):
        rng = random.Random(2)
        for _ in range(5):
            f = random_surface(rng, Bounds(max_h=4), prefix="f",
                               all_outgoing=False)
            g = random_surface(rng, Bounds(max_h=4), prefix="g",
                               all_outgoing=False)
            iso = union_iso(build(f, PRESET_TENSOR), build(g, PRESET_TENSOR))
            assert isinstance(iso, GradedIso)

    def test_identity_iso_all_gradings(self):
        # the identity is the symmetrizer with an empty second block, and
        # its target is A(m) over itself
        for m in (1, 2, 3):
            regular = regular_bimodule(SuperAlgebra(m))
            for grading in (PRESET_TENSOR, PRESET_HALF, GENERIC):
                iso = identity_iso(m, grading)
                assert isinstance(iso, GradedIso)
                sym = symmetrizer_iso(m, 0, grading)
                assert iso.matrix == sym.matrix and iso.checks == sym.checks
                assert iso.target.grades == regular.grades
                assert iso.target.left_actions == regular.left_actions
                assert iso.target.right_actions == regular.right_actions

    def test_symmetrizer_iso(self):
        for m1, m2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            iso = symmetrizer_iso(m1, m2, PRESET_TENSOR)
            assert isinstance(iso, GradedIso)

    def test_naturality_square(self):
        rng = random.Random(8)
        small = Bounds(max_components=1, max_genus=1, max_circles=2,
                       max_arcs=2, max_h=3)
        for _ in range(5):
            f = random_surface(rng, small, prefix="f", all_outgoing=False)
            g = random_surface(rng, small, prefix="g", all_outgoing=False)
            iso = naturality_square(build(f, PRESET_TENSOR),
                                    build(g, PRESET_TENSOR))
            assert isinstance(iso, GradedIso)

    def test_regular_bimodules_are_shared(self, monkeypatch):
        built = []
        honest = gluing.regular_bimodule
        monkeypatch.setattr(gluing, "regular_bimodule",
                            lambda algebra: built.append(algebra.m) or honest(algebra))
        gluing._regular.cache_clear()
        pairs = functor_pairs()
        try:
            for _ in range(4):
                f_space, g_space, _ = next(pairs)
                naturality_square(f_space, g_space)
            asked = gluing._regular.cache_info()
        finally:
            gluing._regular.cache_clear()
        # eight requests, one build per m
        assert asked.hits + asked.misses == 8
        assert sorted(built) == sorted(set(built)) and len(built) < 8


def functor_pairs():
    """Seeded disjoint pairs in the functor workload's size: the two state
    spaces and the external tensor of their bimodules."""
    rng = random.Random(8)
    small = Bounds(max_components=1, max_genus=1, max_circles=2,
                   max_arcs=2, max_h=3)
    while True:
        f = random_surface(rng, small, prefix="f", all_outgoing=False)
        g = random_surface(rng, small, prefix="g", all_outgoing=False)
        f_space, g_space = build(f, PRESET_TENSOR), build(g, PRESET_TENSOR)
        yield f_space, g_space, external_tensor(bimodule_of(f_space),
                                                bimodule_of(g_space))


def explicit_monomial_action(bim, mask):
    """E_{i1}...E_{ik} (i1 < ... < ik) acts as L[i1] @ ... @ L[ik] from the
    left."""
    return reduce(lambda a, i: a @ bim.left_actions[i], bits(mask),
                  IntMat.identity(bim.dim))


class TestMonomialActions:
    def test_equal_the_explicit_products(self):
        # two left generators whose product does not vanish, so that an
        # order or a sign error shows
        ext = next(e for _, _, e in functor_pairs() if e.left.m >= 2
                   and not explicit_monomial_action(e, 3).is_zero())
        acts = _monomial_actions(ext, range(1 << ext.left.m))
        assert len(acts) == 1 << ext.left.m
        for mask, act in acts.items():
            assert act == explicit_monomial_action(ext, mask)

    def test_no_generators_gives_the_identity(self):
        ext = next(e for _, _, e in functor_pairs()
                   if e.left.m == 0 and e.dim > 1)
        assert _monomial_actions(ext, range(1)) == {0: IntMat.identity(ext.dim)}

    def test_a_flipped_sign_fails_the_naturality_square(self, monkeypatch):
        f_space, g_space, _ = next(p for p in functor_pairs()
                                   if (p[2].left.m, p[2].right.m) == (1, 1))
        naturality_square(f_space, g_space)
        honest = gluing._monomial_actions

        def flipped(bim, masks):
            acts = honest(bim, masks)
            act = acts[max(acts)]
            j = max(act.cols)
            i = max(act.cols[j])
            act.cols[j] = {**act.cols[j], i: -act.cols[j][i]}
            return acts

        monkeypatch.setattr(gluing, "_monomial_actions", flipped)
        with pytest.raises(ConventionMismatch, match="naturality square failed"):
            naturality_square(f_space, g_space)

    def test_a_flipped_inverse_unitor_fails_the_naturality_square(self, monkeypatch):
        # Y = Z(F u F') (x) A(M1 u M1'), whose projection's columns at the
        # pairs (v, 1) invert the right unitor
        f_space, g_space, _ = next(p for p in functor_pairs()
                                   if (p[2].left.m, p[2].right.m) == (1, 1))
        naturality_square(f_space, g_space)
        honest = gluing.tensor_middle

        def flipped(x, y):
            t = honest(x, y)
            if y is gluing._regular(y.left.m):
                # the pair (v, 1) of the last v is column v * dim(A)
                col = t.projection.cols[(x.dim - 1) * y.dim]
                i = max(col)
                col[i] = -col[i]
            return t

        monkeypatch.setattr(gluing, "tensor_middle", flipped)
        with pytest.raises(ConventionMismatch, match="naturality square failed"):
            naturality_square(f_space, g_space)
