import random
from fractions import Fraction

import pytest

from opencob.grading import (PRESET_HALF, PRESET_TENSOR, Grading,
                             ParityParams, ShiftParams)
from opencob.gluing import (CASE_DEGREE_SHIFT, ConventionMismatch,
                            ParameterConstraintViolated, compose_iso,
                            identity_iso, naturality_square, pants_iso,
                            quotient_oracle, self_glue_iso, symmetrizer_iso,
                            union_iso)
from opencob.harness import (Bounds, lemma_case_instances,
                             random_composable_pair, random_surface)
from opencob.statespace import build, graded_superdim
from opencob.superalg import GradedIso
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


class TestSelfGlue:
    @pytest.mark.parametrize("case,created,s,i1,i2", [
        (c, n, s, a, b) for c, n, s, a, b in lemma_case_instances()])
    def test_all_cases(self, case, created, s, i1, i2):
        for grading in (PRESET_TENSOR, GENERIC):
            res = self_glue_iso(s, i1, i2, grading, full_check=True)
            assert res.case_tag == case
            assert res.created_sminus_circles == created
            assert res.degree_shift == CASE_DEGREE_SHIFT[case]
            assert res.parity_shift == (rank_h(s) - rank_h(res.glued_surface)) % 2
            assert isinstance(res.iso, GradedIso)

    def test_case_2_1b_relations_vanish(self):
        s = surf([Component(0, (mk("i1", "i2"),))])
        res = self_glue_iso(s, "i1", "i2", PRESET_TENSOR)
        assert res.relations.is_zero()
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
            res = self_glue_iso(s, "i1", "i2", PRESET_TENSOR,
                                sigma_sign=sign, full_check=True)
            assert isinstance(res.iso, GradedIso)

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
        assert oracle.coker_rank() == space.dim
        assert all(rel == 0 for _, rel, _ in oracle.blocks.values())

    def test_identity_pair_rank_two(self):
        # two rectangles glued along one strand leave the regular bimodule
        u = disjoint_union(identity_cobordism(["a"]), identity_cobordism(["b"]))
        all_out = SuturedSurface(u.components, (), u.splus_ids())
        space = build(all_out, PRESET_TENSOR)
        oracle = quotient_oracle(space, "a.in", "b.out")
        assert oracle.coker_rank() == 2
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


class TestComposeIso:
    def test_identity_composition(self):
        res = compose_iso(identity_cobordism(["b"]), identity_cobordism(["a"]),
                          PRESET_TENSOR)
        assert isinstance(res.iso, GradedIso)
        assert res.tensor.bimodule.dim == 2
        assert str(res.superdim()) == "1 - t^-1"

    def test_pants_against_two_identities(self):
        ii = disjoint_union(identity_cobordism(["a"]), identity_cobordism(["b"]))
        res = compose_iso(open_pants(2), ii, PRESET_TENSOR)
        assert res.tensor.bimodule.dim == 4
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
            r2 = compose_iso(fp, f, PRESET_TENSOR, order=list(reversed(range(k))))
            assert isinstance(r1.iso, GradedIso) and isinstance(r2.iso, GradedIso)
            assert r1.superdim() == r2.superdim()
            found += 1

    def test_random_pairs_both_presets(self):
        rng = random.Random(42)
        for _ in range(8):
            fp, f = random_composable_pair(rng, Bounds(max_h=6))
            for grading in (PRESET_TENSOR, PRESET_HALF):
                if not (grading.defined_on(f) and grading.defined_on(fp)):
                    continue
                res = compose_iso(fp, f, grading)
                assert isinstance(res.iso, GradedIso)
                assert res.superdim() == res.tensor.bimodule.superdim()

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
        for m in (1, 2, 3):
            for grading in (PRESET_TENSOR, PRESET_HALF, GENERIC):
                iso = identity_iso(m, grading)
                assert isinstance(iso, GradedIso)

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
