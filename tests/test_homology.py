import random

import pytest

from opencob.harness import Bounds, random_surface
from opencob.homology import (BasisElement, H1Basis, IncompatibleBases,
                              InvalidBasis, adapted_basis, arc_element,
                              boundary_element, canonical_basis,
                              change_of_basis, cw_relative_h1, model_of,
                              torus_element)
from opencob.snf import IntMat, det_bareiss
from opencob.surface import (BoundaryCircle, Component, SuturedSurface,
                             open_pants, rank_h, surface_fgp)

mk = BoundaryCircle.mixed


def surf(comps):
    comps = tuple(comps)
    ids = tuple(i for c in comps for b in c.circles for i in b.plus_ids())
    return SuturedSurface(comps, (), ids)


class TestCanonicalBasis:
    def test_fgp(self):
        # 2g genus classes + (p-1) star arcs
        b = canonical_basis(surface_fgp(2, 3))
        kinds = [el.kind for el in b.elements]
        assert kinds.count("torus") == 4
        assert kinds.count("arc") == 2
        assert len(b) == rank_h(surface_fgp(2, 3)) == 6

    def test_pants(self):
        b = canonical_basis(open_pants(3))
        assert all(el.kind == "arc" for el in b.elements)
        assert len(b) == 3

    def test_closed(self):
        b = canonical_basis(surf([Component(2)]))
        assert all(el.kind == "torus" for el in b.elements)
        assert len(b) == 4

    def test_size_matches_h_randomly(self):
        rng = random.Random(0)
        for _ in range(50):
            s = random_surface(rng, Bounds(max_h=7))
            assert len(canonical_basis(s)) == rank_h(s)

    def test_dump(self):
        b = canonical_basis(surface_fgp(1, 2))
        text = b.dump()
        assert len(text.splitlines()) == len(b)
        assert "torus" in text and "arc" in text

    def test_boundary_classes_sum_to_zero(self):
        s = surf([Component(1, (mk("a"), BoundaryCircle.full_minus(),
                                BoundaryCircle.full_plus("c"),
                                mk("d", "e")))])
        model = model_of(s)
        total = {}
        for bi in range(4):
            for k, v in model.boundary_class(0, bi).items():
                total[k] = total.get(k, 0) + v
        assert all(v == 0 for v in total.values())


class TestPhi:
    def test_arc_head_tail(self):
        s = surf([Component(0, (mk("a", "b", "c"),))])
        model = model_of(s)
        arc = model.arc_class("a", "b")
        assert model.phi("b", arc) == 1
        assert model.phi("a", arc) == -1
        assert model.phi("c", arc) == 0

    def test_circles_map_to_zero(self):
        s = surf([Component(1, (mk("a", "b"),))])
        model = model_of(s)
        assert model.phi("a", model.genus_class(0, 0)) == 0
        assert model.phi("a", model.boundary_class(0, 0)) == 0

    def test_loop_arc_is_zero(self):
        s = surf([Component(0, (mk("a", "b"),))])
        model = model_of(s)
        assert model.phi("a", model.arc_class("a", "a")) == 0


class TestBasisValidation:
    def elements(self):
        # two genus classes, a boundary class and three arcs
        b = canonical_basis(surf([Component(1, (mk("a", "b", "c"), mk("d")))]))
        assert len(b) == 6 and b.elements[-1].kind == "arc"
        return b.model, list(b.elements)

    def test_valid(self):
        model, els = self.elements()
        assert len(H1Basis(model, tuple(els))) == 6

    def test_index_two_sublattice(self):
        model, els = self.elements()
        el = els[-1]
        els[-1] = BasisElement(el.label, el.kind, el.data,
                               tuple((i, 2 * v) for i, v in el.coords))
        with pytest.raises(InvalidBasis, match="not a unimodular basis"):
            H1Basis(model, tuple(els))

    def test_repeated_element(self):
        model, els = self.elements()
        els[-1] = els[-2]
        with pytest.raises(InvalidBasis, match="not a unimodular basis"):
            H1Basis(model, tuple(els))

    def test_wrong_element_count(self):
        model, els = self.elements()
        with pytest.raises(InvalidBasis, match="5 elements for rank-6"):
            H1Basis(model, tuple(els[:-1]))
        with pytest.raises(InvalidBasis, match="7 elements for rank-6"):
            H1Basis(model, tuple(els + els[:1]))


def dense_change_of_basis(from_basis, to_basis):
    """``change_of_basis`` as dense rows: column j is from-element j."""
    cols = change_of_basis(from_basis, to_basis)
    return [[col.get(i, 0) for col in cols] for i in range(len(cols))]


class TestChangeOfBasis:
    def test_identity(self):
        b = canonical_basis(surface_fgp(1, 2))
        mat = dense_change_of_basis(b, b)
        n = len(b)
        assert mat == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def test_flip_one_arc(self):
        from opencob.homology import H1Basis
        s = open_pants(2)
        model = model_of(s)
        b1 = canonical_basis(s)
        flipped = list(b1.elements)
        t, h = flipped[0].data
        flipped[0] = arc_element(model, h, t)
        b2 = H1Basis(model, tuple(flipped))
        mat = dense_change_of_basis(b1, b2)
        assert mat[0][0] == -1 and mat[1][1] == 1
        assert mat[0][1] == 0 and mat[1][0] == 0

    def test_rerooting_path_additivity(self):
        # arc(a->c) = arc(a->b) + arc(b->c) in the model
        from opencob.homology import H1Basis
        s = surf([Component(0, (mk("a", "b", "c"),))])
        model = model_of(s)
        star = H1Basis(model, (arc_element(model, "a", "b"),
                               arc_element(model, "a", "c")))
        path = H1Basis(model, (arc_element(model, "a", "b"),
                               arc_element(model, "b", "c")))
        mat = dense_change_of_basis(star, path)
        # star's a->c expands as (a->b) + (b->c)
        assert [row[1] for row in mat] == [1, 1]

    def test_unimodular_and_inverse(self):
        rng = random.Random(1)
        for _ in range(20):
            s = random_surface(rng, Bounds(max_h=6))
            ids = s.interval_ids()
            if len(ids) < 2:
                continue
            i1, i2 = rng.sample(list(ids), 2)
            b1 = canonical_basis(s)
            b2 = adapted_basis(s, i1, i2).basis
            m12 = dense_change_of_basis(b1, b2)
            m21 = dense_change_of_basis(b2, b1)
            n = len(b1)
            assert abs(det_bareiss(m12)) == 1
            prod = [[sum(m12[i][t] * m21[t][j] for t in range(n))
                     for j in range(n)] for i in range(n)]
            assert prod == [[1 if i == j else 0 for j in range(n)]
                            for i in range(n)]

    def test_rank_zero_gives_no_columns(self):
        b = canonical_basis(surf([Component(0, (mk("a"),))]))
        assert len(b) == 0 and change_of_basis(b, b) == []

    def test_incompatible_surfaces(self):
        with pytest.raises(IncompatibleBases):
            change_of_basis(canonical_basis(open_pants(2)),
                            canonical_basis(open_pants(3)))


class TestAdaptedBasis:
    def test_case_1_1_has_no_specials(self):
        s = surf([Component(0, (mk("i1"),)), Component(0, (mk("i2"),))])
        a = adapted_basis(s, "i1", "i2")
        assert a.case_tag == "1-1" and a.specials == ()

    def test_two_arc_cases_orientations(self):
        s = surf([Component(0, (mk("i1", "x", "i2", "y"),))])
        a = adapted_basis(s, "i1", "i2")
        assert a.case_tag == "2-1a"
        e1, e2 = a.specials
        assert e1.data[1] == "i1"      # oriented into I1
        assert e2.data[0] == "i2"      # oriented out of I2
        model = a.basis.model
        assert model.phi("i1", e1.vec()) == 1
        assert model.phi("i2", e2.vec()) == -1
        assert model.phi("i1", e2.vec()) == 0
        assert model.phi("i2", e1.vec()) == 0
        # no other adapted element touches the glued intervals
        for el in a.basis.elements[2:]:
            assert model.phi("i1", el.vec()) == 0
            assert model.phi("i2", el.vec()) == 0

    def test_case_2_1b_single_arc(self):
        s = surf([Component(0, (mk("i1", "i2"),))])
        a = adapted_basis(s, "i1", "i2")
        assert a.case_tag == "2-1b"
        (e,) = a.specials
        assert e.data == ("i2", "i1")  # out of I2, into I1

    def test_case_1_2_active_side(self):
        s = surf([Component(0, (mk("i1", "u"),)), Component(0, (mk("i2"),))])
        a = adapted_basis(s, "i1", "i2")
        assert a.case_tag == "1-2"
        (e,) = a.specials
        assert e.data[1] == "i1"
        # swapped roles
        s2 = surf([Component(0, (mk("i1"),)), Component(0, (mk("i2", "u"),))])
        a2 = adapted_basis(s2, "i1", "i2")
        assert a2.specials[0].data[1] == "i2"


class TestCWOracle:
    def test_fgp(self):
        for g in range(3):
            for p in range(3):
                s = surface_fgp(g, p)
                rank, factors = cw_relative_h1(s)
                assert rank == rank_h(s)
                assert all(d == 1 for d in factors)

    def test_small_shapes(self):
        shapes = [
            surf([Component(0, (mk("a"),))]),                      # P_0 disk
            surf([Component(0, (mk("a", "b"),))]),                 # rectangle
            surf([Component(0, (BoundaryCircle.full_minus(),
                                BoundaryCircle.full_minus()))]),   # S- annulus
            surf([Component(0)]),                                  # sphere
            surf([Component(2)]),                                  # closed genus 2
        ]
        for s in shapes:
            rank, factors = cw_relative_h1(s)
            assert rank == rank_h(s)
            assert all(d == 1 for d in factors)

    def test_random_agreement(self):
        rng = random.Random(9)
        for _ in range(60):
            s = random_surface(rng, Bounds(max_h=8))
            rank, factors = cw_relative_h1(s)
            assert rank == rank_h(s), s
            assert all(d == 1 for d in factors)
