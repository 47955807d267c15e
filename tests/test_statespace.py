import itertools
import random
from fractions import Fraction

import pytest

from opencob.gluing import _relation_matrix
from opencob.grading import (PRESET_HALF, PRESET_TENSOR, Grading,
                             ShiftParams)
from opencob.harness import Bounds, random_parity, random_shift, random_surface
from opencob.homology import (H1Basis, arc_element, canonical_basis, model_of,
                              torus_element)
from opencob.laurent import LaurentPoly
from opencob.snf import IntMat
from opencob.statespace import (MAX_STATE_H, StateSpaceTooLarge,
                                action_matrix, bimodule_of, build,
                                contraction_matrix, graded_superdim,
                                reference_dimension_fgp, skeleton)
from opencob.superalg import GradedMap, Grades, bits
from opencob.surface import (BoundaryCircle, Component, NotAnInterval,
                             NotOutgoing, SuturedSurface, disjoint_union,
                             identity_cobordism, open_pants, rank_h,
                             surface_fgp)

F = Fraction
mk = BoundaryCircle.mixed


class TestBuild:
    def test_identity_cobordism_tensor(self):
        space = build(identity_cobordism(["a"]), PRESET_TENSOR)
        assert space.dim == 2
        assert space.degrees == [F(-1), F(0)]
        assert space.parities == (1, 0)

    def test_rank_is_power_of_two(self):
        rng = random.Random(0)
        for _ in range(20):
            s = random_surface(rng, Bounds(max_h=6))
            space = build(s, PRESET_TENSOR)
            assert space.dim == 2 ** rank_h(s)

    def test_h_zero_is_rank_one(self):
        space = build(open_pants(0), PRESET_TENSOR)
        assert space.dim == 1

    def test_pants2_degrees(self):
        space = build(open_pants(2), PRESET_TENSOR)
        assert sorted(space.degrees) == [F(-2), F(-1), F(-1), F(0)]

    def test_monomial_order(self):
        space = build(open_pants(3), PRESET_TENSOR)
        assert space.monomials[:4] == (0b000, 0b001, 0b010, 0b100)
        assert space.monomials[4:7] == (0b011, 0b101, 0b110)
        assert space.monomials[7] == 0b111

    def test_degree_spread(self):
        space = build(surface_fgp(1, 2), PRESET_HALF)
        lo, hi = min(space.degrees), max(space.degrees)
        assert lo == space.delta and hi == space.delta + space.h


def with_genus_25(surface):
    """``surface`` and a closed genus-25 component: h grows by 50."""
    return disjoint_union(surface, SuturedSurface((Component(25, ()),), (), ()))


class TestSizeGate:
    def test_refused_before_the_skeleton(self):
        big = with_genus_25(open_pants(2))
        h = rank_h(big)
        assert h == 52 > MAX_STATE_H
        before = skeleton.cache_info()
        with pytest.raises(StateSpaceTooLarge, match=f"h = {h} exceeds"):
            build(big, PRESET_TENSOR)
        with pytest.raises(StateSpaceTooLarge, match=f"h = {h} exceeds"):
            build(big, PRESET_TENSOR, canonical_basis(big))
        assert skeleton.cache_info() == before

    def test_the_cap_itself_builds(self):
        space = build(open_pants(MAX_STATE_H), PRESET_TENSOR)
        assert space.dim == 2 ** MAX_STATE_H


class TestSkeleton:
    def test_spaces_of_one_rank_share_it(self):
        a = build(open_pants(3), PRESET_TENSOR)
        b = build(surface_fgp(1, 2), PRESET_HALF)
        assert a.h == b.h == 3 and a.surface != b.surface
        assert a.monomials is b.monomials and a.index is b.index
        assert a.grades.words is b.grades.words
        sk = skeleton(3)
        assert a.monomials is sk.monomials
        assert a.parities is sk.parities[a.parity0]
        assert b.parities is sk.parities[b.parity0]
        assert build(open_pants(4), PRESET_TENSOR).monomials is not a.monomials

    def test_parity_patterns(self):
        for h in range(6):
            sk = skeleton(h)
            assert all(type(f) is tuple for f in (sk.monomials, sk.words,
                                                  *sk.parities))
            for p0 in (0, 1):
                assert sk.parities[p0] == tuple((p0 + w) & 1 for w in sk.words)
            assert sk.words == tuple(m.bit_count() for m in sk.monomials)
            assert sk.index == {m: k for k, m in enumerate(sk.monomials)}


def reference_action(space, phis, outgoing):
    """The E-action walked mask by mask and factor by factor: each factor
    e_i of a monomial counts the factors it passes (those below it on the
    left, those above it on the right)."""
    outer = -1 if (outgoing and space.parity0 % 2) else 1
    live = 0
    for i, v in enumerate(phis):
        if v:
            live |= 1 << i
    index = space.index
    mat = IntMat(space.dim, space.dim)
    for mask in space.monomials:
        hits = mask & live
        if not hits:
            continue
        k = mask.bit_count()
        col = mat.cols[index[mask]] = {}
        for i in bits(hits):     # distinct i, distinct targets, phis[i] != 0
            r = (mask & ((1 << i) - 1)).bit_count()
            inner = -1 if (r % 2 if outgoing else (k - 1 - r) % 2) else 1
            col[index[mask ^ (1 << i)]] = outer * inner * phis[i]
    return mat


def contraction_corpus(seed, n):
    """Seeded spaces with rational shifts and random parities, both kinds
    of boundary intervals, and at least two intervals each."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        s = random_surface(rng, Bounds(max_h=6), all_outgoing=len(out) % 2 == 0)
        if len(s.interval_ids()) >= 2:
            grading = Grading(random_shift(rng), random_parity(rng))
            out.append(build(s, grading))
    return out


class TestContraction:
    def test_action_matrix_matches_the_reference(self):
        sides, parities, most_live = set(), set(), 0
        for space in contraction_corpus(11, 40):
            s = space.surface
            parities.add(space.parity0)
            for sid in s.interval_ids():
                outgoing = sid in s.outgoing
                sides.add(outgoing)
                phis = space.basis.phi_values(sid)
                most_live = max(most_live, sum(1 for v in phis if v))
                assert action_matrix(space, sid) == \
                    reference_action(space, phis, outgoing)
        assert sides == {True, False} and parities == {0, 1}
        assert most_live >= 3

    def test_any_phi_matches_the_reference(self):
        rng = random.Random(12)
        entries = set()
        for space in contraction_corpus(12, 30):
            for outgoing in (True, False):
                phis = [rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(space.h)]
                mat = contraction_matrix(space, phis, outgoing)
                assert mat == reference_action(space, phis, outgoing)
                entries.update(v for col in mat.cols.values() for v in col.values())
        assert {2, -2, 3, -3} <= entries

    def test_relation_is_the_sum_of_two_actions(self):
        parities, pairs = set(), 0
        for space in contraction_corpus(13, 40):
            s = space.surface
            if s.incoming:
                continue
            parities.add(space.parity0)
            for i1, i2 in itertools.permutations(s.interval_ids(), 2):
                assert _relation_matrix(space, i1, i2) == \
                    action_matrix(space, i1) + action_matrix(space, i2)
                pairs += 1
        assert parities == {0, 1} and pairs > 40

    def test_relation_needs_outgoing_intervals(self):
        space = build(identity_cobordism(["a"]), PRESET_TENSOR)
        with pytest.raises(NotOutgoing):
            _relation_matrix(space, "a.out", "a.in")


class TestEAction:
    def test_worked_example(self):
        # genus-1 component, one mixed circle with intervals I, u, w; basis
        # alpha_1 = genus class, alpha_2 = arc I->u, alpha_3 = genus class
        # (homologous to an arc with both ends on I), alpha_4 = arc u->w.
        # With even prefactor parity: E_I(a1^a2^a3^a4) = a1^a3^a4.
        comp = Component(1, (mk("I", "u", "w"),))
        surf = SuturedSurface((comp,), (), ("I", "u", "w"))
        model = model_of(surf)
        basis = H1Basis(model, (
            torus_element(model, 0, 0),
            arc_element(model, "I", "u"),
            torus_element(model, 0, 1),
            arc_element(model, "u", "w"),
        ))
        space = build(surf, PRESET_TENSOR, basis)
        assert space.parity0 == 0  # h = 4
        mat = action_matrix(space, "I")
        full = space.index[0b1111]
        assert mat.col(full) == {space.index[0b1101]: 1}

    def test_empty_monomial_killed(self):
        space = build(open_pants(2), PRESET_TENSOR)
        for sid in ("out", "in1", "in2"):
            assert not action_matrix(space, sid).col(space.index[0])

    def test_square_zero_odd_degree(self):
        rng = random.Random(1)
        for _ in range(15):
            s = random_surface(rng, Bounds(max_h=5))
            space = build(s, PRESET_TENSOR)
            for sid in s.interval_ids():
                act = GradedMap(action_matrix(space, sid), -1, 1)
                assert act.degree == -1 and act.parity == 1
                assert (act.matrix @ act.matrix).is_zero()
                assert act.check_blocks(space.grades, space.grades) is None

    def test_commutation_table(self):
        rng = random.Random(2)
        checked = 0
        for _ in range(30):
            s = random_surface(rng, Bounds(max_h=5), all_outgoing=False)
            space = build(s, PRESET_TENSOR)
            ids = list(s.interval_ids())
            for a in ids:
                for b in ids:
                    if a >= b:
                        continue
                    ma, mb = action_matrix(space, a), action_matrix(space, b)
                    same_side = ((a in s.outgoing) == (b in s.outgoing))
                    if same_side:
                        assert (ma @ mb + mb @ ma).is_zero()
                    else:
                        assert ma @ mb == mb @ ma
                    checked += 1
        assert checked > 20

    def test_not_an_interval(self):
        space = build(surface_fgp(0, 1), PRESET_TENSOR)
        with pytest.raises(NotAnInterval):
            action_matrix(space, "c1")


class TestBimoduleOf:
    def test_pants1_is_regular(self):
        from opencob.superalg import regular_bimodule, SuperAlgebra
        space = build(identity_cobordism(["a"]), PRESET_TENSOR)
        bim = bimodule_of(space)
        assert bim.left.m == 1 and bim.right.m == 1
        reg = regular_bimodule(SuperAlgebra(1))
        assert bim.block_dims() == reg.block_dims()

    def test_no_intervals_plain_group(self):
        space = build(surface_fgp(1, 2), PRESET_TENSOR)
        bim = bimodule_of(space)
        assert bim.left.m == 0 and bim.right.m == 0

    def test_validation_runs(self):
        rng = random.Random(3)
        for _ in range(10):
            s = random_surface(rng, Bounds(max_h=5), all_outgoing=False)
            bimodule_of(build(s, PRESET_TENSOR))  # raises if relations fail


class TestSuperdim:
    def test_identity_cobordism(self):
        space = build(identity_cobordism(["a"]), PRESET_TENSOR)
        assert str(graded_superdim(space)) == "1 - t^-1"

    def test_f12_half(self):
        space = build(surface_fgp(1, 2), PRESET_HALF)
        # -t + 3 - 3 t^-1 + t^-2, keyed by twice the exponent
        want = LaurentPoly({2: -1, 0: 3, -2: -3, -4: 1})
        assert graded_superdim(space) == want

    def test_multiplicative_under_union(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_surface(rng, Bounds(max_h=4))
            g = random_surface(rng, Bounds(max_h=4), prefix="g")
            u = disjoint_union(f, g)
            sf = graded_superdim(build(f, PRESET_TENSOR))
            sg = graded_superdim(build(g, PRESET_TENSOR))
            su = graded_superdim(build(u, PRESET_TENSOR))
            assert su == sf * sg

    def test_matches_reference_fgp(self):
        for g in range(4):
            for p in range(1, 5):
                space = build(surface_fgp(g, p), PRESET_HALF)
                got = graded_superdim(space)
                assert got == reference_dimension_fgp(g, p)
                assert got.exponents_integral()

    def test_degrees_off_the_half_integer_grid_raise(self):
        shifted = Grading(ShiftParams(F(1, 3), 0, 0, 0), PRESET_TENSOR.parity)
        space = build(surface_fgp(0, 2), shifted)
        assert sorted(space.degrees) == [F(-1, 3), F(2, 3)]
        with pytest.raises(ValueError, match="half-integer grid"):
            graded_superdim(space)
        with pytest.raises(ValueError, match="half-integer grid"):
            bimodule_of(space).superdim()
        # half-integer degrees are on the grid
        halved = Grading(ShiftParams(F(1, 2), 0, 0, 0), PRESET_TENSOR.parity)
        space = build(surface_fgp(0, 2), halved)
        assert str(graded_superdim(space)) == "t^1/2 - t^-1/2"
        assert bimodule_of(space).superdim() == graded_superdim(space)

    def test_top_monomial_of_pants(self):
        for p in range(5):
            space = build(open_pants(p), PRESET_TENSOR)
            top = space.dim - 1
            assert space.degrees[top] == 0
            assert space.parities[top] == 0


class TestReferencePolys:
    def test_g0_p1_is_one(self):
        assert reference_dimension_fgp(0, 1) == LaurentPoly.one()

    def test_g1_p1(self):
        # -(t^(1/2) - t^(-1/2))^2 = -t + 2 - t^-1
        want = (LaurentPoly.t_half_power(2, -1) + LaurentPoly.t_half_power(0, 2)
                + LaurentPoly.t_half_power(-2, -1))
        assert reference_dimension_fgp(1, 1) == want

    def test_integrality(self):
        for g in range(4):
            for p in range(1, 5):
                assert reference_dimension_fgp(g, p).exponents_integral()

    def test_p0_rejected(self):
        with pytest.raises(ValueError):
            reference_dimension_fgp(1, 0)


class TestLaurentFormatting:
    def test_rendering(self):
        p = LaurentPoly({2: -1, 0: 3, -2: -3, -4: 1})
        assert str(p) == "-t^1 + 3 - 3*t^-1 + t^-2"
        assert str(LaurentPoly()) == "0"
        assert str(LaurentPoly.t_half_power(1)) == "t^1/2"
        assert str(LaurentPoly.t_half_power(-3, -2)) == "-2*t^-3/2"

    def test_bad_exponent(self):
        # an exponent off the half-integer grid has no key
        with pytest.raises(ValueError, match="half-integer grid"):
            Grades(F(1, 3), [0], [0]).superdim()
