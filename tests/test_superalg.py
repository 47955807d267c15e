import inspect
import random
from fractions import Fraction

import pytest

from opencob import superalg
from opencob.snf import IntMat, smith
from opencob.superalg import (ActionRelationViolation, AlgebraMismatch,
                              Bimodule, GradedIso, Grades, IsoFailure,
                              SuperAlgebra, TorsionDetected,
                              coproduct_left_action, external_tensor,
                              is_graded_iso, mult_matrix, regular_bimodule,
                              symmetrizer_bimodule, tensor_middle)

A2 = SuperAlgebra(2)
A3 = SuperAlgebra(3)


class TestMultiply:
    """Products of monomials, read off the columns of the multiplication
    matrices: column ``mask`` of a left (right) action of E_i is E_i * mask
    (mask * E_i)."""

    def test_disjoint_slots_in_order(self):
        # (E x 1)(1 x E) = E x E
        reg = regular_bimodule(A2)
        assert reg.left_actions[0].col(0b10) == {0b11: 1}
        assert reg.right_actions[1].col(0b01) == {0b11: 1}

    def test_disjoint_slots_out_of_order(self):
        # (1 x E)(E x 1) = -E x E
        reg = regular_bimodule(A2)
        assert reg.left_actions[1].col(0b01) == {0b11: -1}
        assert reg.right_actions[0].col(0b10) == {0b11: -1}

    def test_square_vanishes(self):
        reg = regular_bimodule(A2)
        for acts in (reg.left_actions, reg.right_actions):
            assert acts[0].col(0b01) == {} and acts[0].col(0b11) == {}
            assert acts[0].col(0b00) == {0b01: 1}

    def test_left_insertion_sign(self):
        # inserting E into slot 2 of E x 1 x E passes one odd factor:
        # E_2 (E x 1 x E) = -(E x E x E).  The spec's worked example claims
        # +1 here, but the r-th term sign is (-1)^{i_r - r} = (-1)^{2-1}.
        assert regular_bimodule(A3).left_actions[1].col(0b101) == {0b111: -1}

    def test_insertion_sign_pattern(self):
        # left multiplication by Delta(E): the term filling the r-th empty
        # slot i_r carries (-1)^{i_r - r}
        for p in (2, 3, 4):
            delta_e = coproduct_left_action(p).left_actions[0]
            for mask in range(1 << p):
                empty = [i for i in range(p) if not mask >> i & 1]
                expected = {}
                for r, i in enumerate(empty, start=1):
                    expected[mask | (1 << i)] = (-1) ** ((i + 1) - r)
                assert delta_e.col(mask) == expected

    def test_algebra_mismatch(self):
        a1, reg = SuperAlgebra(1), regular_bimodule(A2)
        with pytest.raises(AlgebraMismatch, match="middle algebras differ"):
            tensor_middle(reg, regular_bimodule(A3))
        with pytest.raises(AlgebraMismatch, match="generator count"):
            Bimodule(a1, A2, reg.grades, reg.left_actions, reg.right_actions)


class TestRegularAndCoproduct:
    def test_regular_validates(self):
        for m in range(4):
            regular_bimodule(SuperAlgebra(m))

    def test_coproduct_p0_is_zero_action(self):
        bim = coproduct_left_action(0)
        assert bim.left_actions[0].is_zero()
        assert bim.dim == 1

    def test_coproduct_p1_is_regular(self):
        bim = coproduct_left_action(1)
        reg = regular_bimodule(SuperAlgebra(1))
        assert bim.left_actions[0] == reg.left_actions[0]
        assert bim.right_actions[0] == reg.right_actions[0]

    def test_coproduct_p2_on_unit(self):
        bim = coproduct_left_action(2)
        assert bim.left_actions[0].col(0) == {0b01: 1, 0b10: 1}


class TestBimoduleValidation:
    def test_broken_square_detected(self):
        with pytest.raises(ActionRelationViolation):
            Bimodule(SuperAlgebra(1), SuperAlgebra(0),
                     Grades(Fraction(0), [0, -1], [0, 1]),
                     [IntMat(2, 2, {0: {1: 1}, 1: {0: 1}})], [])
        # odd of degree -1 along 1 -> x -> y, but twice it is not zero
        with pytest.raises(ActionRelationViolation,
                           match="chain: left generator 0 does not square to zero"):
            Bimodule(SuperAlgebra(1), SuperAlgebra(0),
                     Grades(Fraction(0), [0, -1, -2], [0, 1, 0]),
                     [IntMat(3, 3, {0: {1: 1}, 1: {2: 1}})], [], label="chain")

    def test_broken_degree_detected(self):
        with pytest.raises(ActionRelationViolation):
            Bimodule(SuperAlgebra(1), SuperAlgebra(0),
                     Grades(Fraction(0), [0, -2], [0, 1]),
                     [IntMat(2, 2, {0: {1: 1}})], [])

    def test_wrong_shape_detected(self):
        with pytest.raises(ActionRelationViolation,
                           match="small: left action 0 has wrong shape"):
            Bimodule(SuperAlgebra(1), SuperAlgebra(0),
                     Grades(Fraction(0), [0, -1], [0, 1]),
                     [IntMat(3, 3)], [], label="small")

    def test_non_commuting_sides_detected(self):
        # A(2) with left generator E1 and, as its right generator, left
        # multiplication by E2: the two anticommute instead of commuting
        a2 = regular_bimodule(A2)
        with pytest.raises(ActionRelationViolation,
                           match="twisted: left 0 and right 0 do not commute"):
            Bimodule(SuperAlgebra(1), SuperAlgebra(1), a2.grades,
                     a2.left_actions[:1], a2.left_actions[1:], label="twisted")

    def test_commuting_left_generators_detected(self):
        # on the basis 1, E1, E2, E1E2 each generator adds its own slot with
        # sign +1 and no Koszul sign, so they commute: E1 E2 + E2 E1 = 2 E1E2
        e1 = IntMat(4, 4, {0: {1: 1}, 2: {3: 1}})
        e2 = IntMat(4, 4, {0: {2: 1}, 1: {3: 1}})
        bim = Bimodule(SuperAlgebra(2), SuperAlgebra(0),
                       Grades(Fraction(0), [0, -1, -1, -2], [0, 1, 1, 0]),
                       [e1, e2], [], label="commuting", check=False)
        with pytest.raises(ActionRelationViolation,
                           match="commuting: left generators 0,1 do not anticommute"):
            bim.validate()


class TestExternalTensor:
    def test_unit(self):
        one = regular_bimodule(SuperAlgebra(0))
        x = regular_bimodule(SuperAlgebra(2))
        t = external_tensor(one, x)
        assert t.dim == x.dim
        assert t.degrees == x.degrees and t.parities == x.parities

    def test_parity_additive(self):
        x = regular_bimodule(SuperAlgebra(1))
        t = external_tensor(x, x)
        for i in range(2):
            for j in range(2):
                assert t.parities[i * 2 + j] == (x.parities[i] + x.parities[j]) % 2

    def test_regular_tensor_regular_is_regular(self):
        x = regular_bimodule(SuperAlgebra(1))
        t = external_tensor(x, x)
        reg = regular_bimodule(SuperAlgebra(2))
        # basis matching (E_S, E_T) <-> E_{S u (T << 1)} is the identity here
        perm = {i * 2 + j: i | (j << 1) for i in range(2) for j in range(2)}
        mat = IntMat(4, 4, {src: {dst: 1} for src, dst in perm.items()})
        iso = is_graded_iso(mat, t, reg)
        assert isinstance(iso, GradedIso)

    def test_random_small_validate(self):
        rng = random.Random(0)
        for _ in range(5):
            x = regular_bimodule(SuperAlgebra(rng.randint(0, 2)))
            y = coproduct_left_action(rng.randint(0, 2))
            external_tensor(x, y)  # validation runs on construction


def projection_of(t) -> IntMat:
    """The projection of the ambient pair space onto ``t.bimodule``,
    rebuilt from ``t.section`` and ``t.relations`` alone: the ambient basis
    vector g is ``[section | relations] @ x`` for an integral x, by one Smith
    normal form, and its image is x's section coordinates."""
    sect, rel = t.section, t.relations
    stacked = IntMat(sect.nrows, sect.ncols + rel.ncols)
    for j, col in sect.cols.items():
        stacked.set_col(j, dict(col))
    for j, col in rel.cols.items():
        stacked.set_col(sect.ncols + j, dict(col))
    sf = smith(stacked, want_u=True, want_v=True)
    # section and relations span the ambient space over Z
    assert sf.rank == sect.nrows and sf.is_free_quotient()
    proj = IntMat(sect.ncols, sect.nrows)
    for g in range(sect.nrows):
        x = sf.v.apply(sf.u.col(g))   # d is the identity
        proj.set_col(g, {k: v for k, v in x.items() if k < sect.ncols})
    return proj


def associativity_witness(x: Bimodule, y: Bimodule, z: Bimodule):
    """Constructed isomorphism (X (x)_B Y) (x)_C Z -> X (x)_B (Y (x)_C Z).

    Both sides are quotients of the triple tensor product; the witness is
    the left composite section followed by the right composite projection,
    verified by is_graded_iso.
    """
    xy = tensor_middle(x, y)
    yz = tensor_middle(y, z)
    left = tensor_middle(xy.bimodule, z)
    right = tensor_middle(x, yz.bimodule)
    proj_yz, proj_right = projection_of(yz), projection_of(right)
    for t in (xy, yz, left, right):
        assert t.projection == projection_of(t)

    # embed T_left into the triple ambient: (t, k) -> sum s_xy[t]_{(i,j)} (i,j,k)
    dim_yz = y.dim * z.dim
    embed = IntMat(x.dim * dim_yz, left.bimodule.dim)
    for col_t, col in left.section.cols.items():
        new: dict[int, int] = {}
        for pair_idx, v in col.items():
            t1, k = divmod(pair_idx, z.dim)
            for ij, w in xy.section.col(t1).items():
                i, j = divmod(ij, y.dim)
                triple = i * dim_yz + j * z.dim + k
                new[triple] = new.get(triple, 0) + v * w
        embed.set_col(col_t, {a: b for a, b in new.items() if b})

    # project the triple ambient onto T_right: (i,j,k) -> (i, P_yz(j,k))
    proj = IntMat(right.bimodule.dim, x.dim * dim_yz)
    for jk in range(dim_yz):
        pcol = proj_yz.col(jk)
        if not pcol:
            continue
        for i in range(x.dim):
            col = {}
            for t2, v in pcol.items():
                for t_r, w in proj_right.col(i * yz.bimodule.dim + t2).items():
                    n = col.get(t_r, 0) + v * w
                    if n:
                        col[t_r] = n
                    else:
                        col.pop(t_r, None)
            if col:
                proj.set_col(i * dim_yz + jk, col)

    witness = proj @ embed
    return is_graded_iso(witness, left.bimodule, right.bimodule)


class TestTensorMiddle:
    def test_unit_right(self):
        # X (x)_B B has the rank of X
        x = coproduct_left_action(2)
        b = regular_bimodule(SuperAlgebra(2))
        t = tensor_middle(x, b)
        assert t.bimodule.dim == x.dim
        assert sorted(t.bimodule.degrees) == sorted(x.degrees)
        assert t.projection == projection_of(t)

    def test_unit_left(self):
        x = coproduct_left_action(1)
        b = regular_bimodule(SuperAlgebra(1))
        t = tensor_middle(b, x)
        assert t.bimodule.dim == x.dim
        assert t.projection == projection_of(t)

    def test_projection_section(self):
        x = regular_bimodule(SuperAlgebra(2))
        t = tensor_middle(x, regular_bimodule(SuperAlgebra(2)))
        proj = projection_of(t)
        assert proj @ t.section == IntMat.identity(t.bimodule.dim)
        assert (proj @ t.relations).is_zero()
        assert t.projection == proj

    def test_empty_middle_is_external(self):
        x = regular_bimodule(SuperAlgebra(1))
        y = coproduct_left_action(1)
        # both have a trivial middle only if we view them over A(0); fake it
        # by tensoring bimodules with no middle generators
        x0 = Bimodule(x.left, SuperAlgebra(0), x.grades, x.left_actions, [])
        y0 = Bimodule(SuperAlgebra(0), y.right, y.grades, [], y.right_actions)
        t = tensor_middle(x0, y0)
        ext = external_tensor(x0, y0)
        assert t.bimodule.dim == ext.dim
        assert sorted(zip(t.bimodule.degrees, t.bimodule.parities)) == \
            sorted(zip(ext.degrees, ext.parities))
        assert t.projection == projection_of(t)

    def test_associative_up_to_witnessed_iso(self):
        triples = [
            (regular_bimodule(SuperAlgebra(1)), coproduct_left_action(1),
             regular_bimodule(SuperAlgebra(1))),
            (regular_bimodule(SuperAlgebra(1)), coproduct_left_action(2),
             regular_bimodule(SuperAlgebra(2))),
            (symmetrizer_bimodule(1, 1), regular_bimodule(SuperAlgebra(2)),
             symmetrizer_bimodule(1, 1)),
        ]
        for x, y, z in triples:
            iso = associativity_witness(x, y, z)
            assert isinstance(iso, GradedIso), iso

    def test_relations_without_units_take_the_euclidean_section(self, monkeypatch):
        # x0 . E = 2 x1 and E . y0 = 3 y1: the block of x1 (x) y0 and
        # x0 (x) y1 has the one relation (2, -3), no unit entry but
        # invariant factor 1, so its section is solved for from u
        grades = Grades(Fraction(0), [0, -1], [0, 1])
        x = Bimodule(SuperAlgebra(0), SuperAlgebra(1), grades, [],
                     [IntMat(2, 2, {0: {1: 2}})])
        y = Bimodule(SuperAlgebra(1), SuperAlgebra(0), grades,
                     [IntMat(2, 2, {0: {1: 3}})], [])
        calls = []

        def recorded(mat, **kwargs):
            sf = smith(mat, **kwargs)
            calls.append((kwargs, sf.euclid_steps))
            return sf

        monkeypatch.setattr(superalg, "smith", recorded)
        t = tensor_middle(x, y)
        assert ({"want_u": True}, 1) in calls
        assert t.bimodule.dim == 2
        assert sorted(zip(t.bimodule.degrees, t.bimodule.parities)) == [(-1, 1), (0, 0)]
        assert t.projection @ t.section == IntMat.identity(2)
        proj = projection_of(t)
        assert (proj @ t.relations).is_zero()
        assert t.projection == proj
        # the section vector of the (-1, 1) block is not an ambient basis vector
        assert any(len(col) > 1 for col in t.section.cols.values())

    def test_relation_leaving_its_block_is_refused(self):
        # an inhomogeneous right action puts one relation in two blocks
        grades = Grades(Fraction(0), [0, -1], [0, 1])
        x = Bimodule(SuperAlgebra(0), SuperAlgebra(1), grades, [],
                     [IntMat(2, 2, {0: {0: 1, 1: 1}})], check=False)
        y = regular_bimodule(SuperAlgebra(1))
        with pytest.raises(ValueError, match="leaves its graded block"):
            tensor_middle(x, y)

    def test_torsion_detected(self):
        # doubled actions on both sides of the balancing relation leave a Z/2
        grades = Grades(Fraction(0), [0, -1], [0, 1])
        two_n = IntMat(2, 2, {0: {1: 2}})
        x = Bimodule(SuperAlgebra(0), SuperAlgebra(1), grades, [], [two_n])
        y = Bimodule(SuperAlgebra(1), SuperAlgebra(0), grades, [two_n], [])
        with pytest.raises(TorsionDetected):
            tensor_middle(x, y)

    def test_outer_action_must_preserve_the_balancing_submodule(self):
        # X is A(2) with left generator E1 and, as its right generator, left
        # multiplication by E2: both anticommute instead of commuting, so the
        # outer E1 moves the relation x.E (x) 1 - x (x) E off the submodule
        a2 = regular_bimodule(SuperAlgebra(2))
        x = Bimodule(SuperAlgebra(1), SuperAlgebra(1), a2.grades,
                     a2.left_actions[:1], a2.left_actions[1:], check=False)
        y = regular_bimodule(SuperAlgebra(1))
        with pytest.raises(ActionRelationViolation, match="outer action does not "
                           "preserve the balancing submodule"):
            tensor_middle(x, y)


class TestHoms:
    """Bimodules X_f of slot permutations f: A(m) with the right action
    twisted through f.  The swap is ``symmetrizer_bimodule``; the identity
    is the swap with an empty block."""

    def test_identity_hom_is_regular(self):
        reg = regular_bimodule(A2)
        for bim in (symmetrizer_bimodule(2, 0), symmetrizer_bimodule(0, 2)):
            assert bim.left_actions == reg.left_actions
            assert bim.right_actions == reg.right_actions
            assert bim.grades == reg.grades

    def test_not_a_homomorphism(self):
        # sending the generator to E1E2 is even of degree -2: refused on
        # the action matrix
        reg = regular_bimodule(A2)
        with pytest.raises(ActionRelationViolation,
                           match="right generator 0 is not odd of degree -1"):
            Bimodule(A2, SuperAlgebra(1), reg.grades, reg.left_actions,
                     [mult_matrix(A2, {0b11: 1}, "right")])

    def test_composition_of_homs(self):
        # X_{g o f} = X_g (x) X_f on the swap instances: sigma^2 = id
        sw = symmetrizer_bimodule(1, 1)
        t = tensor_middle(sw, sw)
        reg = regular_bimodule(A2)
        # witness: E_S (x) E_T -> E_S . sigma(E_T), where sigma(E_T) is the
        # product of the images E_{sigma(i)} of T's generators, in order
        sigma = {0: 1, 1: 0}
        ev = IntMat(4, 16)
        for s in range(4):
            for tmask in range(4):
                img = {s: 1}
                for i in range(2):
                    if tmask >> i & 1:
                        img = reg.right_actions[sigma[i]].apply(img)
                ev.set_col(s * 4 + tmask, img)
        w = ev @ t.section
        iso = is_graded_iso(w, t.bimodule, reg)
        assert isinstance(iso, GradedIso)

    def test_symmetrizer_action_convention(self):
        # right action through sigma: x . (E in M1 slot) = x . E_{m2 + slot}
        bim = symmetrizer_bimodule(1, 1)
        reg = regular_bimodule(A2)
        assert bim.right_actions[0] == reg.right_actions[1]
        assert bim.right_actions[1] == reg.right_actions[0]

    def test_associator_and_unitors_are_regular(self):
        # the associator and unitor bimodules are X_id
        for algebra in (SuperAlgebra(0), SuperAlgebra(1), A2, A3):
            bim = symmetrizer_bimodule(algebra.m, 0)
            reg = regular_bimodule(algebra)
            assert bim.left_actions == reg.left_actions
            assert bim.right_actions == reg.right_actions


class TestIsGradedIso:
    def test_identity(self):
        x = regular_bimodule(A2)
        iso = is_graded_iso(IntMat.identity(x.dim), x, x)
        assert isinstance(iso, GradedIso)
        assert "unimodular" in iso.checks

    def test_degree_shift_fails(self):
        x = regular_bimodule(SuperAlgebra(1))
        mat = IntMat(2, 2, {0: {1: 1}, 1: {0: 1}})
        res = is_graded_iso(mat, x, x)
        assert isinstance(res, IsoFailure)
        assert res.reason == "not block-diagonal"

    def test_degree_offsets_compared_as_absolute_degrees(self):
        x = regular_bimodule(SuperAlgebra(1))
        ident = IntMat.identity(x.dim)

        def copy(offset, words):
            return Bimodule(x.left, x.right, Grades(offset, words, x.parities),
                            x.left_actions, x.right_actions)

        for shift in (Fraction(1, 3), Fraction(1)):
            shifted = copy(x.grades.offset + shift, x.grades.words)
            assert [d + shift for d in x.degrees] == shifted.degrees
            for src, dst in ((x, shifted), (shifted, x)):
                res = is_graded_iso(ident, src, dst)
                assert isinstance(res, IsoFailure)
                assert res.reason == "not block-diagonal"
            # the zero map leaves no block; the graded ranks still differ
            res = is_graded_iso(IntMat(x.dim, x.dim), x, shifted)
            assert res.reason == "graded rank mismatch"
        # the same absolute degrees, written with another offset
        for same in (copy(Fraction(0), x.grades.words),
                     copy(Fraction(1), [w - 1 for w in x.grades.words])):
            assert same.degrees == x.degrees
            assert isinstance(is_graded_iso(ident, x, same), GradedIso)
            assert isinstance(is_graded_iso(ident, same, x), GradedIso)

    def test_broken_intertwiner_named(self):
        x = regular_bimodule(SuperAlgebra(1))
        y = Bimodule(x.left, x.right, x.grades,
                     [-x.left_actions[0]], list(x.right_actions))
        res = is_graded_iso(IntMat.identity(2), x, y)
        assert isinstance(res, IsoFailure)
        assert "left generator 0" in res.detail

    def test_non_unimodular_fails(self):
        a0 = SuperAlgebra(0)
        x = Bimodule(a0, a0, Grades(Fraction(0), [0, 0], [0, 0]), [], [])
        mat = IntMat(2, 2, {0: {0: 1}, 1: {1: 2}})
        res = is_graded_iso(mat, x, x)
        assert isinstance(res, IsoFailure)
        assert res.reason == "not unimodular"

    def test_only_the_second_block_not_unimodular(self):
        # two degree blocks; the first has determinant 1, the second 1 or 2
        a0 = SuperAlgebra(0)
        x = Bimodule(a0, a0, Grades(Fraction(0), [0, 0, 1, 1], [0, 0, 0, 0]),
                     [], [])

        def blocks(second):
            # first block [[2, 1], [1, 1]], second block [[1, 1], [1, second]]
            return IntMat(4, 4, {0: {0: 2, 1: 1}, 1: {0: 1, 1: 1},
                                 2: {2: 1, 3: 1}, 3: {2: 1, 3: second}})

        assert isinstance(is_graded_iso(blocks(2), x, x), GradedIso)
        res = is_graded_iso(blocks(3), x, x)
        assert isinstance(res, IsoFailure)
        assert res.reason == "not unimodular"


    def test_mismatches_named(self):
        a0, reg = SuperAlgebra(0), regular_bimodule(A2)

        def free(n):
            return Bimodule(a0, a0, Grades(Fraction(0), [0] * n, [0] * n), [], [])

        cases = [
            ("algebra mismatch", IntMat.identity(4), coproduct_left_action(2), reg),
            ("rank mismatch", IntMat(2, 1, {0: {0: 1}}), free(1), free(2)),
            ("shape mismatch", IntMat(2, 3, {0: {0: 1}, 1: {1: 1}}), free(2), free(2)),
        ]
        for reason, mat, x, y in cases:
            res = is_graded_iso(mat, x, y)
            assert isinstance(res, IsoFailure) and res.reason == reason


def test_products_always_validate():
    # only a hand-built Bimodule can skip validation, never a product
    for product in (external_tensor, tensor_middle):
        assert "check" not in inspect.signature(product).parameters
