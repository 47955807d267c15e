import random
from fractions import Fraction

import pytest

from opencob.grading import (H_COEFFS, HALF_SHIFT, PRESET_HALF, PRESET_TENSOR,
                             TENSOR_SHIFT, ConstraintCoeffs, Grading,
                             ParityParams, ParityUndefined, ShiftParams,
                             constraint_residuals, delta, delta_coeffs,
                             half_parity_defined, pi, pi_half,
                             solve_constraints)
from opencob.harness import Bounds, random_shift, random_surface
from opencob.surface import (BoundaryCircle, Component, SuturedSurface,
                             counts, disjoint_union, open_pants, rank_h,
                             surface_fgp)

F = Fraction


def closed(g):
    return SuturedSurface((Component(g),), (), ())


# a disk whose boundary is one S+ interval and one S- interval
DISK_PLUS_MINUS = SuturedSurface(
    (Component(0, (BoundaryCircle.mixed("a"),)),), (), ("a",))


class TestDelta:
    def test_tensor_preset_is_minus_h(self):
        for surf in (surface_fgp(1, 2), open_pants(3), closed(2)):
            assert delta(PRESET_TENSOR.shift, surf) == -rank_h(surf)

    def test_pants_with_a1_one(self):
        params = ShiftParams(1, F(7, 3), -2, F(1, 5))
        for p in range(5):
            assert delta(params, open_pants(p)) == -p

    def test_pants_general_params(self):
        # -p (A1 + 1)/2 + (A1 - 1)/2
        params = ShiftParams(F(3, 4), 0, 0, 0)
        for p in range(5):
            a1 = params.a1
            assert delta(params, open_pants(p)) == -p * (a1 + 1) / 2 + (a1 - 1) / 2

    def test_additivity(self):
        rng = random.Random(7)
        for _ in range(25):
            params = random_shift(rng)
            f = random_surface(rng, Bounds(max_h=5))
            g = random_surface(rng, Bounds(max_h=5), prefix="g")
            u = disjoint_union(f, g)
            assert delta(params, u) == delta(params, f) + delta(params, g)


    @staticmethod
    def six_term_delta(params, k):
        """The shift formula term by term in Fractions, as defined."""
        return (-params.a1 * k.h
                + (params.a1 - 1) * k.k4
                + params.a2 * k.k5
                + params.a3 * k.k3
                + (params.a1 - 1) / 2 * k.k6
                + params.a4 * k.k7)

    def test_integer_coefficients_match_the_six_term_formula(self):
        rng = random.Random(11)
        vectors = [counts(random_surface(rng, Bounds(max_h=8))) for _ in range(40)]
        vectors += [counts(surface_fgp(2, 3)), counts(open_pants(4)),
                    counts(closed(3)), counts(DISK_PLUS_MINUS)]
        params = [HALF_SHIFT, TENSOR_SHIFT] + [random_shift(rng) for _ in range(200)]
        for shift in params:
            for k in vectors:
                got = shift.delta_of(k)
                assert isinstance(got, Fraction)
                assert got == self.six_term_delta(shift, k), (shift, k)


class TestPi:
    def test_zero_params_is_h(self):
        for surf in (surface_fgp(2, 1), open_pants(2)):
            assert pi(ParityParams(0, 0, 0, 0), surf) == rank_h(surf) % 2

    def test_pants_n3(self):
        for n3 in (0, 1):
            params = ParityParams(0, 0, n3, 0)
            for p in range(5):
                assert pi(params, open_pants(p)) == (p + n3 * (p + 1)) % 2

    def test_closed_genus_g_with_n2(self):
        assert pi(ParityParams(0, 1, 0, 0), closed(3)) == 1

    def test_additive_mod_2(self):
        rng = random.Random(11)
        for _ in range(25):
            params = ParityParams(*(rng.randint(0, 1) for _ in range(4)))
            f = random_surface(rng, Bounds(max_h=5))
            g = random_surface(rng, Bounds(max_h=5), prefix="g")
            u = disjoint_union(f, g)
            assert pi(params, u) == (pi(params, f) + pi(params, g)) % 2


class TestHalf:
    def test_fgp_formula(self):
        # delta_1/2(F_{g,p}) = -h/2 - p/2 + 1/2
        for g in range(3):
            for p in range(1, 4):
                surf = surface_fgp(g, p)
                h = rank_h(surf)
                assert PRESET_HALF.delta(surf) == F(-h, 2) - F(p, 2) + F(1, 2)

    def test_f12(self):
        surf = surface_fgp(1, 2)
        assert PRESET_HALF.delta(surf) == -2
        assert pi_half(counts(surf)) == 0

    def test_disk_plus_minus_undefined(self):
        assert not half_parity_defined(DISK_PLUS_MINUS)
        with pytest.raises(ParityUndefined):
            pi_half(counts(DISK_PLUS_MINUS))

    def test_defined_iff_integral(self):
        rng = random.Random(3)
        for _ in range(60):
            surf = random_surface(rng, Bounds(max_h=6))
            integral = PRESET_HALF.delta(surf).denominator == 1
            assert half_parity_defined(surf) == integral

    def test_pi_half_is_delta_mod_2(self):
        rng = random.Random(5)
        found = 0
        for _ in range(80):
            surf = random_surface(rng, Bounds(max_h=6))
            if half_parity_defined(surf):
                found += 1
                assert pi_half(counts(surf)) == PRESET_HALF.delta(surf) % 2
        assert found > 5

    def test_preset_coherence(self):
        surf = surface_fgp(0, 2)
        half_shift = ShiftParams(F(1, 2), F(1, 2), F(0), F(-1, 2))
        assert PRESET_HALF.delta(surf) == delta(half_shift, surf)
        assert PRESET_HALF.pi(surf) == pi_half(counts(surf))


class TestConstraints:
    def test_family_has_zero_residuals(self):
        rng = random.Random(17)
        for _ in range(50):
            coeffs = delta_coeffs(random_shift(rng))
            assert all(r == 0 for r in constraint_residuals(coeffs))

    def test_all_zero_coeffs(self):
        res = constraint_residuals(ConstraintCoeffs((0,) * 9))
        # the "= 1" equations give residual -1, the "= 0" ones give 0
        assert res == [0, -1, -1, -1, -1, -1, 0, -1, -1, 0]

    def test_perturbing_c6(self):
        coeffs = list(delta_coeffs(ShiftParams(1, 0, 0, 0)).c)
        coeffs[5] += 1
        res = constraint_residuals(ConstraintCoeffs(tuple(coeffs)))
        assert any(r != 0 for r in res)

    def test_solution_family(self):
        sol = solve_constraints()
        assert sol.free == (2, 4, 6, 8)  # C3, C5, C7, C9
        assert sol.exprs[3] == (F(-1), {})                    # C4 = -1
        assert sol.exprs[0] == (F(0), {8: F(-2)})             # C1 = -2 C9
        assert sol.exprs[1] == (F(0), {8: F(2)})              # C2 = 2 C9
        assert sol.exprs[5] == (F(-1, 2), {8: F(1, 2)})       # C6 = (C9-1)/2
        assert sol.exprs[7] == (F(0), {8: F(1)})              # C8 = C9

    def test_samples_satisfy_residuals(self):
        sol = solve_constraints()
        rng = random.Random(23)
        for _ in range(20):
            coeffs = sol.sample(*(F(rng.randint(-9, 9), rng.randint(1, 5))
                                  for _ in range(4)))
            assert all(r == 0 for r in constraint_residuals(coeffs))

    def test_c9_minus_one_gives_a1_one(self):
        # substituting C9 = -1 must reproduce the shift with A1 = 1
        sol = solve_constraints()
        shift = ShiftParams(1, F(2), F(3), F(4))
        target = delta_coeffs(shift)
        sampled = sol.sample(target.c[2], target.c[4], target.c[6], F(-1))
        assert sampled.c == target.c

    def test_delta_matches_sampled_family(self):
        # any shift expands to a family member with C9 = -A1
        rng = random.Random(29)
        sol = solve_constraints()
        for _ in range(20):
            shift = random_shift(rng)
            c = delta_coeffs(shift)
            sampled = sol.sample(c.c[2], c.c[4], c.c[6], c.c[8])
            assert sampled.c == c.c


class TestCountCoefficients:
    """The count-vector coefficients the constraints suite checks are the
    formulas state spaces are graded by."""

    def test_delta_is_delta_coeffs_on_counts(self):
        rng = random.Random(37)
        for _ in range(300):
            surf = random_surface(rng, Bounds(max_h=8))
            params = random_shift(rng)
            k = counts(surf).as_tuple()
            c = delta_coeffs(params).c
            assert delta(params, surf) == sum(a * b for a, b in zip(c, k))

    def test_h_coeffs_give_h(self):
        rng = random.Random(41)
        for _ in range(300):
            k = counts(random_surface(rng, Bounds(max_h=8)))
            assert sum(a * b for a, b in zip(H_COEFFS, k.as_tuple())) == k.h


class TestGluingShiftProperty:
    def test_delta_changes_by_case_value(self):
        from opencob.gluing import CASE_DEGREE_SHIFT
        from opencob.surface import glue_intervals
        rng = random.Random(31)
        seen = set()
        for _ in range(80):
            surf = random_surface(rng, Bounds(max_h=6))
            intervals = surf.interval_ids()
            if len(intervals) < 2:
                continue
            i1, i2 = rng.sample(list(intervals), 2)
            params = random_shift(rng)
            parity = ParityParams(*(rng.randint(0, 1) for _ in range(4)))
            res = glue_intervals(surf, i1, i2)
            seen.add(res.case_tag)
            got = delta(params, res.surface) - delta(params, surf)
            assert got == CASE_DEGREE_SHIFT[res.case_tag]
            dpi = (pi(parity, res.surface) - pi(parity, surf)) % 2
            assert dpi == (rank_h(surf) - rank_h(res.surface)) % 2
        assert len(seen) >= 4
