import dataclasses
import random

import pytest

import opencob.harness as harness
from opencob.harness import (Bounds, VerificationReport, lemma_case_instances,
                             random_composable_pair, random_surface,
                             run_suite, shrink_surface)
from opencob.laurent import LaurentPoly
from opencob.snf import IntMat
from opencob.surface import Component, compose_preflight, rank_h, validate


class TestRandomSurface:
    def test_deterministic(self):
        a = random_surface(random.Random(123), Bounds())
        b = random_surface(random.Random(123), Bounds())
        assert a == b

    def test_all_valid_and_bounded(self):
        rng = random.Random(7)
        for _ in range(60):
            s = random_surface(rng, Bounds(max_h=6))
            validate(s)
            assert rank_h(s) <= 6

    def test_pairs_composable(self):
        for max_h in (8, 2):
            rng = random.Random(9)
            for _ in range(20):
                fp, f = random_composable_pair(rng, Bounds(max_h=max_h))
                compose_preflight(fp, f)
                assert 1 <= len(f.outgoing) <= 3
                assert rank_h(f) <= max_h and rank_h(fp) <= max_h

    @pytest.mark.parametrize("max_h", [-1, 0, 1])
    def test_pairs_refuse_small_max_h_up_front(self, max_h):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="max-h"):
            random_composable_pair(rng, Bounds(max_h=max_h))
        # refused before any draw: the generator's state is untouched
        assert rng.getstate() == random.Random(0).getstate()

    @pytest.mark.parametrize("field,value", [
        ("max_components", 0), ("max_genus", -1), ("max_genus", 3),
        ("max_circles", -1), ("max_circles", 4), ("max_arcs", 0),
        ("max_arcs", 4)])
    def test_bounds_the_generator_cannot_draw_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            Bounds(**{field: value})


class TestShrinking:
    def test_shrinks_to_minimal(self):
        rng = random.Random(11)
        s = random_surface(rng, Bounds(max_h=8))

        def pred(surface):
            return len(surface.interval_ids()) >= 2

        small = shrink_surface(s, pred)
        assert pred(small)
        # removing anything more breaks the predicate, so it is small
        assert len(small.interval_ids()) <= len(s.interval_ids())
        assert len(small.components) <= len(s.components)

    def test_invalid_candidate_is_skipped(self, monkeypatch):
        import opencob.harness as harness_module
        from opencob.surface import BoundaryCircle, SurfaceError, SuturedSurface
        first = Component(0, (BoundaryCircle.mixed("a", "b"),))
        s = SuturedSurface((first, Component(1, (BoundaryCircle.mixed("c"),))),
                           (), ("a", "b", "c"))

        def guarded_surface(comps, inc, out):
            # pretend every candidate that alters the first component is invalid
            if first not in comps:
                raise SurfaceError("candidate refused")
            return SuturedSurface(comps, inc, out)
        monkeypatch.setattr(harness_module, "SuturedSurface", guarded_surface)
        small = shrink_surface(s, lambda surface: True)
        assert small.components == (first,)
        assert small.outgoing == ("a", "b")

    def test_predicate_error_propagates(self):
        rng = random.Random(11)
        s = random_surface(rng, Bounds(max_h=8))

        def pred(surface):
            return 1 // 0

        with pytest.raises(ZeroDivisionError):
            shrink_surface(s, pred)

    def test_shrink_failing_pair_keeps_interface(self):
        from opencob.harness import shrink_failing_pair
        rng = random.Random(13)
        fp, f = random_composable_pair(rng, Bounds(max_h=8))

        # synthetic failure: "fails" whenever the pair stays composable
        def failing(cand_fp, cand_f):
            compose_preflight(cand_fp, cand_f)
            return True

        small_fp, small_f = shrink_failing_pair(fp, f, failing)
        compose_preflight(small_fp, small_f)
        assert set(small_f.outgoing) == set(f.outgoing)
        assert rank_h(small_f) <= rank_h(f)
        assert rank_h(small_fp) <= rank_h(fp)


class TestReports:
    def test_byte_identical(self):
        r1 = run_suite("constraints", seed=5, trials=10)
        r2 = run_suite("constraints", seed=5, trials=10)
        assert r1.to_text() == r2.to_text()
        assert r1.wall_time >= 0  # wall time excluded from the text

    def test_ok_property(self):
        r = VerificationReport("x", 0, 1)
        assert r.ok
        from opencob.harness import Failure
        r.failures.append(Failure(0, 0, "boom", "dump"))
        assert not r.ok
        assert "boom" in r.to_text()

    def test_lemma_instances_cover_all_cases(self):
        tags = [(c, n) for c, n, *_ in lemma_case_instances()]
        assert tags == [("1-1", 1), ("1-2", 0), ("1-3", 1),
                        ("2-1a", 0), ("2-1a", 1), ("2-1a", 2), ("2-1b", 2),
                        ("2-2a", 0), ("2-2a", 1), ("2-2b", 1)]


class TestFixedInstanceSuites:
    """``lemma-cases`` and ``dimensions`` report as their trial count the
    number of instances they actually run."""

    def run_counting(self, monkeypatch, module, name, suite):
        seen = set()
        honest = getattr(module, name)

        def counting(surface, *args, **kwargs):
            seen.add(surface)
            return honest(surface, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        report = run_suite(suite)
        assert report.ok, report.to_text()
        return report.trials, len(seen)

    def test_lemma_cases(self, monkeypatch):
        trials, run = self.run_counting(monkeypatch, harness.gluing,
                                        "self_glue_iso", "lemma-cases")
        assert trials == run == 10

    def test_dimensions(self, monkeypatch):
        trials, run = self.run_counting(monkeypatch, harness, "build",
                                        "dimensions")
        assert trials == run == 16


class TestSuitesSmoke:
    def test_theorem_small(self):
        r = run_suite("theorem", seed=1, trials=5)
        assert r.ok, r.to_text()

    def test_unknown_suite(self):
        import pytest
        with pytest.raises(ValueError):
            run_suite("nope")


def corrupt(monkeypatch, module, name, change):
    """``module.name`` returns its honest result passed through ``change``."""
    honest = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(honest(*args)))


def doubled_top_column(iso):
    top = iso.matrix.ncols - 1
    matrix = IntMat(iso.matrix.nrows, iso.matrix.ncols, dict(iso.matrix.cols))
    matrix.set_col(top, {r: 2 * v for r, v in iso.matrix.col(top).items()})
    return dataclasses.replace(iso, matrix=matrix)


def certified_short(res):
    res.checks = res.checks[:-1]
    return res


def glued(**changes):
    """Corrupt every self-gluing result: field -> its new value from the old."""
    return lambda mp: corrupt(mp, harness.gluing, "self_glue_iso",
                              lambda res: dataclasses.replace(res, **{
                                  k: f(getattr(res, k)) for k, f in changes.items()}))


T = LaurentPoly.t_half_power(2)
HALF = LaurentPoly.t_half_power(1)

# suite run, the corruption of the library result it re-checks, and the
# identity of the failure it must report
SUITE_CHECKS = {
    "theorem superdimension": (
        lambda: harness.verify_theorem(seed=1, trials=1, max_h=4),
        lambda mp: corrupt(mp, harness, "graded_superdim", lambda sd: sd * T),
        "ConventionMismatch: superdimension mismatch"),
    "lemma case tag": (
        harness.verify_lemma_cases, glued(case_tag=lambda tag: "9-9"),
        "case 1-1: ConventionMismatch: expected case 1-1, got 9-9"),
    "lemma S- circles": (
        harness.verify_lemma_cases, glued(created_sminus_circles=lambda n: n + 1),
        "case 1-1: ConventionMismatch: expected 1 new S- circles, got 2"),
    "lemma degree shift": (
        harness.verify_lemma_cases, glued(degree_shift=lambda d: d + 1),
        "case 1-1: ConventionMismatch: degree shift 1 != 0"),
    "lemma certificate": (
        harness.verify_lemma_cases,
        lambda mp: corrupt(mp, harness.gluing, "self_glue_iso", certified_short),
        "case 1-1: ConventionMismatch: gluing certified only by ('relations', "
        "'shifts', 'blocks', 'intertwining', 'ranks')"),
    "pants top monomial": (
        lambda: harness.verify_pants(trials=1),
        lambda mp: corrupt(mp, harness.gluing, "pants_iso", doubled_top_column),
        "p=0: ConventionMismatch: top monomial does not map to +-1"),
    "dimensions closed form": (
        harness.verify_dimensions,
        lambda mp: corrupt(mp, harness.statespace, "reference_dimension_fgp",
                           lambda want: want * T),
        "(g,p)=(0,1): 1 != t^1"),
    "dimensions integral exponents": (
        harness.verify_dimensions,
        lambda mp: (mp.setattr(harness, "graded_superdim", lambda space: HALF),
                    mp.setattr(harness.statespace, "reference_dimension_fgp",
                               lambda g, p: HALF)),
        "(g,p)=(0,1): non-integral exponent"),
}


@pytest.mark.parametrize("check", SUITE_CHECKS)
def test_suite_re_checks_fire(monkeypatch, check):
    # each suite re-checks what the library returned; a corrupted result
    # is reported as the suite's first failure
    run, patch, identity = SUITE_CHECKS[check]
    patch(monkeypatch)
    report = run()
    assert report.failures and report.failures[0].identity == identity
