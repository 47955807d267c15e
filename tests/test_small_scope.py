"""Bounded-exhaustive self-gluings over a small scope.

The random suites reach the rare gluing cases only by luck, and always
with ``sigma_sign = +1``.  Here every surface in a small scope is glued on
every ordered pair of its intervals, and each pair on one boundary circle
with both values of ``sigma_sign``: the small-scope hypothesis, that most
faults show on some small input.

The scope is every all-outgoing surface, up to relabelling, with at most
two components, each of genus at most 1 with at most two boundary
circles, and h <= 5.  A surface is enumerated once, in canonical form:
its components and each component's circles are sorted by shape, and its
S+ ids are numbered in that order, each mixed word starting at its
smallest id.
"""

from itertools import combinations_with_replacement, count, permutations

from opencob.gluing import self_glue_iso
from opencob.grading import PRESET_TENSOR
from opencob.statespace import build
from opencob.surface import (CASE_DEGREE_SHIFT, BoundaryCircle, Component,
                             SuturedSurface, rank_h)

MAX_COMPONENTS, MAX_GENUS, MAX_CIRCLES, MAX_H = 2, 1, 2, 5

# a circle's shape: full-, full+, or mixed with that many S+ intervals; no
# component has negative h, and a disk bounded by one mixed circle with k
# intervals has h = k - 1, so k <= MAX_H + 1
SHAPES = ((0, 0), (1, 0)) + tuple((2, k) for k in range(1, MAX_H + 2))


def component_shapes():
    """(genus, sorted circle shapes) for every component in the scope."""
    return [(genus, circles)
            for genus in range(MAX_GENUS + 1)
            for n in range(MAX_CIRCLES + 1)
            for circles in combinations_with_replacement(SHAPES, n)]


def realise(shape) -> SuturedSurface:
    """The all-outgoing surface of a sorted tuple of component shapes, its
    S+ ids s1, s2, ... in canonical order."""
    ids = (f"s{n}" for n in count(1))
    comps = []
    for genus, circles in shape:
        made = []
        for kind, k in circles:
            if kind == 0:
                made.append(BoundaryCircle.full_minus())
            elif kind == 1:
                made.append(BoundaryCircle.full_plus(next(ids)))
            else:
                made.append(BoundaryCircle.mixed(*(next(ids) for _ in range(k))))
        comps.append(Component(genus, tuple(made)))
    comps = tuple(comps)
    return SuturedSurface(comps, (), tuple(
        i for c in comps for b in c.circles for i in b.plus_ids()))


def small_surfaces():
    """Every surface of the scope with at least two intervals, once."""
    for n in range(1, MAX_COMPONENTS + 1):
        for shape in combinations_with_replacement(component_shapes(), n):
            surface = realise(shape)
            if rank_h(surface) <= MAX_H and len(surface.interval_ids()) >= 2:
                yield surface


def test_enumeration_is_canonical():
    surfaces = list(small_surfaces())
    assert len(surfaces) == len(set(surfaces)) == 381
    for surface in surfaces:
        ids = surface.outgoing
        assert ids == tuple(f"s{n}" for n in range(1, len(ids) + 1))
        assert all(b.word[0] == min(b.plus_ids()) for c in surface.components
                   for b in c.circles if b.word)


def test_every_self_gluing_verifies():
    # sigma_sign orients the circle that a gluing of two intervals on one
    # boundary circle creates (cases 2-1a and 2-1b); such pairs are glued
    # with both signs, every other pair with the default
    seen = {}
    for surface in small_surfaces():
        space = build(surface, PRESET_TENSOR)
        for i1, i2 in permutations(surface.interval_ids(), 2):
            one_circle = surface.locate(i1) == surface.locate(i2)
            for sign in (1, -1) if one_circle else (1,):
                res = self_glue_iso(space, i1, i2, sigma_sign=sign)
                assert res.case_tag.startswith("2-1") == one_circle
                seen[res.case_tag] = seen.get(res.case_tag, 0) + 1
    assert seen == {"1-1": 18, "1-2": 390, "1-3": 734, "2-1a": 4276,
                    "2-1b": 400, "2-2a": 378, "2-2b": 82}
