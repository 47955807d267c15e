"""Bases of H_1(F, S+; Z) and the boundary functionals on them.

Internal coordinate model, per component of F:

* one coordinate per genus class (2g of them);
* one coordinate per boundary circle meeting S-, minus one distinguished
  exception whose class expands as minus the sum of the others (the classes
  of fully-S+ circles are zero);
* one "K-part" coordinate v_P - v_root per S+ component P other than a
  distinguished root (these span the kernel of H_0(S+) -> H_0(F)).

Basis arcs are kept in standard position: an arc from u to v has K-part
v_v - v_u and no circle part.  The boundary functional of an interval reads
off K-part coefficients; circles map to zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .snf import IntMat, is_unimodular, smith, solve_exact
from .surface import (FULL_MINUS, FULL_PLUS, MIXED, SuturedSurface,
                      classify_gluing, rank_h)


class IncompatibleBases(ValueError):
    pass


class InvalidBasis(ValueError):
    pass


GENUS = "genus"
BCLS = "bcls"
KDIFF = "kdiff"


class H1Model:
    """Fixed coordinate system for H_1(F, S+; Z) of one surface."""

    def __init__(self, surface: SuturedSurface):
        self.surface = surface
        self.coords: list[tuple] = []
        self.exception: dict[int, int] = {}   # component -> exception circle index
        self.root: dict[int, str] = {}        # component -> root S+ id
        sminus_meeting: dict[int, list[int]] = {}
        for ci, comp in enumerate(surface.components):
            for i in range(2 * comp.genus):
                self.coords.append((GENUS, ci, i))
            meeting = [bi for bi, c in enumerate(comp.circles) if c.meets_sminus()]
            sminus_meeting[ci] = meeting
            if meeting:
                self.exception[ci] = meeting[0]
                for bi in meeting[1:]:
                    self.coords.append((BCLS, ci, bi))
            splus = surface.splus_of_component(ci)
            if splus:
                self.root[ci] = splus[0]
                for sid in splus[1:]:
                    self.coords.append((KDIFF, ci, sid))
        self.sminus_meeting = sminus_meeting
        self.index = {c: k for k, c in enumerate(self.coords)}
        self.rank = len(self.coords)
        if self.rank != rank_h(surface):
            raise ValueError(f"H_1 model has rank {self.rank}, expected "
                             f"{rank_h(surface)}")

    def genus_class(self, ci: int, i: int):
        return {self.index[(GENUS, ci, i)]: 1}

    def boundary_class(self, ci: int, bi: int):
        circ = self.surface.components[ci].circles[bi]
        if circ.kind == FULL_PLUS:
            return {}
        if bi == self.exception[ci]:
            return {self.index[(BCLS, ci, b)]: -1
                    for b in self.sminus_meeting[ci] if b != bi}
        return {self.index[(BCLS, ci, bi)]: 1}

    def arc_class(self, tail: str, head: str):
        ci = self.surface.locate(tail)[0]
        if self.surface.locate(head)[0] != ci:
            raise InvalidBasis(f"arc {tail}->{head} crosses components")
        vec: dict[int, int] = {}
        for sid, sign in ((head, 1), (tail, -1)):
            if sid != self.root[ci]:
                k = self.index[(KDIFF, ci, sid)]
                w = vec.get(k, 0) + sign
                if w:
                    vec[k] = w
                else:
                    vec.pop(k, None)
        return vec

    def phi(self, interval: str, vec: dict) -> int:
        """Boundary functional of an S+ interval on a model class."""
        ci = self.surface.locate(interval)[0]
        total = 0
        if interval != self.root.get(ci):
            total += vec.get(self.index[(KDIFF, ci, interval)], 0)
        else:
            for sid in self.surface.splus_of_component(ci):
                if sid != interval:
                    total -= vec.get(self.index[(KDIFF, ci, sid)], 0)
        return total


# one composition's surfaces fit; each further entry holds over 1 KB for
# the life of the process and saves no measurable time
@functools.lru_cache(maxsize=64)
def model_of(surface: SuturedSurface) -> H1Model:
    return H1Model(surface)


@dataclass(frozen=True)
class BasisElement:
    """One basis arc or circle, with its class in the model coordinates."""

    label: str
    kind: str                 # "torus" | "boundary" | "arc"
    data: tuple
    coords: tuple             # sorted ((coord index, value), ...)

    def vec(self) -> dict:
        return dict(self.coords)


def _freeze(vec: dict) -> tuple:
    return tuple(sorted(vec.items()))


def torus_element(model: H1Model, ci: int, i: int) -> BasisElement:
    return BasisElement(f"t{ci}.{i}", "torus", (ci, i),
                        _freeze(model.genus_class(ci, i)))


def boundary_element(model: H1Model, ci: int, bi: int) -> BasisElement:
    return BasisElement(f"b{ci}.{bi}", "boundary", (ci, bi),
                        _freeze(model.boundary_class(ci, bi)))


def arc_element(model: H1Model, tail: str, head: str) -> BasisElement:
    return BasisElement(f"a:{tail}->{head}", "arc", (tail, head),
                        _freeze(model.arc_class(tail, head)))


@dataclass(frozen=True)
class H1Basis:
    model: H1Model
    elements: tuple

    def __post_init__(self):
        n = self.model.rank
        if len(self.elements) != n:
            raise InvalidBasis(
                f"{len(self.elements)} elements for rank-{n} lattice")
        if not is_unimodular(self.matrix()):
            raise InvalidBasis("element classes are not a unimodular basis")

    def __len__(self):
        return len(self.elements)

    def matrix(self) -> IntMat:
        """Model-coordinate matrix; column j is element j."""
        return IntMat(self.model.rank, len(self.elements),
                      {j: el.vec() for j, el in enumerate(self.elements)
                       if el.coords})

    def phi_values(self, interval: str):
        return [self.model.phi(interval, el.vec()) for el in self.elements]

    def labels(self):
        return [el.label for el in self.elements]

    def wedge_label(self, mask: int) -> str:
        """The label of the wedge of the elements in ``mask``, lowest first."""
        return "^".join(el.label for i, el in enumerate(self.elements)
                        if mask >> i & 1) or "1"

    def dump(self) -> str:
        """Debug table: one line per element with its model coordinates."""
        lines = []
        for j, el in enumerate(self.elements):
            coords = " ".join(f"{self.model.coords[i]}:{v:+d}"
                              for i, v in el.coords) or "0"
            lines.append(f"{j:3d}  {el.label:<16} {el.kind:<8} {coords}")
        return "\n".join(lines)


def _star(surface: SuturedSurface, ci: int, root: str, skip=()) -> list:
    """The tree arcs from ``root`` to every other S+ id of component ``ci``
    that is not in ``skip``."""
    return [(root, sid) for sid in surface.splus_of_component(ci)
            if sid != root and sid not in skip]


def _ordered_elements(model: H1Model, exceptions=None, tree_arcs=None) -> list:
    """The element order of every basis built here: the genus classes; the
    classes of the circles meeting S- except each component's exception
    (the model's, unless ``exceptions`` names another); then per component
    its arcs in ``tree_arcs``, or else the star from its first S+ id."""
    surface = model.surface
    exceptions = {**model.exception, **(exceptions or {})}
    tree_arcs = tree_arcs or {}
    els = [torus_element(model, ci, i)
           for ci, comp in enumerate(surface.components)
           for i in range(2 * comp.genus)]
    for ci, meeting in model.sminus_meeting.items():
        els += [boundary_element(model, ci, bi) for bi in meeting
                if bi != exceptions[ci]]
    for ci in range(len(surface.components)):
        splus = surface.splus_of_component(ci)
        if ci in tree_arcs:
            arcs = tree_arcs[ci]
        else:
            arcs = _star(surface, ci, splus[0]) if splus else []
        els += [arc_element(model, tail, head) for tail, head in arcs]
    return els


def canonical_basis(surface: SuturedSurface) -> H1Basis:
    """Deterministic basis: genus classes, boundary classes, then star-tree arcs."""
    model = model_of(surface)
    return H1Basis(model, tuple(_ordered_elements(model)))


def change_of_basis(from_basis: H1Basis, to_basis: H1Basis) -> list:
    """The from-basis elements in to-basis coordinates, as sparse columns
    {to-basis index: coefficient}: column j is element j, so the list is
    empty when h = 0."""
    if from_basis.model.surface != to_basis.model.surface:
        raise IncompatibleBases("bases live on different surfaces")
    sol = solve_exact(to_basis.matrix(), [el.vec() for el in from_basis.elements])
    if sol is None:
        raise IncompatibleBases("change of basis is not integral")
    return sol


# ---------------------------------------------------------------------------
# gluing-adapted bases


@dataclass(frozen=True)
class AdaptedBasis:
    """Basis with the arcs at the glued intervals isolated up front.

    ``specials`` holds the leading distinguished arcs: (e1, e2) in the
    two-arc cases, (e,) in the single-arc cases, () in case 1-1.
    """

    basis: H1Basis
    case_tag: str
    specials: tuple


def adapted_basis(surface: SuturedSurface, i1: str, i2: str) -> AdaptedBasis:
    case = classify_gluing(surface, i1, i2)
    model = model_of(surface)
    c1, b1 = surface.locate(i1)
    c2, b2 = surface.locate(i2)

    tree_arcs: dict[int, list] = {}
    specials: list = []

    if case == "1-1":
        pass
    elif case == "1-2":
        if surface.splus_of_component(c1) == (i1,):
            active, ca = i2, c2
        else:
            active, ca = i1, c1
        root = next(s for s in surface.splus_of_component(ca) if s != active)
        specials = [(root, active)]
        tree_arcs[ca] = _star(surface, ca, root, skip=(active,))
    elif case == "1-3":
        u = next(s for s in surface.splus_of_component(c1) if s != i1)
        w = next(s for s in surface.splus_of_component(c2) if s != i2)
        specials = [(u, i1), (i2, w)]
        tree_arcs[c1] = _star(surface, c1, u, skip=(i1,))
        tree_arcs[c2] = _star(surface, c2, w, skip=(i2,))
    elif case in ("2-1a", "2-2a"):
        q = next(s for s in surface.splus_of_component(c1) if s not in (i1, i2))
        specials = [(q, i1), (i2, q)]
        tree_arcs[c1] = _star(surface, c1, q, skip=(i1, i2))
    else:  # 2-1b, 2-2b
        specials = [(i2, i1)]
        tree_arcs[c1] = []

    # on one component (c1 == c2) i1's circle is the exception; in case 2-2
    # gamma_2 then keeps its basis circle
    els = [arc_element(model, t, h) for t, h in specials]
    els += _ordered_elements(model, {c2: b2, c1: b1}, tree_arcs)
    basis = H1Basis(model, tuple(els))
    special_els = tuple(els[: len(specials)])
    return AdaptedBasis(basis, case, special_els)


# ---------------------------------------------------------------------------
# independent CW oracle for the rank and torsion of H_1(F, S+)


def cw_relative_h1(surface: SuturedSurface):
    """Rank and invariant factors of H_1(F, S+) from an explicit CW structure.

    Cells per component: a central vertex, 2g genus loops, one spoke per
    boundary circle, the boundary 0- and 1-cells (sutures and arcs, or a
    single vertex and loop on suture-free circles), and a single 2-cell
    attached along genus commutators and conjugated boundary words.  S+
    cells are then killed to form the relative complex.
    """
    zero_cells: list = []
    one_cells: list = []
    d1_cols: dict[int, dict[int, int]] = {}
    d2_cols: dict[int, dict[int, int]] = {}
    z_index: dict = {}
    o_index: dict = {}

    def add0(key):
        z_index[key] = len(zero_cells)
        zero_cells.append(key)

    def add1(key, boundary):
        o_index[key] = len(one_cells)
        col = {}
        for cell, sign in boundary:
            if cell in z_index:  # cells outside the index were killed (in S+)
                col[z_index[cell]] = col.get(z_index[cell], 0) + sign
        d1_cols[len(one_cells)] = {k: v for k, v in col.items() if v}
        one_cells.append(key)

    for ci, comp in enumerate(surface.components):
        add0(("v", ci))
        two_cell: dict[int, int] = {}

        def hit(key, sign=1):
            if key in o_index:
                j = o_index[key]
                w = two_cell.get(j, 0) + sign
                if w:
                    two_cell[j] = w
                else:
                    two_cell.pop(j, None)

        for i in range(2 * comp.genus):
            add1(("loop", ci, i), [])   # genus loops at the central vertex
        # commutators contribute 0 to d2, so nothing to hit
        for bi, circ in enumerate(comp.circles):
            if circ.kind == MIXED:
                n = len(circ.word)
                for k in range(n):
                    add0(("s", ci, bi, k))  # suture between arc k-1 and arc k
                for k, arc in enumerate(circ.word):
                    key = ("barc", ci, bi, k)
                    if arc is None:  # S- arc: keep
                        add1(key, [(("s", ci, bi, (k + 1) % n), 1),
                                   (("s", ci, bi, k), -1)])
                        hit(key)
                add1(("spoke", ci, bi), [(("s", ci, bi, 0), 1), (("v", ci), -1)])
            elif circ.kind == FULL_MINUS:
                add0(("u", ci, bi))
                key = ("circle", ci, bi)
                add1(key, [])
                hit(key)
                add1(("spoke", ci, bi), [(("u", ci, bi), 1), (("v", ci), -1)])
            else:  # FULL_PLUS: vertex and loop are killed, spoke survives
                add1(("spoke", ci, bi), [(("v", ci), -1)])
        d2_cols[ci] = two_cell

    # Relativize: sutures are endpoints of S+ arcs, hence lie in S+ and get
    # killed here.  S+ arcs and full+ vertices/loops were never added above.
    keep0 = [k for k, key in enumerate(zero_cells) if key[0] != "s"]
    remap0 = {old: new for new, old in enumerate(keep0)}
    n0 = len(keep0)
    n1 = len(one_cells)
    d1 = IntMat(n0, n1)
    for j, col in d1_cols.items():
        d1.set_col(j, {remap0[i]: v for i, v in col.items() if i in remap0})
    d2 = IntMat(n1, len(surface.components))
    for j, col in d2_cols.items():
        d2.set_col(j, dict(col))

    r1 = smith(d1).rank
    sf2 = smith(d2)
    rank = n1 - r1 - sf2.rank
    return rank, sf2.invariant_factors
