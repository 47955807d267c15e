"""State spaces: the exterior algebra on H_1(F, S+) with shifts and signs.

A state space is the free Z-module on the subsets of a chosen H_1 basis,
with the monomial in the empty set sitting in degree delta(F) and each basis
factor adding one to the degree.  Interval components of S+ act by odd,
degree -1, square-zero endomorphisms; outgoing intervals act from the left
(with the extra sign for commuting past the parity prefactor), incoming
ones from the right.

Everything about the monomials that depends on the rank h alone (their
order, index, word lengths, parities and graded blocks) is built once per
h and shared by every space of that rank (``skeleton``).  ``build`` refuses
ranks above ``MAX_STATE_H`` before it makes anything of size 2^h.

An E-action is the contraction by the interval's phi vector.  Which
monomials contain e_i, where removing e_i sends them and with which sign
depends on h and i alone, so it is kept once per ``(h, i)`` in a
``contraction_table``, built when first needed.  ``contraction_matrix``
reads every E-action and E1 + E2 off these tables, and ``action_matrix``
builds on demand: no space keeps its actions, because a 2^h-dimensional
action costs about 1.2 MB at h = 13 and is rarely asked for twice.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .grading import Grading
from .homology import H1Basis, IncompatibleBases, canonical_basis
from .laurent import LaurentPoly
from .snf import IntMat
from .superalg import Bimodule, Grades, SuperAlgebra
from .surface import NotAnInterval, SuturedSurface, counts

# Largest rank h whose 2^h-dimensional state space the verifier builds:
# ``build`` refuses anything larger, and the composable pairs (h_p + h_f)
# and the pants p are capped at it.
MAX_STATE_H = 13


class StateSpaceTooLarge(ValueError):
    """A state space of rank 2^h with h above ``MAX_STATE_H`` was requested."""


@dataclass
class StateSpace:
    surface: SuturedSurface
    grading: Grading
    basis: H1Basis
    monomials: tuple         # bitmasks over the basis, (size, lex) order
    index: dict              # bitmask -> position
    delta: Fraction
    parity0: int             # parity of the prefactor epsilon_F
    grades: Grades           # offset delta, words the word lengths
    # ``action_matrix`` caches nothing; this stays an always-empty mapping
    # so that code reading it (``perfbench/spans.py``) keeps working.
    action_cache = MappingProxyType({})

    @property
    def degrees(self):
        return self.grades.degrees

    @property
    def parities(self):
        return self.grades.parities

    @property
    def h(self):
        return len(self.basis)

    @property
    def dim(self):
        return len(self.monomials)

    def monomial_label(self, mask: int) -> str:
        return self.basis.wedge_label(mask)


def monomial_order(h: int):
    out = []
    for k in range(h + 1):
        for combo in itertools.combinations(range(h), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            out.append(mask)
    return out


@dataclass(frozen=True)
class Skeleton:
    """The monomials of every rank-h state space.  Shared by all spaces of
    that rank, so nothing may mutate it, ``index`` and ``blocks``
    included."""

    monomials: tuple     # bitmasks, (size, lex) order
    index: dict          # bitmask -> position
    words: tuple         # word length of each monomial
    parities: tuple      # parities[p] for parity0 p: (p + word) & 1
    blocks: tuple        # blocks[p]: (word, parity) -> tuple of positions


@functools.cache
def skeleton(h: int) -> Skeleton:
    monos = tuple(monomial_order(h))
    index = {m: k for k, m in enumerate(monos)}
    words = tuple(m.bit_count() for m in monos)
    even = tuple(w & 1 for w in words)
    parities = (even, tuple(p ^ 1 for p in even))
    blocks = []
    for pattern in parities:
        lists: dict[tuple, list] = {}
        for k, key in zip(index.values(), zip(words, pattern)):
            lists.setdefault(key, []).append(k)
        blocks.append({key: tuple(ix) for key, ix in lists.items()})
    return Skeleton(monos, index, words, parities, tuple(blocks))


@dataclass(frozen=True)
class ContractionTable:
    """Where removing e_i takes the rank-h monomials that contain it.
    Shared by all spaces of rank h, so nothing may mutate it."""

    cols: tuple          # positions of the monomials m that contain e_i
    rows: tuple          # positions of m without e_i, in the same order
    left: bytes          # 1 where e_i passes an odd number of factors below it
    right: bytes         # 1 where e_i passes an odd number of factors above it


@functools.cache
def contraction_table(h: int, i: int) -> ContractionTable:
    sk = skeleton(h)
    index = sk.index
    bit = 1 << i
    below, above = bit - 1, ((1 << h) - 1) ^ (2 * bit - 1)
    hits = [(k, m) for m, k in index.items() if m & bit]
    # the positions are the skeleton's own ints, not copies of them
    return ContractionTable(
        tuple(k for k, _ in hits), tuple(index[m ^ bit] for _, m in hits),
        bytes((m & below).bit_count() & 1 for _, m in hits),
        bytes((m & above).bit_count() & 1 for _, m in hits))


def build(surface: SuturedSurface, grading: Grading,
          basis: H1Basis | None = None) -> StateSpace:
    """Z(F) on ``basis`` (the canonical one by default); StateSpaceTooLarge
    when h exceeds ``MAX_STATE_H``."""
    k = counts(surface)
    h = k.h if basis is None else len(basis)
    if h > MAX_STATE_H:
        raise StateSpaceTooLarge(
            f"Z(F) has rank 2^{h}; h = {h} exceeds the cap of {MAX_STATE_H}")
    if basis is None:
        basis = canonical_basis(surface)
    if basis.model.surface != surface:
        raise IncompatibleBases("basis belongs to a different surface")
    sk = skeleton(len(basis))
    d0 = grading.shift.delta_of(k)
    p0 = grading.pi_of(k)
    grades = Grades(d0, sk.words, sk.parities[p0 & 1])
    grades.blocks = sk.blocks[p0 & 1]      # fills the cached_property
    return StateSpace(surface, grading, basis, sk.monomials, sk.index, d0, p0,
                      grades)


def acts_from_left(space: StateSpace, interval: str) -> bool:
    """Whether E_interval acts from the left (outgoing) or from the right
    (incoming); NotAnInterval when ``interval`` is no S+ interval."""
    surface = space.surface
    if interval in surface.outgoing:
        outgoing = True
    elif interval in surface.incoming:
        outgoing = False
    else:
        raise NotAnInterval(f"{interval!r} is not an S+ component of this surface")
    if not surface.is_interval(interval):
        raise NotAnInterval(f"{interval!r} is an S+ circle, not an interval")
    return outgoing


def contraction_matrix(space: StateSpace, phis, outgoing: bool) -> IntMat:
    """The contraction by ``phis`` (one integer per basis element) on Z(F),
    acting from the left when ``outgoing`` and from the right otherwise.

    The monomial e_{i_1} ^ ... ^ e_{i_k} (i_1 < ... < i_k) goes to the sum
    over its factors e_i of ``phis[i]`` times the monomial without e_i,
    with the sign of moving e_i to the front (left) or to the back (right),
    and on the left the extra sign of passing an odd prefactor.  This is
    linear in ``phis``.
    """
    outer = -1 if (outgoing and space.parity0 % 2) else 1
    cols: dict[int, dict[int, int]] = {}
    for i, v in enumerate(phis):
        if not v:
            continue
        table = contraction_table(space.h, i)
        c = outer * v
        signed = (c, -c)
        # distinct i, distinct rows in a column
        for k, r, s in zip(table.cols, table.rows,
                           table.left if outgoing else table.right):
            col = cols.get(k)
            if col is None:
                cols[k] = {r: signed[s]}
            else:
                col[r] = signed[s]
    return IntMat(space.dim, space.dim, cols)


def action_matrix(space: StateSpace, interval: str) -> IntMat:
    """The matrix of E_interval on Z(F), built on each call."""
    outgoing = acts_from_left(space, interval)
    return contraction_matrix(space, space.basis.phi_values(interval), outgoing)


def bimodule_of(space: StateSpace) -> Bimodule:
    """The (A(M2), A(M1))-bimodule structure, generators in the l-order."""
    surface = space.surface
    left_ids = [s for s in surface.outgoing if surface.is_interval(s)]
    right_ids = [s for s in surface.incoming if surface.is_interval(s)]
    lefts = [action_matrix(space, s) for s in left_ids]
    rights = [action_matrix(space, s) for s in right_ids]
    return Bimodule(SuperAlgebra(len(lefts)), SuperAlgebra(len(rights)),
                    space.grades, lefts, rights,
                    label=f"Z({len(surface.components)} comps, h={space.h})")


def graded_superdim(space: StateSpace) -> LaurentPoly:
    """Raises ValueError when the degrees are off the half-integer grid."""
    return space.grades.superdim()


def reference_dimension_fgp(g: int, p: int) -> LaurentPoly:
    """(-1)^g t^{-p/2+1/2} (t^{1/2} - t^{-1/2})^h with h = 2g-1+p, for p >= 1."""
    if p < 1:
        raise ValueError("the reference formula needs p >= 1")
    h = 2 * g - 1 + p
    core = (LaurentPoly.t_half_power(1) - LaurentPoly.t_half_power(-1)) ** h
    shift = LaurentPoly.t_half_power(1 - p, 1 if g % 2 == 0 else -1)
    return shift * core
