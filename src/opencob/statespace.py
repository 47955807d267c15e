"""State spaces: the exterior algebra on H_1(F, S+) with shifts and signs.

A state space is the free Z-module on the subsets of a chosen H_1 basis,
with the monomial in the empty set sitting in degree delta(F) and each basis
factor adding one to the degree.  Interval components of S+ act by odd,
degree -1, square-zero endomorphisms; outgoing intervals act from the left
(with the extra sign for commuting past the parity prefactor), incoming
ones from the right.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .grading import Grading
from .homology import H1Basis, IncompatibleBases, canonical_basis
from .laurent import LaurentPoly
from .snf import IntMat
from .superalg import ActionRelationViolation, Bimodule, GradedMap, SuperAlgebra
from .surface import NotAnInterval, SuturedSurface

# Largest rank h whose 2^h-dimensional state space the verifier builds:
# the composable pairs (h_p + h_f) and the pants p are capped at it.
MAX_STATE_H = 13


@dataclass
class StateSpace:
    surface: SuturedSurface
    grading: Grading
    basis: H1Basis
    monomials: list          # bitmasks over the basis, (size, lex) order
    index: dict              # bitmask -> position
    delta: Fraction
    parity0: int             # parity of the prefactor epsilon_F
    degrees: list
    parities: list
    action_cache: dict = None

    @property
    def h(self):
        return len(self.basis)

    @property
    def dim(self):
        return len(self.monomials)

    def monomial_label(self, mask: int) -> str:
        if mask == 0:
            return "1"
        labels = [self.basis.elements[i].label for i in _bits(mask)]
        return "^".join(labels)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def monomial_order(h: int):
    out = []
    for k in range(h + 1):
        for combo in itertools.combinations(range(h), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            out.append(mask)
    return out


def build(surface: SuturedSurface, grading: Grading,
          basis: H1Basis | None = None) -> StateSpace:
    if basis is None:
        basis = canonical_basis(surface)
    if basis.model.surface != surface:
        raise IncompatibleBases("basis belongs to a different surface")
    monos = monomial_order(len(basis))
    index = {m: k for k, m in enumerate(monos)}
    d0 = grading.delta(surface)
    p0 = grading.pi(surface)
    degrees = [d0 + popcount(m) for m in monos]
    parities = [(p0 + popcount(m)) % 2 for m in monos]
    return StateSpace(surface, grading, basis, monos, index,
                      d0, p0, degrees, parities, {})


def popcount(x: int) -> int:
    return bin(x).count("1")


def e_action_columns(space: StateSpace, interval: str):
    """Yield (source monomial mask, {target mask: coeff}) for E_interval."""
    surface = space.surface
    if interval in surface.outgoing:
        outgoing = True
    elif interval in surface.incoming:
        outgoing = False
    else:
        raise NotAnInterval(f"{interval!r} is not an S+ component of this surface")
    if not surface.is_interval(interval):
        raise NotAnInterval(f"{interval!r} is an S+ circle, not an interval")
    phis = space.basis.phi_values(interval)
    outer = -1 if (outgoing and space.parity0 % 2) else 1
    live = 0
    for i, v in enumerate(phis):
        if v:
            live |= 1 << i
    for mask in space.monomials:
        hits = mask & live
        if not hits:
            continue
        col: dict[int, int] = {}
        k = popcount(mask)
        for i in _bits(hits):
            r = popcount(mask & ((1 << i) - 1))
            inner = -1 if (r % 2 if outgoing else (k - 1 - r) % 2) else 1
            tgt = mask ^ (1 << i)
            w = col.get(tgt, 0) + outer * inner * phis[i]
            if w:
                col[tgt] = w
            else:
                col.pop(tgt, None)
        if col:
            yield mask, col


def e_action(space: StateSpace, interval: str) -> GradedMap:
    return GradedMap(action_matrix(space, interval), Fraction(-1), 1)


def action_matrix(space: StateSpace, interval: str) -> IntMat:
    cached = space.action_cache.get(interval)
    if cached is not None:
        return cached
    mat = IntMat(space.dim, space.dim)
    for mask, col in e_action_columns(space, interval):
        mat.set_col(space.index[mask],
                    {space.index[t]: v for t, v in col.items()})
    space.action_cache[interval] = mat
    return mat


def bimodule_of(space: StateSpace) -> Bimodule:
    """The (A(M2), A(M1))-bimodule structure, generators in the l-order."""
    surface = space.surface
    intervals = set(surface.interval_ids())
    left_ids = [s for s in surface.outgoing if s in intervals]
    right_ids = [s for s in surface.incoming if s in intervals]
    lefts = [action_matrix(space, s) for s in left_ids]
    rights = [action_matrix(space, s) for s in right_ids]
    try:
        return Bimodule(SuperAlgebra(len(lefts)), SuperAlgebra(len(rights)),
                        space.degrees, space.parities, lefts, rights,
                        label=f"Z({len(surface.components)} comps, h={space.h})")
    except ActionRelationViolation as exc:  # pragma: no cover - must never fire
        raise ActionRelationViolation(f"state-space action relations: {exc}")


def graded_superdim(space: StateSpace) -> LaurentPoly:
    out: dict[int, int] = {}
    for d, p in zip(space.degrees, space.parities):
        key = int(2 * d)
        out[key] = out.get(key, 0) + (-1 if p else 1)
    return LaurentPoly(out)


def reference_dimension_fgp(g: int, p: int) -> LaurentPoly:
    """(-1)^g t^{-p/2+1/2} (t^{1/2} - t^{-1/2})^h with h = 2g-1+p, for p >= 1."""
    if p < 1:
        raise ValueError("the reference formula needs p >= 1")
    h = 2 * g - 1 + p
    core = (LaurentPoly.t_half_power(1) - LaurentPoly.t_half_power(-1)) ** h
    shift = LaurentPoly.t_half_power(1 - p, 1 if g % 2 == 0 else -1)
    return shift * core


def reference_gy_naive(g: int, p: int) -> LaurentPoly:
    """The naive generic-label extrapolation; has non-integral exponents.

    Display-only reference: corresponds to generic local systems, which are
    out of computational scope here.
    """
    h = 2 * g - 1 + p
    core = (LaurentPoly.t_half_power(1) - LaurentPoly.t_half_power(-1)) ** h
    return LaurentPoly.t_half_power(-p, 1 if (g - 1) % 2 == 0 else -1) * core


def reference_generic_mikhaylov(g: int, p: int, n_sum: Fraction | int = None) -> LaurentPoly:
    """t^N (t^{1/2}-t^{-1/2})^{h_gen} with h_gen = 2g-2+p, N = sum(n_i - 1/2).

    Display-only reference for generic local systems (out of computational
    scope); N defaults to -p/2, i.e. all labels zero.
    """
    h_gen = 2 * g - 2 + p
    if h_gen < 0:
        raise ValueError("needs 2g - 2 + p >= 0")
    n = Fraction(-p, 2) if n_sum is None else Fraction(n_sum)
    core = (LaurentPoly.t_half_power(1) - LaurentPoly.t_half_power(-1)) ** h_gen
    return LaurentPoly.term(1, n) * core
