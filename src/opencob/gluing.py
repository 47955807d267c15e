"""Verified gluing isomorphisms: the case-by-case self-gluing, composition
via tensor product over the middle algebra, the open-pants identification,
and the structural isomorphisms behind the monoidal functor.

Every isomorphism returned here has already passed its verification
pipeline; ConventionMismatch is raised (with the failing identity) if any
step disagrees, which must never happen.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .grading import Grading
from .homology import (AdaptedBasis, H1Basis, adapted_basis, arc_element,
                       boundary_element, change_of_basis, model_of,
                       torus_element)
from .snf import IntMat, is_unimodular, smith
from .statespace import (MAX_STATE_H, StateSpace, acts_from_left,
                         action_matrix, bimodule_of, build, contraction_matrix,
                         graded_superdim)
from .superalg import (Bimodule, GradedIso, GradedMap, Grades, IsoFailure,
                       SuperAlgebra, bits, coproduct_left_action,
                       external_tensor, is_graded_iso, regular_bimodule,
                       symmetrizer_bimodule, tensor_middle)
from .surface import (CASE_DEGREE_SHIFT, NotOutgoing, SuturedSurface,
                      compose_preflight, disjoint_union_with_maps,
                      glue_intervals, open_pants, symmetrizer_cobordism)


class ConventionMismatch(AssertionError):
    pass


class ParameterConstraintViolated(ValueError):
    pass


def _verified(mat: IntMat, source: Bimodule, target: Bimodule,
              what: str) -> GradedIso:
    """``is_graded_iso``'s verified witness ``mat``: source -> target, or
    ConventionMismatch naming ``what`` and the check that failed."""
    result = is_graded_iso(mat, source, target)
    if isinstance(result, IsoFailure):
        raise ConventionMismatch(f"{what} failed: {result}")
    return result


def _is_identity_cols(cols):
    return all(col == {j: 1} for j, col in enumerate(cols))


class WedgeMap:
    """Exterior-power application of a linear map given on basis elements."""

    def __init__(self, cols):
        self.cols = cols
        self.memo = {0: {0: 1}}
        self.identity = _is_identity_cols(cols)

    def expand(self, mask: int) -> dict:
        if self.identity:
            return {mask: 1}
        known = self.memo.get(mask)
        if known is not None:
            return known
        top = mask.bit_length() - 1
        rest = self.expand(mask ^ (1 << top))
        col = self.cols[top]
        out: dict[int, int] = {}
        for tmask, c in rest.items():
            for r, v in col.items():
                if tmask >> r & 1:
                    continue
                sign = -1 if (tmask >> (r + 1)).bit_count() & 1 else 1
                key = tmask | (1 << r)
                w = out.get(key, 0) + sign * c * v
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        self.memo[mask] = out
        return out

    def matrix(self, masks, index) -> IntMat:
        """The matrix whose column j is ``expand(masks[j])``, each monomial
        in row ``index[monomial]``."""
        out = IntMat(len(index), len(masks))
        for j, mask in enumerate(masks):
            out.set_col(j, {index[m]: c for m, c in self.expand(mask).items()})
        return out


# ---------------------------------------------------------------------------
# the quotient oracle


@dataclass
class QuotientOracle:
    """Per-block Smith-normal-form data for Z(F)/im(E1+E2)."""

    offset: object    # delta(F), the degree of word length 0
    blocks: dict      # (word length, parity) -> (ambient dim, relation rank, coker rank)
    factors: list     # all invariant factors encountered

    def by_degree(self):
        """``blocks`` keyed by (degree, parity), for output."""
        return {(self.offset + w, p): v for (w, p), v in self.blocks.items()}

    def is_free(self):
        return all(d == 1 for d in self.factors)


def _relation_matrix(space: StateSpace, i1: str, i2: str) -> IntMat:
    """E1 + E2 for two outgoing intervals, as the one contraction by
    phi1 + phi2: on one side of one space their outer and inner signs
    agree, and the contraction is linear in phi."""
    for sid in (i1, i2):
        if not acts_from_left(space, sid):
            raise NotOutgoing(f"the gluing relation needs outgoing intervals; "
                              f"{sid!r} is incoming")
    basis = space.basis
    return contraction_matrix(space, [a + b for a, b in zip(
        basis.phi_values(i1), basis.phi_values(i2))], True)


def quotient_oracle(space: StateSpace, i1: str, i2: str,
                    rel: IntMat | None = None) -> QuotientOracle:
    if rel is None:
        rel = _relation_matrix(space, i1, i2)
    by_block = space.grades.blocks
    blocks = {}
    factors: list[int] = []
    for (w, p), rows in by_block.items():
        cols = by_block.get((w + 1, p ^ 1), [])
        sf = smith(rel.submatrix(rows, cols))
        factors.extend(sf.invariant_factors)
        blocks[(w, p)] = (len(rows), sf.rank, len(rows) - sf.rank)
    return QuotientOracle(space.delta, blocks, factors)


# ---------------------------------------------------------------------------
# self-gluing


def certify_unimodular(phi: IntMat, cols: Grades, rows: Grades, case: str):
    """Check that ``phi``: Z^n -> Z(F-bar), graded by ``cols`` and ``rows``,
    is invertible over Z: even of degree zero with square blocks covering
    every row, and unimodular by one rank-only Smith normal form.  Raises
    ConventionMismatch otherwise."""
    if not cols.same_blocks(rows):
        raise ConventionMismatch(
            f"case {case}: quotient basis sizes by (word length, parity) "
            f"{cols.block_dims()} do not match Z(F-bar)")
    bad = GradedMap(phi, 0, 0).check_blocks(cols, rows)
    if bad is not None:
        raise ConventionMismatch(
            f"case {case}: psi on the quotient basis leaves column {bad[0]}'s block")
    if not is_unimodular(phi):
        raise ConventionMismatch(
            f"case {case}: psi is not unimodular on the quotient basis")


@dataclass
class GlueIsoResult:
    case_tag: str
    created_sminus_circles: int
    source_space: StateSpace
    target_space: StateSpace
    psi: IntMat               # full-space map Z(F) -> Z(F-bar), kills im(E1+E2)
    adapted: H1Basis          # the adapted basis of H_1(F, S+)
    survivors: list           # adapted monomials that span the quotient
    oracle: QuotientOracle
    degree_shift: int
    parity_shift: int

    @property
    def quotient_basis(self) -> list:
        """The surviving adapted monomials' labels."""
        return [self.adapted.wedge_label(m) for m in self.survivors]

    # what every returned result has passed, in the order it is checked
    checks = ("relations", "shifts", "blocks", "intertwining", "ranks",
              "unimodular")
    # No quotient bimodule is built: the certificate in ``checks`` proves
    # the identification at every size.  ``iso`` stays None so that code
    # reading it (``perfbench/``) keeps working.
    iso = None


def _persisted_images(adapted: AdaptedBasis, glue, model_bar):
    """Map each non-special adapted element into the glued surface's model."""
    case = adapted.case_tag
    images = []
    gamma2 = None
    if case.startswith("2-2"):
        surf = adapted.basis.model.surface
        # gamma_2 is the boundary circle of the second glued interval
        i2 = adapted.specials[-1].data[0]  # e2 = (i2, q) or e = (i2, i1)
        gamma2 = surf.locate(i2)
    for el in adapted.basis.elements[len(adapted.specials):]:
        if el.kind == "torus":
            ci, i = el.data
            images.append(torus_element(
                model_bar, glue.comp_map[ci], i + glue.torus_shift[ci]))
        elif el.kind == "boundary":
            ci, bi = el.data
            if gamma2 is not None and (ci, bi) == gamma2:
                # the old circle class around gamma_2 becomes the second new
                # genus class of the added handle
                images.append(torus_element(model_bar, *glue.new_genus_indices[1]))
            else:
                images.append(boundary_element(model_bar,
                                               *glue.circle_map[(ci, bi)]))
        else:
            tail, head = el.data
            images.append(arc_element(model_bar, tail, head))
    return images


def _new_element(adapted: AdaptedBasis, glue, model_bar):
    """The glued surface's basis element that no adapted element maps to:
    the arc from e1's tail to e2's head (1-3), the circle after i1 (2-1)
    or the first class of the new handle (2-2); None in cases 1-1, 1-2."""
    case = adapted.case_tag
    if case == "1-3":
        e1, e2 = adapted.specials
        return arc_element(model_bar, e1.data[0], e2.data[1])
    if case.startswith("2-1"):
        return boundary_element(model_bar, *glue.new_circles[1])
    if case.startswith("2-2"):
        return torus_element(model_bar, *glue.new_genus_indices[0])
    return None


def self_glue_iso(surface_or_space, i1: str, i2: str,
                  grading: Grading | None = None, *,
                  sigma_sign: int = 1) -> GlueIsoResult:
    """Glue two outgoing intervals and return the verified identification
    of Z(F-bar) with Z(F)/im(E1+E2).

    ``psi`` kills the relations and intertwines the remaining generators,
    the quotient oracle finds Z(F)/im(E1+E2) free with the graded ranks of
    Z(F-bar), and ``psi`` is unimodular on the surviving adapted monomials
    (``certify_unimodular``).  Together these prove at every size that psi
    induces the isomorphism and that ``quotient_basis`` is a basis of the
    quotient.

    ``sigma_sign`` flips the orientation convention of the circle created in
    the same-boundary-circle cases; both choices verify.
    """
    if isinstance(surface_or_space, StateSpace):
        space = surface_or_space
    else:
        if grading is None:
            raise ValueError("grading required when passing a surface")
        space = build(surface_or_space, grading)
    if sigma_sign not in (1, -1):
        raise ValueError("sigma_sign must be +1 or -1")
    surface = space.surface
    if surface.incoming:
        raise NotOutgoing(
            f"self-gluing requires all S+ outgoing; incoming: {surface.incoming}")

    adapted = adapted_basis(surface, i1, i2)
    case = adapted.case_tag
    n_special = len(adapted.specials)

    glue = glue_intervals(surface, i1, i2)
    target = build(glue.surface, space.grading)
    model_bar = target.basis.model

    new_el = _new_element(adapted, glue, model_bar)
    images = _persisted_images(adapted, glue, model_bar)
    pers_elements = ([new_el] if new_el is not None else []) + images
    pers = H1Basis(model_bar, tuple(pers_elements))

    to_adapted = WedgeMap(change_of_basis(space.basis, adapted.basis))
    to_canonical = WedgeMap(change_of_basis(pers, target.basis))

    has_new = new_el is not None
    new_coeff = sigma_sign if case.startswith("2-1") else 1

    def template(amask: int):
        """Identification on adapted monomials; None means killed/dependent."""
        if case == "1-1":
            return amask, 1
        if n_special == 1 and has_new:       # 2-1b, 2-2b: e <-> new
            coeff = new_coeff if (amask & 1) else 1
            return amask, coeff
        if n_special == 1:                   # 1-2: drop e_a
            if amask & 1:
                return amask >> 1, 1
            return None
        # two specials: 1-3, 2-1a, 2-2a
        b1, b2 = amask & 1, amask & 2
        rest = amask >> 2
        if b1 and b2:
            return (rest << 1) | 1, new_coeff
        if b1:
            return rest << 1, 1
        if b2:
            return rest << 1, -1
        return None

    # the identification matrix on adapted monomials: column amask is
    # template(amask) in Z(F-bar)'s canonical basis, empty where the template
    # kills amask; psi applies it to each monomial's adapted expansion
    ident: dict[int, dict] = {}
    for amask in space.monomials:
        t = template(amask)
        if t is not None:
            pmask, tc = t
            ident[amask] = {target.index[m]: tc * v
                            for m, v in to_canonical.expand(pmask).items()}
    # the wedge-map memos hold every expanded monomial: drop each once used
    del to_canonical
    psi = IntMat(target.dim, space.dim, ident) @ IntMat(space.dim, space.dim, {
        j: to_adapted.expand(mask) for j, mask in enumerate(space.monomials)})
    del to_adapted, ident

    rel = _relation_matrix(space, i1, i2)

    # 1. the map kills the gluing relations
    if not (psi @ rel).is_zero():
        raise ConventionMismatch(f"case {case}: map does not kill im(E1+E2)")

    # 2. the announced degree/parity shifts
    shift = CASE_DEGREE_SHIFT[case]
    if target.delta - space.delta != shift:
        raise ConventionMismatch(
            f"case {case}: degree shift {target.delta - space.delta}, "
            f"expected {shift}")
    parity_shift = (target.parity0 - space.parity0) % 2
    if parity_shift != (space.h - target.h) % 2:
        raise ConventionMismatch(f"case {case}: parity shift {parity_shift}")

    # 3. even of degree zero: psi lowers the word length by the degree
    #    shift, which the parity shift must match
    bad = GradedMap(psi, 0, 0).check_blocks(space.grades, target.grades)
    if bad is not None or (parity_shift - shift) % 2:
        raise ConventionMismatch(
            f"case {case}: psi is not even of degree zero "
            f"(column {bad and bad[0]})")

    # 4. remaining generators intertwine on the nose and preserve im(E1+E2)
    remaining = [s for s in surface.outgoing if s not in (i1, i2)
                 and surface.is_interval(s)]
    for sid in remaining:
        e_src = action_matrix(space, sid)
        e_dst = action_matrix(target, sid)
        if psi @ e_src != e_dst @ psi:
            raise ConventionMismatch(
                f"case {case}: E_{sid} does not intertwine")
        if not (e_src @ rel).is_negative_of(rel @ e_src):
            raise ConventionMismatch(
                f"case {case}: E_{sid} does not anticommute with E1+E2")

    # 5. independent rank oracle: the quotient is free with the same graded
    #    ranks as the target
    oracle = quotient_oracle(space, i1, i2, rel)
    if not oracle.is_free():
        raise ConventionMismatch(
            f"case {case}: quotient has torsion {oracle.factors}")
    target_blocks = target.grades.block_dims()
    oracle_ranks = {(w - shift, p): v[2]
                    for (w, p), v in oracle.blocks.items() if v[2]}
    if oracle_ranks != target_blocks:
        raise ConventionMismatch(
            f"case {case}: quotient ranks {oracle_ranks} != target "
            f"{target_blocks} by (word length, parity)")

    # when h drops, only the monomials containing the leading special survive
    survivors = [m for m in space.monomials if m & 1 or not shift]

    # 6. psi is unimodular on the survivors, expanded in the space's basis
    from_adapted = WedgeMap(change_of_basis(adapted.basis, space.basis))
    q = from_adapted.matrix(survivors, space.index)
    del from_adapted
    certify_unimodular(psi @ q,
                       space.grades.select([space.index[m] for m in survivors]),
                       target.grades, case)

    return GlueIsoResult(case, glue.created_sminus_circles,
                         space, target, psi, adapted.basis, survivors,
                         oracle, shift, parity_shift)


# ---------------------------------------------------------------------------
# composition: Z(F' o F) = Z(F') (x)_{A(M2)} Z(F)


def _transport_basis(basis: H1Basis, model_bar, comp_offset: int, id_map):
    out = []
    for el in basis.elements:
        if el.kind == "torus":
            ci, i = el.data
            out.append(torus_element(model_bar, ci + comp_offset, i))
        elif el.kind == "boundary":
            ci, bi = el.data
            out.append(boundary_element(model_bar, ci + comp_offset, bi))
        else:
            tail, head = el.data
            out.append(arc_element(model_bar, id_map.get(tail, tail),
                                   id_map.get(head, head)))
    return out


def _union_space(a: StateSpace, b: StateSpace, surface: SuturedSurface,
                 b_ids) -> StateSpace:
    """Z(A u B) = Z(``surface``) on the concatenated bases; ``b_ids``
    renames B's S+ ids."""
    model = model_of(surface)
    concat = _transport_basis(a.basis, model, 0, {}) + \
        _transport_basis(b.basis, model, len(a.surface.components), b_ids)
    return build(surface, a.grading, H1Basis(model, tuple(concat)))


def _union_map(a: StateSpace, b: StateSpace, u: StateSpace) -> IntMat:
    """Z(A) (x) Z(B) -> Z(A u B) = ``u``: x (x) y -> (-1)^{pi(B)|x|} x ^ y."""
    mat = IntMat(u.dim, a.dim * b.dim)
    for i, ma in enumerate(a.monomials):
        sign = -1 if (ma.bit_count() * b.parity0) % 2 else 1
        for j, mb in enumerate(b.monomials):
            mat.set_col(i * b.dim + j, {u.index[ma | (mb << a.h)]: sign})
    return mat


@dataclass
class ComposeIsoResult:
    iso: GradedIso                 # tensor product (iso.source) -> Z(F' o F)
    composed_space: StateSpace
    case_tags: list
    step_checks: list              # each gluing step's ``checks``

    def superdim(self):
        return graded_superdim(self.composed_space)


def compose_iso(fp: SuturedSurface, f: SuturedSurface, grading: Grading, *,
                order=None) -> ComposeIsoResult:
    """Verified isomorphism Z(F' o F) = Z(F') (x)_{A(M2)} Z(F).

    Follows the proof: map the tensor product onto the all-outgoing union
    with the sign (-1)^{|x| pi(F)}, self-glue one middle interval at a time,
    then match the composed surface's own bimodule.  ``order``, a
    permutation of ``range(len(fp.incoming))``, permutes the gluing sequence.

    The gluings are a fold that carries on only chi, the glued space, the
    case tag and the step's ``checks``: each step's result is gone before the
    next gluing starts.  The tensor product is built last, and its balancing
    relations and chi are dropped once checked, before the composed
    surface's bimodule is built and the iso verified.
    """
    compose_preflight(fp, f)
    n = len(fp.incoming)
    order = range(n) if order is None else list(order)
    if any(not isinstance(i, int) for i in order) or sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of range({n}), got {order}")
    space_p = build(fp, grading)
    space_f = build(f, grading)

    union, fmap = disjoint_union_with_maps(fp, f)
    g0 = SuturedSurface(union.components, (), union.splus_ids())
    current = _union_space(space_p, space_f, g0, fmap)
    chi = _union_map(space_p, space_f, current)

    pairs = [(a, fmap[b]) for a, b in zip(fp.incoming, f.outgoing)]
    case_tags, step_checks = [], []
    for idx in order:
        res = self_glue_iso(current, *pairs[idx])
        chi, current = res.psi @ chi, res.target_space
        case_tags.append(res.case_tag)
        step_checks.append(res.checks)
        del res
    if not pairs:
        # empty interface: composition is the disjoint union; convert the
        # concatenated basis to the canonical one
        canon = build(g0, grading)
        to_canon = WedgeMap(change_of_basis(current.basis, canon.basis))
        chi = to_canon.matrix(current.monomials, canon.index) @ chi
        current = canon

    composed = SuturedSurface(
        current.surface.components,
        tuple(fmap[s] for s in f.incoming),
        tuple(fp.outgoing),
    )
    final = build(composed, grading)
    if final.basis.elements != current.basis.elements:
        raise ConventionMismatch("composed basis differs from the canonical basis")

    tensor = tensor_middle(bimodule_of(space_p), bimodule_of(space_f))
    if not (chi @ tensor.relations).is_zero():
        raise ConventionMismatch("composition map does not kill the balancing relations")
    # the relations and chi are done with before the final bimodule is built
    matrix, source = chi @ tensor.section, tensor.bimodule
    del chi, tensor

    iso = _verified(matrix, source, bimodule_of(final), "composition iso")
    return ComposeIsoResult(iso, final, case_tags, step_checks)


def _signed_permutation(space: StateSpace, target: Bimodule, image) -> IntMat:
    """The witness Z(F) -> ``target`` that sends monomial ``mask`` to
    ``sign`` times basis element ``row``, where ``image(mask)`` is
    ``(row, sign)``."""
    mat = IntMat(target.dim, space.dim)
    for j, mask in enumerate(space.monomials):
        row, sign = image(mask)
        mat.set_col(j, {row: sign})
    return mat


# ---------------------------------------------------------------------------
# the open pants identification


def pants_basis(p: int) -> H1Basis:
    """The alternating-orientation arc basis: e_p points out of the outgoing
    boundary, e_{p-1} into it, and so on."""
    surf = open_pants(p)
    model = model_of(surf)
    els = []
    for i in range(1, p + 1):
        if (p - i) % 2 == 0:
            els.append(arc_element(model, "out", f"in{i}"))
        else:
            els.append(arc_element(model, f"in{i}", "out"))
    return H1Basis(model, tuple(els))


def pants_iso(p: int, grading: Grading) -> GradedIso:
    """Z(pants_p) = (Z[E]/(E^2))^{(x) p} with the coproduct left action."""
    if p > MAX_STATE_H:
        raise ParameterConstraintViolated(
            f"pants_iso builds 2^p-dimensional spaces; p = {p} exceeds {MAX_STATE_H}")
    if grading.shift.a1 != 1:
        raise ParameterConstraintViolated("the pants identification needs A1 = 1")
    if grading.parity is None or grading.parity.n3 != 0:
        raise ParameterConstraintViolated("the pants identification needs N3 = 0")
    surf = open_pants(p)
    space = build(surf, grading, pants_basis(p))
    source = bimodule_of(space)
    target = coproduct_left_action(p)
    full = (1 << p) - 1
    mat = _signed_permutation(space, target, lambda mask: (full ^ mask, 1))
    return _verified(mat, source, target, "pants identification")


# ---------------------------------------------------------------------------
# monoidality witnesses


def union_iso(space_f: StateSpace, space_g: StateSpace) -> GradedIso:
    """Z(F) (x) Z(G) = Z(F u G), with the Koszul sign (-1)^{pi(G) |x|}."""
    f, g = space_f.surface, space_g.surface
    union, gmap = disjoint_union_with_maps(f, g)
    if any(k != v for k, v in gmap.items()):
        raise ValueError("disjoint-union witness needs disjoint S+ ids")
    space_u = _union_space(space_f, space_g, union, {})
    ext = external_tensor(bimodule_of(space_f), bimodule_of(space_g))
    return _verified(_union_map(space_f, space_g, space_u), ext,
                     bimodule_of(space_u), "disjoint-union witness")


def _rect_basis(surf: SuturedSurface) -> H1Basis:
    """One arc out->in per rectangle component."""
    model = model_of(surf)
    els = []
    for ci in range(len(surf.components)):
        ids = surf.splus_of_component(ci)
        out = next(s for s in ids if s in surf.outgoing)
        inc = next(s for s in ids if s in surf.incoming)
        els.append(arc_element(model, out, inc))
    return H1Basis(model, tuple(els))


def identity_iso(labels, grading: Grading) -> GradedIso:
    """Z(identity cobordism on M) = A(M) as a bimodule over itself: the
    symmetrizer witness with an empty second block, whose swap moves
    nothing and whose target is X_id, the regular bimodule."""
    return symmetrizer_iso(labels, 0, grading)


def symmetrizer_iso(labels1, labels2, grading: Grading) -> GradedIso:
    """Z(symmetrizer cobordism) = the Koszul symmetrizer bimodule."""
    surf = symmetrizer_cobordism(labels1, labels2)
    m1 = len(labels1) if not isinstance(labels1, int) else labels1
    m2 = len(labels2) if not isinstance(labels2, int) else labels2
    m = m1 + m2
    space = build(surf, grading, _rect_basis(surf))
    target = symmetrizer_bimodule(m1, m2)

    def swap(mask):
        out = 0
        for i in bits(mask):
            out |= 1 << (m2 + i if i < m1 else i - m1)
        return out

    full = (1 << m) - 1

    def image(mask):
        # the complement, with the iterated-union Koszul sign (each
        # rectangle's prefactor is odd), then the two blocks swapped with
        # the Koszul sign of the swap
        comp = full ^ mask
        sign = sum(m - 1 - i for i in bits(mask)) % 2
        low = (comp & ((1 << m1) - 1)).bit_count()
        high = (comp >> m1).bit_count()
        sign = (sign + low * high) % 2
        return swap(comp), -1 if sign else 1

    return _verified(_signed_permutation(space, target, image),
                     bimodule_of(space), target, "symmetrizer witness")


def _monomial_actions(bim: Bimodule, masks) -> dict:
    """mask -> the matrix of that monomial of the left algebra acting on
    ``bim``, for every mask in ``masks`` and the masks their recurrence
    passes through, and always mask 0.

    E_{i1}...E_{ik} with i1 < ... < ik acts as L[i1] @ ... @ L[ik].  Each
    mask costs one product with a generator and a smaller mask's action,
    split off at its lowest slot.
    """
    gens = bim.left_actions
    acts = {0: IntMat.identity(bim.dim)}

    def act(mask):
        if mask not in acts:
            i = (mask & -mask).bit_length() - 1
            acts[mask] = gens[i] @ act(mask ^ (1 << i))
        return acts[mask]

    for mask in masks:
        act(mask)
    return acts


def _evaluate(bim: Bimodule, section: IntMat) -> IntMat:
    """``ev @ section``, where column ``mask * bim.dim + e`` of the
    evaluation map ev is the left monomial ``mask`` applied to basis element
    e of ``bim``.  Only the columns of ev that the section reads are formed,
    so only their masks' actions are built."""
    read = {r: divmod(r, bim.dim) for col in section.cols.values() for r in col}
    acts = _monomial_actions(bim, {mask for mask, _ in read.values()})
    ev = IntMat(bim.dim, section.nrows,
                {r: acts[mask].col(e) for r, (mask, e) in read.items()})
    return ev @ section


@functools.cache
def _regular(m: int) -> Bimodule:
    """A(m) over itself, built and validated once per m.  Shared by every
    naturality square on m generators, so nothing may mutate it."""
    return regular_bimodule(SuperAlgebra(m))


def naturality_square(f_space: StateSpace, g_space: StateSpace) -> GradedIso:
    """The monoidal naturality square for a disjoint pair of cobordisms.

    Compares mu (x)_{A(M2) (x) A(M2')} (Z(F) (x) Z(F')) with
    Z(F u F') (x)_{A(M1 u M1')} mu via the union witness and the two
    unitors, and verifies the composite.  The left unitor evaluates
    b (x) v -> b . v; the right one is inverted as v -> [v (x) 1], the
    columns of Y's projection at the pairs (v, 1).  The external tensor
    Z(F) (x) Z(F') and Z(F u F') are the source and target of the union
    witness, so each is built and validated once.
    """
    union_witness = union_iso(f_space, g_space)
    ext, bim_u = union_witness.source, union_witness.target
    mu_out = _regular(ext.left.m)
    mu_in = _regular(ext.right.m)
    x = tensor_middle(mu_out, ext)
    y = tensor_middle(bim_u, mu_in)

    # evaluate b (x) v -> b . v on X's representatives, the pair (b, v)
    # in row b * ext.dim + v
    x_to_ext = _evaluate(ext, x.section)
    # v -> [v (x) 1], the pair (v, 1) in column v * mu_in.dim
    u_to_y = y.projection.submatrix(range(y.projection.nrows),
                                    [v * mu_in.dim for v in range(bim_u.dim)])
    w = u_to_y @ union_witness.matrix @ x_to_ext
    return _verified(w, x.bimodule, y.bimodule, "naturality square")
