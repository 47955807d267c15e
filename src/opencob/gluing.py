"""Verified gluing isomorphisms: the case-by-case self-gluing, composition
via tensor product over the middle algebra, the open-pants identification,
and the structural isomorphisms behind the monoidal functor.

Every isomorphism returned here has already passed its verification
pipeline; ConventionMismatch is raised (with the failing identity) if any
step disagrees, which must never happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grading import Grading
from .homology import (AdaptedBasis, H1Basis, adapted_basis, arc_element,
                       boundary_element, change_of_basis, model_of,
                       torus_element)
from .snf import IntMat, smith, solve_int
from .statespace import (MAX_STATE_H, StateSpace, action_matrix, bimodule_of,
                         build, graded_superdim, popcount)
from .superalg import (Bimodule, GradedIso, GradedMap, IsoFailure,
                       SuperAlgebra, TensorResult, coproduct_left_action,
                       external_tensor, hom_bimodule, identity_hom,
                       is_graded_iso, regular_bimodule, symmetrizer_bimodule,
                       tensor_middle)
from .surface import (NotOutgoing, SuturedSurface, compose_preflight,
                      disjoint_union_with_maps, glue_intervals,
                      identity_cobordism, open_pants, symmetrizer_cobordism)


class ConventionMismatch(AssertionError):
    pass


class ParameterConstraintViolated(ValueError):
    pass


FULL_CHECK_LIMIT = 128  # state-space dimension up to which the explicit
                        # quotient bimodule and SNF unimodularity checks run


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cols_of_dense(mat):
    out = []
    for j in range(len(mat)):
        col = {i: mat[i][j] for i in range(len(mat)) if mat[i][j]}
        out.append(col)
    return out


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
                sign = -1 if popcount(tmask >> (r + 1)) & 1 else 1
                key = tmask | (1 << r)
                w = out.get(key, 0) + sign * c * v
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        self.memo[mask] = out
        return out


# ---------------------------------------------------------------------------
# the quotient oracle


@dataclass
class QuotientOracle:
    """Per-block Smith-normal-form data for Z(F)/im(E1+E2)."""

    blocks: dict      # (degree, parity) -> (ambient dim, relation rank, coker rank)
    factors: list     # all invariant factors encountered

    def coker_rank(self):
        return sum(v[2] for v in self.blocks.values())

    def is_free(self):
        return all(d == 1 for d in self.factors)


def _relation_matrix(space: StateSpace, i1: str, i2: str) -> IntMat:
    return action_matrix(space, i1) + action_matrix(space, i2)


def quotient_oracle(space: StateSpace, i1: str, i2: str,
                    rel: IntMat | None = None) -> QuotientOracle:
    if rel is None:
        rel = _relation_matrix(space, i1, i2)
    by_block: dict = {}
    for idx in range(space.dim):
        key = (space.degrees[idx], space.parities[idx])
        by_block.setdefault(key, []).append(idx)
    blocks = {}
    factors: list[int] = []
    for key, rows in by_block.items():
        src_key = (key[0] + 1, (key[1] + 1) % 2)
        cols = by_block.get(src_key, [])
        sub = rel.submatrix(rows, cols)
        sf = smith(sub)
        factors.extend(sf.invariant_factors)
        blocks[key] = (len(rows), sf.rank, len(rows) - sf.rank)
    return QuotientOracle(blocks, factors)


# ---------------------------------------------------------------------------
# self-gluing


@dataclass
class GlueIsoResult:
    glued_surface: SuturedSurface
    case_tag: str
    created_sminus_circles: int
    source_space: StateSpace
    target_space: StateSpace
    psi: IntMat               # full-space map Z(F) -> Z(F-bar), kills im(E1+E2)
    relations: IntMat         # matrix of E1 + E2 on Z(F)
    quotient_basis: list      # surviving adapted monomial labels
    oracle: QuotientOracle
    degree_shift: Fraction
    parity_shift: int
    iso: GradedIso | None     # explicit quotient-bimodule iso (full check only)


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
                nci, nbi = glue.circle_map[(ci, bi)][0]
                images.append(boundary_element(model_bar, nci, nbi))
        elif el.kind == "arc":
            tail, head = el.data
            images.append(arc_element(model_bar, tail, head))
        else:
            raise ConventionMismatch(f"cannot transport element {el.label}")
    return images


def _new_element(case: str, glue, model_bar):
    if case == "1-3":
        return None  # built by the caller from e1, e2 endpoints
    if case.startswith("2-1"):
        return boundary_element(model_bar, *glue.new_circles[1])
    if case.startswith("2-2"):
        return torus_element(model_bar, *glue.new_genus_indices[0])
    return None


CASE_DEGREE_SHIFT = {"1-1": 0, "1-2": 1, "1-3": 1, "2-1a": 1,
                     "2-1b": 0, "2-2a": 1, "2-2b": 0}


def self_glue_iso(surface_or_space, i1: str, i2: str,
                  grading: Grading | None = None, *,
                  sigma_sign: int = 1, full_check: bool | None = None) -> GlueIsoResult:
    """Glue two outgoing intervals and return the verified identification
    of Z(F-bar) with Z(F)/im(E1+E2).

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

    new_el = _new_element(case, glue, model_bar)
    if case == "1-3":
        u = adapted.specials[0].data[0]
        w = adapted.specials[1].data[1]
        new_el = arc_element(model_bar, u, w)
    images = _persisted_images(adapted, glue, model_bar)
    pers_elements = ([new_el] if new_el is not None else []) + images
    pers = H1Basis(model_bar, tuple(pers_elements))

    to_adapted = WedgeMap(_cols_of_dense(change_of_basis(space.basis, adapted.basis))
                          if space.h else [])
    to_canonical = WedgeMap(_cols_of_dense(change_of_basis(pers, target.basis))
                            if target.h else [])

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

    # surjectivity of the template is structural: each target monomial has a
    # designated preimage with coefficient +-1
    seen = set()
    for amask in space.monomials:
        t = template(amask)
        if t is not None:
            seen.add(t[0])
    if seen != set(target.monomials):
        raise ConventionMismatch(f"case {case}: template not surjective")

    psi = IntMat(target.dim, space.dim)
    pers_cache: dict[int, dict] = {}
    for j, mask in enumerate(space.monomials):
        col: dict[int, int] = {}
        for amask, c in to_adapted.expand(mask).items():
            t = template(amask)
            if t is None:
                continue
            pmask, tc = t
            expanded = pers_cache.get(pmask)
            if expanded is None:
                expanded = to_canonical.expand(pmask)
                pers_cache[pmask] = expanded
            for cmask, v in expanded.items():
                idx = target.index[cmask]
                w = col.get(idx, 0) + c * tc * v
                if w:
                    col[idx] = w
                else:
                    col.pop(idx, None)
        psi.set_col(j, col)

    rel = _relation_matrix(space, i1, i2)

    # 1. the map kills the gluing relations
    if not (psi @ rel).is_zero():
        raise ConventionMismatch(f"case {case}: map does not kill im(E1+E2)")

    # 2. even of degree zero
    bad = GradedMap(psi, Fraction(0), 0).check_blocks(
        space.degrees, space.parities, target.degrees, target.parities)
    if bad is not None:
        raise ConventionMismatch(f"case {case}: graded block violation at {bad}")

    # 3. the announced degree/parity shifts
    degree_shift = target.delta - space.delta
    if degree_shift != CASE_DEGREE_SHIFT[case]:
        raise ConventionMismatch(
            f"case {case}: degree shift {degree_shift}, expected "
            f"{CASE_DEGREE_SHIFT[case]}")
    parity_shift = (target.parity0 - space.parity0) % 2
    if parity_shift != (space.h - target.h) % 2:
        raise ConventionMismatch(f"case {case}: parity shift {parity_shift}")

    # 4. remaining generators intertwine on the nose and preserve im(E1+E2)
    remaining = [s for s in surface.outgoing if s not in (i1, i2)
                 and surface.is_interval(s)]
    for sid in remaining:
        e_src = action_matrix(space, sid)
        e_dst = action_matrix(target, sid)
        if psi @ e_src != e_dst @ psi:
            raise ConventionMismatch(
                f"case {case}: E_{sid} does not intertwine")
        if e_src @ rel != -(rel @ e_src):
            raise ConventionMismatch(
                f"case {case}: E_{sid} does not anticommute with E1+E2")

    # 5. independent rank oracle: the quotient is free with the same graded
    #    ranks as the target
    oracle = quotient_oracle(space, i1, i2, rel)
    if not oracle.is_free():
        raise ConventionMismatch(
            f"case {case}: quotient has torsion {oracle.factors}")
    target_blocks: dict = {}
    for d, p in zip(target.degrees, target.parities):
        target_blocks[(d, p)] = target_blocks.get((d, p), 0) + 1
    oracle_ranks = {k: v[2] for k, v in oracle.blocks.items() if v[2]}
    if oracle_ranks != target_blocks:
        raise ConventionMismatch(
            f"case {case}: quotient ranks {oracle_ranks} != target {target_blocks}")

    # The map is surjective by construction (exterior powers of unimodular
    # basis changes around a surjective signed template), kills im(E1+E2),
    # and coker(E1+E2) is free of the same rank per block: a surjection
    # between free Z-modules of equal finite rank is an isomorphism.

    if case in ("1-1", "2-1b", "2-2b"):
        survivors = list(space.monomials)
    else:
        survivors = [m for m in space.monomials if m & 1]
    labels = []
    for amask in survivors:
        if amask == 0:
            labels.append("1")
        else:
            labels.append("^".join(adapted.basis.elements[i].label
                                   for i in _bits(amask)))

    do_full = full_check if full_check is not None else space.dim <= FULL_CHECK_LIMIT
    iso = None
    if do_full:
        iso = _explicit_quotient_iso(space, adapted, survivors, rel, psi,
                                     target, remaining)

    return GlueIsoResult(glue.surface, case, glue.created_sminus_circles,
                         space, target, psi, rel, labels, oracle,
                         degree_shift, parity_shift, iso)


def _explicit_quotient_iso(space, adapted, survivors, rel, psi, target,
                           remaining):
    """Build the quotient as a free module on the surviving adapted monomials
    and run the full graded-isomorphism check against Z(F-bar)."""
    from_adapted = WedgeMap(_cols_of_dense(change_of_basis(adapted.basis, space.basis))
                            if space.h else [])
    q = IntMat(space.dim, len(survivors))
    for jq, amask in enumerate(survivors):
        q.set_col(jq, {space.index[m]: c
                       for m, c in from_adapted.expand(amask).items()})
    stacked = IntMat(space.dim, q.ncols + rel.ncols)
    for j, col in q.cols.items():
        stacked.set_col(j, dict(col))
    for j, col in rel.cols.items():
        stacked.set_col(q.ncols + j, dict(col))
    cache = smith(stacked, want_u=True, want_v=True)

    def reduce_to_quotient(vec):
        sol = solve_int(stacked, vec, _cache=cache)
        if sol is None:
            raise ConventionMismatch("vector not in span(Q) + im(E1+E2)")
        return {k: v for k, v in sol.items() if k < q.ncols}

    degrees = [space.degrees[space.index[m]] for m in survivors]
    parities = [space.parities[space.index[m]] for m in survivors]
    lefts = []
    for sid in remaining:
        e_mat = action_matrix(space, sid)
        act = IntMat(len(survivors), len(survivors))
        for jq in range(len(survivors)):
            col = e_mat.apply(q.col(jq))
            act.set_col(jq, reduce_to_quotient(col))
        lefts.append(act)
    quotient_bim = Bimodule(SuperAlgebra(len(remaining)), SuperAlgebra(0),
                            degrees, parities, lefts, [],
                            label="Z(F)/im(E1+E2)")
    phi = psi @ q
    result = is_graded_iso(phi, quotient_bim, bimodule_of(target))
    if isinstance(result, IsoFailure):
        raise ConventionMismatch(f"explicit quotient iso failed: {result}")
    return result


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
        elif el.kind == "arc":
            tail, head = el.data
            out.append(arc_element(model_bar, id_map.get(tail, tail),
                                   id_map.get(head, head)))
        else:
            raise ValueError(f"cannot transport element {el.label}")
    return out


@dataclass
class ComposeIsoResult:
    iso: GradedIso
    tensor: TensorResult
    steps: list                    # GlueIsoResult per middle interval
    composed_space: StateSpace
    case_tags: list

    def superdim(self):
        return graded_superdim(self.composed_space)


def compose_iso(fp: SuturedSurface, f: SuturedSurface, grading: Grading, *,
                order=None, full_check: bool | None = None) -> ComposeIsoResult:
    """Verified isomorphism Z(F' o F) = Z(F') (x)_{A(M2)} Z(F).

    Follows the proof: map the tensor product onto the all-outgoing union
    with the sign (-1)^{|x| pi(F)}, self-glue one middle interval at a time,
    then match the composed surface's own bimodule.  ``order`` permutes the
    gluing sequence.
    """
    compose_preflight(fp, f)
    space_p = build(fp, grading)
    space_f = build(f, grading)
    bim_p = bimodule_of(space_p)
    bim_f = bimodule_of(space_f)
    tensor = tensor_middle(bim_p, bim_f)

    union, fmap = disjoint_union_with_maps(fp, f)
    g0 = SuturedSurface(union.components, (), union.splus_ids())
    model_g = model_of(g0)
    concat = _transport_basis(space_p.basis, model_g, 0, {}) + \
        _transport_basis(space_f.basis, model_g, len(fp.components), fmap)
    space_g = build(g0, grading, H1Basis(model_g, tuple(concat)))

    hp = space_p.h
    pi_f = space_f.parity0
    phi = IntMat(space_g.dim, space_p.dim * space_f.dim)
    for i, mp in enumerate(space_p.monomials):
        sign = -1 if (popcount(mp) * pi_f) % 2 else 1
        for j, mf in enumerate(space_f.monomials):
            g_mask = mp | (mf << hp)
            phi.set_col(i * space_f.dim + j, {space_g.index[g_mask]: sign})

    pairs = [(a, fmap[b]) for a, b in zip(fp.incoming, f.outgoing)]
    if order is None:
        order = range(len(pairs))
    chi = phi
    steps = []
    current = space_g
    for idx in order:
        i1, i2 = pairs[idx]
        res = self_glue_iso(current, i1, i2, full_check=full_check)
        steps.append(res)
        chi = res.psi @ chi
        current = res.target_space
    if not pairs:
        # empty interface: composition is the disjoint union; convert the
        # concatenated basis to the canonical one
        canon = build(g0, grading)
        to_canon = WedgeMap(_cols_of_dense(change_of_basis(space_g.basis,
                                                           canon.basis))
                            if space_g.h else [])
        conv = IntMat(canon.dim, space_g.dim)
        for j, mask in enumerate(space_g.monomials):
            conv.set_col(j, {canon.index[m]: c
                             for m, c in to_canon.expand(mask).items()})
        chi = conv @ chi
        current = canon

    composed = SuturedSurface(
        current.surface.components,
        tuple(fmap[s] for s in f.incoming),
        tuple(fp.outgoing),
    )
    final = build(composed, grading)
    if final.basis.elements != current.basis.elements:
        raise ConventionMismatch("composed basis differs from the canonical basis")

    if not (chi @ tensor.relations).is_zero():
        raise ConventionMismatch("composition map does not kill the balancing relations")

    chi_bar = chi @ tensor.section
    target_bim = bimodule_of(final)
    small = final.dim <= FULL_CHECK_LIMIT if full_check is None else full_check
    # Unimodularity is structural for big instances: chi factors through the
    # quotient by the relations (checked above), every factor of chi is
    # surjective, and the tensor construction certified the quotient free of
    # the same graded rank; is_graded_iso still checks blocks, ranks, and
    # intertwining of every generator.
    result = is_graded_iso(chi_bar, tensor.bimodule, target_bim,
                           unimodularity="snf" if small else "structural")
    if isinstance(result, IsoFailure):
        raise ConventionMismatch(f"composition iso failed: {result}")
    return ComposeIsoResult(result, tensor, steps, final,
                            [s.case_tag for s in steps])


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
    mat = IntMat(target.dim, space.dim)
    for j, mask in enumerate(space.monomials):
        mat.set_col(j, {full ^ mask: 1})
    result = is_graded_iso(mat, source, target)
    if isinstance(result, IsoFailure):
        raise ConventionMismatch(f"pants identification failed: {result}")
    return result


# ---------------------------------------------------------------------------
# monoidality witnesses


def union_iso(space_f: StateSpace, space_g: StateSpace) -> GradedIso:
    """Z(F) (x) Z(G) = Z(F u G), with the Koszul sign (-1)^{pi(G) |x|}."""
    f, g = space_f.surface, space_g.surface
    union, gmap = disjoint_union_with_maps(f, g)
    if any(k != v for k, v in gmap.items()):
        raise ValueError("disjoint-union witness needs disjoint S+ ids")
    model_u = model_of(union)
    concat = _transport_basis(space_f.basis, model_u, 0, {}) + \
        _transport_basis(space_g.basis, model_u, len(f.components), {})
    space_u = build(union, space_f.grading, H1Basis(model_u, tuple(concat)))
    ext = external_tensor(bimodule_of(space_f), bimodule_of(space_g))
    hf = space_f.h
    pi_g = space_g.parity0
    mat = IntMat(space_u.dim, space_f.dim * space_g.dim)
    for i, mf in enumerate(space_f.monomials):
        sign = -1 if (popcount(mf) * pi_g) % 2 else 1
        for j, mg in enumerate(space_g.monomials):
            mat.set_col(i * space_g.dim + j,
                        {space_u.index[mf | (mg << hf)]: sign})
    result = is_graded_iso(mat, ext, bimodule_of(space_u))
    if isinstance(result, IsoFailure):
        raise ConventionMismatch(f"disjoint-union witness failed: {result}")
    return result


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
    """Z(identity cobordism on M) = A(M) as a bimodule over itself."""
    surf = identity_cobordism(labels)
    space = build(surf, grading, _rect_basis(surf))
    m = space.h
    algebra = SuperAlgebra(m)
    target = regular_bimodule(algebra)
    full = (1 << m) - 1
    mat = IntMat(target.dim, space.dim)
    for j, mask in enumerate(space.monomials):
        # iterated-union Koszul sign: each rectangle's prefactor is odd
        sign = sum(m - 1 - i for i in _bits(mask)) % 2
        mat.set_col(j, {full ^ mask: -1 if sign else 1})
    result = is_graded_iso(mat, bimodule_of(space), target)
    if isinstance(result, IsoFailure):
        raise ConventionMismatch(f"identity-cobordism witness failed: {result}")
    return result


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
        for i in _bits(mask):
            out |= 1 << (m2 + i if i < m1 else i - m1)
        return out

    full = (1 << m) - 1
    mat = IntMat(target.dim, space.dim)
    for j, mask in enumerate(space.monomials):
        comp = full ^ mask
        sign = sum(m - 1 - i for i in _bits(mask)) % 2
        low = popcount(comp & ((1 << m1) - 1))
        high = popcount(comp >> m1)
        sign = (sign + low * high) % 2
        mat.set_col(j, {swap(comp): -1 if sign else 1})
    result = is_graded_iso(mat, bimodule_of(space), target)
    if isinstance(result, IsoFailure):
        raise ConventionMismatch(f"symmetrizer witness failed: {result}")
    return result


def _left_monomial_action(bim: Bimodule, mask: int) -> IntMat:
    out = IntMat.identity(bim.dim)
    for i in sorted(_bits(mask), reverse=True):
        out = bim.left_actions[i] @ out
    return out


def _right_monomial_action(bim: Bimodule, mask: int) -> IntMat:
    out = IntMat.identity(bim.dim)
    for i in _bits(mask):
        out = bim.right_actions[i] @ out
    return out


def _int_inverse(mat: IntMat) -> IntMat:
    """Inverse of a unimodular matrix: u @ mat @ v == I gives v @ u."""
    sf = smith(mat, want_u=True, want_v=True)
    if mat.nrows != mat.ncols or sf.rank != mat.nrows or not sf.is_free_quotient():
        raise ConventionMismatch("unitor evaluation is not unimodular")
    return sf.v @ sf.u


def naturality_square(f_space: StateSpace, g_space: StateSpace) -> GradedIso:
    """The monoidal naturality square for a disjoint pair of cobordisms.

    Compares mu (x)_{A(M2) (x) A(M2')} (Z(F) (x) Z(F')) with
    Z(F u F') (x)_{A(M1 u M1')} mu via the union witness and the unitor
    evaluations, and verifies the composite.
    """
    bim_f = bimodule_of(f_space)
    bim_g = bimodule_of(g_space)
    ext = external_tensor(bim_f, bim_g)
    mu_out = hom_bimodule(identity_hom(SuperAlgebra(ext.left.m)))
    mu_in = hom_bimodule(identity_hom(SuperAlgebra(ext.right.m)))
    x = tensor_middle(mu_out, ext)
    union_witness = union_iso(f_space, g_space)
    bim_u = union_witness.target
    y = tensor_middle(bim_u, mu_in)

    # evaluate b (x) v -> b . v on X's representatives
    ev_x = IntMat(ext.dim, mu_out.dim * ext.dim)
    for mask in range(mu_out.dim):
        act = _left_monomial_action(ext, mask)
        for e in range(ext.dim):
            ev_x.set_col(mask * ext.dim + e, dict(act.col(e)))
    # evaluate v (x) a -> v . a on Y's representatives
    ev_y = IntMat(bim_u.dim, bim_u.dim * mu_in.dim)
    for e in range(bim_u.dim):
        for mask in range(mu_in.dim):
            act = _right_monomial_action(bim_u, mask)
            ev_y.set_col(e * mu_in.dim + mask, dict(act.col(e)))

    x_to_ext = ev_x @ x.section
    y_to_u = ev_y @ y.section
    w = _int_inverse(y_to_u) @ union_witness.matrix @ x_to_ext
    result = is_graded_iso(w, x.bimodule, y.bimodule)
    if isinstance(result, IsoFailure):
        raise ConventionMismatch(f"naturality square failed: {result}")
    return result
