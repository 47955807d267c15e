"""Tensor powers of Z[E]/(E^2) and graded bimodules over pairs of them.

Monomials of the m-fold tensor power are encoded as bitmasks over the m
slots; E_i is odd of degree -1 and distinct slots anticommute.  Bimodules
store explicit generator action matrices, and every construction re-checks
the sign relations as exact matrix identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .snf import IntMat, smith


class AlgebraMismatch(ValueError):
    pass


class NotAHomomorphism(ValueError):
    pass


class TorsionDetected(ValueError):
    pass


class ActionRelationViolation(AssertionError):
    pass


def koszul_merge(s: int, t: int):
    """Normal-form product E_s * E_t: (sign, union mask), or None if it dies."""
    if s & t:
        return None
    sign = 1
    for j in bits(t):
        # E_j moves past the factors of s in higher slots
        if (s >> (j + 1)).bit_count() % 2:
            sign = -sign
    return sign, s | t


def bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SuperAlgebra:
    """(Z[E]/(E^2))^{tensor m}."""

    m: int

    @property
    def dim(self) -> int:
        return 1 << self.m

    def monomials(self):
        return range(self.dim)

    def degree(self, mask: int) -> int:
        return -mask.bit_count()

    def parity(self, mask: int) -> int:
        return mask.bit_count() & 1

    def monomial_label(self, mask: int) -> str:
        if mask == 0:
            return "1"
        return "".join(f"E{j+1}" for j in bits(mask))


@dataclass(frozen=True)
class AlgebraElement:
    algebra: SuperAlgebra
    terms: tuple  # sorted ((mask, coeff), ...)

    @staticmethod
    def make(algebra, coeffs: dict) -> "AlgebraElement":
        return AlgebraElement(
            algebra, tuple(sorted((m, c) for m, c in coeffs.items() if c)))

    @staticmethod
    def unit(algebra) -> "AlgebraElement":
        return AlgebraElement.make(algebra, {0: 1})

    @staticmethod
    def gen(algebra, i: int) -> "AlgebraElement":
        if not 0 <= i < algebra.m:
            raise AlgebraMismatch(f"no generator {i} in a {algebra.m}-fold power")
        return AlgebraElement.make(algebra, {1 << i: 1})

    def coeffs(self) -> dict:
        return dict(self.terms)

    def __add__(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatch("sum across different algebras")
        out = self.coeffs()
        for m, c in other.terms:
            w = out.get(m, 0) + c
            if w:
                out[m] = w
            else:
                out.pop(m, None)
        return AlgebraElement.make(self.algebra, out)

    def __neg__(self):
        return AlgebraElement.make(self.algebra,
                                   {m: -c for m, c in self.terms})

    def __mul__(self, other):
        if isinstance(other, int):
            return AlgebraElement.make(self.algebra,
                                       {m: c * other for m, c in self.terms})
        return multiply(self, other)

    __rmul__ = __mul__

    def is_homogeneous(self):
        ps = {m.bit_count() for m, _ in self.terms}
        return len(ps) <= 1

    def parity(self) -> int:
        if not self.terms:
            return 0
        if not self.is_homogeneous():
            raise ValueError("parity of an inhomogeneous element")
        return self.terms[0][0].bit_count() & 1


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Koszul-normalized product; E_i E_i terms vanish."""
    if a.algebra != b.algebra:
        raise AlgebraMismatch("product across different algebras")
    out: dict[int, int] = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            merged = koszul_merge(ma, mb)
            if merged is None:
                continue
            sign, mask = merged
            w = out.get(mask, 0) + sign * ca * cb
            if w:
                out[mask] = w
            else:
                out.pop(mask, None)
    return AlgebraElement.make(a.algebra, out)


def left_mult_matrix(algebra: SuperAlgebra, elem: AlgebraElement) -> IntMat:
    out = IntMat(algebra.dim, algebra.dim)
    for mask in algebra.monomials():
        col: dict[int, int] = {}
        for me, ce in elem.terms:
            merged = koszul_merge(me, mask)
            if merged is None:
                continue
            sign, res = merged
            col[res] = col.get(res, 0) + sign * ce
        out.set_col(mask, col)
    return out


def right_mult_matrix(algebra: SuperAlgebra, elem: AlgebraElement) -> IntMat:
    out = IntMat(algebra.dim, algebra.dim)
    for mask in algebra.monomials():
        col: dict[int, int] = {}
        for me, ce in elem.terms:
            merged = koszul_merge(mask, me)
            if merged is None:
                continue
            sign, res = merged
            col[res] = col.get(res, 0) + sign * ce
        out.set_col(mask, col)
    return out


# ---------------------------------------------------------------------------
# graded maps and bimodules


@dataclass(frozen=True)
class GradedMap:
    """Integer matrix between graded bases with a declared (degree, parity)."""

    matrix: IntMat
    degree: Fraction
    parity: int

    def check_blocks(self, src_degrees, src_parities, dst_degrees, dst_parities):
        for j, col in self.matrix.cols.items():
            for i in col:
                if dst_degrees[i] - src_degrees[j] != self.degree:
                    return (j, i, "degree")
                if (dst_parities[i] - src_parities[j] - self.parity) % 2:
                    return (j, i, "parity")
        return None


class Bimodule:
    """Q-graded (left, right)-bimodule over tensor powers of Z[E]/(E^2).

    Generator actions are stored as matrices; construction validates all the
    sign relations (squares vanish, same-side generators anticommute,
    opposite sides commute, everything is odd of degree -1).
    """

    def __init__(self, left: SuperAlgebra, right: SuperAlgebra,
                 degrees, parities, left_actions, right_actions,
                 label="", check=True):
        self.left = left
        self.right = right
        self.degrees = list(degrees)
        self.parities = [p % 2 for p in parities]
        self.left_actions = list(left_actions)
        self.right_actions = list(right_actions)
        self.label = label
        self.dim = len(self.degrees)
        if len(self.left_actions) != left.m or len(self.right_actions) != right.m:
            raise AlgebraMismatch("generator count does not match the algebras")
        if check:
            self.validate()

    def validate(self):
        acts = [("left", k, a) for k, a in enumerate(self.left_actions)]
        acts += [("right", k, a) for k, a in enumerate(self.right_actions)]
        for side, k, a in acts:
            if (a.nrows, a.ncols) != (self.dim, self.dim):
                raise ActionRelationViolation(
                    f"{self.label}: {side} action {k} has wrong shape")
            gm = GradedMap(a, Fraction(-1), 1)
            bad = gm.check_blocks(self.degrees, self.parities,
                                  self.degrees, self.parities)
            if bad is not None:
                raise ActionRelationViolation(
                    f"{self.label}: {side} generator {k} is not odd of degree -1 "
                    f"at entry {bad}")
            if not (a @ a).is_zero():
                raise ActionRelationViolation(
                    f"{self.label}: {side} generator {k} does not square to zero")
        for side, gens in (("left", self.left_actions), ("right", self.right_actions)):
            for i, j in itertools.combinations(range(len(gens)), 2):
                anti = gens[i] @ gens[j] + gens[j] @ gens[i]
                if not anti.is_zero():
                    raise ActionRelationViolation(
                        f"{self.label}: {side} generators {i},{j} do not anticommute")
        for i, a in enumerate(self.left_actions):
            for j, b in enumerate(self.right_actions):
                comm = a @ b - b @ a
                if not comm.is_zero():
                    raise ActionRelationViolation(
                        f"{self.label}: left {i} and right {j} do not commute")

    def block_dims(self):
        out: dict[tuple, int] = {}
        for d, p in zip(self.degrees, self.parities):
            out[(d, p)] = out.get((d, p), 0) + 1
        return out

    def block_indices(self):
        out: dict[tuple, list] = {}
        for i, (d, p) in enumerate(zip(self.degrees, self.parities)):
            out.setdefault((d, p), []).append(i)
        return out

    def superdim(self):
        from .laurent import LaurentPoly
        out = LaurentPoly.zero()
        for d, p in zip(self.degrees, self.parities):
            out = out + LaurentPoly.term(-1 if p else 1, d)
        return out

    def __repr__(self):
        return (f"Bimodule({self.label or 'unnamed'}, dim={self.dim}, "
                f"left=A({self.left.m}), right=A({self.right.m}))")


def regular_bimodule(algebra: SuperAlgebra) -> Bimodule:
    degrees = [Fraction(algebra.degree(m)) for m in algebra.monomials()]
    parities = [algebra.parity(m) for m in algebra.monomials()]
    lefts = [left_mult_matrix(algebra, AlgebraElement.gen(algebra, i))
             for i in range(algebra.m)]
    rights = [right_mult_matrix(algebra, AlgebraElement.gen(algebra, i))
              for i in range(algebra.m)]
    return Bimodule(algebra, algebra, degrees, parities, lefts, rights,
                    label=f"A({algebra.m})")


def coproduct_left_action(p: int) -> Bimodule:
    """(Z[E]/(E^2))^{tensor p} as a (Z[E]/(E^2), itself)-bimodule.

    The left generator acts through the iterated coproduct
    Delta(E) = E (x) 1 + 1 (x) E (the counit, i.e. zero, when p = 0); the
    right action is multiplication.
    """
    algebra = SuperAlgebra(p)
    one = SuperAlgebra(1)
    degrees = [Fraction(algebra.degree(m)) for m in algebra.monomials()]
    parities = [algebra.parity(m) for m in algebra.monomials()]
    delta_e = AlgebraElement.make(
        algebra, {1 << i: 1 for i in range(p)})
    lefts = [left_mult_matrix(algebra, delta_e)]
    rights = [right_mult_matrix(algebra, AlgebraElement.gen(algebra, i))
              for i in range(p)]
    return Bimodule(one, algebra, degrees, parities, lefts, rights,
                    label=f"Delta^{p}")


@dataclass(frozen=True)
class AlgHom:
    """Even degree-0 homomorphism given on generators."""

    src: SuperAlgebra
    dst: SuperAlgebra
    images: tuple  # AlgebraElement in dst per generator of src

    def __post_init__(self):
        if len(self.images) != self.src.m:
            raise NotAHomomorphism("one image per generator required")
        for k, el in enumerate(self.images):
            if el.algebra != self.dst:
                raise NotAHomomorphism(f"image {k} lives in the wrong algebra")
            sq = multiply(el, el)
            if sq.terms:
                raise NotAHomomorphism(f"image of generator {k} does not square to zero")
            if el.terms and el.parity() != 1:
                raise NotAHomomorphism(f"image of generator {k} is not odd")
            if any(m.bit_count() != 1 for m, _ in el.terms):
                # degree -1 must be preserved
                raise NotAHomomorphism(f"image of generator {k} is not of degree -1")
        for i, j in itertools.combinations(range(self.src.m), 2):
            anti = multiply(self.images[i], self.images[j]) + \
                multiply(self.images[j], self.images[i])
            if anti.terms:
                raise NotAHomomorphism(f"images of generators {i},{j} do not anticommute")

    def apply_monomial(self, mask: int) -> AlgebraElement:
        out = AlgebraElement.unit(self.dst)
        for i in bits(mask):
            out = multiply(out, self.images[i])
        return out


def identity_hom(algebra: SuperAlgebra) -> AlgHom:
    return AlgHom(algebra, algebra,
                  tuple(AlgebraElement.gen(algebra, i) for i in range(algebra.m)))


def slot_permutation_hom(src_m: int, perm) -> AlgHom:
    """E_i -> E_{perm(i)}; covers associators, unitors and the block swap."""
    src = SuperAlgebra(src_m)
    dst = SuperAlgebra(src_m)
    return AlgHom(src, dst,
                  tuple(AlgebraElement.gen(dst, perm[i]) for i in range(src_m)))


def hom_bimodule(f: AlgHom) -> Bimodule:
    """X_f: the target algebra with right action twisted through f."""
    b = f.dst
    degrees = [Fraction(b.degree(m)) for m in b.monomials()]
    parities = [b.parity(m) for m in b.monomials()]
    lefts = [left_mult_matrix(b, AlgebraElement.gen(b, i)) for i in range(b.m)]
    rights = [right_mult_matrix(b, f.apply_monomial(1 << i))
              for i in range(f.src.m)]
    return Bimodule(b, f.src, degrees, parities, lefts, rights,
                    label="X_f")


def symmetrizer_bimodule(m1: int, m2: int) -> Bimodule:
    """X_sigma for the Koszul swap A(m1) (x) A(m2) -> A(m2) (x) A(m1)."""
    perm = {i: m2 + i for i in range(m1)}
    perm.update({m1 + j: j for j in range(m2)})
    return hom_bimodule(slot_permutation_hom(m1 + m2, perm))


# ---------------------------------------------------------------------------
# tensor products


def external_tensor(x: Bimodule, y: Bimodule, check=True) -> Bimodule:
    """Koszul external tensor over (B1 (x) B2, A1 (x) A2).

    Sign conventions: (b1 (x) b2)(x (x) y)(a1 (x) a2) =
    (-1)^{|b2||x| + |a1||y| + |b2||a1|} (b1 x a1) (x) (b2 y a2).
    """
    left = SuperAlgebra(x.left.m + y.left.m)
    right = SuperAlgebra(x.right.m + y.right.m)
    dim = x.dim * y.dim

    def pair(i, j):
        return i * y.dim + j

    degrees = [Fraction(0)] * dim
    parities = [0] * dim
    for i in range(x.dim):
        for j in range(y.dim):
            degrees[pair(i, j)] = x.degrees[i] + y.degrees[j]
            parities[pair(i, j)] = (x.parities[i] + y.parities[j]) % 2

    def expand_first(act: IntMat, sign_by_y=None):
        out = IntMat(dim, dim)
        for jx, col in act.cols.items():
            for jy in range(y.dim):
                s = 1 if sign_by_y is None else sign_by_y[jy]
                out.set_col(pair(jx, jy),
                            {pair(ix, jy): s * v for ix, v in col.items()})
        return out

    def expand_second(act: IntMat, sign_by_x=None):
        out = IntMat(dim, dim)
        for jy, col in act.cols.items():
            for jx in range(x.dim):
                s = 1 if sign_by_x is None else sign_by_x[jx]
                out.set_col(pair(jx, jy),
                            {pair(jx, iy): s * v for iy, v in col.items()})
        return out

    x_par_sign = [-1 if p else 1 for p in x.parities]
    y_par_sign = [-1 if p else 1 for p in y.parities]
    lefts = [expand_first(a) for a in x.left_actions]
    lefts += [expand_second(a, sign_by_x=x_par_sign) for a in y.left_actions]
    rights = [expand_first(a, sign_by_y=y_par_sign) for a in x.right_actions]
    rights += [expand_second(a) for a in y.right_actions]
    return Bimodule(left, right, degrees, parities, lefts, rights,
                    label=f"({x.label})(x)({y.label})", check=check)


@dataclass
class TensorResult:
    """Free presentation of X (x)_B Y with projection and section."""

    bimodule: Bimodule
    projection: IntMat        # ambient pair space -> quotient
    section: IntMat           # quotient -> ambient representatives
    relations: IntMat         # columns spanning the balancing submodule
    ambient_degrees: list = field(default_factory=list)
    ambient_parities: list = field(default_factory=list)


def middle_relations(x: Bimodule, y: Bimodule) -> IntMat:
    """Columns (x a (x) y) - (x (x) a y) over middle generators and basis pairs."""
    if x.right.m != y.left.m:
        raise AlgebraMismatch("middle algebras differ")
    dim = x.dim * y.dim

    def pair(i, j):
        return i * y.dim + j

    cols = {}
    n = 0
    for k in range(x.right.m):
        xa = x.right_actions[k]
        ay = y.left_actions[k]
        for i in range(x.dim):
            xa_col = xa.col(i)
            for j in range(y.dim):
                col: dict[int, int] = {}
                for r, v in xa_col.items():
                    col[pair(r, j)] = col.get(pair(r, j), 0) + v
                for s, v in ay.col(j).items():
                    col[pair(i, s)] = col.get(pair(i, s), 0) - v
                col = {a: b for a, b in col.items() if b}
                if col:
                    cols[n] = col
                    n += 1
    return IntMat(dim, n, cols)


def tensor_middle(x: Bimodule, y: Bimodule, check=True) -> TensorResult:
    """X (x)_B Y as a free bimodule, via Smith normal form per graded block.

    Raises TorsionDetected if any block has a nonunit invariant factor.
    """
    rel = middle_relations(x, y)
    dim = x.dim * y.dim

    def pair(i, j):
        return i * y.dim + j

    degrees = [Fraction(0)] * dim
    parities = [0] * dim
    for i in range(x.dim):
        for j in range(y.dim):
            degrees[pair(i, j)] = x.degrees[i] + y.degrees[j]
            parities[pair(i, j)] = (x.parities[i] + y.parities[j]) % 2

    blocks: dict[tuple, list] = {}
    for idx in range(dim):
        blocks.setdefault((degrees[idx], parities[idx]), []).append(idx)
    rel_by_block: dict[tuple, list] = {key: [] for key in blocks}
    for jc, col in rel.cols.items():
        some = next(iter(col))
        key = (degrees[some], parities[some])
        rel_by_block[key].append(col)

    basis_meta = []
    proj_cols_tmp: dict[int, dict[int, int]] = {}
    sect_cols: dict[int, dict[int, int]] = {}
    n_quot = 0
    for key in sorted(blocks, key=lambda kp: (kp[0], kp[1])):
        idxs = blocks[key]
        local = {g: l for l, g in enumerate(idxs)}
        rcols = rel_by_block.get(key, [])
        sub = IntMat(len(idxs), len(rcols))
        for jc, col in enumerate(rcols):
            sub.set_col(jc, {local[g]: v for g, v in col.items()})
        sf = smith(sub, want_u=True, want_uinv=True)
        bad = [d for d in sf.invariant_factors if d != 1]
        if bad:
            raise TorsionDetected(
                f"block (degree {key[0]}, parity {key[1]}) has invariant factors {bad}")
        r = sf.rank
        n_free = len(idxs) - r
        # projection rows r.. of U; section columns r.. of U^{-1}
        for lc, col in sf.u.cols.items():
            g = idxs[lc]
            for f, v in col.items():
                if f >= r:
                    proj_cols_tmp.setdefault(g, {})[n_quot + (f - r)] = v
        for f in range(r, len(idxs)):
            sect_cols[n_quot + (f - r)] = {idxs[i]: v
                                           for i, v in sf.uinv.col(f).items()}
            basis_meta.append(key)
        n_quot += n_free

    proj = IntMat(n_quot, dim, proj_cols_tmp)
    sect = IntMat(dim, n_quot, sect_cols)

    q_degrees = [key[0] for key in basis_meta]
    q_parities = [key[1] for key in basis_meta]

    def induce(act: IntMat) -> IntMat:
        out = proj @ act @ sect
        return out

    ambient_lefts = [IntMat(dim, dim) for _ in range(x.left.m)]
    for k, a in enumerate(x.left_actions):
        m_ = ambient_lefts[k]
        for jx, col in a.cols.items():
            for jy in range(y.dim):
                m_.set_col(pair(jx, jy), {pair(ix, jy): v for ix, v in col.items()})
    ambient_rights = [IntMat(dim, dim) for _ in range(y.right.m)]
    for k, a in enumerate(y.right_actions):
        m_ = ambient_rights[k]
        for jy, col in a.cols.items():
            for jx in range(x.dim):
                m_.set_col(pair(jx, jy), {pair(jx, iy): v for iy, v in col.items()})

    for amb in ambient_lefts + ambient_rights:
        if not (proj @ amb @ rel).is_zero():
            raise ActionRelationViolation(
                "outer action does not preserve the balancing submodule")

    lefts = [induce(a) for a in ambient_lefts]
    rights = [induce(a) for a in ambient_rights]
    bim = Bimodule(x.left, y.right, q_degrees, q_parities, lefts, rights,
                   label=f"({x.label})(x)_B({y.label})", check=check)
    return TensorResult(bim, proj, sect, rel, degrees, parities)


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
        pcol = yz.projection.col(jk)
        if not pcol:
            continue
        for i in range(x.dim):
            col = {}
            for t2, v in pcol.items():
                for t_r, w in right.projection.col(i * yz.bimodule.dim + t2).items():
                    n = col.get(t_r, 0) + v * w
                    if n:
                        col[t_r] = n
                    else:
                        col.pop(t_r, None)
            if col:
                proj.set_col(i * dim_yz + jk, col)

    witness = proj @ embed
    return is_graded_iso(witness, left.bimodule, right.bimodule)


# ---------------------------------------------------------------------------
# graded isomorphism checking


@dataclass
class GradedIso:
    """A verified even, degree-0, unimodular intertwiner."""

    matrix: IntMat
    source: Bimodule
    target: Bimodule
    checks: tuple = ()

    @property
    def ok(self):
        return True


@dataclass
class IsoFailure:
    reason: str
    detail: str = ""

    @property
    def ok(self):
        return False

    def __str__(self):
        return f"{self.reason}" + (f": {self.detail}" if self.detail else "")


def is_graded_iso(matrix: IntMat, x: Bimodule, y: Bimodule):
    """Verify that ``matrix`` is an isomorphism of graded bimodules X -> Y.

    Checks block compatibility, graded ranks, exact intertwining of every
    generator on both sides, and that every graded block is unimodular
    (Smith normal form).
    """
    if (x.left.m, x.right.m) != (y.left.m, y.right.m):
        return IsoFailure("algebra mismatch",
                          f"({x.left.m},{x.right.m}) vs ({y.left.m},{y.right.m})")
    if x.dim != y.dim:
        return IsoFailure("rank mismatch", f"{x.dim} vs {y.dim}")
    if (matrix.nrows, matrix.ncols) != (y.dim, x.dim):
        return IsoFailure("shape mismatch")

    gm = GradedMap(matrix, Fraction(0), 0)
    bad = gm.check_blocks(x.degrees, x.parities, y.degrees, y.parities)
    if bad is not None:
        j, i, what = bad
        return IsoFailure("not block-diagonal",
                          f"{what} jump at entry ({i},{j})")

    xb = x.block_dims()
    yb = y.block_dims()
    if xb != yb:
        diff = {k: (xb.get(k, 0), yb.get(k, 0))
                for k in set(xb) | set(yb) if xb.get(k) != yb.get(k)}
        return IsoFailure("graded rank mismatch", str(diff))

    checks = ["blocks", "ranks"]
    for side, xg, yg in (("left", x.left_actions, y.left_actions),
                         ("right", x.right_actions, y.right_actions)):
        for k, (a, b) in enumerate(zip(xg, yg)):
            if matrix @ a != b @ matrix:
                return IsoFailure("intertwining failure",
                                  f"{side} generator {k}")
    checks.append("intertwining")

    xi = x.block_indices()
    yi = y.block_indices()
    for key, src in xi.items():
        sub = matrix.submatrix(yi[key], src)
        sf = smith(sub)
        if sf.rank != len(src) or not sf.is_free_quotient():
            return IsoFailure(
                "not unimodular",
                f"block (degree {key[0]}, parity {key[1]})")
    checks.append("unimodular")
    return GradedIso(matrix, x, y, tuple(checks))
