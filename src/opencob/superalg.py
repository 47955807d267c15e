"""Tensor powers of Z[E]/(E^2) and graded bimodules over pairs of them.

Monomials of the m-fold tensor power are encoded as bitmasks over the m
slots; E_i is odd of degree -1 and distinct slots anticommute.  Bimodules
store explicit generator action matrices, and every construction re-checks
the sign relations as exact matrix identities.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property

from .laurent import LaurentPoly
from .snf import IntMat, is_unimodular, smith


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
# graded bases, graded maps and bimodules


@dataclass
class Grades:
    """Element i of a graded basis sits in degree ``offset + words[i]``
    with parity ``parities[i]`` (0 or 1).  The degrees of one basis differ
    by integers, so every block test and grouping works on the words."""

    offset: numbers.Rational
    words: list
    parities: list

    @cached_property
    def degrees(self) -> list:
        """The absolute degrees, for output."""
        table = {w: self.offset + w for w in set(self.words)}
        return [table[w] for w in self.words]

    @cached_property
    def blocks(self) -> dict:
        """(word, parity) -> the indices of the basis elements in that block."""
        out: dict[tuple, list] = {}
        for i, key in enumerate(zip(self.words, self.parities)):
            out.setdefault(key, []).append(i)
        return out

    def block_dims(self, gap=0) -> dict:
        """(word + gap, parity) -> block size."""
        return {(w + gap, p): len(ix) for (w, p), ix in self.blocks.items()}

    def word_gap(self, other: "Grades", degree=0):
        """The k with: a map of degree ``degree`` to ``other`` may send j to i
        iff ``other.words[i] - self.words[j] == k``; None if it may not ever."""
        if other is self:
            return degree
        gap = degree + self.offset - other.offset
        return int(gap) if gap.denominator == 1 else None

    def same_blocks(self, other: "Grades") -> bool:
        """Whether both bases have equally many elements of every absolute
        (degree, parity)."""
        gap = self.word_gap(other)
        if gap is None:
            return not self.words and not other.words
        return self.block_dims(gap) == other.block_dims()

    def select(self, indices) -> "Grades":
        return Grades(self.offset, [self.words[i] for i in indices],
                      [self.parities[i] for i in indices])

    def tensor(self, other: "Grades") -> "Grades":
        """The basis of pairs; pair (i, j) is element ``i * len(other) + j``."""
        return Grades(self.offset + other.offset,
                      [a + b for a in self.words for b in other.words],
                      [p ^ q for p in self.parities for q in other.parities])

    def superdim(self) -> LaurentPoly:
        """Sum of (-1)^parity t^degree; ValueError off the half-integer grid."""
        base = 2 * self.offset
        if base.denominator != 1:
            raise ValueError(f"superdimension undefined: degree {self.offset} "
                             f"is off the half-integer grid")
        base = int(base)
        out: dict[int, int] = {}
        for w, p in zip(self.words, self.parities):
            key = base + 2 * w
            out[key] = out.get(key, 0) + (-1 if p else 1)
        return LaurentPoly(out)


@dataclass(frozen=True)
class GradedMap:
    """Integer matrix between graded bases with a declared integer
    (degree, parity)."""

    matrix: IntMat
    degree: int
    parity: int

    def check_blocks(self, src: Grades, dst: Grades):
        """The first entry (col, row, "degree" or "parity") that leaves its
        (degree, parity) block, or None."""
        gap = src.word_gap(dst, self.degree)
        src_words, src_parities = src.words, src.parities
        dst_words, dst_parities = dst.words, dst.parities
        for j, col in self.matrix.cols.items():
            word = src_words[j]
            parity = (src_parities[j] + self.parity) & 1
            for i in col:
                if gap is None or dst_words[i] - word != gap:
                    return (j, i, "degree")
                if dst_parities[i] != parity:
                    return (j, i, "parity")
        return None


class Bimodule:
    """Q-graded (left, right)-bimodule over tensor powers of Z[E]/(E^2).

    Generator actions are stored as matrices; construction validates all the
    sign relations (squares vanish, same-side generators anticommute,
    opposite sides commute, everything is odd of degree -1).
    """

    def __init__(self, left: SuperAlgebra, right: SuperAlgebra,
                 grades: Grades, left_actions, right_actions,
                 label="", check=True):
        self.left = left
        self.right = right
        self.grades = grades
        self.left_actions = list(left_actions)
        self.right_actions = list(right_actions)
        self.label = label
        self.dim = len(grades.words)
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
            bad = GradedMap(a, -1, 1).check_blocks(self.grades, self.grades)
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

    @property
    def degrees(self):
        return self.grades.degrees

    @property
    def parities(self):
        return self.grades.parities

    def block_dims(self):
        """(degree, parity) -> block size, for output."""
        offset = self.grades.offset
        return {(offset + w, p): n for (w, p), n in self.grades.block_dims().items()}

    def superdim(self):
        return self.grades.superdim()

    def __repr__(self):
        return (f"Bimodule({self.label or 'unnamed'}, dim={self.dim}, "
                f"left=A({self.left.m}), right=A({self.right.m}))")


def _algebra_grades(algebra: SuperAlgebra) -> Grades:
    return Grades(0, [algebra.degree(m) for m in algebra.monomials()],
                  [algebra.parity(m) for m in algebra.monomials()])


def regular_bimodule(algebra: SuperAlgebra) -> Bimodule:
    lefts = [left_mult_matrix(algebra, AlgebraElement.gen(algebra, i))
             for i in range(algebra.m)]
    rights = [right_mult_matrix(algebra, AlgebraElement.gen(algebra, i))
              for i in range(algebra.m)]
    return Bimodule(algebra, algebra, _algebra_grades(algebra), lefts, rights,
                    label=f"A({algebra.m})")


def coproduct_left_action(p: int) -> Bimodule:
    """(Z[E]/(E^2))^{tensor p} as a (Z[E]/(E^2), itself)-bimodule.

    The left generator acts through the iterated coproduct
    Delta(E) = E (x) 1 + 1 (x) E (the counit, i.e. zero, when p = 0); the
    right action is multiplication.
    """
    algebra = SuperAlgebra(p)
    one = SuperAlgebra(1)
    delta_e = AlgebraElement.make(
        algebra, {1 << i: 1 for i in range(p)})
    lefts = [left_mult_matrix(algebra, delta_e)]
    rights = [right_mult_matrix(algebra, AlgebraElement.gen(algebra, i))
              for i in range(p)]
    return Bimodule(one, algebra, _algebra_grades(algebra), lefts, rights,
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
    lefts = [left_mult_matrix(b, AlgebraElement.gen(b, i)) for i in range(b.m)]
    rights = [right_mult_matrix(b, f.apply_monomial(1 << i))
              for i in range(f.src.m)]
    return Bimodule(b, f.src, _algebra_grades(b), lefts, rights,
                    label="X_f")


def symmetrizer_bimodule(m1: int, m2: int) -> Bimodule:
    """X_sigma for the Koszul swap A(m1) (x) A(m2) -> A(m2) (x) A(m1)."""
    perm = {i: m2 + i for i in range(m1)}
    perm.update({m1 + j: j for j in range(m2)})
    return hom_bimodule(slot_permutation_hom(m1 + m2, perm))


# ---------------------------------------------------------------------------
# tensor products: pair (i, j) of X (x) Y is basis element i * dim(Y) + j


def _on_first(act: IntMat, dim_y: int, signs=None) -> IntMat:
    """act (x) 1 on the pair space, times ``signs[j]`` on the pairs (., j)."""
    dim = act.ncols * dim_y
    out = IntMat(dim, dim)
    for jx, col in act.cols.items():
        for jy in range(dim_y):
            s = 1 if signs is None else signs[jy]
            out.set_col(jx * dim_y + jy,
                        {ix * dim_y + jy: s * v for ix, v in col.items()})
    return out


def _on_second(act: IntMat, dim_x: int, signs=None) -> IntMat:
    """1 (x) act on the pair space, times ``signs[i]`` on the pairs (i, .)."""
    dim_y = act.ncols
    out = IntMat(dim_x * dim_y, dim_x * dim_y)
    for jy, col in act.cols.items():
        for jx in range(dim_x):
            s = 1 if signs is None else signs[jx]
            out.set_col(jx * dim_y + jy,
                        {jx * dim_y + iy: s * v for iy, v in col.items()})
    return out


def external_tensor(x: Bimodule, y: Bimodule) -> Bimodule:
    """Koszul external tensor over (B1 (x) B2, A1 (x) A2).

    Sign conventions: (b1 (x) b2)(x (x) y)(a1 (x) a2) =
    (-1)^{|b2||x| + |a1||y| + |b2||a1|} (b1 x a1) (x) (b2 y a2).
    """
    left = SuperAlgebra(x.left.m + y.left.m)
    right = SuperAlgebra(x.right.m + y.right.m)
    x_signs = [-1 if p else 1 for p in x.parities]
    y_signs = [-1 if p else 1 for p in y.parities]
    lefts = [_on_first(a, y.dim) for a in x.left_actions]
    lefts += [_on_second(a, x.dim, x_signs) for a in y.left_actions]
    rights = [_on_first(a, y.dim, y_signs) for a in x.right_actions]
    rights += [_on_second(a, x.dim) for a in y.right_actions]
    return Bimodule(left, right, x.grades.tensor(y.grades), lefts, rights,
                    label=f"({x.label})(x)({y.label})")


@dataclass
class TensorResult:
    """Free presentation of X (x)_B Y with projection and section."""

    bimodule: Bimodule
    projection: IntMat        # ambient pair space -> quotient
    section: IntMat           # quotient -> ambient representatives
    relations: IntMat         # columns spanning the balancing submodule


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


def tensor_middle(x: Bimodule, y: Bimodule) -> TensorResult:
    """X (x)_B Y as a free bimodule, via Smith normal form per graded block.

    Raises TorsionDetected if any block has a nonunit invariant factor.
    """
    rel = middle_relations(x, y)
    dim = x.dim * y.dim
    ambient = x.grades.tensor(y.grades)
    blocks = ambient.blocks
    rel_by_block: dict[tuple, list] = {key: [] for key in blocks}
    for col in rel.cols.values():
        some = next(iter(col))
        rel_by_block[(ambient.words[some], ambient.parities[some])].append(col)

    basis_meta = []
    proj_cols_tmp: dict[int, dict[int, int]] = {}
    sect_cols: dict[int, dict[int, int]] = {}
    n_quot = 0
    for key in sorted(blocks):
        idxs = blocks[key]
        local = {g: l for l, g in enumerate(idxs)}
        rcols = rel_by_block[key]
        sub = IntMat(len(idxs), len(rcols))
        for jc, col in enumerate(rcols):
            sub.set_col(jc, {local[g]: v for g, v in col.items()})
        sf = smith(sub, want_u=True, want_uinv=True)
        bad = [d for d in sf.invariant_factors if d != 1]
        if bad:
            raise TorsionDetected(
                f"block (degree {ambient.offset + key[0]}, parity {key[1]}) "
                f"has invariant factors {bad}")
        r = sf.rank
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
        n_quot += len(idxs) - r

    proj = IntMat(n_quot, dim, proj_cols_tmp)
    sect = IntMat(dim, n_quot, sect_cols)

    q_grades = Grades(ambient.offset, [key[0] for key in basis_meta],
                      [key[1] for key in basis_meta])
    ambient_lefts = [_on_first(a, y.dim) for a in x.left_actions]
    ambient_rights = [_on_second(a, x.dim) for a in y.right_actions]

    acts = []
    for amb in ambient_lefts + ambient_rights:
        proj_amb = proj @ amb
        if not (proj_amb @ rel).is_zero():
            raise ActionRelationViolation(
                "outer action does not preserve the balancing submodule")
        acts.append(proj_amb @ sect)

    lefts, rights = acts[:len(ambient_lefts)], acts[len(ambient_lefts):]
    bim = Bimodule(x.left, y.right, q_grades, lefts, rights,
                   label=f"({x.label})(x)_B({y.label})")
    return TensorResult(bim, proj, sect, rel)


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
    generator on both sides, and unimodularity by one Smith normal form of
    the whole matrix.  The block checks have shown that the matrix is
    block-diagonal with square blocks, so it is unimodular exactly when
    every graded block is.
    """
    if (x.left.m, x.right.m) != (y.left.m, y.right.m):
        return IsoFailure("algebra mismatch",
                          f"({x.left.m},{x.right.m}) vs ({y.left.m},{y.right.m})")
    if x.dim != y.dim:
        return IsoFailure("rank mismatch", f"{x.dim} vs {y.dim}")
    if (matrix.nrows, matrix.ncols) != (y.dim, x.dim):
        return IsoFailure("shape mismatch")

    bad = GradedMap(matrix, 0, 0).check_blocks(x.grades, y.grades)
    if bad is not None:
        j, i, what = bad
        return IsoFailure("not block-diagonal",
                          f"{what} jump at entry ({i},{j})")

    if not x.grades.same_blocks(y.grades):
        xb, yb = x.block_dims(), y.block_dims()
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

    if not is_unimodular(matrix):
        return IsoFailure("not unimodular")
    checks.append("unimodular")
    return GradedIso(matrix, x, y, tuple(checks))
