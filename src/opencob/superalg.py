"""Tensor powers of Z[E]/(E^2) and graded bimodules over pairs of them.

Monomials of the m-fold tensor power are encoded as bitmasks over the m
slots; E_i is odd of degree -1 and distinct slots anticommute.  An algebra
element is a plain {mask: coeff} dict, used only to build a multiplication
matrix.  Bimodules store explicit generator action matrices, and the sign
relations are checked once, on those matrices, by ``Bimodule.validate``,
which every construction runs.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from functools import cached_property

from .laurent import LaurentPoly
from .snf import IntMat, is_unimodular, smith, solve_exact


class AlgebraMismatch(ValueError):
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


def mult_matrix(algebra: SuperAlgebra, elem: dict, side: str) -> IntMat:
    """Multiplication by ``elem``, a {mask: coeff} element of ``algebra``,
    from the ``side`` ("left" or "right"): column ``mask`` is ``elem * mask``
    or ``mask * elem``."""
    left = side == "left"
    out = IntMat(algebra.dim, algebra.dim)
    for mask in algebra.monomials():
        col: dict[int, int] = {}
        for me, ce in elem.items():
            merged = koszul_merge(me, mask) if left else koszul_merge(mask, me)
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
        """(word, parity) -> the indices of the basis elements in that block.
        A state space's are set by ``build``, shared by every space of its
        rank and parity0, so nothing may mutate them."""
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
                if not (gens[i] @ gens[j]).is_negative_of(gens[j] @ gens[i]):
                    raise ActionRelationViolation(
                        f"{self.label}: {side} generators {i},{j} do not anticommute")
        for i, a in enumerate(self.left_actions):
            for j, b in enumerate(self.right_actions):
                if a @ b != b @ a:
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


def _generators(algebra: SuperAlgebra) -> list:
    return [{1 << i: 1} for i in range(algebra.m)]


def _algebra_bimodule(b: SuperAlgebra, lefts, rights, label) -> Bimodule:
    """``b`` acting on itself by multiplication, as an
    (A(len(lefts)), A(len(rights)))-bimodule: left generator k multiplies
    by ``lefts[k]`` from the left, right generator k by ``rights[k]`` from
    the right."""
    grades = Grades(0, [b.degree(m) for m in b.monomials()],
                    [b.parity(m) for m in b.monomials()])
    return Bimodule(SuperAlgebra(len(lefts)), SuperAlgebra(len(rights)),
                    grades, [mult_matrix(b, el, "left") for el in lefts],
                    [mult_matrix(b, el, "right") for el in rights], label=label)


def regular_bimodule(algebra: SuperAlgebra) -> Bimodule:
    """A(m) over itself, each generator multiplying from its side."""
    gens = _generators(algebra)
    return _algebra_bimodule(algebra, gens, gens, f"A({algebra.m})")


def coproduct_left_action(p: int) -> Bimodule:
    """(Z[E]/(E^2))^{tensor p} as a (Z[E]/(E^2), itself)-bimodule.

    The left generator acts through the iterated coproduct
    Delta(E) = E (x) 1 + 1 (x) E (the counit, i.e. zero, when p = 0); the
    right action is multiplication.
    """
    algebra = SuperAlgebra(p)
    delta_e = {1 << i: 1 for i in range(p)}
    return _algebra_bimodule(algebra, [delta_e], _generators(algebra),
                             f"Delta^{p}")


def symmetrizer_bimodule(m1: int, m2: int) -> Bimodule:
    """X_sigma for the Koszul swap A(m1) (x) A(m2) -> A(m2) (x) A(m1).

    A(m1 + m2) with the right action twisted through sigma: right generator
    i < m1 multiplies by E_{m2 + i}, and i >= m1 by E_{i - m1}.  With
    m2 = 0 it is the regular bimodule X_id.
    """
    algebra = SuperAlgebra(m1 + m2)
    gens = _generators(algebra)
    return _algebra_bimodule(algebra, gens, gens[m2:] + gens[:m2], "X_sigma")


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
    """Free presentation of X (x)_B Y: the quotient bimodule, the quotient
    map and a section of it, and the balancing relations, whose columns
    together with the section's span the ambient pair space."""

    bimodule: Bimodule
    projection: IntMat        # ambient pair space -> quotient
    section: IntMat           # quotient -> ambient representatives
    relations: IntMat         # columns spanning the balancing submodule


def middle_relations(x: Bimodule, y: Bimodule) -> IntMat:
    """Columns (x a (x) y) - (x (x) a y) over middle generators and basis pairs."""
    if x.right.m != y.left.m:
        raise AlgebraMismatch("middle algebras differ")
    dim_y = y.dim
    cols = {}
    n = 0
    for k in range(x.right.m):
        xa = x.right_actions[k]
        ay_cols = [y.left_actions[k].col(j) for j in range(dim_y)]
        for i in range(x.dim):
            xa_col = xa.col(i)
            base = i * dim_y
            for j, ay_col in enumerate(ay_cols):
                # pair (r, j) is r * dim_y + j; the x a entries are distinct
                col = {r * dim_y + j: v for r, v in xa_col.items()}
                for s, v in ay_col.items():
                    key = base + s
                    w = col.get(key, 0) - v
                    if w:
                        col[key] = w
                    else:
                        del col[key]
                if col:
                    cols[n] = col
                    n += 1
    return IntMat(x.dim * dim_y, n, cols)


def tensor_middle(x: Bimodule, y: Bimodule) -> TensorResult:
    """X (x)_B Y as a free bimodule, via Smith normal form per graded block.

    Each block's relations get one Smith normal form with u alone: the
    projection onto the quotient is rows ``rank..`` of u.  When the block
    took no Euclidean step, the section is the ambient basis vectors at the
    block's ``free_rows`` (``SmithForm``).  A block that took a Euclidean
    step gets its section from columns ``rank..`` of u^-1, solved for with
    ``solve_exact`` from the u it has.  An outer generator induces
    ``projection @ generator @ section``.  Raises TorsionDetected if any
    block has a nonunit invariant factor.
    """
    rel = middle_relations(x, y)
    dim = x.dim * y.dim
    ambient = x.grades.tensor(y.grades)
    blocks = ambient.blocks
    keys = sorted(blocks)
    # ambient index -> its block's position in keys, and its place in the block
    block_of = [0] * dim
    local = [0] * dim
    for b, key in enumerate(keys):
        for l, g in enumerate(blocks[key]):
            block_of[g] = b
            local[g] = l
    rel_by_block: list[list] = [[] for _ in keys]
    for col in rel.cols.values():
        rel_by_block[block_of[next(iter(col))]].append(col)

    basis_meta = []
    proj_cols_tmp: dict[int, dict[int, int]] = {}
    sect_cols: dict[int, dict[int, int]] = {}
    n_quot = 0
    for b, (key, rcols) in enumerate(zip(keys, rel_by_block)):
        idxs = blocks[key]
        sub = IntMat(len(idxs), len(rcols))
        for jc, col in enumerate(rcols):
            local_col = sub.cols[jc] = {}
            for g, v in col.items():
                if block_of[g] != b:
                    raise ValueError("a balancing relation leaves its graded block")
                local_col[local[g]] = v
        sf = smith(sub, want_u=True)
        bad = [d for d in sf.invariant_factors if d != 1]
        if bad:
            raise TorsionDetected(
                f"block (degree {ambient.offset + key[0]}, parity {key[1]}) "
                f"has invariant factors {bad}")
        r = sf.rank
        # projection rows r.. of U
        for lc, col in sf.u.cols.items():
            g = idxs[lc]
            for f, v in col.items():
                if f >= r:
                    proj_cols_tmp.setdefault(g, {})[n_quot + (f - r)] = v
        if sf.euclid_steps == 0:
            for k, i in enumerate(sf.free_rows):
                sect_cols[n_quot + k] = {idxs[i]: 1}
        else:
            # section columns r.. of U^-1
            uinv_cols = solve_exact(sf.u, [{f: 1} for f in range(r, len(idxs))])
            for k, col in enumerate(uinv_cols):
                sect_cols[n_quot + k] = {idxs[i]: v for i, v in col.items()}
        basis_meta.extend([key] * (len(idxs) - r))
        n_quot += len(idxs) - r

    proj = IntMat(n_quot, dim, proj_cols_tmp)
    sect = IntMat(dim, n_quot, sect_cols)

    q_grades = Grades(ambient.offset, [key[0] for key in basis_meta],
                      [key[1] for key in basis_meta])

    def induced(amb):
        """The outer generator ``amb`` on the ambient pair space, pushed
        down to the quotient; the ambient matrix is dropped on return."""
        proj_amb = proj @ amb
        if not (proj_amb @ rel).is_zero():
            raise ActionRelationViolation(
                "outer action does not preserve the balancing submodule")
        return proj_amb @ sect

    lefts = [induced(_on_first(a, y.dim)) for a in x.left_actions]
    rights = [induced(_on_second(a, x.dim)) for a in y.right_actions]
    bim = Bimodule(x.left, y.right, q_grades, lefts, rights,
                   label=f"({x.label})(x)_B({y.label})")
    return TensorResult(bim, proj, sect, rel)


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
