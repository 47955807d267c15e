"""Exact integer linear algebra: sparse matrices and Smith normal form.

Everything here works over arbitrary-precision Python ints.  Matrices are
stored column-major as ``{col: {row: value}}`` with explicit shape, which
suits the engine's highly sparse action/relation matrices.

``smith`` is the one elimination kernel.  Ranks, invariant factors, the
quotient bases of ``tensor_middle``, the unimodularity tests
(``is_unimodular``) and every integral solve or inverse (``solve_exact``)
come from it.  It eliminates on +-1 pivots taken from a worklist of
columns ordered by length, records the pivot positions instead of
swapping rows and columns, and falls back to Euclidean steps only when no
unit entry is left (after Dumas, Saunders and Villard, JSC 2001).  The
result counts the Euclidean steps and, with u, lists the rows that no
pivot retired: without a Euclidean step the unit vectors at those rows map
onto a basis of the quotient by the columns, so ``tensor_middle`` asks for
u alone.  A matrix that needs no elimination does not reach ``smith``:
``is_unimodular`` accepts a square signed permutation (one +-1 per column,
on distinct rows) by a single pass over its entries.  ``det_bareiss``
(fraction-free determinant) and ``solve_int`` have no caller in the
package: they are the tests' independent oracle and spans of the
benchmark.
"""

from __future__ import annotations

import heapq


class IntMat:
    """Sparse integer matrix, column-major."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows, ncols, cols=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = {} if cols is None else cols

    @classmethod
    def identity(cls, n):
        return cls(n, n, {j: {j: 1} for j in range(n)})

    def set_col(self, j, col):
        col = {i: v for i, v in col.items() if v}
        if col:
            self.cols[j] = col
        elif j in self.cols:
            del self.cols[j]

    def col(self, j):
        return self.cols.get(j, {})

    def nnz(self):
        return sum(len(c) for c in self.cols.values())

    def is_zero(self):
        return not self.cols

    def apply(self, vec):
        """Multiply by a sparse vector {index: value}."""
        out: dict[int, int] = {}
        for j, c in vec.items():
            col = self.cols.get(j)
            if not col:
                continue
            for i, v in col.items():
                w = out.get(i, 0) + c * v
                if w:
                    out[i] = w
                else:
                    out.pop(i, None)
        return out

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = IntMat(self.nrows, other.ncols)
        ocols = out.cols
        for j, col in other.cols.items():
            new = self.apply(col)
            if new:
                ocols[j] = new
        return out

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        out = IntMat(self.nrows, self.ncols)
        for j in set(self.cols) | set(other.cols):
            col = dict(self.cols.get(j, {}))
            for i, v in other.cols.get(j, {}).items():
                w = col.get(i, 0) + v
                if w:
                    col[i] = w
                else:
                    col.pop(i, None)
            out.set_col(j, col)
        return out

    def __neg__(self):
        out = IntMat(self.nrows, self.ncols)
        for j, col in self.cols.items():
            out.cols[j] = {i: -v for i, v in col.items()}
        return out

    def is_negative_of(self, other):
        """Whether ``self == -other``, without forming ``-other``."""
        if (self.nrows, self.ncols) != (other.nrows, other.ncols) \
                or self.cols.keys() != other.cols.keys():
            return False
        for j, col in self.cols.items():
            ocol = other.cols[j]
            if len(col) != len(ocol):
                return False
            for i, v in col.items():
                if ocol.get(i) != -v:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, IntMat):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return self.cols == other.cols

    def submatrix(self, row_idx, col_idx):
        """Extract rows/cols by index lists, reindexed densely."""
        rmap = {r: i for i, r in enumerate(row_idx)}
        out = IntMat(len(row_idx), len(col_idx))
        for jj, j in enumerate(col_idx):
            col = self.cols.get(j)
            if not col:
                continue
            new = {rmap[i]: v for i, v in col.items() if i in rmap}
            out.set_col(jj, new)
        return out

    def __repr__(self):
        return f"IntMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"


def det_bareiss(rows):
    """Determinant of a dense integer matrix (fraction-free elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _axpy(dst, src, k):
    """dst += k * src for sparse vectors {index: value}, in place (k != 0)."""
    for i, v in src.items():
        w = dst.get(i, 0) + k * v
        if w:
            dst[i] = w
        else:
            del dst[i]


def _mix(a, b, x, y, z, w):
    """(x*a + y*b, z*a + w*b) for sparse vectors a, b."""
    na: dict[int, int] = {}
    nb: dict[int, int] = {}
    for i in a.keys() | b.keys():
        va, vb = a.get(i, 0), b.get(i, 0)
        s = x * va + y * vb
        if s:
            na[i] = s
        t = z * va + w * vb
        if t:
            nb[i] = t
    return na, nb


def _ext_gcd(a, b):
    """(g, x, y) with x*a + y*b == g == gcd(a, b), for a, b > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


class SmithForm:
    """Result of a Smith normal form computation.

    ``u @ mat @ v == d`` with u, v unimodular and d diagonal with the
    divisibility chain d1 | d2 | ... .  u and v are computed only when
    requested.  Neither inverse is ever computed (``solve_exact`` inverts);
    ``uinv`` and ``vinv`` stay None so that code reading all four
    transforms (``perfbench/spans.py``) keeps working.

    ``euclid_steps`` counts the pivots that needed Euclidean steps.
    ``free_rows`` lists, in increasing order, the rows that no pivot
    retired: rows ``rank..`` of u belong to them, in that order.  It is
    None unless u was requested.  When ``euclid_steps`` is 0, every row
    operation subtracts a multiple of a pivot's row, so row ``rank + k`` of
    u is the unit vector at ``free_rows[k]`` plus entries at retired rows.
    """

    uinv = vinv = None

    def __init__(self, diag, rank, u=None, v=None, free_rows=None,
                 euclid_steps=0):
        self.diag = diag
        self.rank = rank
        self.u = u
        self.v = v
        self.free_rows = free_rows
        self.euclid_steps = euclid_steps

    @property
    def invariant_factors(self):
        return [d for d in self.diag if d != 0]

    def is_free_quotient(self):
        """All nonzero invariant factors are 1 (cokernel torsion-free)."""
        return all(d == 1 for d in self.invariant_factors)


def smith(mat, want_u=False, want_v=False):
    """Smith normal form of a sparse IntMat.

    Pivot policy: columns wait in a heap keyed by their current length; the
    shortest column holding a +-1 entry is eliminated on that entry, in its
    shortest row (Markowitz fill).  Euclidean steps (division with remainder
    by the smallest entry left) only happen once no unit entry remains.

    Nothing is swapped: each pivot retires its row and column from the
    active matrix, and the (row, column) pairs are applied as permutations
    only when u and v are assembled at the end, unit pivots first.

    Row operations always run.  Column operations run on the active matrix
    only in Euclidean steps where a pivot row has an entry its pivot does
    not divide; clearing a pivot row is recorded in v alone, so it is
    skipped entirely when v is not requested (the rank-only calls).  Then
    ``u @ mat`` is still ``d`` times a unimodular matrix, and its rows
    ``rank..`` are zero.
    """
    nrows, ncols = mat.nrows, mat.ncols
    # the active matrix, row- and column-major; retired rows and columns leave
    cols: dict[int, dict[int, int]] = {}
    rows: dict[int, dict[int, int]] = {}
    for j, c in mat.cols.items():
        if c:
            cols[j] = dict(c)
            for i, val in c.items():
                rows.setdefault(i, {})[j] = val
    urows = {i: {i: 1} for i in range(nrows)} if want_u else None  # rows of u
    vcols = {j: {j: 1} for j in range(ncols)} if want_v else None
    pivots = []  # (row, column, value) in elimination order
    euclid_steps = 0

    def row_op(i, p, f):
        # R_i -= f * R_p on the active matrix and u
        ri = rows[i]
        for j, a in rows[p].items():
            w = ri.get(j, 0) - f * a
            cj = cols[j]
            if w:
                ri[j] = w
                cj[i] = w
            else:
                del ri[j]
                del cj[i]
        if not ri:
            del rows[i]
        if urows is not None:
            _axpy(urows[i], urows[p], -f)

    def retire(p, q, piv):
        # column q is zero outside row p; what is left of row p is a multiple
        # of piv, cleared by column operations recorded in v only
        prow = rows.pop(p)
        for j, a in prow.items():
            cj = cols[j]
            del cj[p]
            if not cj:
                del cols[j]
            if vcols is not None and j != q:
                _axpy(vcols[j], vcols[q], -(a // piv))
        pivots.append((p, q, piv))

    def unit_pivot(p, q):
        piv = rows[p][q]
        for i, b in [(i, b) for i, b in cols[q].items() if i != p]:
            row_op(i, p, b * piv)
        retire(p, q, piv)

    def euclid_pivot():
        _, p, q = min((abs(val), i, j) for j, c in cols.items() for i, val in c.items())
        while True:
            piv = rows[p][q]
            for i, b in [(i, b) for i, b in cols[q].items() if i != p]:
                if f := b // piv:
                    row_op(i, p, f)
            left = [i for i in cols[q] if i != p]
            if left:
                p = min(left, key=lambda i: abs(cols[q][i]))
                continue
            prow = rows[p]
            bad = [(j, a) for j, a in prow.items() if a % piv]
            if not bad:
                break
            for j, a in bad:
                # C_j -= (a // piv) * C_q touches only row p of the active matrix
                t = a // piv
                prow[j] = cols[j][p] = a - t * piv
                if t and vcols is not None:
                    _axpy(vcols[j], vcols[q], -t)
            q = min((j for j, _ in bad), key=lambda j: abs(prow[j]))
        retire(p, q, piv)

    while cols:
        heap = [(len(c), j) for j, c in cols.items()]
        heapq.heapify(heap)
        while heap:
            n, q = heapq.heappop(heap)
            c = cols.get(q)
            if c is None:
                continue
            if len(c) > n:
                heapq.heappush(heap, (len(c), q))
                continue
            best = None
            for i, val in c.items():
                if (val == 1 or val == -1) and (
                        best is None or len(rows[i]) < len(rows[best])):
                    best = i
            if best is not None:
                unit_pivot(best, q)
            # a column without a unit waits for the next pass
        if cols and not any(val == 1 or val == -1
                            for c in cols.values() for val in c.values()):
            euclid_pivot()
            euclid_steps += 1

    # unit pivots first; signs into u; then the divisibility chain
    pivots.sort(key=lambda t: abs(t[2]))
    diag = []
    for p, _, piv in pivots:
        if piv < 0 and urows is not None:
            urows[p] = {k: -val for k, val in urows[p].items()}
        diag.append(abs(piv))
    rank = len(diag)
    first = next((k for k, d in enumerate(diag) if d != 1), rank)
    for k in range(first, rank):
        for l in range(k + 1, rank):
            a, b = diag[k], diag[l]
            if b % a == 0:
                continue
            # [[x, y], [-b/g, a/g]] diag(a, b) [[1, -y*b/g], [1, x*a/g]] = diag(g, lcm)
            g, x, y = _ext_gcd(a, b)
            (pk, qk, _), (pl, ql, _) = pivots[k], pivots[l]
            if urows is not None:
                urows[pk], urows[pl] = _mix(urows[pk], urows[pl], x, y, -b // g, a // g)
            if vcols is not None:
                vcols[qk], vcols[ql] = _mix(vcols[qk], vcols[ql], 1, 1, -y * b // g, x * a // g)
            diag[k], diag[l] = g, a // g * b

    u = v = free_rows = None
    if urows is not None:
        done = {p for p, _, _ in pivots}
        free_rows = [i for i in range(nrows) if i not in done]
        u = IntMat(nrows, nrows)
        for k, r in enumerate([p for p, _, _ in pivots] + free_rows):
            for c, val in urows[r].items():
                u.cols.setdefault(c, {})[k] = val
    if vcols is not None:
        done = {q for _, q, _ in pivots}
        order = [q for _, q, _ in pivots] + [j for j in range(ncols) if j not in done]
        v = IntMat(ncols, ncols, {k: vcols[c] for k, c in enumerate(order)})
    return SmithForm(diag, rank, u=u, v=v, free_rows=free_rows,
                     euclid_steps=euclid_steps)


def _is_signed_permutation(mat):
    """Every column holds exactly one entry, +-1, and no two share a row."""
    cols = mat.cols
    if len(cols) != mat.ncols:
        return False
    rows = set()
    for col in cols.values():
        if len(col) != 1:
            return False
        (i, v), = col.items()
        if v != 1 and v != -1:
            return False
        rows.add(i)
    return len(rows) == mat.nrows


def is_unimodular(mat):
    """Whether ``mat`` is square and invertible over Z.  A signed permutation
    is at once; any other matrix needs full rank with every invariant factor
    1, by one rank-only Smith normal form."""
    if mat.nrows != mat.ncols:
        return False
    if _is_signed_permutation(mat):
        return True
    sf = smith(mat)
    return sf.rank == mat.ncols and sf.is_free_quotient()


def _solve_with(sf, rhs_vec):
    # x = v d^-1 u rhs, when that is integral and rhs lies in the image
    y: dict[int, int] = {}
    for i, val in sf.u.apply(rhs_vec).items():
        if i >= sf.rank:
            return None
        q, r = divmod(val, sf.diag[i])
        if r:
            return None
        y[i] = q
    return sf.v.apply(y)


def solve_int(mat, rhs_vec):
    """Solve mat @ x = rhs over Z, or return None if no integral solution."""
    return _solve_with(smith(mat, want_u=True, want_v=True), rhs_vec)


def solve_exact(mat, rhs_cols):
    """Solve mat @ x = rhs over Z for a nonsingular square IntMat, for each
    sparse column rhs of ``rhs_cols``, by one Smith normal form.

    Returns the solutions as a list of sparse columns, or None when some
    column has no integral solution.  Raises ValueError when mat is singular.
    """
    sf = smith(mat, want_u=True, want_v=True)
    if sf.rank != mat.nrows or mat.ncols != mat.nrows:
        raise ValueError("singular matrix in solve_exact")
    out = []
    for rhs in rhs_cols:
        x = _solve_with(sf, rhs)
        if x is None:
            return None
        out.append(x)
    return out
