import heapq
import random
from itertools import combinations
from math import gcd

import pytest

from opencob import snf
from opencob.gluing import ConventionMismatch, _int_inverse
from opencob.snf import (IntMat, det_bareiss, is_unimodular, smith,
                         solve_exact, solve_int)


def from_rows(rows):
    """The sparse IntMat of a dense list of rows."""
    cols: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = v
    return IntMat(len(rows), len(rows[0]) if rows else 0, cols)


def to_rows(mat):
    """The dense rows of a sparse IntMat."""
    return [[mat.col(j).get(i, 0) for j in range(mat.ncols)]
            for i in range(mat.nrows)]


def dense_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def check_snf(mat):
    sf = smith(from_rows(mat), want_u=True, want_v=True)
    u, v = to_rows(sf.u), to_rows(sf.v)
    n, m = len(mat), len(mat[0]) if mat else 0
    diag = sf.diag + [0] * (min(n, m) - len(sf.diag))
    d = [[diag[i] if i == j else 0 for j in range(m)] for i in range(n)]
    assert dense_mul(dense_mul(u, mat), v) == d
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    nz = [x for x in diag if x]
    assert all(x > 0 for x in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return diag


class TestSmith:
    def test_identity(self):
        assert check_snf([[1, 0], [0, 1]]) == [1, 1]

    def test_diag_2_3(self):
        # gcd/lcm: diag(2,3) ~ diag(1,6)
        assert check_snf([[2, 0], [0, 3]]) == [1, 6]

    def test_zero(self):
        assert check_snf([[0, 0], [0, 0]]) == [0, 0]

    def test_known_torsion(self):
        diag = check_snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert diag == [2, 2, 156]

    def test_random_matrices(self):
        rng = random.Random(0)
        for _ in range(60):
            n = rng.randint(1, 12)
            m = rng.randint(1, 12)
            mat = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            check_snf(mat)

    def test_rank_only_matches(self):
        rng = random.Random(1)
        for _ in range(30):
            n, m = rng.randint(1, 10), rng.randint(1, 10)
            mat = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            sf = smith(from_rows(mat))
            diag = [x for x in check_snf(mat) if x]
            assert sf.invariant_factors == diag

    def test_transforms_consistent(self):
        rng = random.Random(2)
        for _ in range(25):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            mat = from_rows(
                [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)])
            sf = smith(mat, want_u=True, want_uinv=True, want_v=True)
            assert sf.u @ sf.uinv == IntMat.identity(n)
            assert abs(det_bareiss(to_rows(sf.v))) == 1
            d = sf.u @ mat @ sf.v
            for j, col in d.cols.items():
                for i, val in col.items():
                    assert i == j and val == sf.diag[i]


class TestSolve:
    def test_solvable(self):
        rng = random.Random(3)
        for _ in range(25):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            mat = from_rows(
                [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
            x = {j: rng.randint(-3, 3) for j in range(m)}
            rhs = mat.apply(x)
            sol = solve_int(mat, rhs)
            assert sol is not None
            assert mat.apply(sol) == rhs

    def test_unsolvable(self):
        mat = from_rows([[2]])
        assert solve_int(mat, {0: 1}) is None

    def test_solve_exact(self):
        def solve_dense(rows, rhs_rows):
            rhs = from_rows(rhs_rows)
            sol = solve_exact(from_rows(rows),
                              [rhs.col(j) for j in range(rhs.ncols)])
            if sol is None:
                return None
            return to_rows(IntMat(len(rows), len(sol), dict(enumerate(sol))))

        assert solve_dense([[2, 1], [1, 1]], [[1, 0], [0, 1]]) == [[1, -1], [-1, 2]]
        assert solve_dense([[2]], [[1]]) is None
        with pytest.raises(ValueError):
            solve_dense([[1, 1], [1, 1]], [[1], [1]])


class TestIntMat:
    def test_matmul_and_add(self):
        a = from_rows([[1, 2], [0, 1]])
        b = from_rows([[1, 0], [3, 1]])
        assert to_rows(a @ b) == [[7, 2], [3, 1]]
        assert to_rows(a + b) == [[2, 2], [3, 2]]

    def test_is_negative_of(self):
        rng = random.Random(4)
        for _ in range(200):
            rows = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(3)]
                    for _ in range(rng.randint(1, 3))]
            a = from_rows(rows)
            b = from_rows([[rng.choice((0, 0, 1, -1, 2)) for _ in range(3)]
                           for _ in rows])
            assert a.is_negative_of(-a)
            assert a.is_negative_of(b) == (a + b).is_zero()
        # a shape difference is never a negative, even of a zero matrix
        assert not IntMat(2, 3).is_negative_of(IntMat(3, 2))

    def test_submatrix(self):
        a = from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert to_rows(a.submatrix([0, 2], [1])) == [[2], [8]]

    def test_det(self):
        assert det_bareiss([[2, 1], [1, 1]]) == 1
        assert det_bareiss([[1, 2], [2, 4]]) == 0
        assert det_bareiss([]) == 1


def determinantal_divisors(rows):
    """D_k = gcd of the k x k minors, for k = 1 .. min(n, m), via Bareiss."""
    n, m = len(rows), len(rows[0])
    out = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for ri in combinations(range(n), k):
            for ci in combinations(range(m), k):
                g = gcd(g, det_bareiss([[rows[i][j] for j in ci] for i in ri]))
        out.append(g)
    return out


def random_oracle_matrix(rng):
    n, m = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
    shape = rng.randrange(4)
    if shape == 0:      # torsion: scale a row and a column
        i, j = rng.randrange(n), rng.randrange(m)
        rows[i] = [2 * v for v in rows[i]]
        for r in rows:
            r[j] *= 3
    elif shape == 1:    # a zero row and a zero column
        rows[rng.randrange(n)] = [0] * m
        j = rng.randrange(m)
        for r in rows:
            r[j] = 0
    elif shape == 2:    # rank-deficient: repeat a combination of rows
        if n > 1:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1 % (n - 1)])]
    return rows


def sparse_relation_matrix(rng, nrows, ncols, torsion):
    """Columns with one to three +-1 entries, like the E-action relations;
    ``torsion`` extra columns and rows carry only entries +-2 and +-3."""
    cols = {}
    for j in range(ncols):
        col = {}
        for i in rng.sample(range(nrows), rng.randint(1, min(3, nrows))):
            col[i] = rng.choice((1, -1))
        cols[j] = col
    extra_rows = range(nrows, nrows + torsion)
    for t, i in enumerate(extra_rows):
        cols[ncols + t] = {i: rng.choice((2, -2, 3, -3)),
                           rng.choice(extra_rows): rng.choice((2, -2))}
    return IntMat(nrows + torsion, ncols + torsion, cols)


def reference_pivots(mat):
    """The pivots of ``smith``'s policy, restated on its own: the shortest
    column with a +-1 entry is eliminated on that entry in its shortest
    row; once no unit is left, a Euclidean step starts from the smallest
    entry.  Returns (row, euclidean) per pivot, in elimination order."""
    cols = {j: dict(c) for j, c in mat.cols.items() if c}
    rows = {}
    for j, c in cols.items():
        for i, val in c.items():
            rows.setdefault(i, {})[j] = val
    out = []

    def row_op(i, p, f):
        for j, a in rows[p].items():
            w = rows[i].get(j, 0) - f * a
            if w:
                rows[i][j] = cols[j][i] = w
            else:
                del rows[i][j], cols[j][i]
        if not rows[i]:
            del rows[i]

    def retire(p, euclidean):
        for j in rows.pop(p):
            del cols[j][p]
            if not cols[j]:
                del cols[j]
        out.append((p, euclidean))

    def is_unit(val):
        return val in (1, -1)

    while cols:
        heap = [(len(c), j) for j, c in cols.items()]
        heapq.heapify(heap)
        while heap:
            n, q = heapq.heappop(heap)
            if q not in cols:
                continue
            if len(cols[q]) > n:
                heapq.heappush(heap, (len(cols[q]), q))
                continue
            units = [i for i, val in cols[q].items() if is_unit(val)]
            if units:
                p = min(units, key=lambda i: len(rows[i]))
                for i, b in [(i, b) for i, b in cols[q].items() if i != p]:
                    row_op(i, p, b * rows[p][q])
                retire(p, False)
        if cols and not any(is_unit(v) for c in cols.values() for v in c.values()):
            _, p, q = min((abs(v), i, j) for j, c in cols.items() for i, v in c.items())
            while True:
                piv = rows[p][q]
                for i, b in [(i, b) for i, b in cols[q].items() if i != p]:
                    if b // piv:
                        row_op(i, p, b // piv)
                left = [i for i in cols[q] if i != p]
                if left:
                    p = min(left, key=lambda i: abs(cols[q][i]))
                    continue
                bad = [(j, a) for j, a in rows[p].items() if a % piv]
                if not bad:
                    break
                for j, a in bad:
                    rows[p][j] = cols[j][p] = a % piv
                q = min((j for j, _ in bad), key=lambda j: abs(rows[p][j]))
            retire(p, True)
    return out


def check_pivot_record(mat, sf):
    """``free_rows`` are exactly the rows that no pivot retired and
    ``euclid_steps`` counts the Euclidean pivots; without one, columns
    ``rank..`` of u^-1 are the unit vectors at the free rows."""
    pivots = reference_pivots(mat)
    retired = {p for p, _ in pivots}
    assert sf.free_rows == [i for i in range(mat.nrows) if i not in retired]
    assert sf.euclid_steps == sum(euclidean for _, euclidean in pivots)
    assert sf.rank == len(pivots)
    if sf.euclid_steps == 0:
        assert sf.diag == [1] * sf.rank
        if sf.uinv is not None:
            assert [sf.uinv.col(sf.rank + k) for k in range(len(sf.free_rows))] \
                == [{i: 1} for i in sf.free_rows]


def check_diag_form(mat, sf):
    n, m = mat.nrows, mat.ncols
    assert sf.u @ sf.uinv == IntMat.identity(n)
    d = sf.u @ mat @ sf.v
    for j, col in d.cols.items():
        for i, val in col.items():
            assert i == j and val == sf.diag[i]
    assert len(d.cols) == sf.rank == len(sf.diag)
    assert all(x > 0 for x in sf.diag)
    for a, b in zip(sf.diag, sf.diag[1:]):
        assert b % a == 0


class TestSmithOracle:
    def test_determinantal_divisors(self):
        rng = random.Random(7)
        for _ in range(150):
            rows = random_oracle_matrix(rng)
            sf = smith(from_rows(rows))
            assert sf.free_rows is None
            check_pivot_record(from_rows(rows), smith(from_rows(rows), want_u=True))
            divisors = determinantal_divisors(rows)
            prod = 1
            for k, dk in enumerate(divisors):
                if k < sf.rank:
                    prod *= sf.diag[k]
                    assert dk == prod, (rows, sf.diag)
                else:
                    assert dk == 0, (rows, sf.diag)

    def test_divisors_with_transforms(self):
        rng = random.Random(8)
        for _ in range(60):
            rows = random_oracle_matrix(rng)
            mat = from_rows(rows)
            full = smith(mat, want_u=True, want_uinv=True, want_v=True)
            check_diag_form(mat, full)
            check_pivot_record(mat, full)
            assert full.diag == smith(mat).diag

    def test_sparse_relation_matrices(self):
        rng = random.Random(9)
        for ncols in (50, 90, 140, 200):
            for torsion in (0, 3):
                nrows = rng.randint(ncols // 3, ncols)
                mat = sparse_relation_matrix(rng, nrows, ncols, torsion)
                sf = smith(mat, want_u=True, want_uinv=True, want_v=True)
                check_diag_form(mat, sf)
                # without torsion rows every pivot is a unit, so columns
                # rank.. of u^-1 are the unit vectors at the free rows
                check_pivot_record(mat, sf)
                assert (sf.euclid_steps > 0) == bool(torsion)
                assert sf.diag == smith(mat).diag
                if torsion:
                    assert not sf.is_free_quotient()

    def test_square_sparse_determinant(self):
        # a signed permutation plus two random +-1 entries per column:
        # nonsingular in practice, with a determinant other than +-1
        rng = random.Random(10)
        dets = []
        for n in (40, 50, 60):
            perm = list(range(n))
            rng.shuffle(perm)
            cols = {}
            for j in range(n):
                cols[j] = {i: rng.choice((1, -1)) for i in rng.sample(range(n), 2)}
                cols[j][perm[j]] = rng.choice((1, -1))
            mat = IntMat(n, n, cols)
            sf = smith(mat)
            det = abs(det_bareiss(to_rows(mat)))
            prod = 1
            for d in sf.diag:
                prod *= d
            assert prod == det if sf.rank == n else det == 0
            dets.append(det)
        assert any(d > 1 for d in dets)

    def test_left_kernel_without_v(self):
        rng = random.Random(11)
        mat = sparse_relation_matrix(rng, 70, 60, 0)
        sf = smith(mat, want_u=True, want_uinv=True)
        assert sf.u @ sf.uinv == IntMat.identity(mat.nrows)
        prod = sf.u @ mat
        assert all(i < sf.rank for col in prod.cols.values() for i in col)


class TestIntInverse:
    def test_signed_permutation(self):
        rng = random.Random(12)
        n = 7
        perm = list(range(n))
        rng.shuffle(perm)
        mat = IntMat(n, n, {j: {perm[j]: rng.choice((1, -1))} for j in range(n)})
        inv = _int_inverse(mat)
        assert inv @ mat == IntMat.identity(n)
        assert mat @ inv == IntMat.identity(n)

    def test_refuses_non_unimodular(self):
        with pytest.raises(ConventionMismatch):
            _int_inverse(from_rows([[2, 0], [0, 1]]))


class TestSignedPermutationExit:
    """``is_unimodular`` accepts a square signed permutation without
    ``smith``; every other matrix reaches ``smith`` and gets the verdict of
    the ``det_bareiss`` oracle."""

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        calls = []

        def counted(mat, *args, **kwargs):
            calls.append(mat)
            return smith(mat, *args, **kwargs)

        monkeypatch.setattr(snf, "smith", counted)
        return calls

    @staticmethod
    def oracle(rows, nrows, ncols):
        return nrows == ncols and abs(det_bareiss(rows)) == 1

    def test_signed_permutations_skip_smith(self, smith_calls):
        rng = random.Random(5)
        negative = 0
        for n in range(7):
            for _ in range(6):
                perm = rng.sample(range(n), n)
                signs = [rng.choice((1, -1)) for _ in range(n)]
                negative += signs.count(-1)
                mat = IntMat(n, n, {j: {perm[j]: signs[j]} for j in range(n)})
                assert is_unimodular(mat)
                assert self.oracle(to_rows(mat), n, n)
        assert negative and not smith_calls

    @pytest.mark.parametrize("name,nrows,ncols,cols", [
        ("repeated row", 3, 3, {0: {0: 1}, 1: {0: -1}, 2: {2: 1}}),
        ("empty column", 3, 3, {0: {0: 1}, 2: {2: 1}}),
        ("entry 2", 3, 3, {0: {1: 1}, 1: {0: 2}, 2: {2: -1}}),
        ("entry -2", 2, 2, {0: {0: -2}, 1: {1: 1}}),
        ("two entries in a column", 2, 2, {0: {0: 1, 1: 1}, 1: {1: 1}}),
        ("non-square", 2, 3, {0: {0: 1}, 1: {1: -1}, 2: {0: 1}}),
        ("non-square, one unit per column", 3, 2, {0: {0: 1}, 1: {2: 1}}),
    ])
    def test_other_matrices_match_the_oracle(self, smith_calls, name, nrows,
                                             ncols, cols):
        mat = IntMat(nrows, ncols, cols)
        assert is_unimodular(mat) == self.oracle(to_rows(mat), nrows, ncols)
        assert smith_calls == ([mat] if nrows == ncols else [])

    def test_unimodular_non_permutation_reaches_smith(self, smith_calls):
        mat = from_rows([[1, 1], [0, -1]])
        assert is_unimodular(mat) and self.oracle(to_rows(mat), 2, 2)
        assert smith_calls == [mat]
