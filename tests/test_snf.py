import random
from itertools import combinations
from math import gcd

import pytest

from opencob.gluing import ConventionMismatch, _int_inverse
from opencob.snf import (IntMat, det_bareiss, smith, smith_normal_form,
                         solve_exact, solve_int)


def dense_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def check_snf(mat):
    u, d, v = smith_normal_form(mat)
    n, m = len(mat), len(mat[0]) if mat else 0
    assert dense_mul(dense_mul(u, mat), v) == d
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    diag = [d[i][i] for i in range(min(n, m))]
    for i in range(n):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
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
            sf = smith(IntMat.from_dense(mat))
            _, d, _ = smith_normal_form(mat)
            diag = [d[i][i] for i in range(min(n, m)) if d[i][i]]
            assert sf.invariant_factors == diag

    def test_transforms_consistent(self):
        rng = random.Random(2)
        for _ in range(25):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            mat = IntMat.from_dense(
                [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)])
            sf = smith(mat, want_u=True, want_uinv=True, want_v=True)
            assert sf.u @ sf.uinv == IntMat.identity(n)
            assert abs(det_bareiss(sf.v.to_dense())) == 1
            d = sf.u @ mat @ sf.v
            for j, col in d.cols.items():
                for i, val in col.items():
                    assert i == j and val == sf.diag[i]


class TestSolve:
    def test_solvable(self):
        rng = random.Random(3)
        for _ in range(25):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            mat = IntMat.from_dense(
                [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
            x = {j: rng.randint(-3, 3) for j in range(m)}
            rhs = mat.apply(x)
            sol = solve_int(mat, rhs)
            assert sol is not None
            assert mat.apply(sol) == rhs

    def test_unsolvable(self):
        mat = IntMat.from_dense([[2]])
        assert solve_int(mat, {0: 1}) is None

    def test_solve_exact(self):
        assert solve_exact([[2, 1], [1, 1]], [[1, 0], [0, 1]]) == [[1, -1], [-1, 2]]
        assert solve_exact([[2]], [[1]]) is None
        with pytest.raises(ValueError):
            solve_exact([[1, 1], [1, 1]], [[1], [1]])


class TestIntMat:
    def test_matmul_and_add(self):
        a = IntMat.from_dense([[1, 2], [0, 1]])
        b = IntMat.from_dense([[1, 0], [3, 1]])
        assert (a @ b).to_dense() == [[7, 2], [3, 1]]
        assert (a + b).to_dense() == [[2, 2], [3, 2]]
        assert (a - a).is_zero()

    def test_submatrix(self):
        a = IntMat.from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert a.submatrix([0, 2], [1]).to_dense() == [[2], [8]]

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
            sf = smith(IntMat.from_dense(rows))
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
            mat = IntMat.from_dense(rows)
            full = smith(mat, want_u=True, want_uinv=True, want_v=True)
            check_diag_form(mat, full)
            assert full.diag == smith(mat).diag

    def test_sparse_relation_matrices(self):
        rng = random.Random(9)
        for ncols in (50, 90, 140, 200):
            for torsion in (0, 3):
                nrows = rng.randint(ncols // 3, ncols)
                mat = sparse_relation_matrix(rng, nrows, ncols, torsion)
                sf = smith(mat, want_u=True, want_uinv=True, want_v=True)
                check_diag_form(mat, sf)
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
            det = abs(det_bareiss(mat.to_dense()))
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
            _int_inverse(IntMat.from_dense([[2, 0], [0, 1]]))
