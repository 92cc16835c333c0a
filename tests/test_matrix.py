import random
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from hslattice.matrix import (
    IntMatrix,
    RatMatrix,
    format_matrix,
    hnf,
    hnf_pivots,
    parse_matrix,
    snf,
    snf_rational,
)

from verify import leibniz_det, reference_inverse


def random_int_matrix(rng, rows, cols, bound=256):
    return IntMatrix.from_rows(
        [[rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng, n, steps=12):
    """Product of random elementary column operations."""
    u = [list(row) for row in IntMatrix.identity(n).data]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-3, 4)
        for r in range(n):
            u[r][j] += c * u[r][i]
        if rng.random() < 0.3:
            for r in range(n):
                u[r][i], u[r][j] = u[r][j], u[r][i]
    return IntMatrix.from_rows(u)


class TestHNF:
    def test_identity(self):
        for k in (1, 2, 4):
            H, U = hnf(IntMatrix.identity(k))
            assert H.data == IntMatrix.identity(k).data
            assert U.data == IntMatrix.identity(k).data

    def test_row_vector(self):
        M = IntMatrix.from_rows([[4, 2]])
        H, U = hnf(M)
        assert H.data == ((2, 0),)
        assert (M @ U).data == H.data
        assert abs(U.det()) == 1

    def test_two_by_two_det(self):
        M = IntMatrix.from_columns([[2, 4], [0, 6]], rows=2)
        H, U = hnf(M)
        assert (M @ U).data == H.data
        pivs = hnf_pivots(H)
        det = 1
        for r, j in pivs:
            det *= H[r, j]
        assert det == 12

    def test_structure_random(self):
        rng = random.Random(0)
        for _ in range(200):
            k, n = rng.randrange(1, 6), rng.randrange(1, 6)
            M = random_int_matrix(rng, k, n)
            H, U = hnf(M)
            assert (M @ U).data == H.data
            assert abs(U.det()) == 1
            pivs = hnf_pivots(H)
            rowsseen = [r for r, _ in pivs]
            assert rowsseen == sorted(rowsseen)
            assert [j for _, j in pivs] == list(range(len(pivs)))
            for r, j in pivs:
                p = H[r, j]
                assert p > 0
                assert all(H[i, j] == 0 for i in range(r + 1, k))
                for j2 in range(j + 1, n):
                    assert 0 <= H[r, j2] < p or (j2 >= len(pivs) and H[r, j2] == 0)
            for j in range(len(pivs), n):
                assert all(H[i, j] == 0 for i in range(k))

    def test_idempotence(self):
        rng = random.Random(1)
        for _ in range(100):
            M = random_int_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
            H, _ = hnf(M)
            H2, _ = hnf(H)
            assert H2.data == H.data

    def test_canonicity_under_unimodular(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randrange(1, 5)
            M = random_int_matrix(rng, rng.randrange(1, 5), n)
            U = random_unimodular(rng, n)
            H1, _ = hnf(M)
            H2, _ = hnf(M @ U)
            assert H1.data == H2.data


class TestSNF:
    def test_identity(self):
        D, V, W = snf(IntMatrix.identity(3))
        assert D.data == IntMatrix.identity(3).data
        assert V.data == IntMatrix.identity(3).data
        assert W.data == IntMatrix.identity(3).data

    def test_diag_2_3(self):
        M = IntMatrix.from_rows([[2, 0], [0, 3]])
        D, V, W = snf(M)
        assert (D[0, 0], D[1, 1]) == (1, 6)
        assert (V @ M @ W).data == D.data

    def test_zero(self):
        M = IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
        D, _, _ = snf(M)
        assert D.data == M.data

    def test_random_properties(self):
        rng = random.Random(3)
        for _ in range(200):
            k, n = rng.randrange(1, 6), rng.randrange(1, 6)
            M = random_int_matrix(rng, k, n)
            D, V, W = snf(M)
            assert (V @ M @ W).data == D.data
            assert abs(V.det()) == 1 and abs(W.det()) == 1
            diag = [D[i, i] for i in range(min(k, n))]
            assert all(D[i, j] == 0 for i in range(k) for j in range(n) if i != j)
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                if a == 0:
                    assert b == 0
                else:
                    assert b % a == 0

    def test_det_product(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randrange(1, 5)
            M = random_int_matrix(rng, n, n, bound=30)
            D, _, _ = snf(M)
            prod = 1
            for i in range(n):
                prod *= D[i, i]
            assert prod == abs(M.det())


class TestRationalSNF:
    def test_gcd_example(self):
        A = RatMatrix.from_rows([[Fraction(1, 3), Fraction(3, 4)]])
        D, V, W = snf_rational(A)
        assert D[0, 0] == Fraction(1, 12)
        assert D[0, 1] == 0
        assert (V @ A.num @ W).to_rational(A.den).data == D.data

    def test_integer_agrees(self):
        rng = random.Random(5)
        for _ in range(50):
            M = random_int_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4), bound=20)
            D1, _, _ = snf(M)
            D2, _, _ = snf_rational(M.to_rational())
            assert D2.data == D1.to_rational().data

    def test_one_by_one(self):
        A = RatMatrix.from_rows([[Fraction(5, 7)]])
        D, _, _ = snf_rational(A)
        assert D[0, 0] == Fraction(5, 7)

    def test_divisibility_as_z_module(self):
        rng = random.Random(6)
        for _ in range(50):
            k, n = rng.randrange(1, 4), rng.randrange(1, 4)
            A = RatMatrix.from_rows([
                [Fraction(rng.randrange(-20, 21), rng.randrange(1, 12)) for _ in range(n)]
                for _ in range(k)
            ])
            D, V, W = snf_rational(A)
            assert (V @ A.num @ W).to_rational(A.den).data == D.data
            diag = [D[i, i] for i in range(min(k, n))]
            for a, b in zip(diag, diag[1:]):
                if a != 0 and b != 0:
                    assert (b / a).denominator == 1


@st.composite
def square_int(draw, bound=30):
    """A square integer matrix of size 1..5; about a third are made singular
    by repeating a row, scaled, in place of another."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        rows[j] = [c * x for x in rows[i]]
    return IntMatrix.from_rows(rows)


@st.composite
def rat_rows(draw, n=None):
    """The Fraction rows of an n x n matrix, n in 1..4 unless given."""
    n = n or draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def square_rat(draw, n=None):
    return RatMatrix.from_rows(draw(rat_rows(n)))


def over(A, factor):
    """A held over `factor` times its denominator: the same entries."""
    return RatMatrix(A.num.scale(factor), A.den * factor)


class TestBareiss:
    """The one fraction-free elimination against the Leibniz determinant and
    a textbook Gauss-Jordan inverse over Fraction."""

    @settings(max_examples=300, deadline=None)
    @given(square_int())
    def test_integer_det_and_adjugate(self, A):
        det = A.det()
        assert det == leibniz_det(A.to_rational())
        if det == 0:
            with pytest.raises(ValueError):
                A.adjugate()
            return
        d, adj = A.adjugate()
        scalar = IntMatrix.from_rows([[d * (i == j) for j in range(A.rows)]
                                      for i in range(A.rows)])
        assert d == det
        assert (A @ adj).data == scalar.data and (adj @ A).data == scalar.data

    @settings(max_examples=150, deadline=None)
    @given(square_rat())
    def test_rational_det_and_inverse(self, A):
        assert A.det() == leibniz_det(A)
        if A.det() == 0:
            for invert in (A.inverse, lambda: reference_inverse(A)):
                with pytest.raises(ValueError):
                    invert()
        else:
            assert A.inverse().data == reference_inverse(A).data

    def test_inverse_unimodular(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randrange(1, 6)
            U = random_unimodular(rng, n)
            assert (U @ U.inverse_unimodular()).data == IntMatrix.identity(n).data
        for M in ([[2]], [[1, 1], [1, -1]], [[1, 2], [2, 4]], [[0]]):
            with pytest.raises(ValueError):
                IntMatrix.from_rows(M).inverse_unimodular()

    def test_empty_and_non_square(self):
        assert IntMatrix.identity(0).det() == 1
        assert IntMatrix.identity(0).adjugate()[0] == 1
        for M in (IntMatrix.from_rows([[1, 2]]), RatMatrix.from_rows([[1, 2]])):
            with pytest.raises(ValueError):
                M.det()


class TestRatMatrixProperties:
    """RatMatrix holds integer numerators over one denominator; each operation
    is checked against the same computation on its Fraction entries."""

    @settings(max_examples=100, deadline=None)
    @given(rat_rows())
    def test_from_rows_round_trip(self, rows):
        A = RatMatrix.from_rows(rows)
        assert A.data == tuple(tuple(row) for row in rows)
        assert (A.rows, A.cols) == (len(rows), len(rows[0]))
        assert all(A[i, j] == x for i, row in enumerate(rows) for j, x in enumerate(row))
        assert A.columns() == list(zip(*rows))

    @settings(max_examples=100, deadline=None)
    @given(square_rat(), st.integers(1, 6))
    def test_equal_over_other_denominators(self, A, factor):
        B = over(A, factor)
        assert B == A and hash(B) == hash(A) and B.data == A.data
        assert (RatMatrix(A.num.scale(2), A.den) == A) == all(x == 0 for row in A.data for x in row)

    @settings(max_examples=100, deadline=None)
    @given(square_rat(), st.integers(1, 6))
    def test_cleared_least_denominator(self, A, factor):
        least = lcm(*(x.denominator for row in A.data for x in row))
        c, M = over(A, factor).cleared()
        assert c == least == over(A, factor).denominator_lcm()
        assert M.data == tuple(tuple(int(x * c) for x in row) for row in A.data)

    @settings(max_examples=100, deadline=None)
    @given(square_rat(), st.data())
    def test_operations_against_fractions(self, A, data):
        B = over(data.draw(square_rat(n=A.rows)), data.draw(st.integers(1, 4)))
        assert A.transpose().data == tuple(zip(*A.data))
        if all(x.denominator == 1 for row in B.data for x in row):
            assert B.to_integer().data == tuple(tuple(int(x) for x in row) for row in B.data)
        else:
            with pytest.raises(ValueError):
                B.to_integer()
        cleared = RatMatrix(B.num.scale(B.denominator_lcm()), B.den)
        assert cleared.to_integer().to_rational() == cleared

    @settings(max_examples=100, deadline=None)
    @given(square_rat(), st.integers(1, 6))
    def test_inverse_and_det_over_any_denominator(self, A, factor):
        B = over(A, factor)
        assert B.det() == leibniz_det(A)
        if B.det() == 0:
            with pytest.raises(ValueError):
                B.inverse()
        else:
            assert B.inverse() == reference_inverse(A)
            assert B.inverse().data == reference_inverse(A).data
            inverse = B.inverse()
            unit = RatMatrix(B.num @ inverse.num, B.den * inverse.den)
            assert unit == IntMatrix.identity(A.rows).to_rational()

    @settings(max_examples=100, deadline=None)
    @given(square_rat(), st.integers(1, 6))
    def test_snf_rational(self, A, factor):
        D, V, W = snf_rational(over(A, factor))
        assert (V @ A.num @ W).to_rational(A.den) == D
        assert abs(V.det()) == 1 and abs(W.det()) == 1
        n = A.rows
        assert all(D[i, j] == 0 for i in range(n) for j in range(n) if i != j)
        diag = [D[i, i] for i in range(n)]
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else (b / a).denominator == 1


class TestCanonicalFormProperties:
    @settings(max_examples=150, deadline=None)
    @given(square_int(), st.randoms(use_true_random=False))
    def test_hnf_transform_and_canonicity(self, M, rng):
        H, U = hnf(M)
        assert M @ U == H and abs(U.det()) == 1
        assert hnf(M @ random_unimodular(rng, M.cols))[0] == H

    @settings(max_examples=150, deadline=None)
    @given(square_int())
    def test_snf_transforms_and_divisibility(self, M):
        D, V, W = snf(M)
        assert V @ M @ W == D
        assert abs(V.det()) == 1 and abs(W.det()) == 1
        n = M.rows
        assert all(D[i, j] == 0 for i in range(n) for j in range(n) if i != j)
        diag = [D[i, i] for i in range(n)]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 if a == 0 else b % a == 0
        assert prod(diag) == abs(M.det())


class TestTextFormat:
    def test_roundtrip(self):
        rng = random.Random(8)
        M = RatMatrix.from_rows([
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(3)]
            for _ in range(2)
        ])
        assert parse_matrix(format_matrix(M)).data == M.data

    def test_integers_bare(self):
        text = "2 2\n1 2\n3 4\n"
        M = parse_matrix(text)
        assert M.to_integer().data == ((1, 2), (3, 4))
        assert format_matrix(M.to_integer()) == text
