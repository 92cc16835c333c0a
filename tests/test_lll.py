import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hslattice.alg_a import recover_colattice, schedule
from hslattice.lll import _lll_integer, babai_nearest_plane, lll, lll_from_coarse
from hslattice.matrix import IntMatrix, RatMatrix, hnf
from hslattice.verify import (
    enumerate_short_vectors,
    is_size_reduced,
    satisfies_lovasz,
    successive_minima,
)


def norm_sq(v):
    return sum((x * x for x in v), Fraction(0))


def random_full_rank(rng, k, bound=64):
    while True:
        M = IntMatrix.from_rows(
            [[rng.randrange(-bound, bound + 1) for _ in range(k)] for _ in range(k)]
        )
        if M.det() != 0:
            return M.to_rational()


def same_lattice(A: RatMatrix, B: RatMatrix) -> bool:
    scale = 1
    for M in (A, B):
        scale = scale * M.denominator_lcm() // 1
    from math import lcm

    scale = lcm(A.denominator_lcm(), B.denominator_lcm())
    HA, _ = hnf(A.scale(scale).to_integer())
    HB, _ = hnf(B.scale(scale).to_integer())
    return HA.data == HB.data


class TestLLL:
    def test_identity_fixed(self):
        I3 = RatMatrix.identity(3)
        assert lll(I3).data == I3.data

    def test_z2_example(self):
        # columns (4,1), (3,1): det 1, so the reduced basis generates Z^2
        B = RatMatrix.from_columns([[4, 1], [3, 1]], rows=2)
        out = lll(B)
        norms = sorted(norm_sq(out.column(j)) for j in range(2))
        assert norms == [1, 1]
        assert same_lattice(B, RatMatrix.identity(2))

    def test_conditions_random(self):
        rng = random.Random(0)
        for _ in range(60):
            k = rng.randrange(1, 5)
            B = random_full_rank(rng, k)
            out = lll(B)
            assert is_size_reduced(out)
            assert satisfies_lovasz(out)
            assert same_lattice(B, out)

    def test_near_parallel_column(self):
        # one huge near-parallel column; first vector within 2^((k-1)/2) of
        # the true shortest (exhaustive enumeration oracle at radius ||b_1||)
        rng = random.Random(1)
        for _ in range(10):
            k = rng.randrange(2, 5)
            B = random_full_rank(rng, k, bound=8)
            cols = B.columns()
            huge = [1000 * x + rng.randrange(-3, 4) for x in cols[0]]
            cols = list(cols[1:]) + [tuple(Fraction(h) for h in huge)]
            B2 = RatMatrix.from_columns(cols, rows=k)
            if B2.det() == 0:
                continue
            out = lll(B2)
            b1_sq = norm_sq(out.column(0))
            lam1 = min(norm_sq(v) for v in enumerate_short_vectors(out, b1_sq))
            assert b1_sq <= 2 ** (k - 1) * lam1

    def test_dependent_columns_rejected(self):
        B = RatMatrix.from_columns([[1, 2], [2, 4]], rows=2)
        with pytest.raises(ValueError):
            lll(B)

    def test_rational_entries(self):
        B = RatMatrix.from_rows([[Fraction(1, 3), Fraction(5, 7)], [0, Fraction(1, 2)]])
        out = lll(B)
        assert is_size_reduced(out) and satisfies_lovasz(out)
        assert same_lattice(B, out)


@st.composite
def int_bases(draw, k=None, bound=20):
    """A nonsingular k x k integer matrix (k in 1..4 unless given) with
    entries in [-bound, bound]."""
    k = k or draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-bound, bound), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    M = IntMatrix.from_rows(rows)
    assume(M.det() != 0)
    return M


class TestLLLProperties:
    @settings(max_examples=150, deadline=None)
    @given(int_bases())
    def test_reduced_same_lattice(self, M):
        out = lll(M.to_rational())
        assert is_size_reduced(out) and satisfies_lovasz(out)
        assert hnf(out.to_integer())[0].data == hnf(M)[0].data

    @settings(max_examples=150, deadline=None)
    @given(int_bases())
    def test_recorded_transform(self, M):
        """The recorded U is unimodular and input * U is the output."""
        k = M.cols
        cols = [list(M.column(j)) for j in range(k)]
        u = [[int(i == j) for i in range(k)] for j in range(k)]
        _lll_integer(cols, u)
        U = IntMatrix.from_columns(u, rows=k)
        assert abs(U.det()) == 1
        assert (M @ U).data == IntMatrix.from_columns(cols, rows=k).data

    @settings(max_examples=100, deadline=None)
    @given(int_bases(), st.data())
    def test_any_coarse_basis(self, M, data):
        """The output is exact whatever the coarse basis: a poor one only
        leaves more work to the final pass."""
        coarse = data.draw(int_bases(k=M.cols))
        out = lll_from_coarse(M, coarse)
        assert is_size_reduced(out.to_rational()) and satisfies_lovasz(out.to_rational())
        assert hnf(out)[0].data == hnf(M)[0].data

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_flattened_lattice(self, k, n, data):
        """recover_colattice's two-step reduction of E = [I_k, lift(y1); 0, 1/T]."""
        p = schedule(n, k)
        y1 = tuple(data.draw(st.integers(0, p.Q - 1)) for _ in range(k))
        _, trace = recover_colattice(y1, p.Q, p)
        out = trace.lll_basis
        assert is_size_reduced(out) and satisfies_lovasz(out)
        assert same_lattice(out, trace.E)


class TestBabai:
    def test_exact_lattice_point(self):
        B = lll(RatMatrix.from_columns([[2, 0], [1, 3]], rows=2))
        target = [Fraction(3), Fraction(3)]
        point = babai_nearest_plane(B, target)
        # (3,3) = (2,0)+(1,3) is in the lattice: recovered exactly
        assert list(point) == target

    def test_residual_bound(self):
        rng = random.Random(2)
        for _ in range(50):
            k = rng.randrange(1, 4)
            B = lll(random_full_rank(rng, k, bound=10))
            target = [Fraction(rng.randrange(-50, 50), rng.randrange(1, 7)) for _ in range(k)]
            point = babai_nearest_plane(B, target)
            resid = [t - p for t, p in zip(target, point)]
            # residual lies in the fundamental Gram-Schmidt box
            from hslattice.lll import gram_schmidt

            star, _, norms = gram_schmidt(B.columns())
            for i in range(k):
                c = sum((x * y for x, y in zip(resid, star[i])), Fraction(0)) / norms[i]
                assert abs(c) <= Fraction(1, 2)

    def test_tie_rounds_up(self):
        """A coordinate of exactly 1/2 rounds up, leaving a residual of -1/2."""
        B = RatMatrix.from_rows([[2]])
        assert babai_nearest_plane(B, [Fraction(1)]) == (Fraction(2),)
        assert babai_nearest_plane(B, [Fraction(-1)]) == (Fraction(0),)
        assert babai_nearest_plane(B, [Fraction(3)]) == (Fraction(4),)

    @settings(max_examples=150, deadline=None)
    @given(int_bases(bound=6), st.data())
    def test_residual_interval(self, M, data):
        """The point is in the lattice, and the residual's Gram-Schmidt
        coordinates lie in [-1/2, 1/2); small denominators make ties common."""
        from hslattice.lll import gram_schmidt

        k = M.cols
        den = data.draw(st.integers(1, 4))
        target = [Fraction(data.draw(st.integers(-40, 40)), den) for _ in range(k)]
        point = babai_nearest_plane(M.to_rational(), target)
        coeffs = M.to_rational().inverse().mul_vec(point)
        assert all(c.denominator == 1 for c in coeffs)
        resid = [t - p for t, p in zip(target, point)]
        star, _, norms = gram_schmidt(M.columns())
        for i in range(k):
            c = sum((x * y for x, y in zip(resid, star[i])), Fraction(0)) / norms[i]
            assert -Fraction(1, 2) <= c < Fraction(1, 2)


class TestEnumeration:
    def test_minima_z2(self):
        lam = successive_minima(RatMatrix.identity(2))
        assert lam == [1, 1]

    def test_minima_scaled(self):
        B = RatMatrix.from_columns([[2, 0], [0, 3]], rows=2)
        assert successive_minima(B) == [4, 9]

    def test_enumeration_complete(self):
        B = RatMatrix.from_columns([[2, 1], [0, 2]], rows=2)
        vecs = enumerate_short_vectors(B, Fraction(9))
        values = {tuple(int(x) for x in v) for v in vecs}
        brute = set()
        for a in range(-6, 7):
            for b in range(-6, 7):
                v = (2 * a, a + 2 * b)  # columns are (2,1) and (0,2)
                if v != (0, 0) and v[0] ** 2 + v[1] ** 2 <= 9:
                    if (-v[0], -v[1]) not in brute:
                        brute.add(v)
        assert len(values) == len(brute)
        assert all(v in brute or (-v[0], -v[1]) in brute for v in values)
