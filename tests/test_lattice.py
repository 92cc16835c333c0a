import math
import random
from fractions import Fraction

import pytest

from hslattice.lattice import (
    Lattice,
    coset_canonical,
    dual_membership,
    dual_sample_uniform,
    integer_orthogonal,
    reciprocal_basis,
    saturation,
)
from hslattice.matrix import IntMatrix, RatMatrix
from hslattice.experiments import random_lattice


def col_lattice(cols, k):
    if not cols:
        return Lattice.trivial(k)
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))


class TestConstruction:
    def test_zn(self):
        L = Lattice.zn(3)
        assert L.rank == 3 and L.gram_det == 1

    def test_dependent_generators(self):
        L = col_lattice([[2, 4], [4, 8]], 2)
        assert L.rank == 1 and L.basis.column(0) == (2, 4)

    def test_membership_both_ways(self):
        gens = [[7, 0], [0, 21], [3, 3]]
        L = col_lattice(gens, 2)
        for g in gens:
            assert L.contains(g)
        # brute-force the other containment: every basis vector is a
        # Z-combination of the generators (search over a small box)
        for j in range(L.rank):
            b = L.basis.column(j)
            found = False
            for a in range(-30, 31):
                for c in range(-30, 31):
                    for d in range(-30, 31):
                        if all(a * g1 + c * g2 + d * g3 == x
                               for g1, g2, g3, x in zip(*gens, b)):
                            found = True
            assert found
        gram = L.basis.transpose() @ L.basis
        assert L.gram_det == gram.det()


class TestReciprocal:
    def test_zn_self_reciprocal(self):
        assert reciprocal_basis(Lattice.zn(3)).data == RatMatrix.identity(3).data

    def test_scaling_1d(self):
        L = col_lattice([[2]], 1)
        assert reciprocal_basis(L).data == ((Fraction(1, 2),),)

    def test_diagonal_vector(self):
        L = col_lattice([[1, 1]], 2)
        assert reciprocal_basis(L).column(0) == (Fraction(1, 2), Fraction(1, 2))

    def test_invariants_random(self):
        rng = random.Random(1)
        for _ in range(40):
            k = rng.randrange(1, 6)
            L = random_lattice(k, rng.randrange(1, k + 1), 64, rng)
            rec = reciprocal_basis(L)
            prod = L.basis.to_rational().transpose() @ rec
            assert prod.data == RatMatrix.identity(L.rank).data
            # H^o <= (1/Delta) Z^k
            for j in range(rec.cols):
                for x in rec.column(j):
                    assert (x * L.gram_det).denominator == 1

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_basis(Lattice.trivial(2))

    def test_exact_beyond_float_range(self):
        """The exact reciprocal needs no float, so a basis whose inverse norm
        underflows a float still has one."""
        L = col_lattice([[10 ** 400]], 1)
        assert reciprocal_basis(L).data == ((Fraction(1, 10 ** 400),),)


class TestSaturation:
    def test_zn(self):
        assert saturation(Lattice.zn(2)) == Lattice.zn(2)

    def test_primitive_line(self):
        L = col_lattice([[2, 4]], 2)
        sat = saturation(L)
        assert sat.basis.column(0) == (1, 2)
        index_sq = L.gram_det // sat.gram_det
        assert math.isqrt(index_sq) ** 2 == index_sq
        assert math.isqrt(index_sq) == 2

    def test_full_rank_saturates_to_zn(self):
        L = col_lattice([[2, 0], [0, 3]], 2)
        assert saturation(L) == Lattice.zn(2)

    def test_idempotence_and_index_law(self):
        rng = random.Random(2)
        for _ in range(40):
            k = rng.randrange(1, 6)
            L = random_lattice(k, rng.randrange(0, k + 1), 64, rng)
            sat = saturation(L)
            assert saturation(sat) == sat
            assert sat.rank == L.rank
            assert sat.contains_lattice(L)
            index_sq, rem = divmod(L.gram_det, sat.gram_det)
            assert rem == 0
            assert math.isqrt(index_sq) ** 2 == index_sq


class TestIntegerOrthogonal:
    def test_zn_empty(self):
        assert integer_orthogonal(Lattice.zn(3)).cols == 0

    def test_line_in_z2(self):
        C = integer_orthogonal(col_lattice([[1, 1]], 2))
        assert C.cols == 1
        v = C.column(0)
        assert v in ((1, -1), (-1, 1))

    def test_trivial_identity(self):
        assert integer_orthogonal(Lattice.trivial(3)).data == IntMatrix.identity(3).data

    def test_orthogonality_random(self):
        rng = random.Random(3)
        for _ in range(40):
            k = rng.randrange(1, 6)
            L = random_lattice(k, rng.randrange(0, k + 1), 64, rng)
            C = integer_orthogonal(L)
            assert C.cols == k - L.rank
            prod = L.basis.transpose() @ C
            assert all(x == 0 for row in prod.data for x in row)
            # saturated: C spans exactly the integer points of the kernel
            if C.cols:
                sat = saturation(col_lattice([list(C.column(j)) for j in range(C.cols)], k))
                assert sat == col_lattice([list(C.column(j)) for j in range(C.cols)], k)


class TestDualMembership:
    def test_zero_always(self):
        L = col_lattice([[3, 1]], 2)
        assert dual_membership(L, (0, 0), 1)

    def test_1d(self):
        L = col_lattice([[2]], 1)
        assert dual_membership(L, (1,), 2)
        assert not dual_membership(L, (1,), 3)


class TestDualSampling:
    def test_zn_always_zero_mod_grid(self):
        rng = random.Random(4)
        L = Lattice.zn(2)
        for _ in range(50):
            assert dual_sample_uniform(L, 8, rng)[0] == (0, 0)

    def test_2z_uniform(self):
        rng = random.Random(5)
        counts = {0: 0, 1: 0}
        for _ in range(10000):
            x, _, _ = dual_sample_uniform(col_lattice([[2]], 1), 4, rng)
            counts[0 if x[0] == 0 else 1] += 1
        # chi-squared, 1 dof, p > 0.001 -> statistic < 10.83
        chi2 = sum((c - 5000) ** 2 / 5000 for c in counts.values())
        assert chi2 < 10.83

    def test_trivial_grid(self):
        rng = random.Random(6)
        seen = set()
        for _ in range(400):
            x, _, _ = dual_sample_uniform(Lattice.trivial(1), 4, rng)
            seen.add(x[0])
        assert seen == {0, 1, 2, 3}  # quarters over the modulus lcm(1, 4)

    def test_membership_and_component_uniformity(self):
        from scipy.stats import chi2 as chi2_dist

        rng = random.Random(7)
        for _ in range(5):
            k = rng.randrange(1, 5)
            L = random_lattice(k, rng.randrange(0, k + 1), 8, rng)
            sat = saturation(L)
            modulus = math.lcm(L.gram_det, 16)
            counts = {}
            draws = 2000
            for _ in range(draws):
                x, _, _ = dual_sample_uniform(L, 16, rng)
                assert dual_membership(L, x, modulus)
                # component = pairing pattern against the saturation basis
                key = tuple(sum(a * b for a, b in zip(x, sat.basis.column(j))) % modulus
                            for j in range(sat.rank))
                counts[key] = counts.get(key, 0) + 1
            ncomp = math.isqrt(L.gram_det // sat.gram_det)
            assert len(counts) <= ncomp
            if ncomp > 1 and len(counts) == ncomp:
                expect = draws / ncomp
                stat = sum((c - expect) ** 2 / expect for c in counts.values())
                assert stat < chi2_dist.isf(0.001, ncomp - 1)


class TestCosetCanonical:
    def test_zn_all_zero(self):
        L = Lattice.zn(2)
        assert coset_canonical(L, [5, -3]) == (0, 0)

    def test_trivial_unchanged(self):
        L = Lattice.trivial(2)
        assert coset_canonical(L, [5, -3]) == (5, -3)

    def test_iff_property(self):
        rng = random.Random(10)
        L = col_lattice([[2, 0], [1, 3]], 2)
        pts = [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(40)]
        for x in pts:
            cx = coset_canonical(L, x)
            assert coset_canonical(L, cx) == cx  # idempotent
            for y in pts:
                same = cx == coset_canonical(L, y)
                member = L.contains([a - b for a, b in zip(x, y)])
                assert same == member

    def test_translation_invariance(self):
        rng = random.Random(11)
        for _ in range(30):
            k = rng.randrange(1, 5)
            L = random_lattice(k, rng.randrange(0, k + 1), 8, rng)
            x = [rng.randrange(-20, 21) for _ in range(k)]
            if L.rank:
                h = L.basis.mul_vec([rng.randrange(-3, 4) for _ in range(L.rank)])
                shifted = [a + b for a, b in zip(x, h)]
                assert coset_canonical(L, x) == coset_canonical(L, shifted)


class TestGeometry:
    def test_reciprocal_and_orthogonal(self):
        rng = random.Random(12)
        for _ in range(20):
            k = rng.randrange(1, 5)
            L = random_lattice(k, rng.randrange(0, k + 1), 32, rng)
            g = L.geometry
            assert L.geometry is g  # built once per lattice
            M = L.basis.to_rational()
            if g.scaled_reciprocal is not None:
                reciprocal = g.scaled_reciprocal.to_rational().scale(Fraction(1, L.gram_det))
                assert (reciprocal.transpose() @ M).data == RatMatrix.identity(L.rank).data
            assert g.ortho.cols == k - L.rank
            assert all(x == 0 for row in (M.transpose() @ g.ortho.to_rational()).data for x in row)

    def test_inverse_norms_beyond_float_range(self):
        """Squared norms past the float range still get their inverse norms."""
        for L in (col_lattice([[10 ** 200]], 1),
                  col_lattice([[3 * 10 ** 200, 0], [10 ** 199, 7]], 2)):
            for vec, inv_norm in L.geometry.frame:
                norm_sq = sum(x * x for x in vec)
                assert math.isclose(inv_norm * inv_norm * norm_sq, 1, rel_tol=1e-14)
            assert L.geometry.scaled_reciprocal is not None

    def test_inverse_norm_underflow_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            col_lattice([[10 ** 400]], 1).geometry
