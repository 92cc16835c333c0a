import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hslattice.lattice import (
    Lattice,
    coset_canonical,
    dual_membership,
    dual_sample_uniform,
    reciprocal_basis,
    saturation,
)
from hslattice.matrix import IntMatrix
from hslattice.experiments import random_lattice

from verify import contains, contains_lattice, zn


def col_lattice(cols, k):
    if not cols:
        return Lattice.trivial(k)
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))


class TestConstruction:
    def test_zn(self):
        L = zn(3)
        assert L.rank == 3 and L.gram_det == 1

    def test_dependent_generators(self):
        L = col_lattice([[2, 4], [4, 8]], 2)
        assert L.rank == 1 and L.basis.column(0) == (2, 4)

    def test_membership_both_ways(self):
        gens = [[7, 0], [0, 21], [3, 3]]
        L = col_lattice(gens, 2)
        for g in gens:
            assert contains(L, g)
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
        assert reciprocal_basis(zn(3)).data == IntMatrix.identity(3).to_rational().data

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
            prod = (L.basis.transpose() @ rec.num).to_rational(rec.den)
            assert prod.data == IntMatrix.identity(L.rank).to_rational().data
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
        assert saturation(zn(2)) == zn(2)

    def test_primitive_line(self):
        L = col_lattice([[2, 4]], 2)
        sat = saturation(L)
        assert sat.basis.column(0) == (1, 2)
        index_sq = L.gram_det // sat.gram_det
        assert math.isqrt(index_sq) ** 2 == index_sq
        assert math.isqrt(index_sq) == 2

    def test_full_rank_saturates_to_zn(self):
        L = col_lattice([[2, 0], [0, 3]], 2)
        assert saturation(L) == zn(2)

    def test_idempotence_and_index_law(self):
        rng = random.Random(2)
        for _ in range(40):
            k = rng.randrange(1, 6)
            L = random_lattice(k, rng.randrange(0, k + 1), 64, rng)
            sat = saturation(L)
            assert saturation(sat) == sat
            assert sat.rank == L.rank
            assert contains_lattice(sat, L)
            index_sq, rem = divmod(L.gram_det, sat.gram_det)
            assert rem == 0
            assert math.isqrt(index_sq) ** 2 == index_sq


class TestIntegerOrthogonal:
    def test_zn_empty(self):
        assert zn(3).orthogonal.cols == 0

    def test_line_in_z2(self):
        C = col_lattice([[1, 1]], 2).orthogonal
        assert C.cols == 1
        v = C.column(0)
        assert v in ((1, -1), (-1, 1))

    def test_trivial_identity(self):
        assert Lattice.trivial(3).orthogonal.data == IntMatrix.identity(3).data

    def test_orthogonality_random(self):
        rng = random.Random(3)
        for _ in range(40):
            k = rng.randrange(1, 6)
            L = random_lattice(k, rng.randrange(0, k + 1), 64, rng)
            C = L.orthogonal
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
        L = zn(2)
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
        L = zn(2)
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
                member = contains(L, [a - b for a, b in zip(x, y)])
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
            if L.rank:
                reciprocal = (L.scaled_reciprocal.transpose() @ L.basis).to_rational(L.gram_det)
                assert reciprocal.data == IntMatrix.identity(L.rank).to_rational().data
            assert L.orthogonal.cols == k - L.rank
            assert all(x == 0 for row in (L.basis.transpose() @ L.orthogonal).data for x in row)

    def test_inverse_norms_beyond_float_range(self):
        """Squared norms past the float range still get their inverse norms."""
        for L in (col_lattice([[10 ** 200]], 1),
                  col_lattice([[3 * 10 ** 200, 0], [10 ** 199, 7]], 2)):
            for vec, inv_norm in L.frame:
                norm_sq = sum(x * x for x in vec)
                assert math.isclose(inv_norm * inv_norm * norm_sq, 1, rel_tol=1e-14)
            assert L.scaled_reciprocal.cols == L.rank

    def test_inverse_norm_underflow_rejected(self):
        with pytest.raises(ValueError, match="underflows"):
            col_lattice([[10 ** 400]], 1).frame


class TestLatticeValue:
    """A lattice is its HNF basis: derived values are cached on it and take
    no part in equality or hashing."""

    def test_one_dataclass_field(self):
        assert [f.name for f in dataclasses.fields(Lattice)] == ["basis"]

    def test_generating_sets_give_equal_lattices(self):
        a = col_lattice([[2, 0], [0, 6]], 2)
        b = col_lattice([[2, 6], [4, 6], [0, 12]], 2)
        a.gram_det, a.smith, a.frame  # read on one side only
        assert a == b and hash(a) == hash(b)
        assert b.gram_det == a.gram_det == 144

    def test_each_value_built_once(self):
        L = col_lattice([[3, 1, 0], [0, 2, 5]], 3)
        for name in ("gram_det", "pivots", "smith", "scaled_reciprocal", "orthogonal", "frame"):
            assert getattr(L, name) is getattr(L, name), name

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            Lattice(IntMatrix.from_columns([[1, 2], [2, 4]])).gram_det


lattices = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.integers(-6, 6), min_size=k, max_size=k), max_size=k + 1).map(
    lambda cols: col_lattice(cols, k)))


class TestCosetProperties:
    @settings(max_examples=150, deadline=None)
    @given(lattices, st.data())
    def test_coset_canonicity(self, L, data):
        x = data.draw(st.lists(st.integers(-50, 50), min_size=L.k, max_size=L.k))
        c = data.draw(st.lists(st.integers(-4, 4), min_size=L.rank, max_size=L.rank))
        rep = coset_canonical(L, x)
        shifted = [a + b for a, b in zip(x, L.basis.mul_vec(c))]
        assert coset_canonical(L, shifted) == rep
        assert contains(L, [a - b for a, b in zip(x, rep)])
        for r, j in L.pivots:
            assert 0 <= rep[r] < L.basis[r, j]
