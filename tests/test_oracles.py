from fractions import Fraction
from itertools import product

import pytest

from hslattice.lattice import Lattice
from hslattice.matrix import IntMatrix
from hslattice.oracles import (
    BrickOracle,
    RationalOracle,
    ShiftPairOracle,
    SparseSimonOracle,
    SparseVec,
)

from verify import contains, zn


def col_lattice(cols, k):
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))


class TestBrickOracle:
    def test_zn_constant(self):
        f = BrickOracle(zn(2))
        tokens = {f.token((x, y)) for x in range(-3, 4) for y in range(-3, 4)}
        assert len(tokens) == 1

    def test_trivial_injective(self):
        f = BrickOracle(Lattice.trivial(2))
        pts = list(product(range(-3, 4), repeat=2))
        tokens = [f.token(p) for p in pts]
        assert len(set(tokens)) == len(pts)

    def test_hiding_iff_box(self):
        L = col_lattice([[7, 1]], 2)
        f = BrickOracle(L)
        pts = list(product(range(-7, 8), repeat=2))
        tokens = {p: f.token(p) for p in pts}
        for x in pts:
            for y in pts:
                same = tokens[x] == tokens[y]
                member = contains(L, [a - b for a, b in zip(x, y)])
                assert same == member

    def test_dimension_mismatch(self):
        f = BrickOracle(zn(2))
        with pytest.raises(ValueError):
            f.evaluate([1])


class TestRationalOracle:
    def test_nothing_accepted(self):
        f = RationalOracle(set())
        # only the integer part -2 is deleted
        assert f.evaluate(Fraction(1, 360)) == Fraction(721, 360)

    def test_accept_five(self):
        f = RationalOracle({5})
        assert f.evaluate(Fraction(1, 360)) == Fraction(101, 72)
        assert f.evaluate(Fraction(1, 360)) == f.evaluate(Fraction(1, 360) + Fraction(1, 5))

    def test_hidden_element(self):
        f = RationalOracle({5})
        assert f.evaluate(Fraction(1, 5)) == 0
        assert f.token(Fraction(1, 5)) == f.token(Fraction(0))

    def test_idempotent(self):
        f = RationalOracle({3, 7})
        probes = [Fraction(n, d) for d in range(1, 25) for n in range(-8, 9)]
        for x in probes:
            assert f.evaluate(f.evaluate(x)) == f.evaluate(x)

    def test_hiding_iff_small_denominators(self):
        # hidden subgroup is generated by 1 and 1/5; exhaustive over n/20
        f = RationalOracle({5})
        probes = [Fraction(n, 20) for n in range(-40, 41)]
        for x in probes:
            for y in probes:
                diff = x - y
                member = (diff * 5).denominator == 1  # in <1, 1/5>
                assert (f.token(x) == f.token(y)) == member

    @pytest.mark.parametrize("accepted", [
        {4}, {1, 3}, {3, 9}, {0}, {-5}, {(2 ** 31 - 1) * (2 ** 61 - 1)},
    ])
    def test_rejects_non_primes(self, accepted):
        with pytest.raises(ValueError, match="primes"):
            RationalOracle(accepted)

    def test_exponent_one_only(self):
        # 1/25 has the term (5, 2, r): exponent 2 survives even with 5 accepted
        f = RationalOracle({5})
        assert f.evaluate(Fraction(1, 25)) != 0


class TestSparseSimonOracle:
    def test_identity_when_nothing_accepted(self):
        f = SparseSimonOracle(set())
        v = SparseVec.make([1, 4, 9])
        assert f.evaluate(v) == v

    def test_single_acceptance(self):
        f = SparseSimonOracle({3})
        assert f.evaluate(SparseVec.make([3])) == SparseVec.make([])
        assert f.token(SparseVec.make([3])) == f.token(SparseVec.make([]))

    def test_even_span(self):
        f = SparseSimonOracle({0, 2, 4, 6})
        e25 = SparseVec.make([2, 5])
        e5 = SparseVec.make([5])
        e45 = SparseVec.make([4, 5])
        assert f.evaluate(e25) == e5.__class__(e5.indices)
        assert f.token(e25) == f.token(e5) == f.token(e45)

    def test_hiding_iff_box(self):
        accepted = {0, 2, 4}
        f = SparseSimonOracle(accepted)
        universe = [SparseVec.make([i for i in range(6) if mask >> i & 1])
                    for mask in range(64)]
        for x in universe:
            for y in universe:
                diff = x + y  # mod-2 difference
                member = all(i in accepted for i in diff.indices)
                assert (f.token(x) == f.token(y)) == member

    def test_parse_roundtrip(self):
        v = SparseVec.parse("e2+e5")
        assert v.indices == (2, 5)
        assert str(v) == "e2+e5"
        assert str(SparseVec.make([])) == "0"


class TestShiftPairOracle:
    def test_zero_shift(self):
        L = col_lattice([[3, 0], [0, 3]], 2)
        f = ShiftPairOracle(L, [0, 0])
        for x in product(range(-2, 3), repeat=2):
            assert f.token(x, 0) == f.token(x, 1)

    def test_zn_constant(self):
        f = ShiftPairOracle(zn(2), [1, 1])
        tokens = {f.token(x, a) for x in product(range(-2, 3), repeat=2) for a in (0, 1)}
        assert len(tokens) == 1

    def test_shift_relation_box(self):
        L = col_lattice([[3, 0], [0, 3]], 2)
        s = [1, 2]
        f = ShiftPairOracle(L, s)
        for x in product(range(-4, 5), repeat=2):
            shifted = [a - b for a, b in zip(x, s)]
            assert f.token(x, 1) == f.token(shifted, 0)

    def test_recovered_shift_only_mod_lattice(self):
        L = col_lattice([[3, 0], [0, 3]], 2)
        f = ShiftPairOracle(L, [1, 2])
        g = ShiftPairOracle(L, [4, -1])  # same shift mod L
        for x in product(range(-3, 4), repeat=2):
            for a in (0, 1):
                assert f.token(x, a) == g.token(x, a)

    def test_dimension_mismatch(self):
        f = ShiftPairOracle(zn(2), [1, 1])
        for a in (0, 1):
            with pytest.raises(ValueError):
                f.evaluate([1, 2, 3], a)
