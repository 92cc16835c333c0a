import json
from fractions import Fraction
from itertools import product

import pytest

from hslattice.lattice import Lattice, lattice_from_generators
from hslattice.matrix import IntMatrix
from hslattice.oracles import (
    SparseVec,
    brick_oracle,
    rational_oracle,
    shift_pair_oracle,
    sparse_simon_oracle,
)


def col_lattice(cols, k):
    return lattice_from_generators(IntMatrix.from_columns(cols, rows=k))


class TestBrickOracle:
    def test_zn_constant(self):
        f = brick_oracle(Lattice.zn(2))
        tokens = {f.token((x, y)) for x in range(-3, 4) for y in range(-3, 4)}
        assert len(tokens) == 1

    def test_trivial_injective(self):
        f = brick_oracle(Lattice.trivial(2))
        pts = list(product(range(-3, 4), repeat=2))
        tokens = [f.token(p) for p in pts]
        assert len(set(tokens)) == len(pts)

    def test_hiding_iff_box(self):
        L = col_lattice([[7, 1]], 2)
        f = brick_oracle(L)
        pts = list(product(range(-7, 8), repeat=2))
        tokens = {p: f.token(p) for p in pts}
        for x in pts:
            for y in pts:
                same = tokens[x] == tokens[y]
                member = L.contains([a - b for a, b in zip(x, y)])
                assert same == member

    def test_counters(self):
        f = brick_oracle(Lattice.zn(1))
        f.evaluate([5])
        f.evaluate([-3])
        assert f.calls == 2
        assert f.cost_1norm == 8

    def test_dimension_mismatch(self):
        f = brick_oracle(Lattice.zn(2))
        with pytest.raises(ValueError):
            f.evaluate([1])


class TestRationalOracle:
    def test_nothing_accepted(self):
        f = rational_oracle(set())
        # only the integer part -2 is deleted
        assert f.evaluate(Fraction(1, 360)) == Fraction(721, 360)

    def test_accept_five(self):
        f = rational_oracle({5})
        assert f.evaluate(Fraction(1, 360)) == Fraction(101, 72)
        assert f.evaluate(Fraction(1, 360)) == f.evaluate(Fraction(1, 360) + Fraction(1, 5))

    def test_hidden_element(self):
        f = rational_oracle({5})
        assert f.evaluate(Fraction(1, 5)) == 0
        assert f.token(Fraction(1, 5)) == f.token(Fraction(0))

    def test_idempotent(self):
        f = rational_oracle({3, 7})
        probes = [Fraction(n, d) for d in range(1, 25) for n in range(-8, 9)]
        for x in probes:
            assert f.evaluate(f.evaluate(x)) == f.evaluate(x)

    def test_hiding_iff_small_denominators(self):
        # hidden subgroup is generated by 1 and 1/5; exhaustive over n/20
        f = rational_oracle({5})
        probes = [Fraction(n, 20) for n in range(-40, 41)]
        for x in probes:
            for y in probes:
                diff = x - y
                member = (diff * 5).denominator == 1  # in <1, 1/5>
                assert (f.token(x) == f.token(y)) == member

    def test_exponent_one_only(self):
        # 1/25 has the term (5, 2, r): exponent 2 survives even with 5 accepted
        f = rational_oracle({5})
        assert f.evaluate(Fraction(1, 25)) != 0


class TestSparseSimonOracle:
    def test_identity_when_nothing_accepted(self):
        f = sparse_simon_oracle(set())
        v = SparseVec.make([1, 4, 9])
        assert f.evaluate(v) == v

    def test_single_acceptance(self):
        f = sparse_simon_oracle({3})
        assert f.evaluate(SparseVec.make([3])) == SparseVec.make([])
        assert f.token(SparseVec.make([3])) == f.token(SparseVec.make([]))

    def test_even_span(self):
        f = sparse_simon_oracle(lambda y: y % 2 == 0)
        e25 = SparseVec.make([2, 5])
        e5 = SparseVec.make([5])
        e45 = SparseVec.make([4, 5])
        assert f.evaluate(e25) == e5.__class__(e5.indices)
        assert f.token(e25) == f.token(e5) == f.token(e45)

    def test_hiding_iff_box(self):
        accepted = {0, 2, 4}
        f = sparse_simon_oracle(accepted)
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
        f = shift_pair_oracle(L, [0, 0])
        for x in product(range(-2, 3), repeat=2):
            assert f.token(x, 0) == f.token(x, 1)

    def test_zn_constant(self):
        f = shift_pair_oracle(Lattice.zn(2), [1, 1])
        tokens = {f.token(x, a) for x in product(range(-2, 3), repeat=2) for a in (0, 1)}
        assert len(tokens) == 1

    def test_shift_relation_box(self):
        L = col_lattice([[3, 0], [0, 3]], 2)
        s = [1, 2]
        f = shift_pair_oracle(L, s)
        for x in product(range(-4, 5), repeat=2):
            shifted = [a - b for a, b in zip(x, s)]
            assert f.token(x, 1) == f.token(shifted, 0)

    def test_recovered_shift_only_mod_lattice(self):
        L = col_lattice([[3, 0], [0, 3]], 2)
        f = shift_pair_oracle(L, [1, 2])
        g = shift_pair_oracle(L, [4, -1])  # same shift mod L
        for x in product(range(-3, 4), repeat=2):
            for a in (0, 1):
                assert f.token(x, a) == g.token(x, a)


class TestDescriptors:
    def test_json_roundtrip(self):
        L = col_lattice([[7, 1]], 2)
        for oracle in (brick_oracle(L), rational_oracle({3, 5}),
                       sparse_simon_oracle({1, 2}), shift_pair_oracle(L, [1, 0])):
            d = json.loads(json.dumps(oracle.descriptor(), sort_keys=True))
            assert "kind" in d

    def test_predicate_has_no_descriptor(self):
        f = sparse_simon_oracle(lambda y: y % 2 == 0)
        with pytest.raises(ValueError):
            f.descriptor()
