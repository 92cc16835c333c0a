import math
import random
from fractions import Fraction

import pytest

from hslattice.alg_a import (
    AlgAStats,
    ScheduleOverflow,
    end_to_end,
    finite_stage,
    recover_colattice,
    sample_fourier_point,
    schedule,
)
from hslattice.experiments import random_lattice
from hslattice.lattice import Lattice, basis_bit_complexity, dual_membership
from hslattice.matrix import IntMatrix, hnf


def col_lattice(cols, k):
    if not cols:
        return Lattice.trivial(k)
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))


def noise_norm_sq(sec, p, s):
    """||lift(y1 - y0)||^2 for a debug sample: y1 over Q, y0 over lcm(Delta, Q)."""
    modulus = math.lcm(sec.gram_det, p.Q)
    diff = [(a * (modulus // p.Q) - b) % modulus for a, b in zip(s.y1, s.true_y0)]
    return Fraction(sum((d - modulus if 2 * d > modulus else d) ** 2 for d in diff), modulus ** 2)


class TestSchedule:
    def test_example_n4_k1(self):
        p = schedule(4, 1)
        assert p.R == 2 ** 9
        p.validate()

    def test_minimal_case(self):
        schedule(1, 1).validate()

    def test_forced_inequalities(self):
        for n, k in ((2, 1), (3, 2), (5, 3), (8, 5)):
            p = schedule(n, k)
            assert p.Q >= p.S * p.S
            assert p.S >= 4 * p.R * p.R * p.T ** 3
            p.validate()

    def test_overflow_guard(self):
        with pytest.raises(ScheduleOverflow):
            schedule(40000, 5)

    def test_escalation_keeps_constraints(self):
        p = schedule(3, 2)
        q = p.escalated()
        assert q.T == 2 * p.T and q.Q == q.S * q.S
        q.validate()


class TestSampler:
    def test_zn_y0_zero(self):
        rng = random.Random(0)
        p = schedule(2, 2)
        sec = Lattice.zn(2)
        for _ in range(10):
            s = sample_fourier_point(sec, p, rng, debug=True)
            assert s.true_y0 == (0, 0)
            # y1 = grid-rounded Gaussian noise only, as numerators over Q
            assert all(0 <= c < p.Q for c in s.y1)

    def test_trivial_exact_grid(self):
        rng = random.Random(1)
        p = schedule(2, 2)
        sec = Lattice.trivial(2)
        for _ in range(20):
            s = sample_fourier_point(sec, p, rng, debug=True)
            assert s.y1 == s.true_y0  # no H_R, no noise; sample already on grid

    def test_grid_denominators(self):
        rng = random.Random(2)
        p = schedule(3, 2)
        sec = col_lattice([[3, 1]], 2)
        for _ in range(20):
            s = sample_fourier_point(sec, p, rng)
            assert len(s.y1) == 2 and all(0 <= c < p.Q for c in s.y1)

    def test_2z_split(self):
        rng = random.Random(3)
        p = schedule(2, 1)
        sec = col_lattice([[2]], 1)
        counts = {0: 0, 1: 0}
        for _ in range(4000):
            s = sample_fourier_point(sec, p, rng)
            # round(2 y1) mod 2 classifies the dual component
            cls = math.floor(Fraction(2 * s.y1[0], p.Q) + Fraction(1, 2)) % 2
            counts[cls] += 1
        chi2 = sum((c - 2000) ** 2 / 2000 for c in counts.values())
        assert chi2 < 10.83  # 1 dof, p > 0.001

    def test_noise_norm_contract(self):
        rng = random.Random(4)
        sec = col_lattice([[2, 0], [1, 3]], 2)
        p = schedule(basis_bit_complexity(sec), 2)
        thresh_sq = 2 * (Fraction(1, p.S) + Fraction(1, 2 * p.Q)) ** 2
        hits = 0
        draws = 400
        for _ in range(draws):
            s = sample_fourier_point(sec, p, rng, debug=True)
            assert dual_membership(sec, s.true_y0, math.lcm(sec.gram_det, p.Q))
            if noise_norm_sq(sec, p, s) <= thresh_sq:
                hits += 1
        assert hits / draws >= 0.70


class TestRecoverColattice:
    def test_zn_noiseless(self):
        p = schedule(2, 2)
        h1, trace = recover_colattice((0, 0), p.Q, p)
        assert h1 == Lattice.zn(2)
        assert trace.ell_guess == 2

    def test_trivial_z1(self):
        rng = random.Random(6)
        sec = Lattice.trivial(1)
        p = schedule(2, 1)
        s = sample_fourier_point(sec, p, rng, debug=True)
        h1, trace = recover_colattice(s.y1, p.Q, p)
        assert h1 == Lattice.trivial(1)
        assert trace.ell_guess == 0

    def test_planted_31_noiseless(self):
        rng = random.Random(7)
        sec = col_lattice([[3, 1]], 2)
        p = schedule(basis_bit_complexity(sec), 2)
        s = sample_fourier_point(sec, p, rng, debug=True)
        h1, trace = recover_colattice(s.true_y0, math.lcm(sec.gram_det, p.Q), p)
        assert h1 == sec  # (3,1) is primitive, so H1 = H
        # A4 is the stripe slope, verified against the kernel: x2 = x1/3
        assert trace.A4.data == ((Fraction(-1, 3),),) or trace.A4.data == ((Fraction(1, 3),),)

    def test_trace_invariants(self):
        rng = random.Random(8)
        sec = col_lattice([[2, 0], [1, 3]], 2)
        p = schedule(basis_bit_complexity(sec), 2)
        s = sample_fourier_point(sec, p, rng)
        h1, trace = recover_colattice(s.y1, p.Q, p)
        # E: first k columns standard basis, last column (lift(y1), t)
        k = 2
        for j in range(k):
            col = trace.E.column(j)
            assert col == tuple(Fraction(int(i == j)) for i in range(k + 1))
        assert trace.E[k, k] == Fraction(1, p.T)
        if h1 is not None:
            # A4 denominators bounded by R
            for row in trace.A4.data:
                for x in row:
                    assert x.denominator <= p.R
            assert trace.B2.det() != 0

    def test_lll_preserves_lattice(self):
        # rejected long vectors plus B1 together generate the same lattice as E
        rng = random.Random(9)
        sec = col_lattice([[3, 1]], 2)
        p = schedule(basis_bit_complexity(sec), 2)
        s = sample_fourier_point(sec, p, rng)
        _, trace = recover_colattice(s.y1, p.Q, p)
        scale = trace.E.denominator_lcm()
        He, _ = hnf(trace.E.scale(scale).to_integer())
        Hb, _ = hnf(trace.lll_basis.scale(scale).to_integer())
        assert He.data == Hb.data

    def test_a5_orthogonal_on_noiseless(self):
        rng = random.Random(10)
        sec = col_lattice([[2, 3, 1]], 3)
        p = schedule(basis_bit_complexity(sec), 3)
        s = sample_fourier_point(sec, p, rng, debug=True)
        h1, trace = recover_colattice(s.true_y0, math.lcm(sec.gram_det, p.Q), p)
        if h1 is None:
            pytest.skip("non-generic noiseless sample")
        # columns of A5 are orthogonal to B1's first k rows on noiseless input
        k = 3
        for c5 in range(trace.A5.cols):
            for c1 in range(trace.B1.cols):
                dot = sum(trace.A5[i, c5] * trace.B1[i, c1] for i in range(k))
                assert dot == 0


class TestFiniteStage:
    def test_equal_lattices_shortcut(self):
        rng = random.Random(11)
        h1 = col_lattice([[1, 2]], 2)
        p = schedule(4, 2)
        assert finite_stage(h1, h1, p, rng) == h1

    def test_index_power_of_two(self):
        rng = random.Random(12)
        h1 = Lattice.zn(3)
        sec = col_lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 3)
        p = schedule(4, 3)
        wins = sum(finite_stage(sec, h1, p, rng) == sec for _ in range(50))
        assert wins >= 45

    def test_planted_index_12(self):
        rng = random.Random(13)
        sec = col_lattice([[2, 4], [0, 6]], 2)
        h1 = Lattice.zn(2)
        p = schedule(basis_bit_complexity(sec), 2)
        wins = 0
        for _ in range(200):
            out = finite_stage(sec, h1, p, rng)
            if out is not None:
                assert out.contains_lattice(sec)  # over-constrained only
                wins += out == sec
        assert wins >= 150

    def test_pre_violation(self):
        rng = random.Random(14)
        p = schedule(3, 2)
        with pytest.raises(ValueError):
            finite_stage(col_lattice([[1, 0]], 2), col_lattice([[0, 1]], 2), p, rng)


class TestEndToEnd:
    def test_zn_deterministic(self):
        rng = random.Random(15)
        for k in (1, 2, 3):
            sec = Lattice.zn(k)
            assert end_to_end(sec, schedule(2, k), rng) == sec

    def test_trivial(self):
        rng = random.Random(16)
        sec = Lattice.trivial(2)
        assert end_to_end(sec, schedule(2, 2), rng) == sec

    def test_random_small_monte_carlo(self):
        rng = random.Random(17)
        wins = trials = 0
        for _ in range(20):
            k = rng.randrange(1, 4)
            sec = random_lattice(k, rng.randrange(0, k + 1), 64, rng)
            p = schedule(max(1, basis_bit_complexity(sec)), k)
            stats = AlgAStats()
            out = end_to_end(sec, p, rng, stats=stats)
            trials += 1
            wins += out == sec
            assert stats.samples >= 1
        assert wins >= 15
