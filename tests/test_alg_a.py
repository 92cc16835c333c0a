import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hslattice import alg_a
from hslattice.alg_a import (
    AlgAStats,
    RecoveryTrace,
    ScheduleOverflow,
    WrongColattice,
    _colattice_from_prefix,
    end_to_end,
    finite_stage,
    recover_colattice,
    sample_fourier_point,
    schedule,
)
from hslattice.experiments import random_lattice
from hslattice.lattice import Lattice, basis_bit_complexity, dual_membership, saturation
from hslattice.lll import lll
from hslattice.matrix import IntMatrix, RatMatrix, hnf

from verify import (
    contains,
    contains_lattice,
    is_size_reduced,
    reference_finite_stage,
    satisfies_lovasz,
    zn,
)


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
        sec = zn(2)
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
        assert h1 == zn(2)
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
        He, _ = hnf(RatMatrix(trace.E.num.scale(scale), trace.E.den).to_integer())
        Hb, _ = hnf(RatMatrix(trace.lll_basis.num.scale(scale), trace.lll_basis.den).to_integer())
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


def reference_colattice(y, modulus, p):
    """recover_colattice without the certificate: the exact lll on E, whose
    leading columns of norm <= 1/R are B1.  Returns (lattice, ell_guess,
    failure)."""
    k = len(y)
    last = [Fraction(c, modulus) - (2 * c > modulus) for c in y] + [Fraction(1, p.T)]
    E = RatMatrix.from_rows([[int(i == j) for i in range(k + 1)] for j in range(k)]
                            + [last]).transpose()
    cols = lll(E).columns()
    kappa = 0
    while kappa <= k and sum(x * x for x in cols[kappa]) * p.R ** 2 <= 1:
        kappa += 1
    if kappa == 0:
        return None, None, "no short vectors in the LLL prefix"
    trace = RecoveryTrace(E)
    h1 = _colattice_from_prefix(RatMatrix.from_rows(cols[:kappa]).transpose(), p, trace)
    return h1, trace.ell_guess, trace.failure


def counting_lll(monkeypatch):
    """Count the exact passes recover_colattice runs, in a list local to the
    test."""
    calls = []

    def counted(B):
        calls.append(B)
        return lll(B)

    monkeypatch.setattr(alg_a, "lll", counted)
    return calls


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 4), st.sampled_from(["noisy", "noiseless", "uniform"]),
           st.data())
    def test_matches_exact_reduction(self, k, n, mode, data):
        """The certified prefix yields the lattice, ell_guess and failure of
        the exact reduction of E, for samples of random secrets (with and
        without the Gaussian noise) and for uniform torus points."""
        p = schedule(n, k)
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        sec = random_lattice(k, data.draw(st.integers(0, k)), data.draw(st.integers(1, 8)), rng)
        s = sample_fourier_point(sec, p, rng, debug=True)
        if mode == "noisy":
            y, modulus = s.y1, p.Q
        elif mode == "noiseless":
            y, modulus = s.true_y0, math.lcm(sec.gram_det, p.Q)
        else:
            y, modulus = tuple(rng.randrange(p.Q) for _ in range(k)), p.Q
        h1, trace = recover_colattice(y, modulus, p)
        assert (h1, trace.ell_guess, trace.failure) == reference_colattice(y, modulus, p)

    def test_fallback_matches_exact_reduction(self, monkeypatch):
        """A noisy k = 1 sample whose certified prefix holds a column a little
        longer than 1/R: the exact pass runs once, its output is
        LLL-reduced, and the result is the reference's."""
        p = schedule(2, 1)
        y = (67625147617218824059856741211166,)
        assert p.Q == 324518553658426726783156020576256
        calls = counting_lll(monkeypatch)
        h1, trace = recover_colattice(y, p.Q, p)
        assert len(calls) == 1
        assert is_size_reduced(trace.lll_basis) and satisfies_lovasz(trace.lll_basis)
        assert (h1, trace.ell_guess, trace.failure) == reference_colattice(y, p.Q, p)
        assert h1 == zn(1)

    def test_fallback_trace_keeps_the_exact_basis(self, monkeypatch):
        """In the fallback, E trace.U is the basis the exact pass returned,
        also when it is not the certified E U: here the exact pass is made
        to add its first column to its second."""
        p = schedule(2, 1)
        y = (67625147617218824059856741211166,)
        returned = []

        def sheared(B):
            out = lll(B)
            returned.append(RatMatrix(out.num @ IntMatrix.from_rows([[1, 1], [0, 1]]), out.den))
            return returned[-1]

        monkeypatch.setattr(alg_a, "lll", sheared)
        _, trace = recover_colattice(y, p.Q, p)
        assert len(returned) == 1
        assert returned[0] != lll(returned[0])
        # E's numerators are over E.den; the exact pass ran on them as integers.
        assert trace.lll_basis == RatMatrix(returned[0].to_integer(), trace.E.den)
        assert abs(trace.U.det()) == 1

    def test_certified_sample_skips_exact_pass(self, monkeypatch):
        """An hsp-k5-sized sample (4 coarse stages) is certified without the
        exact pass over E's integers."""
        rng = random.Random(11)
        sec = random_lattice(5, 5, 16, rng)
        p = schedule(160, 5)
        s = sample_fourier_point(sec, p, rng)
        calls = counting_lll(monkeypatch)
        h1, trace = recover_colattice(s.y1, p.Q, p)
        assert calls == []
        assert h1 == zn(5) and trace.ell_guess == 5


class TestFiniteStage:
    def test_equal_lattices_shortcut(self):
        rng = random.Random(11)
        h1 = col_lattice([[1, 2]], 2)
        assert finite_stage(h1, h1, rng) == h1

    def test_index_power_of_two(self):
        rng = random.Random(12)
        h1 = zn(3)
        sec = col_lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 3)
        wins = sum(finite_stage(sec, h1, rng) == sec for _ in range(50))
        assert wins >= 45

    def test_planted_index_12(self):
        rng = random.Random(13)
        sec = col_lattice([[2, 4], [0, 6]], 2)
        h1 = zn(2)
        wins = 0
        for _ in range(200):
            out = finite_stage(sec, h1, rng)
            if out is not None:
                assert contains_lattice(out, sec)  # over-constrained only
                wins += out == sec
        assert wins >= 150

    def test_pre_violation(self):
        rng = random.Random(14)
        with pytest.raises(ValueError):
            finite_stage(col_lattice([[1, 0]], 2), col_lattice([[0, 1]], 2), rng)

    @pytest.mark.parametrize("secret,h1", [
        ([[1, 0]], [[0, 1]]),          # the pivot rows agree, the others do not
        ([[1, 1]], [[2, 0]]),          # a pivot row leaves a remainder
        ([[2, 0]], [[1, 0], [0, 1]]),  # ranks differ
    ], ids=["other-rows", "pivot-remainder", "rank"])
    def test_wrong_colattice_before_any_draw(self, secret, h1):
        """A secret that is not a sublattice of H_1 of its rank raises
        WrongColattice, a ValueError, and draws nothing."""
        rng = random.Random(14)
        state = rng.getstate()
        with pytest.raises(WrongColattice):
            finite_stage(col_lattice(secret, 2), col_lattice(h1, 2), rng)
        assert rng.getstate() == state

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_hnf_per_growth_reference(self, data):
        """The triangular group modulo the index returns the lattice the
        HNF-per-growth stage returns, from the same draws, and leaves the RNG
        where that stage leaves it."""
        ell = data.draw(st.integers(1, 3), label="ell")
        entries = st.integers(-4, 4)
        if data.draw(st.booleans(), label="unimodular"):
            P = IntMatrix.from_rows([[int(i == j) if i >= j else data.draw(entries)
                                      for j in range(ell)] for i in range(ell)])
        else:
            P = IntMatrix.from_rows(data.draw(st.lists(
                st.lists(entries, min_size=ell, max_size=ell), min_size=ell, max_size=ell).filter(
                lambda rows: IntMatrix.from_rows(rows).det() != 0), label="P"))
        if data.draw(st.booleans(), label="h1 = Z^ell"):
            h1 = zn(ell)
        else:
            B = IntMatrix.from_rows(data.draw(st.lists(
                st.lists(entries, min_size=ell, max_size=ell), min_size=ell + 1,
                max_size=ell + 1).filter(
                lambda rows: Lattice.from_generators(IntMatrix.from_rows(rows)).rank == ell),
                label="B"))
            h1 = saturation(Lattice.from_generators(B))
        sec = Lattice.from_generators(h1.basis @ P)
        seed = data.draw(st.integers(0, 2 ** 32), label="seed")
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert finite_stage(sec, h1, rng) == reference_finite_stage(sec, h1, ref_rng)
        assert rng.getstate() == ref_rng.getstate()

    def test_budget_exhaustion_matches_reference(self):
        """A scripted stream that grows 2^40 Z by one halving after every 83
        stable draws runs out of the 2 752-draw budget before the 84-draw
        window closes; both stages then give None after the whole budget."""
        index = 2 ** 40

        class Scripted:
            def __init__(self):
                self.draws = 0

            def randrange(self, n):
                assert n == index
                self.draws += 1
                cycle, pos = divmod(self.draws - 1, 84)
                return index >> (cycle + 1) if pos == 83 else 0

        sec, h1 = col_lattice([[index]], 1), zn(1)
        budget = 64 * (index.bit_length() + 2)
        for stage in (finite_stage, reference_finite_stage):
            rng = Scripted()
            assert stage(sec, h1, rng) is None
            assert rng.draws == budget


class TestTriangularGroup:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 72), st.data())
    def test_rows_span_the_drawn_group(self, ell, index, data):
        """After every insertion the rows, taken alone, span <index Z^ell,
        draws so far>; they stay triangular with pivots dividing the index
        and the other entries reduced mod the index, and _insert reports
        growth exactly for a non-member."""
        rows = [[index * (i == r) for i in range(ell)] for r in range(ell)]
        gens = [list(row) for row in rows]
        vec = st.lists(st.integers(0, index - 1), min_size=ell, max_size=ell)
        for v in data.draw(st.lists(vec, max_size=6), label="draws"):
            before = Lattice.from_generators(IntMatrix.from_columns(gens, rows=ell))
            assert alg_a._insert(rows, list(v), index) == (not contains(before, v))
            gens.append(v)
            assert (Lattice.from_generators(IntMatrix.from_columns(rows, rows=ell))
                    == Lattice.from_generators(IntMatrix.from_columns(gens, rows=ell)))
            for r, row in enumerate(rows):
                assert index % row[r] == 0
                assert all(0 <= c < index for c in row[:r]) and not any(row[r + 1:])

    def test_closure_step(self):
        """<4 Z^2, (1, 2)>: the extended-gcd step alone leaves the rows
        (4, 0) and (1, 2), whose span misses (0, 4); the closure vector
        2 (1, 2) = (2, 0) mod 4 brings the first pivot down to 2."""
        rows = [[4, 0], [0, 4]]
        assert alg_a._insert(rows, [1, 2], 4)
        assert rows == [[2, 0], [1, 2]]
        span = Lattice.from_generators(IntMatrix.from_columns(rows, rows=2))
        assert contains(span, [0, 4])
        assert span == Lattice.from_generators(IntMatrix.from_columns([[4, 0], [0, 4], [1, 2]]))


class TestEndToEnd:
    def test_zn_deterministic(self):
        rng = random.Random(15)
        for k in (1, 2, 3):
            sec = zn(k)
            assert end_to_end(sec, schedule(2, k), rng) == sec

    def test_trivial(self):
        rng = random.Random(16)
        sec = Lattice.trivial(2)
        assert end_to_end(sec, schedule(2, 2), rng) == sec

    def test_wrong_colattice_candidate_is_resampled(self, monkeypatch):
        """A candidate H_1 that misses the secret counts as a wrong colattice
        candidate and escalates, as a failed recovery does."""
        sec = col_lattice([[2, 0], [0, 3]], 2)
        real = alg_a.recover_colattice
        calls = []

        def first_wrong(y, modulus, p):
            h1, trace = real(y, modulus, p)
            calls.append(h1)
            return (col_lattice([[1, 0]], 2) if len(calls) == 1 else h1), trace

        monkeypatch.setattr(alg_a, "recover_colattice", first_wrong)
        stats = AlgAStats()
        assert end_to_end(sec, schedule(3, 2), random.Random(18), stats) == sec
        assert stats.last_failure == "wrong colattice candidate"
        assert stats.escalations == 1 and stats.samples == 2

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
