import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hslattice import alg_a, lll as lll_module
from hslattice.alg_a import (
    FIRST_STAGE_BITS,
    _coarse_stages,
    recover_colattice,
    sample_fourier_point,
    schedule,
)
from hslattice.experiments import random_lattice
from hslattice.lattice import basis_bit_complexity
from hslattice.lll import (
    FRAC_BITS,
    _certify_swap_free,
    _interval_gram_schmidt,
    _lll_integer,
    babai_nearest_plane,
    gram_schmidt,
    lll,
    lll_from_coarse,
)
from hslattice.matrix import IntMatrix, RatMatrix, hnf

from verify import (
    enumerate_short_vectors,
    is_size_reduced,
    round_half_even,
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
    HA, _ = hnf(RatMatrix(A.num.scale(scale), A.den).to_integer())
    HB, _ = hnf(RatMatrix(B.num.scale(scale), B.den).to_integer())
    return HA.data == HB.data


class TestLLL:
    def test_identity_fixed(self):
        I3 = IntMatrix.identity(3).to_rational()
        assert lll(I3).data == I3.data

    def test_z2_example(self):
        # columns (4,1), (3,1): det 1, so the reduced basis generates Z^2
        B = IntMatrix.from_columns([[4, 1], [3, 1]], rows=2).to_rational()
        out = lll(B)
        norms = sorted(norm_sq(out.column(j)) for j in range(2))
        assert norms == [1, 1]
        assert same_lattice(B, IntMatrix.identity(2).to_rational())

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
            B2 = RatMatrix.from_rows(cols).transpose()
            if B2.det() == 0:
                continue
            out = lll(B2)
            b1_sq = norm_sq(out.column(0))
            lam1 = min(norm_sq(v) for v in enumerate_short_vectors(out, b1_sq))
            assert b1_sq <= 2 ** (k - 1) * lam1

    def test_dependent_columns_rejected(self):
        B = IntMatrix.from_columns([[1, 2], [2, 4]], rows=2).to_rational()
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
    @given(int_bases())
    def test_swaps_reported(self, M):
        """A second pass over an LLL-reduced basis reports no swap."""
        cols = [list(M.column(j)) for j in range(M.cols)]
        _lll_integer(cols)
        assert _lll_integer(cols)[1] == 0

    def test_swap_counted(self):
        """Columns (3, 1), (1, 0) need exactly one swap."""
        cols = [[3, 1], [1, 0]]
        assert _lll_integer(cols) == ([1, 1, 1], 1)
        assert cols == [[1, 0], [0, 1]]

    @settings(max_examples=100, deadline=None)
    @given(int_bases(), st.data())
    def test_any_coarse_basis(self, M, data):
        """Whatever the coarse bases, M * U generates M's lattice, the last
        stage ends LLL-reduced under U, and kappa counts that stage's
        Gram-Schmidt norms above the threshold: a poor stage only leaves more
        work to the next."""
        stages = data.draw(st.lists(int_bases(k=M.cols), min_size=1, max_size=3))
        threshold = Fraction(data.draw(st.integers(0, 2000)), data.draw(st.integers(1, 7)))
        U, kappa = lll_from_coarse(stages, threshold)
        out = M @ U
        assert hnf(out)[0].data == hnf(M)[0].data
        assert_last_stage_reduced(M, out, stages[-1], kappa, threshold)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_flattened_lattice(self, k, n, data):
        """recover_colattice's staged reduction of E = [I_k, lift(y1); 0, 1/T]:
        E * U and the recovery's lll_basis generate E's lattice, the last
        coarse stage ends LLL-reduced, and kappa is counted on it."""
        p = schedule(n, k)
        y1 = tuple(data.draw(st.integers(0, p.Q - 1)) for _ in range(k))
        _, trace = recover_colattice(y1, p.Q, p)
        assert same_lattice(trace.lll_basis, trace.E)
        lift = [c - p.Q if 2 * c > p.Q else c for c in y1]
        stages = _coarse_stages(lift, p.Q, p)
        E = trace.E.cleared()[1]
        threshold = colattice_threshold(stages, p)
        U, kappa = lll_from_coarse(stages, threshold)
        out = E @ U
        assert hnf(out)[0].data == hnf(E)[0].data
        assert_last_stage_reduced(E, out, stages[-1], kappa, threshold)

    def test_stage_count(self):
        """One coarse stage per 512 bits of log2 T, rounded up, and a first
        stage at T = 2^64 before them when there is more than one.  The last
        stage is the grid 1/(T * 2^bits(R)); every earlier stage is its own
        grid 1/T_j, with last entry 1."""
        for n, k, count in ((2, 1, 1), (14, 2, 1), (70, 3, 3), (160, 5, 5)):
            p = schedule(n, k)
            stages = _coarse_stages([0] * k, p.Q, p)
            assert len(stages) == count
            assert stages[-1][0, 0] == p.T << p.R.bit_length()
            assert stages[-1][k, k] == 1 << p.R.bit_length()
            b = p.T.bit_length() - 1
            s = count - 1
            T_j = [1 << FIRST_STAGE_BITS] + [1 << j * b // s for j in range(1, s)] if s else []
            assert [C[0, 0] for C in stages[:-1]] == T_j
            assert all(C[k, k] == 1 for C in stages[:-1])

    @pytest.mark.parametrize("rank,runs", [(5, 2), (4, 5), (1, 5)],
                             ids=["full-rank", "rank-4", "rank-1"])
    def test_swap_free_stage_skips_to_last(self, monkeypatch, rank, runs):
        """On a k = 5, n = 160 sample, a full-rank secret makes all its swaps
        in the 64-bit first stage, so the second stage swaps nothing and the
        last follows it: 3 of the 5 stages run, and the last is certified
        swap-free, so the exact reduction runs on the first two alone.
        Rank-4 and rank-1 secrets swap in every stage, skip none and reduce
        the last exactly.  Either way the last stage ends reduced."""
        p = schedule(160, 5)
        rng = random.Random(rank)
        secret = random_lattice(5, rank, 64, rng)
        assert basis_bit_complexity(secret) <= 160
        y1 = sample_fourier_point(secret, p, rng).y1
        _, trace = recover_colattice(y1, p.Q, p)
        lift = [c - p.Q if 2 * c > p.Q else c for c in y1]
        stages = _coarse_stages(lift, p.Q, p)
        assert len(stages) == 5
        swaps = []

        def counting(b, u=None):
            d, count = _lll_integer(b, u)
            swaps.append(count)
            return d, count

        monkeypatch.setattr(lll_module, "_lll_integer", counting)
        E = trace.E.cleared()[1]
        threshold = colattice_threshold(stages, p)
        U, kappa = lll_from_coarse(stages, threshold)
        assert len(swaps) == runs and swaps[0] > 0
        assert swaps[1] == 0 if rank == 5 else all(swaps)
        assert_last_stage_reduced(E, E @ U, stages[-1], kappa, threshold)

    @pytest.mark.parametrize("n,k", [(2, 1), (14, 2), (70, 3), (160, 5)])
    def test_stage_rounding(self, n, k):
        """Every stage's last column is round(G lift(y) / modulus), half to
        even, for noisy samples y1 over Q, for noiseless y0 over lcm(Delta,
        Q), which has an odd factor, and for exact ties G c / modulus =
        q + 1/2, q even and q odd, built at every stage."""
        p = schedule(n, k)
        rng = random.Random(n)
        samples = []
        for rank in range(k + 1):
            secret = random_lattice(k, rank, 64, rng)
            s = sample_fourier_point(secret, p, rng, debug=True)
            samples += [(s.y1, p.Q), (s.true_y0, math.lcm(secret.gram_det, p.Q))]
        assert any(modulus & (modulus - 1) for _, modulus in samples)
        cases = [([c - m if 2 * c > m else c for c in y], m) for y, m in samples]
        for _, modulus in samples:
            for C in _coarse_stages([0] * k, modulus, p):
                unit, rest = divmod(modulus, 2 * C[0, 0])
                assert rest == 0
                cases += [([(2 * q + 1) * unit] * k, modulus) for q in (2, 3, -2, -3)]
        for lift, modulus in cases:
            for C in _coarse_stages(lift, modulus, p):
                G = C[0, 0]
                assert list(C.column(k)[:k]) == [round_half_even(c * G, modulus) for c in lift]

    @pytest.mark.parametrize("rank", [5, 4])
    def test_prefix_of_lll_basis(self, monkeypatch, rank):
        """On a k = 5, n = 160 sample the recovery forms E U for the U and
        kappa that lll_from_coarse returns: trace.lll_basis is E U, and its
        first kappa columns are the B1 handed to _colattice_from_prefix."""
        p = schedule(160, 5)
        rng = random.Random(rank)
        secret = random_lattice(5, rank, 64, rng)
        y1 = sample_fourier_point(secret, p, rng).y1
        received = []
        prefix = alg_a._colattice_from_prefix

        def capture(B1, p, trace):
            received.append(B1)
            return prefix(B1, p, trace)

        monkeypatch.setattr(alg_a, "_colattice_from_prefix", capture)
        _, trace = recover_colattice(y1, p.Q, p)
        lift = [c - p.Q if 2 * c > p.Q else c for c in y1]
        stages = _coarse_stages(lift, p.Q, p)
        U, kappa = lll_from_coarse(stages, colattice_threshold(stages, p))
        assert kappa == 6 - rank and trace.ell_guess == rank
        assert trace.U == U
        assert trace.lll_basis == RatMatrix(trace.E.num @ U, trace.E.den)
        assert received == [trace.B1]
        assert trace.lll_basis.columns()[:kappa] == trace.B1.columns()


def colattice_threshold(stages, p):
    """The bound that recover_colattice hands to lll_from_coarse."""
    k = stages[-1].cols - 1
    bound_sq = (2 * stages[-1][0, 0] + p.T * (math.isqrt(k) + 1)) ** 2
    return Fraction(bound_sq, 4 * p.R * p.R)


def kappa_from_norms(norms, threshold):
    """The least kappa with norms[i] > threshold for every i >= kappa."""
    kappa = len(norms)
    while kappa and norms[kappa - 1] > threshold:
        kappa -= 1
    return kappa


def assert_last_stage_reduced(B, out, last, kappa, threshold):
    """out = B * U for an integer U, last * U is LLL-reduced, and kappa is
    counted on its exact Gram-Schmidt norms."""
    inverse = B.to_rational().inverse()
    U = RatMatrix(inverse.num @ out, inverse.den).to_integer()
    reduced = (last @ U).to_rational()
    assert is_size_reduced(reduced) and satisfies_lovasz(reduced)
    _, _, norms = gram_schmidt(reduced.columns())
    assert kappa == kappa_from_norms(norms, threshold)


def staged_columns(n, short, big, entry):
    """n columns in Z^n shaped like the last coarse stage of a k = 5 HSP
    sample: b_0 = 2^short e_0 and b_j = 2^big e_j (j >= 1), each entry
    perturbed by entry(bits) a sixteenth of its size, so the basis is
    size-reduced and swap-free after size reduction up to that noise; then
    each long column gets a multiple of b_0 as long as itself, so the
    quotients against b_0 reach 2^(big - short)."""
    cols = []
    for j, bits in enumerate([short] + [big] * (n - 1)):
        col = [entry(bits - 4) for _ in range(n)]
        col[j] += 1 << bits
        cols.append(col)
    for j in range(1, n):
        c0 = entry(big - short)
        cols[j] = [x + c0 * y for x, y in zip(cols[j], cols[0])]
    return cols


@st.composite
def staged_bases(draw):
    """staged_columns for n <= 6 and up to 3000-bit entries, with small
    multiples of earlier long columns added to later ones, and then perhaps
    a long column shortened by 1 to 3 bits or a pair of columns swapped, so
    that the exact run swaps.  Returns (columns, threshold), the threshold a
    Gram-Schmidt norm times 1, 1/2, 2 or 1 - 2^-64."""
    n = draw(st.integers(2, 6), label="n")
    short = draw(st.integers(4, 400), label="short bits")
    big = draw(st.integers(short + 4, 3000), label="big bits")
    cols = staged_columns(n, short, big, lambda bits: draw(st.integers(-(1 << bits), 1 << bits)))
    for j in range(2, n):
        for t in range(1, j):
            c = draw(st.integers(-2, 2))
            cols[j] = [x + c * y for x, y in zip(cols[j], cols[t])]
    change = draw(st.sampled_from(["none", "shorten", "swap"]), label="change")
    if change == "shorten":
        j = draw(st.integers(1, n - 1))
        cols[j] = [x >> draw(st.integers(1, 3)) for x in cols[j]]
    elif change == "swap":
        i = draw(st.integers(0, n - 2))
        cols[i], cols[i + 1] = cols[i + 1], cols[i]
    try:
        _, _, norms = gram_schmidt(cols)
    except ValueError:
        assume(False)
    threshold = norms[draw(st.integers(0, n - 1))] * draw(st.sampled_from(
        [Fraction(1), Fraction(1, 2), Fraction(2), Fraction((1 << 64) - 1, 1 << 64)]))
    return cols, threshold


def run_exact(cols, threshold):
    """_lll_integer on a copy of cols: (swaps, u, kappa from its d)."""
    b = [list(c) for c in cols]
    n = len(b)
    u = [[int(i == j) for i in range(n)] for j in range(n)]
    d, swaps = _lll_integer(b, u)
    norms = [Fraction(d[i + 1], d[i]) for i in range(n)]
    return swaps, u, kappa_from_norms(norms, threshold)


def apply_quotients(quotients, n):
    u = [[int(i == j) for i in range(n)] for j in range(n)]
    for k, l, q in quotients:
        u[k] = [x - q * y for x, y in zip(u[k], u[l])]
    return u


def assert_certifier_agrees(cols, threshold):
    """Whenever the certifier answers, the exact run makes no swap and gives
    the same transform and kappa; whenever the exact run swaps, the
    certifier does not answer."""
    certified = _certify_swap_free([list(c) for c in cols], threshold)
    swaps, u, kappa = run_exact(cols, threshold)
    if certified is not None:
        quotients, certified_kappa = certified
        assert swaps == 0
        assert apply_quotients(quotients, len(cols)) == u
        assert certified_kappa == kappa
    if swaps:
        assert certified is None
    return certified


class TestCertifySwapFree:
    @settings(max_examples=150, deadline=None)
    @given(staged_bases())
    def test_intervals_enclose_exact_gram_schmidt(self, case):
        """Every mu interval encloses the exact mu_ij, and every r interval
        the exact |b*_i|^2, with a positive lower end."""
        cols, _ = case
        n = len(cols)
        A = [[sum(x * y for x, y in zip(cols[i], cols[j])) for j in range(i + 1)]
             for i in range(n)]
        intervals = _interval_gram_schmidt(A)
        assume(intervals is not None)
        mu, r = intervals
        _, exact_mu, norms = gram_schmidt(cols)
        for i in range(n):
            for j in range(i):
                lo, hi = mu[i][j]
                assert lo <= exact_mu[i][j] * (1 << FRAC_BITS) <= hi
            lo, hi, e = r[i]
            scale = Fraction(2) ** e
            assert 0 < lo * scale <= norms[i] <= hi * scale

    @settings(max_examples=150, deadline=None)
    @given(staged_bases())
    def test_agrees_with_exact_reduction(self, case):
        assert_certifier_agrees(*case)

    def test_answers_on_swap_free_stages(self):
        """The certifier is not vacuous: on hsp-k5-shaped swap-free bases it
        answers, with huge quotients against the short column."""
        rng = random.Random(5)
        short, big = 350, 2280
        for _ in range(20):
            cols = staged_columns(6, short, big, lambda bits: rng.randrange(-(1 << bits), 1 << bits))
            certified = assert_certifier_agrees(cols, Fraction(1 << (2 * big - 1)))
            assert certified is not None
            assert max(abs(q) for _, _, q in certified[0]).bit_length() > big - short - 8

    @pytest.mark.parametrize("cols,tie", [
        ([[2, 0, 0], [1, 3, 0], [0, 0, 4]], "mu = 1/2"),
        ([[2, 0, 0], [-1, 3, 0], [0, 0, 4]], "mu = -1/2"),
        ([[2, 0, 0], [3, 3, 0], [0, 0, 4]], "mu = 3/2"),
        ([[2, 0, 0, 0], [0, 1, 1, 1]], "Lovasz equality, mu = 0"),
        ([[2, 0, 0, 0], [1, 1, 1, 0]], "Lovasz equality, mu = 1/2"),
    ])
    @pytest.mark.parametrize("scale", [1, 3 ** 1262], ids=["small", "scaled"])
    @pytest.mark.parametrize("multiple_bits", [0, 1500])
    def test_exact_ties(self, cols, tie, scale, multiple_bits):
        """Exact ties of each decision, small and scaled by an odd 2000-bit
        factor, and with a huge multiple of b_0 added to the later columns,
        so that the intervals are rounded: the certifier never decides one
        wrongly, and every threshold equal to a Gram-Schmidt norm is a kappa
        tie."""
        cols = [[x * scale for x in c] for c in cols]
        c0 = (1 << multiple_bits) + 12345 if multiple_bits else 0
        cols = cols[:1] + [[x + c0 * y for x, y in zip(c, cols[0])] for c in cols[1:]]
        _, mu, norms = gram_schmidt(cols)
        if tie.startswith("Lovasz"):
            assert norms[1] == (Fraction(3, 4) - (mu[1][0] - c0) ** 2) * norms[0]
        else:
            assert mu[1][0] - c0 == Fraction(tie.split(" = ")[1])
        for threshold in norms:
            assert_certifier_agrees(cols, threshold)

    def test_exact_small_ties_decided(self):
        """On small integers the intervals are exact, so ties are decided,
        and decided as the exact run decides them: no reduction at mu = 1/2,
        no swap at Lovasz equality, and no kappa step at r^2 = threshold."""
        assert _certify_swap_free([[2, 0, 0], [1, 3, 0]], Fraction(9)) == ([], 2)
        assert _certify_swap_free([[2, 0, 0], [-1, 3, 0]], Fraction(4)) == ([], 1)
        assert _certify_swap_free([[2, 0, 0, 0], [1, 1, 1, 0]], Fraction(2)) == ([], 2)
        assert _certify_swap_free([[2, 0, 0, 0], [0, 1, 1, 1]], Fraction(3)) == ([], 2)
        assert _certify_swap_free([[2, 0, 0], [3, 3, 0]], Fraction(3)) is None
        assert _certify_swap_free([[2, 0], [1, 1]], Fraction(3)) is None  # swaps


class TestBabai:
    def test_exact_lattice_point(self):
        B = lll(IntMatrix.from_columns([[2, 0], [1, 3]], rows=2).to_rational())
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
        lam = successive_minima(IntMatrix.identity(2).to_rational())
        assert lam == [1, 1]

    def test_minima_scaled(self):
        B = IntMatrix.from_columns([[2, 0], [0, 3]], rows=2).to_rational()
        assert successive_minima(B) == [4, 9]

    def test_enumeration_complete(self):
        B = IntMatrix.from_columns([[2, 1], [0, 2]], rows=2).to_rational()
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
