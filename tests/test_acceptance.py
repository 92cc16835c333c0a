"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred."""

import math
import random
import time
from fractions import Fraction
from itertools import product

from hslattice.alg_a import end_to_end, recover_colattice, sample_fourier_point, schedule
from hslattice.experiments import random_lattice, trial_rng
from hslattice.lattice import (
    Lattice,
    basis_bit_complexity,
    coset_canonical,
    dual_membership,
    dual_sample_uniform,
)
from hslattice.lll import lll
from hslattice.matrix import IntMatrix, RatMatrix, hnf, snf, snf_rational
from hslattice.oracles import (
    BrickOracle,
    RationalOracle,
    ShiftPairOracle,
    SparseSimonOracle,
    SparseVec,
)
from hslattice.rationals import legendre_reconstruct, partial_fractions
from hslattice.sieve import SieveStats, recover_shift, sieve, sieve_config

from verify import (
    contains,
    is_size_reduced,
    reference_tally,
    satisfies_lovasz,
    successive_minima,
    zn,
)


def col_lattice(cols, k):
    if not cols:
        return Lattice.trivial(k)
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))


def report(n, ok, detail):
    line = f"ACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_01_partial_fractions():
    t0 = time.monotonic()
    form = partial_fractions(Fraction(1, 360))
    ok = (form.integer_part == -2
          and form.terms == ((2, 1, 1), (2, 3, 1), (3, 1, 2), (3, 2, 1), (5, 1, 3)))
    napprox, abbrev = form.abbreviated()
    ok = ok and napprox == -2 and abbrev == ((2, 3, 5), (3, 2, 7), (5, 1, 3))
    rng = random.Random(101)
    roundtrips = 0
    for _ in range(1000):
        x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
        roundtrips += partial_fractions(x).value() == x
    elapsed = time.monotonic() - t0
    ok = ok and roundtrips == 1000 and elapsed < 5.0
    report(1, ok, f"pf(1/360) exact both forms; {roundtrips}/1000 round-trips; {elapsed:.2f}s")


def test_02_rational_snf():
    D, V, W = snf_rational(RatMatrix.from_rows([[Fraction(1, 3), Fraction(3, 4)]]))
    ok = D[0, 0] == Fraction(1, 12) and D[0, 1] == 0
    report(2, ok, f"snf_rational([1/3, 3/4]) first invariant factor = {D[0, 0]}")


def test_03_hnf_snf_suite():
    t0 = time.monotonic()
    rng = random.Random(103)
    checked = 0
    for _ in range(500):
        k = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        M = IntMatrix.from_rows(
            [[rng.randrange(-256, 257) for _ in range(n)] for _ in range(k)]
        )
        H, U = hnf(M)
        assert (M @ U).data == H.data and abs(U.det()) == 1
        # canonicity under a random unimodular recombination
        U2 = _random_unimodular(rng, n)
        H2, _ = hnf(M @ U2)
        assert H2.data == H.data
        D, V, W = snf(M)
        assert (V @ M @ W).data == D.data
        assert abs(V.det()) == 1 and abs(W.det()) == 1
        diag = [D[i, i] for i in range(min(k, n))]
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 500 and elapsed < 30.0
    report(3, ok, f"{checked}/500 matrices: HNF canonical, SNF chain, unimodular; {elapsed:.1f}s")


def _random_unimodular(rng, n, steps=10):
    u = [list(row) for row in IntMatrix.identity(n).data]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-3, 4)
        for r in range(n):
            u[r][j] += c * u[r][i]
    return IntMatrix.from_rows(u)


def test_04_lll_suite():
    t0 = time.monotonic()
    rng = random.Random(104)
    checked = 0
    for _ in range(200):
        k = rng.randrange(1, 5)
        while True:
            M = IntMatrix.from_rows(
                [[rng.randrange(-64, 65) for _ in range(k)] for _ in range(k)]
            )
            if M.det() != 0:
                break
        B = M.to_rational()
        out = lll(B)
        assert is_size_reduced(out)
        assert satisfies_lovasz(out)
        Ha, _ = hnf(M)
        Hb, _ = hnf(out.to_integer())
        assert Ha.data == Hb.data
        lam = successive_minima(B)
        for j in range(k):
            bj_sq = sum(x * x for x in out.column(j))
            assert bj_sq <= Fraction(4 ** (k - 1)) * lam[j]
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 200 and elapsed < 60.0
    report(4, ok, f"{checked}/200 bases: reduced, same lattice, within 2^(k-1) of minima; {elapsed:.1f}s")


def test_05_legendre():
    rng = random.Random(105)
    hits = 0
    for _ in range(1000):
        b = rng.randrange(2, 1 << 16)
        a = rng.randrange(1, b)
        while math.gcd(a, b) != 1:
            a = rng.randrange(1, b)
        den = 8 * b * b
        eps = Fraction(rng.randrange(-den // (2 * b * b) + 1, den // (2 * b * b)), den)
        res = legendre_reconstruct(Fraction(a, b) + eps, b)
        hits += res.verified and res.value == Fraction(a, b)
    report(5, hits == 1000, f"{hits}/1000 exact reconstructions")


def test_06_hiding_properties():
    # brick
    L = col_lattice([[7, 1]], 2)
    f = BrickOracle(L)
    pts = list(product(range(-5, 6), repeat=2))
    tokens = {p: f.token(p) for p in pts}
    brick_ok = all(
        (tokens[x] == tokens[y]) == contains(L, [a - b for a, b in zip(x, y)])
        for x in pts for y in pts
    )
    # rational, accepted = {5}
    g = RationalOracle({5})
    probes = [Fraction(n, 20) for n in range(-30, 31)]
    rational_ok = all(
        (g.token(x) == g.token(y)) == (((x - y) * 5).denominator == 1)
        for x in probes for y in probes
    )
    rational_ok = rational_ok and g.evaluate(Fraction(1, 360)) == g.evaluate(
        Fraction(1, 360) + Fraction(1, 5))
    # sparse Simon, accepted = {0, 2, 4}
    h = SparseSimonOracle({0, 2, 4})
    universe = [SparseVec.make([i for i in range(6) if mask >> i & 1]) for mask in range(64)]
    simon_ok = all(
        (h.token(x) == h.token(y)) == all(i in {0, 2, 4} for i in (x + y).indices)
        for x in universe for y in universe
    )
    # shift pair on a 9x9 box
    L2 = col_lattice([[3, 0], [0, 3]], 2)
    s = [1, 2]
    sp = ShiftPairOracle(L2, s)
    box = list(product(range(-4, 5), repeat=2))
    shift_ok = all(sp.token(x, 1) == sp.token([a - b for a, b in zip(x, s)], 0) for x in box)
    ok = brick_ok and rational_ok and simon_ok and shift_ok
    report(6, ok, f"brick={brick_ok} rational={rational_ok} sparse={simon_ok} shift={shift_ok}")


def test_07_sampler_statistics():
    rng = random.Random(107)
    results = []
    for trial in range(5):
        k = rng.randrange(1, 5)
        L = random_lattice(k, rng.randrange(0, k + 1), 16, rng)
        p = schedule(max(1, basis_bit_complexity(L)), k)
        thresh_sq = k * (Fraction(1, p.S) + Fraction(1, 2 * p.Q)) ** 2
        # y1 is over Q and y0 over lcm(Delta, Q): compare over the latter.
        modulus = math.lcm(L.gram_det, p.Q)
        step = modulus // p.Q
        members = 0
        close = 0
        draws = 10000
        for _ in range(draws):
            sam = sample_fourier_point(L, p, rng, debug=True)
            members += dual_membership(L, sam.true_y0, modulus)
            diff = [(a * step - b) % modulus for a, b in zip(sam.y1, sam.true_y0)]
            norm_sq = Fraction(sum((d - modulus if 2 * d > modulus else d) ** 2 for d in diff),
                               modulus ** 2)
            close += norm_sq <= thresh_sq
        rate = close / draws
        results.append((members == draws, rate))
    ok = all(m for m, _ in results) and all(r >= 0.70 for _, r in results)
    report(7, ok, "membership 100%x5; noise rates " + ", ".join(f"{r:.3f}" for _, r in results))


def test_08_alg_a_end_to_end():
    t0 = time.monotonic()
    details = []
    ok = True
    for k in range(1, 6):
        wins = 0
        trials = 100
        for i in range(trials):
            rng = trial_rng(108 + k, i)
            rank = rng.randrange(0, k + 1)
            sec = random_lattice(k, rank, 64, rng)
            p = schedule(max(1, basis_bit_complexity(sec)), k, retries=8)
            wins += end_to_end(sec, p, rng) == sec
        details.append(f"k={k}:{wins}%")
        ok = ok and wins >= 70
    # noiseless debug inputs on generic samples recover H1 always
    generic_wins = generic_total = 0
    rng = random.Random(1088)
    while generic_total < 40:
        k = rng.randrange(1, 6)
        sec = random_lattice(k, rng.randrange(0, k + 1), 64, rng)
        p = schedule(max(1, basis_bit_complexity(sec)), k)
        y0, _, u = dual_sample_uniform(sec, p.Q, rng)
        if any(math.gcd(c, p.Q) != 1 for c in u):
            continue  # torus part not generic: some u_i / Q has a smaller denominator
        generic_total += 1
        h1, _ = recover_colattice(y0, math.lcm(sec.gram_det, p.Q), p)
        from hslattice.lattice import saturation

        generic_wins += h1 == saturation(sec)
    elapsed = time.monotonic() - t0
    ok = ok and generic_wins == generic_total and elapsed < 600
    report(8, ok, " ".join(details)
           + f"; noiseless generic {generic_wins}/{generic_total}; {elapsed:.0f}s")


def test_09_finite_stage():
    from hslattice.alg_a import finite_stage

    rng = random.Random(109)
    wins = 0
    trials = 200
    for i in range(trials):
        trng = trial_rng(109, i)
        ell = trng.randrange(1, 4)
        while True:
            P = IntMatrix.from_rows(
                [[trng.randrange(-4, 5) for _ in range(ell)] for _ in range(ell)]
            )
            d = abs(P.det())
            if 1 <= d <= 24:
                break
        sec = Lattice.from_generators(P)
        h1 = zn(ell)
        out = finite_stage(sec, h1, trng)
        wins += out == sec
    # brute-force dual-group enumeration agrees with the sampler's support
    P = IntMatrix.from_rows([[2, 1], [0, 3]])
    sec = Lattice.from_generators(P)
    index = abs(P.det())
    pinv_t = P.to_rational().inverse().transpose()

    def mod1(values):
        return tuple(Fraction(v) % 1 for v in values)

    def member(y):
        m = math.lcm(*(c.denominator for c in y))
        return dual_membership(sec, [c.numerator * (m // c.denominator) for c in y], m)

    full = {
        mod1(pinv_t.mul_vec(a))
        for a in product(range(index), repeat=2)
    }
    sampled = {
        mod1(pinv_t.mul_vec([rng.randrange(index) for _ in range(2)]))
        for _ in range(2000)
    }
    support_ok = sampled == full and all(member(y) for y in full)
    ok = wins >= 150 and support_ok
    report(9, ok, f"{wins}/200 recovered; dual support match={support_ok}")


def test_10_sieve_micro_oracle():
    from hslattice.sieve import PhaseVector, Spot

    rng = random.Random(110)
    checked = 0
    for _ in range(50):
        k = rng.randrange(1, 3)
        total = rng.randrange(2, 65)
        # multipliers on (1/64) Z^k, as numerators over N = 64
        mults = [tuple(rng.randrange(64) for _ in range(k)) for _ in range(total)]
        counts = {}
        for y in mults:
            counts[y] = counts.get(y, 0) + 1
        pv = PhaseVector((Spot(counts, (0,) * k),))
        per_spot, tally = reference_tally(pv, rng.randrange(1, 3), 32, 64)
        born = {}
        for y in mults:
            ti = per_spot[0][y]
            born[ti] = born.get(ti, 0) + Fraction(1, total)
        simulated = {ti: Fraction(c, total) for ti, c in tally.items()}
        assert simulated == born
        checked += 1
    report(10, checked == 50, f"{checked}/50 phase vectors: exact Born equality (TV = 0)")


def test_11_sieve_end_to_end():
    t0 = time.monotonic()
    # k = 1: L = 8Z, t = 2 (planted s = 3 per the published example, box 3)
    L1 = col_lattice([[8]], 1)
    cfg1 = sieve_config(L1, 2, shift_bound=3, check=True)
    wins1 = 0
    for i in range(100):
        rec = recover_shift([3], cfg1, trial_rng(111, i))
        if rec is not None and coset_canonical(L1, [rec[0] - 3]) == (0,):
            wins1 += 1
    # k = 2: L = diag(4, 4), t = 2, random shifts
    L2 = col_lattice([[4, 0], [0, 4]], 2)
    cfg2 = sieve_config(L2, 2, check=True)
    wins2 = 0
    for i in range(100):
        rng = trial_rng(112, i)
        s = [rng.randrange(-2, 3) for _ in range(2)]
        rec = recover_shift(s, cfg2, rng)
        if rec is not None and all(
            c == 0 for c in coset_canonical(L2, [a - b for a, b in zip(rec, s)])
        ):
            wins2 += 1
    elapsed = time.monotonic() - t0
    ok = wins1 >= 50 and wins2 >= 50 and elapsed < 900
    report(11, ok, f"k=1: {wins1}/100, k=2: {wins2}/100 (window+length asserted); {elapsed:.0f}s")


def test_12_scaling_probe():
    L = col_lattice([[8]], 1)
    means = []
    for m in (2, 3, 4):
        cfg = sieve_config(L, 2, m=m, shift_bound=3)
        target = (cfg.N // 8,)  # the point 1/8, as numerators over N
        tot = 0
        runs = 5
        for i in range(runs):
            stats = SieveStats()
            sieve(cfg.k * cfg.m, 2, target, cfg, trial_rng(112 + m, i), stats)
            tot += stats.qubits
        means.append(tot / runs)
    alpha = (math.log2(means[2]) - math.log2(means[0])) / 2
    report(12, alpha <= 3.5,
           f"qubits m=2,3,4: {means} -> alpha = {alpha:.2f} (<= 3.5)")
