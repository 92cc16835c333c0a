import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from hslattice.experiments import random_lattice
from hslattice.lattice import (
    Lattice,
    basis_bit_complexity,
    coset_canonical,
    dual_membership,
    dual_sample_uniform,
    gaussian_grid_noise,
    integer_orthogonal,
    reciprocal_basis,
)
from hslattice.matrix import IntMatrix
from hslattice.sieve import (
    InfeasibleShift,
    CyclicFactor,
    PhaseVector,
    SieveConfig,
    SieveStats,
    Spot,
    Window,
    _balanced_split,
    _subwindow,
    _submultiset,
    _tile_index,
    assemble_cyclic,
    build_target_group,
    collimate,
    collimation_tally,
    create_qubit,
    lift_shift,
    recover_shift,
    shorten,
    sieve,
    sieve_config,
    tensor,
)


def col_lattice(cols, k):
    if not cols:
        return Lattice.trivial(k)
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))


def L8():
    return col_lattice([[8]], 1)


def mod1(values):
    """A point of (R/Z)^k as exact Fractions in [0, 1), the reference the
    integer torus is checked against."""
    return tuple(Fraction(v) % 1 for v in values)


N = 128  # modulus of the hand-built phase vectors: every multiplier below is on (1/128) Z


def nv(*coords):
    """The point mod1(coords) as numerators over N."""
    scaled = [c * N for c in mod1(coords)]
    assert all(x.denominator == 1 for x in scaled), "point off the (1/N) grid"
    return tuple(x.numerator for x in scaled)


def torus(y, modulus):
    """Numerators over the modulus back to Fractions mod 1."""
    return mod1(Fraction(c, modulus) for c in y)


def add(y, z):
    """Sum of two points mod 1, the Fraction reference for the sieve's sums."""
    return mod1(a + b for a, b in zip(y, z))


def lifted_difference(y, z):
    """y - z mod 1, lifted into (-1/2, 1/2]^k."""
    return tuple(c if 2 * c <= 1 else c - 1 for c in mod1(a - b for a, b in zip(y, z)))


def window(center, radius):
    return Window(center, int(Fraction(radius) * N), N)


def single_spot(multipliers, center=None, radius=Fraction(1, 2)):
    counts = {}
    for m in multipliers:
        counts[m] = counts.get(m, 0) + 1
    k = len(multipliers[0])
    c = center if center is not None else (0,) * k
    return PhaseVector((Spot(counts, window(c, radius)),))


class TestConfig:
    def test_example_k1_t4(self):
        cfg = sieve_config(L8(), 4)
        assert cfg.m == 3

    def test_m_floor(self):
        cfg = sieve_config(Lattice.zn(2), 1)
        assert cfg.m == 2

    def test_accuracy_forced(self):
        for t in (1, 2, 3):
            cfg = sieve_config(L8(), t)
            n, h = cfg.k * t, basis_bit_complexity(L8())
            need = cfg.k * (n + 2 * h) * 2 ** t
            assert 2 ** (cfg.k * cfg.m ** 2) > need
            assert 2 ** (cfg.k * cfg.m ** 2 + 1) >= cfg.k * (n + 2 * h) * 2 ** (t + 1)
            assert cfg.Q >= cfg.G * cfg.G

    def test_ceiling(self):
        with pytest.raises(ValueError):
            sieve_config(Lattice.zn(5), 20)

    def test_unknown_noise_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            sieve_config(L8(), 1, noise="bogus")
        for noise in ("exact", "gaussian"):
            assert sieve_config(L8(), 1, noise=noise).noise == noise


class TestCreateQubit:
    def test_zn_always_zero(self):
        rng = random.Random(0)
        cfg = sieve_config(Lattice.zn(1), 1)
        for _ in range(10):
            q = create_qubit(Lattice.zn(1), cfg, rng)
            assert set(q.spots[0].counts) == {(0,)}
            assert q.spots[0].length == 2

    def test_2z_uniform(self):
        rng = random.Random(1)
        L = col_lattice([[2]], 1)
        cfg = sieve_config(L, 1)
        counts = {0: 0, 1: 0}
        for _ in range(4000):
            q = create_qubit(L, cfg, rng)
            nonzero = [y for y in q.spots[0].counts if any(y)]
            counts[1 if nonzero else 0] += 1
        # y = 0 and y = 1/2 each with prob 1/2; chi-squared 1 dof
        chi2 = sum((c - 2000) ** 2 / 2000 for c in counts.values())
        assert chi2 < 10.83

    def test_exact_membership(self):
        rng = random.Random(2)
        L = col_lattice([[3, 1]], 2)
        cfg = sieve_config(L, 1)
        for _ in range(20):
            q = create_qubit(L, cfg, rng)
            for y in q.spots[0].counts:
                assert dual_membership(L, y, cfg.N)


class TestTensor:
    def test_identity_element(self):
        a = single_spot([nv(0), nv(0)])  # {0} twice: the |0>+|1> qubit at y=0
        b = single_spot([nv(0), nv("1/4")])
        out = tensor(a, b)
        assert out.spots[0].counts == {nv(0): 2, nv("1/4"): 2}

    def test_direct_sums(self):
        a = single_spot([nv(0), nv("1/4")])
        b = single_spot([nv(0), nv("1/8")])
        out = tensor(a, b)
        assert out.spots[0].counts == {nv(0): 1, nv("1/8"): 1, nv("1/4"): 1, nv("3/8"): 1}

    def test_lengths_multiply(self):
        a = single_spot([nv("1/16")] * 4)
        b = single_spot([nv("1/32")] * 4)
        assert tensor(a, b).spots[0].length == 16

    def test_radii_add(self):
        a = single_spot([nv(0)], radius=Fraction(1, 8))
        b = single_spot([nv(0)], radius=Fraction(1, 16))
        assert Fraction(tensor(a, b).spots[0].window.radius, N) == Fraction(3, 16)

    def test_two_by_two_rejected(self):
        two = PhaseVector(
            (Spot({nv(0): 1}, window(nv(0), Fraction(1, 2))),
             Spot({nv("1/4"): 1}, window(nv("1/4"), Fraction(1, 2)))),
        )
        with pytest.raises(ValueError):
            tensor(two, two)


class TestCollimate:
    def test_single_tile_unchanged(self):
        rng = random.Random(3)
        mults = [nv("1/64"), nv("1/128"), nv(0)]
        pv = single_spot(mults, radius=Fraction(1, 2))
        out = collimate(pv, 2, rng)
        assert sum(out.spots[0].counts.values()) == 3
        assert Fraction(out.spots[0].window.radius, N) == Fraction(1, 16)

    def test_counting_probabilities(self):
        # two occupied tiles with 3 and 1 residents: probabilities 3/4, 1/4
        mults = [nv("1/64"), nv("1/64"), nv("3/128"), nv("1/2")]
        pv = single_spot(mults, radius=Fraction(1, 2))
        _, tally = collimation_tally(pv, 1)
        occ = sorted(tally.values())
        assert occ == [1, 3]
        hits = {1: 0, 3: 0}
        for seed in range(2000):
            out = collimate(pv, 1, random.Random(seed))
            hits[out.spots[0].length] += 1
        assert abs(hits[3] / 2000 - 0.75) < 0.05

    def test_tandem_equal_lengths(self):
        # identical spot layouts (translated by the target) stay equal
        rng = random.Random(4)
        offs = nv("1/4")
        layout = [nv(0), nv("1/64"), nv("3/64"), nv("1/64")]
        spot1 = {}
        spot2 = {}
        for y in layout:
            spot1[y] = spot1.get(y, 0) + 1
            y2 = tuple((a + b) % N for a, b in zip(y, offs))
            spot2[y2] = spot2.get(y2, 0) + 1
        pv = PhaseVector(
            (Spot(spot1, window(nv(0), Fraction(1, 8))),
             Spot(spot2, window(offs, Fraction(1, 8)))),
        )
        for seed in range(30):
            out = collimate(pv, 1, random.Random(seed))
            assert out.spots[0].length == out.spots[1].length

    def test_born_micro_oracle(self):
        # total length <= 64: the sampler's analytic distribution equals the
        # Born distribution of the full equal-amplitude state, exactly
        rng = random.Random(5)
        mults = [(rng.randrange(64) * N // 64,) for _ in range(48)]
        pv = single_spot(mults)
        per_spot, tally = collimation_tally(pv, 2)
        total = sum(tally.values())
        assert total == 48
        born = {}
        for y in mults:  # flatten the amplitude vector, one basis state each
            ti = per_spot[0][y]
            born[ti] = born.get(ti, 0) + Fraction(1, total)
        simulated = {ti: Fraction(c, total) for ti, c in tally.items()}
        assert simulated == born  # total variation exactly 0


class TestShorten:
    def cfg(self):
        return sieve_config(L8(), 2)  # m = 3, k = 1: min_len 64, max_len 256

    def test_at_min_unchanged(self):
        cfg = self.cfg()
        pv = single_spot([nv("1/8")] * cfg.min_len)
        out = shorten(pv, cfg, random.Random(0))
        assert out.spots[0].length == cfg.min_len

    def test_double_max_two_equal_parts(self):
        cfg = self.cfg()
        pv = single_spot([nv("1/8")] * (2 * cfg.max_len))
        out = shorten(pv, cfg, random.Random(1))
        # recursive halving: 2*max -> max -> max/2 = 2*min
        assert out.spots[0].length == 2 * cfg.min_len

    def test_two_spot_selective(self):
        cfg = self.cfg()
        big = {nv("1/8"): cfg.max_len}
        small = {nv("1/4"): cfg.min_len}
        pv = PhaseVector(
            (Spot(dict(big), window(nv(0), Fraction(1, 2))),
             Spot(dict(small), window(nv("1/8"), Fraction(1, 2)))),
        )
        out = shorten(pv, cfg, random.Random(2))
        assert cfg.min_len <= out.spots[0].length < cfg.max_len
        assert out.spots[1].length == cfg.min_len

    def test_range_after_random_lengths(self):
        cfg = self.cfg()
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randrange(cfg.max_len, 6 * cfg.max_len)
            mults = [(rng.randrange(8) * N // 8,) for _ in range(n)]
            out = shorten(single_spot(mults), cfg, rng)
            assert cfg.min_len <= out.spots[0].length < cfg.max_len


class _BranchRng:
    """Stand-in RNG that follows one branch of the outcome tree: the i-th
    draw takes option path[i] and multiplies the branch weight by its exact
    probability.  `sample` yields each k-subset once, with weight 1/C(n, k);
    the callers only tally the drawn units, so their order does not matter."""

    def __init__(self, path):
        self.path, self.arity, self.weight = path, [], Fraction(1)

    def _pick(self, options):
        i = len(self.arity)
        if i == len(self.path):
            self.path.append(0)
        self.arity.append(len(options))
        self.weight /= len(options)
        return options[self.path[i]]

    def randrange(self, n):
        return self._pick(range(n))

    def sample(self, population, k):
        return list(self._pick(list(combinations(population, k))))


def exact_law(fn):
    """Every outcome of fn(rng) with its exact probability, by walking all
    branches of the outcome tree in odometer order."""
    law, path = {}, []
    while True:
        rng = _BranchRng(path)
        out = fn(rng)
        law[out] = law.get(out, 0) + rng.weight
        while path and path[-1] + 1 == rng.arity[len(path) - 1]:
            path.pop()
        if not path:
            return law
        path[-1] += 1


def frozen(counts):
    return tuple(sorted(counts.items()))


def hypergeometric(counts, size):
    """Law of a uniform sub-multiset of the given size (multivariate
    hypergeometric)."""
    total = sum(counts.values())
    law = {}
    for taken in product(*(range(c + 1) for c in counts.values())):
        if sum(taken) == size:
            ways = math.prod(math.comb(c, x) for c, x in zip(counts.values(), taken))
            law[frozen({y: x for y, x in zip(counts, taken) if x})] = \
                Fraction(ways, math.comb(total, size))
    return law


def halving_length_law(n, max_len):
    """Kept length after repeated halving: the part of size ceil(n/2) with
    probability ceil(n/2)/n, the other with floor(n/2)/n, until below max_len."""
    if n < max_len:
        return {n: Fraction(1)}
    law = {}
    for part in (n - n // 2, n // 2):
        for length, p in halving_length_law(part, max_len).items():
            law[length] = law.get(length, 0) + Fraction(part, n) * p
    return law


def total_variation(p, q):
    return sum(abs(p.get(x, 0) - q.get(x, 0)) for x in set(p) | set(q)) / 2


TINY_CFG = SieveConfig(k=1, t=1, m=0, G=1, Q=1, N=1)  # min_len 1, max_len 4
TINY_COUNTS = {nv(0): 3, nv("1/4"): 2, nv("1/2"): 2}


class TestExactSamplingLaw:
    def test_shorten_is_length_law_times_hypergeometric(self):
        pv = single_spot([y for y, c in TINY_COUNTS.items() for _ in range(c)])
        law = exact_law(lambda rng: frozen(shorten(pv, TINY_CFG, rng).spots[0].counts))
        expected = {}
        for length, p in halving_length_law(7, TINY_CFG.max_len).items():
            for sub, q in hypergeometric(TINY_COUNTS, length).items():
                expected[sub] = p * q
        assert sum(law.values()) == 1
        assert total_variation(law, expected) == 0

    def test_balanced_split_is_hypergeometric(self):
        law = exact_law(lambda rng: tuple(map(frozen, _balanced_split(TINY_COUNTS, rng))))
        expected = {}
        for half, q in hypergeometric(TINY_COUNTS, 3).items():
            rest = {y: c - dict(half).get(y, 0) for y, c in TINY_COUNTS.items()}
            expected[frozen({y: c for y, c in rest.items() if c}), half] = q
        assert total_variation(law, expected) == 0


multisets = st.dictionaries(st.integers(0, 15).map(lambda i: nv(Fraction(i, 16))),
                            st.integers(1, 40), min_size=1, max_size=6)


class TestSamplerProperties:
    @settings(max_examples=60, deadline=None)
    @given(multisets, st.data(), st.integers(0, 2 ** 32))
    def test_submultiset(self, counts, data, seed):
        size = data.draw(st.integers(0, sum(counts.values())))
        sub = _submultiset(counts, size, random.Random(seed))
        assert sum(sub.values()) == size
        assert all(0 < c <= counts[y] for y, c in sub.items())

    @settings(max_examples=60, deadline=None)
    @given(multisets, st.integers(0, 2), st.integers(0, 2 ** 32))
    def test_shorten(self, counts, m, seed):
        cfg = SieveConfig(k=1, t=1, m=m, G=1, Q=1, N=1)
        length = sum(counts.values())
        out = shorten(single_spot([y for y, c in counts.items() for _ in range(c)]),
                      cfg, random.Random(seed)).spots[0]
        assert all(0 < c <= counts[y] for y, c in out.counts.items())
        if length < cfg.max_len:
            assert out.counts == counts
        else:
            assert cfg.min_len <= out.length < cfg.max_len


@st.composite
def torus_windows(draw):
    """(N, k, window, point): N = 2^a b, a center and a point in (Z/N)^k, and
    a radius N / 2^e."""
    a, b, k = draw(st.integers(1, 10)), draw(st.integers(1, 40)), draw(st.integers(1, 3))
    n = 2 ** a * b
    point = st.tuples(*[st.integers(0, n - 1)] * k)
    e = draw(st.integers(0, a))
    return n, k, Window(draw(point), n >> e, n), draw(point)


def fraction_window(w):
    """The window as (Fraction center, Fraction radius), as the sieve held it
    before multipliers were numerators."""
    return torus(w.center, w.modulus), Fraction(w.radius, w.modulus)


class TestIntegerTorus:
    """The integer torus against a Fraction reference written here."""

    @settings(max_examples=300, deadline=None)
    @given(torus_windows())
    def test_contains(self, case):
        n, _, w, y = case
        center, radius = fraction_window(w)
        expect = 2 * radius >= 1 or all(abs(c) <= radius
                                        for c in lifted_difference(torus(y, n), center))
        assert w.contains(y) == expect

    @settings(max_examples=300, deadline=None)
    @given(torus_windows(), st.integers(0, 4))
    def test_tile_index(self, case, m):
        n, _, w, y = case
        tiles = 2 ** (m + 1)
        if 2 * w.radius % tiles:
            return  # tile width off the grid; the sieve's Q rules this out
        center, radius = fraction_window(w)
        width = 2 * radius / tiles
        expect = tuple(min(max(int((c + radius) / width), 0), tiles - 1)
                       for c in lifted_difference(torus(y, n), center))
        assert _tile_index(y, w, tiles) == expect

    @settings(max_examples=300, deadline=None)
    @given(torus_windows(), st.integers(0, 4), st.data())
    def test_subwindow_center(self, case, m, data):
        n, k, w, _ = case
        tiles = 2 ** (m + 1)
        if w.radius % tiles:
            with pytest.raises(ValueError):
                _subwindow(w, (0,) * k, tiles)
            return
        tile = data.draw(st.tuples(*[st.integers(0, tiles - 1)] * k))
        center, radius = fraction_window(w)
        width = 2 * radius / tiles
        offset = [-radius + (i + Fraction(1, 2)) * width for i in tile]
        expect = add(center, offset)
        sub = _subwindow(w, tile, tiles)
        assert torus(sub.center, n) == expect
        assert Fraction(sub.radius, n) == radius / tiles

    @settings(max_examples=100, deadline=None)
    @given(torus_windows(), st.integers(0, 3), st.data())
    def test_tensor_sums(self, case, e, data):
        n, k, w1, c2 = case
        w2 = Window(c2, n >> e, n)
        point = st.tuples(*[st.integers(0, n - 1)] * k)
        bag = st.dictionaries(point, st.integers(1, 5), min_size=1, max_size=5)
        u, v = data.draw(bag), data.draw(bag)
        out = tensor(PhaseVector((Spot(u, w1),)), PhaseVector((Spot(v, w2),))).spots[0]
        expect = {}
        for y, cy in u.items():
            for z, cz in v.items():
                s = add(torus(y, n), torus(z, n))
                expect[s] = expect.get(s, 0) + cy * cz
        assert {torus(y, n): c for y, c in out.counts.items()} == expect
        assert torus(out.window.center, n) == add(torus(w1.center, n), torus(w2.center, n))
        assert out.window.radius == w1.radius + w2.radius

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.data(), st.integers(0, 8), st.integers(0, 2 ** 32))
    def test_sampling_core(self, k, data, grid_exp, seed):
        L = random_lattice(k, data.draw(st.integers(0, k)), 8, random.Random(seed))
        grid = 2 ** grid_exp
        modulus = math.lcm(L.gram_det, grid)
        # the Fraction formula the sampler used before the integer core
        rng = random.Random(seed)
        coords = [Fraction(0)] * k
        if L.rank:
            a = [rng.randrange(L.gram_det) for _ in range(L.rank)]
            coords = [c + x for c, x in zip(coords, reciprocal_basis(L).mul_vec(a))]
        C = integer_orthogonal(L).to_rational()
        if C.cols:
            u = [Fraction(rng.randrange(grid), grid) for _ in range(C.cols)]
            coords = [c + x for c, x in zip(coords, C.mul_vec(u))]
        x, _, _ = dual_sample_uniform(L, grid, random.Random(seed))
        assert all(0 <= c < modulus for c in x)
        assert torus(x, modulus) == mod1(coords)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.data(), st.integers(1, 64), st.integers(1, 12),
           st.integers(1, 2 ** 40), st.integers(0, 2 ** 32))
    def test_noise_step(self, k, data, grid, factor, width, seed):
        """gaussian_grid_noise on numerators gives the grid point the
        Fraction formula gave, from the same draws, whenever the grid divides
        the modulus (both the HSP sampler and the sieve's gaussian mode)."""
        L = random_lattice(k, data.draw(st.integers(0, k)), 8, random.Random(seed))
        modulus = grid * factor
        x = data.draw(st.tuples(*[st.integers(0, modulus - 1)] * k))
        # the Fraction formula the noise step used before numerators
        rng = random.Random(seed)
        coords = [Fraction(c, modulus) for c in x]
        sigma = 1 / (Fraction(35449077018110322, 10 ** 16) * width)
        for vec, inv_norm in L.geometry.frame:
            z = Fraction(rng.gauss(0.0, 1.0)) * sigma * inv_norm
            if z:
                coords = [c + z * g for c, g in zip(coords, vec)]
        expect = [Fraction(math.floor(c * grid + Fraction(1, 2)), grid) for c in coords]
        out = gaussian_grid_noise(L, x, modulus, width, grid, random.Random(seed))
        assert all(0 <= c < grid for c in out)
        assert torus(out, grid) == mod1(expect)


class TestSieveRecursion:
    def test_base_single_spot(self):
        rng = random.Random(6)
        cfg = sieve_config(L8(), 2, check=True)
        out = sieve(0, 1, (0,), cfg, L8(), rng)
        assert len(out.spots) == 1
        assert out.spots[0].length == cfg.min_len
        assert Fraction(out.spots[0].window.radius, cfg.N) == Fraction(1, 2)

    def test_base_two_spot_equal_split(self):
        rng = random.Random(7)
        cfg = sieve_config(L8(), 2, check=True)
        out = sieve(0, 2, (cfg.N // 8,), cfg, L8(), rng)
        assert len(out.spots) == 2
        assert out.spots[0].length == cfg.min_len
        assert out.spots[1].length == cfg.min_len
        assert torus(out.spots[1].window.center, cfg.N) == mod1(["1/8"])

    def test_full_run_difference_near_target(self):
        cfg = sieve_config(L8(), 2, check=True)
        km = cfg.k * cfg.m
        for seed in range(5):
            q = sieve(km, 2, (cfg.N // 8,), cfg, L8(), random.Random(seed), SieveStats())
            diff = lifted_difference(torus(q.delta(), cfg.N), mod1(["1/8"]))
            bound = Fraction(2, 2 ** (cfg.k * cfg.m * cfg.m + 1))
            assert all(abs(c) <= bound for c in diff)

    def test_radius_telescoping_and_windows(self):
        # check=True asserts window soundness and radii at every stage
        cfg = sieve_config(L8(), 2, check=True)
        stats = SieveStats()
        sieve(cfg.k * cfg.m, 1, (0,), cfg, L8(), random.Random(8), stats)
        assert stats.qubits > 0

    def test_exact_mode_closure(self):
        cfg = sieve_config(L8(), 2)
        out = sieve(2, 1, (0,), cfg, L8(), random.Random(9))
        for y in out.spots[0].counts:
            assert dual_membership(L8(), y, cfg.N)


class TestTargetGroup:
    def test_zn_trivial(self):
        assert build_target_group(Lattice.zn(3), 2) == ()

    def test_2z(self):
        g = build_target_group(col_lattice([[2]], 1), 1)
        assert len(g) == 1
        f = g[0]
        assert f.order == 2 and f.generator == (1,) and f.kind == "finite"

    def test_trivial_z1_torsion(self):
        g = build_target_group(Lattice.trivial(1), 3)
        assert len(g) == 1
        f = g[0]
        assert f.order == 8 and f.generator in ((1,), (7,)) and f.kind == "torsion"

    def test_orders_exact_and_independent(self):
        for cols, k, t in ([[2, 0], [0, 4]], 2, 1), ([[2, 4]], 2, 1), ([], 2, 2):
            L = col_lattice(cols, k)
            g = build_target_group(L, t)
            for f in g:
                # numerators over the order, so order * g = 0; no smaller multiple is
                assert all(0 <= x < f.order for x in f.generator)
                for mult in range(1, f.order):
                    assert any(mult * x % f.order for x in f.generator)
            # joint independence: sum a_i g_i = 0 only when all a_i = 0 mod d_i,
            # summed as numerators over the lcm of the orders
            modulus = math.lcm(*(f.order for f in g))
            for combo in product(*(range(f.order) for f in g)):
                acc = [sum(a * f.generator[j] * (modulus // f.order) for a, f in zip(combo, g))
                       % modulus for j in range(k)]
                if not any(acc):
                    assert all(a == 0 for a in combo)

    def test_sizes(self):
        # |T1| = [H1:H], |T2| = 2^(t(k-l))
        import math

        L = col_lattice([[2, 4]], 2)  # index 2 inside its saturation, rank 1
        g = build_target_group(L, 2)
        finite = [f for f in g if f.kind == "finite"]
        torsion = [f for f in g if f.kind == "torsion"]
        prod_finite = math.prod(f.order for f in finite)
        prod_torsion = math.prod(f.order for f in torsion)
        assert prod_finite == 2
        assert prod_torsion == 2 ** (2 * (2 - 1))


class TestAssembleCyclic:
    def test_d2_deterministic(self):
        # gen . s = 1/2 makes the DFT a delta at c = 1; = 0 gives c = 0
        L = col_lattice([[2]], 1)
        cfg = sieve_config(L, 1)
        fac = build_target_group(L, 1)[0]
        for s, expect in (([1], 1), ([0], 0), ([2], 0)):
            c = assemble_cyclic(fac, cfg, L, s, random.Random(11))
            assert c == expect

    def test_d3_postselection_rate(self):
        # d = 3, e = 2: acceptance probability 3/4
        L = col_lattice([[3]], 1)
        cfg = sieve_config(L, 1)
        fac = build_target_group(L, 1)[0]
        assert fac.order == 3
        stats = SieveStats()
        rng = random.Random(12)
        for _ in range(120):
            assemble_cyclic(fac, cfg, L, [1], rng, stats)
        rate = stats.postselect_successes / stats.postselect_attempts
        assert abs(rate - 0.75) < 0.12

    def test_d3_outcome(self):
        L = col_lattice([[3]], 1)
        cfg = sieve_config(L, 1)
        fac = build_target_group(L, 1)[0]
        for s in ([0], [1], [2]):
            c = assemble_cyclic(fac, cfg, L, s, random.Random(13))
            # gen . s = s/3 exactly: outcome = s mod 3 deterministically
            expect = sum(g * x for g, x in zip(fac.generator, s)) % 3
            assert c == expect


class TestLiftShift:
    def test_all_zero(self):
        L = col_lattice([[4]], 1)
        g = build_target_group(L, 2)
        res = [(f, 0) for f in g]
        s = lift_shift(res, L, 2)
        assert coset_canonical(L, s) == (0,)

    def test_infeasible_box(self):
        # artificial order-8 generator with L = 4Z, t = 2: s = 3 mod 8 has no
        # representative with |s| <= 2, so the error path fires
        L = col_lattice([[4]], 1)
        fac = CyclicFactor(8, (1,), "finite")
        with pytest.raises(InfeasibleShift):
            lift_shift([(fac, 3)], L, 2)

    def test_quarter_residue(self):
        # k=1, trivial L, t=2, gen 1/4, residue 3: unique in-box solution -1
        L = Lattice.trivial(1)
        fac = CyclicFactor(4, (1,), "torsion")
        s = lift_shift([(fac, 3)], L, 2)
        assert s == (-1,)

    def test_inconsistent_congruences(self):
        L = Lattice.trivial(1)
        f1 = CyclicFactor(4, (1,), "torsion")
        f2 = CyclicFactor(2, (1,), "torsion")
        # s = 1 mod 4 forces s odd; s = 0 mod 2 forces s even
        with pytest.raises(InfeasibleShift):
            lift_shift([(f1, 1), (f2, 0)], L, 2)


class TestRecoverShift:
    def test_zero_shift(self):
        L = L8()
        cfg = sieve_config(L, 2)
        rec = recover_shift([0], L, 2, random.Random(14), cfg=cfg)
        assert rec is not None and coset_canonical(L, rec) == (0,)

    def test_k1_planted(self):
        L = L8()
        cfg = sieve_config(L, 2, shift_bound=3)
        wins = 0
        for i in range(10):
            rec = recover_shift([3], L, 2, random.Random(100 + i), cfg=cfg)
            if rec is not None and coset_canonical(L, [rec[0] - 3]) == (0,):
                wins += 1
        assert wins >= 5

    def test_k2_planted(self):
        L = col_lattice([[4, 0], [0, 4]], 2)
        cfg = sieve_config(L, 2)
        rng = random.Random(15)
        wins = 0
        for i in range(6):
            s = [rng.randrange(-2, 3) for _ in range(2)]
            rec = recover_shift(s, L, 2, random.Random(200 + i), cfg=cfg)
            if rec is not None and all(
                c == 0 for c in coset_canonical(L, [a - b for a, b in zip(rec, s)])
            ):
                wins += 1
        assert wins >= 3

    def test_deficient_rank_interior_shift(self):
        # trivial lattice: pure torsion recovery; m override keeps it small
        L = Lattice.trivial(1)
        cfg = sieve_config(L, 2, m=2)
        wins = 0
        for i in range(6):
            rec = recover_shift([1], L, 2, random.Random(300 + i), cfg=cfg)
            wins += rec == (1,)
        assert wins >= 4

    def test_gaussian_mode_smoke(self):
        # probing mode only: multipliers are near H^# but not in it
        L = L8()
        cfg = sieve_config(L, 1, m=2, noise="gaussian")
        rec = recover_shift([1], L, 1, random.Random(16), cfg=cfg)
        assert rec is None or len(rec) == 1

    def test_work_scaling_probe(self):
        # qubit counts across m in {2,3,4} at k=1 fit c * 2^(alpha m), alpha <= 3.5
        import math

        L = L8()
        counts = []
        for m in (2, 3, 4):
            cfg = sieve_config(L, 2, m=m, shift_bound=3)
            tot = 0
            for i in range(3):
                stats = SieveStats()
                sieve(cfg.k * cfg.m, 2, (cfg.N // 8,), cfg, L, random.Random(400 + i), stats)
                tot += stats.qubits
            counts.append(tot / 3)
        alpha = (math.log2(counts[2]) - math.log2(counts[0])) / 2
        assert alpha <= 3.5
