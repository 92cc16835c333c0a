import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from hslattice.experiments import random_lattice
from hslattice.lattice import (
    Lattice,
    basis_bit_complexity,
    coset_canonical,
    dual_membership,
    dual_sample_uniform,
    gaussian_grid_noise,
    reciprocal_basis,
)
from hslattice.matrix import IntMatrix
from hslattice import sieve as sieve_module
from hslattice.sieve import (
    ORDER_CEILING,
    PhaseVector,
    SieveBudgetExceeded,
    SieveConfig,
    SieveStats,
    Spot,
    _balanced_split,
    _in_window,
    _submultiset,
    _tile_center,
    _tile_index,
    assemble_cyclic,
    build_target_group,
    collimate,
    create_qubit,
    lift_shift,
    recover_shift,
    shorten,
    sieve,
    sieve_config,
    tensor,
)

from verify import contains, reference_grid_noise, reference_tally, reference_tensor, zn


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


def single_spot(multipliers, center=None):
    counts = {}
    for m in multipliers:
        counts[m] = counts.get(m, 0) + 1
    k = len(multipliers[0])
    c = center if center is not None else (0,) * k
    return PhaseVector((Spot(counts, c),))


def qubit(y):
    """The one-qubit phase vector {0, y} of a point create_qubit returns."""
    zero = (0,) * len(y)
    counts = {zero: 1}
    counts[y] = counts.get(y, 0) + 1
    return PhaseVector((Spot(counts, zero),))


def whole(k, n):
    """The box of every lifted offset mod n on k axes: `tensor` over it is
    the full product."""
    return ((-((n - 1) // 2), n // 2),) * k


def joined(a, b, n):
    """The full product a (x) b, checked against `tensor` over the whole box."""
    full = reference_tensor(a, b, n)
    assert tensor(a, b, n, whole(len(a.spots[0].center), n)) == full
    return full


UNIT = single_spot([nv(0)])  # {0: 1}: joining it leaves a vector as it is


def hand_cfg(m):
    """A config over the hand-built modulus N, for collimating hand-built
    vectors: the joined radius at stage j is N >> ((j-1) m)."""
    return SieveConfig(lattice=zn(1), t=1, m=m, G=1, Q=1, N=N)


class TestConfig:
    def test_example_k1_t4(self):
        cfg = sieve_config(L8(), 4)
        assert cfg.m == 3

    def test_m_floor(self):
        cfg = sieve_config(zn(2), 1)
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
            sieve_config(zn(5), 20)

    def test_order_ceiling(self):
        """The largest cyclic order of the target group is bounded: an
        invariant factor of the basis, or 2^t' when the rank is below k
        (2^(t+1) for the trivial lattice in Z^1 and the default box)."""
        sieve_config(col_lattice([[ORDER_CEILING]], 1), 1)
        sieve_config(Lattice.trivial(1), ORDER_CEILING.bit_length() - 2)
        # row (1, -2) of V: 2^t' > 2 * 3 * 1 gives order 8
        cfg = sieve_config(col_lattice([[2, 1]], 2), 1)
        assert [f.order for f in build_target_group(cfg.lattice, cfg.shift_bound)] == [8]
        for L, t in ((col_lattice([[ORDER_CEILING + 1]], 1), 1),
                     (Lattice.trivial(1), ORDER_CEILING.bit_length() - 1),
                     (col_lattice([[1, 0]], 2), ORDER_CEILING.bit_length())):
            with pytest.raises(ValueError, match="ceiling"):
                sieve_config(L, t)

    def test_torsion_orders_divide_modulus(self):
        """A box wide enough to need 2^t' above 2^(2 km^2 + 2) still gets a
        grid Q that 2^t' divides: here km = 1 and t' = 9."""
        cfg = sieve_config(Lattice.trivial(1), 1, m=1, shift_bound=200)
        (factor,) = build_target_group(cfg.lattice, cfg.shift_bound)
        assert factor.order == 2 ** 9 and cfg.N % factor.order == 0

    def test_inverse_norm_underflow_rejected(self):
        """A basis whose Gram-Schmidt inverse norm underflows a float is
        rejected by sieve_config in both noise modes, before any sieve runs."""
        L = col_lattice([[10 ** 400, 1]], 2)
        for noise in ("exact", "gaussian"):
            with pytest.raises(ValueError, match="underflows"):
                sieve_config(L, 1, noise=noise)

    def test_stage_radii_tile(self):
        """Each joined radius 2 stage_radius(j-1) splits into 2^(m+1) whole
        tiles of diameter 2 stage_radius(j), down to the last stage."""
        for L, t, m in ((L8(), 2, None), (Lattice.trivial(2), 1, None),
                        (col_lattice([[3, 1]], 2), 1, 1), (Lattice.trivial(1), 1, 1)):
            cfg = sieve_config(L, t, m=m)
            for j in range(1, cfg.k * cfg.m + 1):
                assert 2 * cfg.stage_radius(j - 1) == 2 ** (cfg.m + 1) * cfg.stage_radius(j) > 0

    def test_unknown_noise_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            sieve_config(L8(), 1, noise="bogus")
        for noise in ("exact", "gaussian"):
            assert sieve_config(L8(), 1, noise=noise).noise == noise


class TestCreateQubit:
    def test_zn_always_zero(self):
        rng = random.Random(0)
        cfg = sieve_config(zn(1), 1)
        for _ in range(10):
            q = qubit(create_qubit(cfg, rng))
            assert set(q.spots[0].counts) == {(0,)}
            assert q.spots[0].length == 2

    def test_2z_uniform(self):
        rng = random.Random(1)
        L = col_lattice([[2]], 1)
        cfg = sieve_config(L, 1)
        counts = {0: 0, 1: 0}
        for _ in range(4000):
            q = qubit(create_qubit(cfg, rng))
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
            q = qubit(create_qubit(cfg, rng))
            for y in q.spots[0].counts:
                assert dual_membership(L, y, cfg.N)


class TestTensor:
    def test_identity_element(self):
        a = single_spot([nv(0), nv(0)])  # {0} twice: the |0>+|1> qubit at y=0
        b = single_spot([nv(0), nv("1/4")])
        out = joined(a, b, N)
        assert out.spots[0].counts == {nv(0): 2, nv("1/4"): 2}

    def test_direct_sums(self):
        a = single_spot([nv(0), nv("1/4")])
        b = single_spot([nv(0), nv("1/8")])
        out = joined(a, b, N)
        assert out.spots[0].counts == {nv(0): 1, nv("1/8"): 1, nv("1/4"): 1, nv("3/8"): 1}

    def test_lengths_multiply(self):
        a = single_spot([nv("1/16")] * 4)
        b = single_spot([nv("1/32")] * 4)
        assert joined(a, b, N).spots[0].length == 16

    def test_two_by_two_rejected(self):
        two = PhaseVector(
            (Spot({nv(0): 1}, nv(0)),
             Spot({nv("1/4"): 1}, nv("1/4"))),
        )
        with pytest.raises(ValueError):
            tensor(two, two, N, whole(1, N))


@st.composite
def collimation_cases(draw):
    """(cfg, j, a, b): a one- or two-spot a and a one-spot b, each spot of
    at most three distinct multipliers on k <= 3 axes mod N, N a power of
    two or not, window centers anywhere (so windows wrap), and a stage j
    whose tiles are at least one step wide (later stages clamp most sums
    into the end tiles)."""
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    n = draw(st.one_of(st.integers(m + 1, 7).map(lambda e: 2 ** e),
                       st.integers(2 ** (m + 1), 150)))
    cfg = SieveConfig(lattice=zn(k), t=1, m=m, G=1, Q=1, N=n)
    j = draw(st.sampled_from([j for j in range(1, 5)
                              if 4 * cfg.stage_radius(j - 1) >= 2 ** (m + 1)]))
    point = st.tuples(*[st.integers(0, n - 1)] * k)
    bag = st.dictionaries(point, st.integers(1, 3), min_size=1, max_size=3)
    spots = tuple(Spot(draw(bag), draw(point)) for _ in range(draw(st.integers(1, 2))))
    return cfg, j, PhaseVector(spots), PhaseVector((Spot(draw(bag), draw(point)),))


# Stage 1 at N = 8, m = 1: offsets -3..-1 fall in tile 1, 0..3 in tile 2 and
# N/2 = 4 in tile 3.  Tile 1 runs from offset -4, which is 4 mod 8, so
# unless its range is clipped to the lift range it takes the sum 4 as well.
ALIASING_CASE = (SieveConfig(lattice=zn(1), t=1, m=1, G=1, Q=1, N=8), 1,
                 PhaseVector((Spot({(0,): 1}, (0,)),)),
                 PhaseVector((Spot({(4,): 1, (7,): 2}, (0,)),)))


class TestCollimate:
    @settings(max_examples=80, deadline=None)
    @given(collimation_cases())
    @example(ALIASING_CASE)
    def test_law_is_the_tally(self, case):
        """For every unit r of the product, collimate with randrange
        returning r keeps the reference product's multipliers in one tile,
        about that tile's center, and each tile comes from tally[t] of the
        total units: the outcome law is tally / total exactly."""
        cfg, j, a, b = case
        r, tiles = 2 * cfg.stage_radius(j - 1), 2 ** (cfg.m + 1)
        full = reference_tensor(a, b, cfg.N)
        per_spot, tally = reference_tally(full, cfg.m, r, cfg.N)
        total = sum(tally.values())
        expected = {}
        for t, c in tally.items():
            key = tuple((frozen({y: n for y, n in spot.counts.items() if where[y] == t}),
                         _tile_center(t, spot.center, r, cfg.N, tiles))
                        for spot, where in zip(full.spots, per_spot))
            expected[key] = expected.get(key, 0) + Fraction(c, total)
        law = exact_law(lambda rng: tuple((frozen(spot.counts), spot.center)
                                          for spot in collimate(a, b, j, cfg, rng).spots))
        assert law == expected

    def test_single_tile_unchanged(self):
        # stage 1's joined window is the whole torus; m = 2 tiles it into
        # quarters, and [0, 1/4) holds all three, about its center 1/8
        rng = random.Random(3)
        mults = [nv("1/64"), nv("1/128"), nv(0)]
        pv = single_spot(mults)
        cfg = hand_cfg(2)
        out = collimate(pv, UNIT, 1, cfg, rng)
        assert sum(out.spots[0].counts.values()) == 3
        assert out.spots[0].center == nv("1/8")
        assert all(_in_window(y, nv("1/8"), cfg.stage_radius(1), N) for y in mults)

    def test_counting_probabilities(self):
        # two occupied tiles with 3 and 1 residents: probabilities 3/4, 1/4
        mults = [nv("1/64"), nv("1/64"), nv("3/128"), nv("1/2")]
        pv = single_spot(mults)
        _, tally = reference_tally(pv, 1, N // 2, N)
        occ = sorted(tally.values())
        assert occ == [1, 3]
        hits = {1: 0, 3: 0}
        for seed in range(2000):
            out = collimate(pv, UNIT, 2, hand_cfg(1), random.Random(seed))  # radius 1/2
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
            (Spot(spot1, nv(0)),
             Spot(spot2, offs)),
        )
        for seed in range(30):
            out = collimate(pv, UNIT, 4, hand_cfg(1), random.Random(seed))  # radius 1/8
            assert out.spots[0].length == out.spots[1].length

    def test_born_micro_oracle(self):
        # total length <= 64: the sampler's analytic distribution equals the
        # Born distribution of the full equal-amplitude state, exactly
        rng = random.Random(5)
        mults = [(rng.randrange(64) * N // 64,) for _ in range(48)]
        pv = single_spot(mults)
        per_spot, tally = reference_tally(pv, 2, N // 2, N)
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
            (Spot(dict(big), nv(0)),
             Spot(dict(small), nv("1/8"))),
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


TINY_CFG = SieveConfig(lattice=zn(1), t=1, m=0, G=1, Q=1, N=1)  # min_len 1, max_len 4
TINY_COUNTS = {nv(0): 3, nv("1/4"): 2, nv("1/2"): 2}
ONE_BUCKET = {nv(0): 7}
law_counts = pytest.mark.parametrize("counts", [TINY_COUNTS, ONE_BUCKET],
                                     ids=["three-buckets", "one-bucket"])


class TestExactSamplingLaw:
    @law_counts
    def test_shorten_is_length_law_times_hypergeometric(self, counts):
        pv = single_spot([y for y, c in counts.items() for _ in range(c)])
        law = exact_law(lambda rng: frozen(shorten(pv, TINY_CFG, rng).spots[0].counts))
        expected = {}
        for length, p in halving_length_law(sum(counts.values()), TINY_CFG.max_len).items():
            for sub, q in hypergeometric(counts, length).items():
                expected[sub] = p * q
        assert sum(law.values()) == 1
        assert total_variation(law, expected) == 0

    @law_counts
    def test_balanced_split_is_hypergeometric(self, counts):
        law = exact_law(lambda rng: tuple(map(frozen, _balanced_split(counts, rng))))
        expected = {}
        for half, q in hypergeometric(counts, sum(counts.values()) // 2).items():
            rest = {y: c - dict(half).get(y, 0) for y, c in counts.items()}
            expected[frozen({y: c for y, c in rest.items() if c}), half] = q
        assert total_variation(law, expected) == 0


class _RaisingRng:
    """Stand-in RNG whose every method raises, so any draw fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} was called")


class _LengthOnlyRng(_RaisingRng):
    """Lets `shorten` draw its kept length by `randrange`; any other draw raises."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def randrange(self, n):
        return self._rng.randrange(n)


class TestOneBucketSubmultiset:
    def test_one_bucket_draws_nothing(self):
        y = nv("1/4")
        assert _submultiset({y: 9}, 0, _RaisingRng()) == {}
        assert _submultiset({y: 9}, 4, _RaisingRng()) == {y: 4}
        assert _submultiset({y: 9}, 9, _RaisingRng()) == {y: 9}
        assert _balanced_split({y: 9}, _RaisingRng()) == ({y: 5}, {y: 4})
        assert _balanced_split({y: 1}, _RaisingRng()) == ({y: 1}, {})
        cfg = sieve_config(L8(), 2)  # min_len 64, max_len 256
        for seed in range(5):
            pv = single_spot([y] * (3 * cfg.max_len + seed))
            out = shorten(pv, cfg, _LengthOnlyRng(seed)).spots[0]
            assert cfg.min_len <= out.length < cfg.max_len
            assert out.counts == {y: out.length}

    @pytest.mark.parametrize("counts", [{nv(0): 5}, {nv(0): 3, nv("1/2"): 2}],
                             ids=["one-bucket", "two-buckets"])
    @pytest.mark.parametrize("size", [-1, 6])
    def test_size_out_of_range_raises(self, counts, size):
        with pytest.raises(ValueError):
            _submultiset(counts, size, random.Random(0))


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
        cfg = SieveConfig(lattice=zn(1), t=1, m=m, G=1, Q=1, N=1)
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
    """(N, k, center, radius, point): N = 2^a b, a center and a point in
    (Z/N)^k, and a radius N / 2^e."""
    a, b, k = draw(st.integers(1, 10)), draw(st.integers(1, 40)), draw(st.integers(1, 3))
    n = 2 ** a * b
    point = st.tuples(*[st.integers(0, n - 1)] * k)
    e = draw(st.integers(0, a))
    return n, k, draw(point), n >> e, draw(point)


def fraction_window(center, r, n):
    """The window as (Fraction center, Fraction radius), as the sieve held it
    before multipliers were numerators."""
    return torus(center, n), Fraction(r, n)


class TestIntegerTorus:
    """The integer torus against a Fraction reference written here."""

    @settings(max_examples=300, deadline=None)
    @given(torus_windows())
    def test_contains(self, case):
        n, _, c, r, y = case
        center, radius = fraction_window(c, r, n)
        expect = 2 * radius >= 1 or all(abs(d) <= radius
                                        for d in lifted_difference(torus(y, n), center))
        assert _in_window(y, c, r, n) == expect

    @settings(max_examples=300, deadline=None)
    @given(torus_windows(), st.integers(0, 4))
    def test_tile_index(self, case, m):
        n, _, c, r, y = case
        tiles = 2 ** (m + 1)
        if 2 * r % tiles:
            return  # tile width off the grid; the sieve's Q rules this out
        center, radius = fraction_window(c, r, n)
        width = 2 * radius / tiles
        expect = tuple(min(max(int((c + radius) / width), 0), tiles - 1)
                       for c in lifted_difference(torus(y, n), center))
        assert _tile_index(y, c, r, n, tiles) == expect

    @settings(max_examples=300, deadline=None)
    @given(torus_windows(), st.integers(0, 4), st.data())
    def test_tile_center(self, case, m, data):
        n, k, c, r, _ = case
        tiles = 2 ** (m + 1)
        if r % tiles:
            return  # sub-window radius off the grid; sieve_config rules this out
        tile = data.draw(st.tuples(*[st.integers(0, tiles - 1)] * k))
        center, radius = fraction_window(c, r, n)
        width = 2 * radius / tiles
        offset = [-radius + (i + Fraction(1, 2)) * width for i in tile]
        expect = add(center, offset)
        assert torus(_tile_center(tile, c, r, n, tiles), n) == expect

    @settings(max_examples=100, deadline=None)
    @given(torus_windows(), st.data())
    def test_tensor_sums(self, case, data):
        n, k, c1, _, c2 = case
        point = st.tuples(*[st.integers(0, n - 1)] * k)
        bag = st.dictionaries(point, st.integers(1, 5), min_size=1, max_size=5)
        u, v = data.draw(bag), data.draw(bag)
        out = tensor(PhaseVector((Spot(u, c1),)), PhaseVector((Spot(v, c2),)), n,
                     whole(k, n)).spots[0]
        expect = {}
        for y, cy in u.items():
            for z, cz in v.items():
                s = add(torus(y, n), torus(z, n))
                expect[s] = expect.get(s, 0) + cy * cz
        assert {torus(y, n): c for y, c in out.counts.items()} == expect
        assert torus(out.center, n) == add(torus(c1, n), torus(c2, n))

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
        C = L.orthogonal.to_rational()
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
        expect = reference_grid_noise(L, x, modulus, width, grid, random.Random(seed))
        out = gaussian_grid_noise(L, x, modulus, width, grid, random.Random(seed))
        assert all(0 <= c < grid for c in out)
        assert out == expect

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 13100), st.integers(1, 6600), st.booleans(),
           st.sampled_from(["lcm", "any"]), st.integers(0, 2 ** 32))
    @example(5, 13060, 6530, True, "lcm", 0)
    def test_noise_step_hsp_sizes(self, k, grid_bits, width_bits, powers_of_two, modulus_kind,
                                  seed):
        """Up to the sizes of hsp-k5 (grid Q = 2^13060, width S = 2^6530)
        and beyond, the noise step gives the Fraction formula's grid point
        and leaves the RNG where the formula leaves it, whether the grid
        divides the modulus (lcm(Delta, grid), as the HSP sampler passes it)
        or not (any modulus, any grid)."""
        rng = random.Random(seed)
        L = random_lattice(k, rng.randrange(k + 1), 64, rng)
        if powers_of_two:
            grid, width = 1 << grid_bits, 1 << width_bits
        else:
            grid, width = rng.getrandbits(grid_bits) + 1, rng.getrandbits(width_bits) + 1
        if modulus_kind == "lcm":
            modulus = math.lcm(L.gram_det, grid)
        else:
            modulus = rng.getrandbits(13200) + 1
        x = [rng.randrange(modulus) for _ in range(k)]
        ref_rng, rng = random.Random(seed), random.Random(seed)
        expect = reference_grid_noise(L, x, modulus, width, grid, ref_rng)
        assert gaussian_grid_noise(L, x, modulus, width, grid, rng) == expect
        assert rng.getstate() == ref_rng.getstate()


class TestSieveRecursion:
    def test_base_single_spot(self):
        rng = random.Random(6)
        cfg = sieve_config(L8(), 2, check=True)
        out = sieve(0, 1, (0,), cfg, rng)
        assert len(out.spots) == 1
        assert out.spots[0].length == cfg.min_len
        assert out.spots[0].center == (0,)

    def test_base_two_spot_equal_split(self):
        rng = random.Random(7)
        cfg = sieve_config(L8(), 2, check=True)
        out = sieve(0, 2, (cfg.N // 8,), cfg, rng)
        assert len(out.spots) == 2
        assert out.spots[0].length == cfg.min_len
        assert out.spots[1].length == cfg.min_len
        assert torus(out.spots[1].center, cfg.N) == mod1(["1/8"])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 2), st.data(), st.sampled_from([1, 2]),
           st.sampled_from(["exact", "gaussian"]), st.integers(0, 2 ** 32))
    def test_leaf_is_the_tensor_of_its_qubits(self, k, data, p, noise, seed):
        """A stage-0 leaf folds its qubits' dual points into one multiset; its
        spots together equal the tensor product of the one-qubit vectors
        {0: 1, y: 1} of the points the same stream draws."""
        L = random_lattice(k, data.draw(st.integers(0, k)), 8, random.Random(seed))
        cfg = sieve_config(L, 1, noise=noise)
        out = sieve(0, p, (0,) * k, cfg, random.Random(seed))
        rng = random.Random(seed)
        pv = qubit(create_qubit(cfg, rng))
        for _ in range(2 * cfg.k * cfg.m - 2 + p):
            pv = reference_tensor(pv, qubit(create_qubit(cfg, rng)), cfg.N)
        merged = {}
        for spot in out.spots:
            for y, c in spot.counts.items():
                merged[y] = merged.get(y, 0) + c
        assert merged == pv.spots[0].counts

    def test_full_run_difference_near_target(self):
        cfg = sieve_config(L8(), 2, check=True)
        km = cfg.k * cfg.m
        for seed in range(5):
            q = sieve(km, 2, (cfg.N // 8,), cfg, random.Random(seed), SieveStats())
            diff = lifted_difference(torus(q, cfg.N), mod1(["1/8"]))
            bound = Fraction(2, 2 ** (cfg.k * cfg.m * cfg.m + 1))
            assert all(abs(c) <= bound for c in diff)

    def test_radius_telescoping_and_windows(self):
        # check=True asserts window soundness at every stage; sieve_config, the radii
        cfg = sieve_config(L8(), 2, check=True)
        stats = SieveStats()
        sieve(cfg.k * cfg.m, 1, (0,), cfg, random.Random(8), stats)
        assert stats.qubits > 0

    def test_qubit_budget_without_stats(self, monkeypatch):
        """A sieve called without a SieveStats still counts its qubits
        against the budget."""
        monkeypatch.setattr(sieve_module, "QUBIT_BUDGET", 3)
        cfg = sieve_config(L8(), 2)
        with pytest.raises(SieveBudgetExceeded):
            sieve(cfg.k * cfg.m, 1, (0,), cfg, random.Random(8))

    def test_exact_mode_closure(self):
        cfg = sieve_config(L8(), 2)
        out = sieve(2, 1, (0,), cfg, random.Random(9))
        for y in out.spots[0].counts:
            assert dual_membership(L8(), y, cfg.N)


class TestTargetGroup:
    def test_zn_trivial(self):
        assert build_target_group(zn(3), 2) == ()

    def test_2z(self):
        g = build_target_group(col_lattice([[2]], 1), 1)
        assert len(g) == 1
        f = g[0]
        assert f.order == 2 and f.generator == (1,) and f.kind == "finite"

    def test_trivial_z1_torsion(self):
        # box 4 (t = 3): V = (1), and 2^t' > 2 * 1 * 4 gives order 16
        g = build_target_group(Lattice.trivial(1), 4)
        assert len(g) == 1
        f = g[0]
        assert f.order == 16 and f.generator in ((1,), (15,)) and f.kind == "torsion"

    def test_orders_exact_and_independent(self):
        for cols, k, t in ([[2, 0], [0, 4]], 2, 1), ([[2, 4]], 2, 1), ([], 2, 2):
            L = col_lattice(cols, k)
            g = build_target_group(L, 2 ** (t - 1))
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
        # |T1| = [H1:H], |T2| = 2^(t'(k-l))
        import math

        L = col_lattice([[2, 4]], 2)  # index 2 inside its saturation, rank 1
        # box 2: row (-2, 1) of V has W = 3, and 2^t' > 2 * 3 * 2 gives t' = 4
        g = build_target_group(L, 2)
        finite = [f for f in g if f.kind == "finite"]
        torsion = [f for f in g if f.kind == "torsion"]
        prod_finite = math.prod(f.order for f in finite)
        prod_torsion = math.prod(f.order for f in torsion)
        assert prod_finite == 2
        assert prod_torsion == 2 ** (4 * (2 - 1))


class TestAssembleCyclic:
    def test_d2_deterministic(self):
        # gen . s = 1/2 makes the DFT a delta at c = 1; = 0 gives c = 0
        L = col_lattice([[2]], 1)
        cfg = sieve_config(L, 1)
        fac = build_target_group(L, cfg.shift_bound)[0]
        for s, expect in (([1], 1), ([0], 0), ([2], 0)):
            c = assemble_cyclic(fac, cfg, s, random.Random(11))
            assert c == expect

    def test_d3_postselection_rate(self):
        # d = 3, e = 2: acceptance probability 3/4
        L = col_lattice([[3]], 1)
        cfg = sieve_config(L, 1)
        fac = build_target_group(L, cfg.shift_bound)[0]
        assert fac.order == 3
        stats = SieveStats()
        rng = random.Random(12)
        for _ in range(120):
            assemble_cyclic(fac, cfg, [1], rng, stats)
        rate = stats.postselect_successes / stats.postselect_attempts
        assert abs(rate - 0.75) < 0.12

    def test_d3_outcome(self):
        L = col_lattice([[3]], 1)
        cfg = sieve_config(L, 1)
        fac = build_target_group(L, cfg.shift_bound)[0]
        for s in ([0], [1], [2]):
            c = assemble_cyclic(fac, cfg, s, random.Random(13))
            # gen . s = s/3 exactly: outcome = s mod 3 deterministically
            expect = sum(g * x for g, x in zip(fac.generator, s)) % 3
            assert c == expect


class TestLiftShift:
    def test_all_zero(self):
        L = col_lattice([[4]], 1)
        g = build_target_group(L, 2)
        s = lift_shift([0] * len(g), L, 2)
        assert coset_canonical(L, s) == (0,)

    def test_quarter_residue(self):
        # k=1, trivial L, box 1: 2^t' > 2 gives gen 1/4, and residue 3 is -1
        L = Lattice.trivial(1)
        g = build_target_group(L, 1)
        assert [(f.order, f.generator) for f in g] == [(4, (1,))]
        assert lift_shift([3], L, 1) == (-1,)

    def test_corner_shift_non_diagonal_hnf(self):
        # full rank with a non-diagonal HNF; s lies on the box's corner
        L = col_lattice([[0, 6], [6, -3]], 2)
        s = (2, -2)
        res = [sum(g * x for g, x in zip(f.generator, s)) % f.order
               for f in build_target_group(L, 2)]
        out = lift_shift(res, L, 2)
        assert contains(L, [a - b for a, b in zip(out, s)])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.data(), st.sampled_from([1, 2]))
    def test_lift_meets_congruences_and_box(self, k, data, t):
        """For a shift s in the box, the lift has the measured residues and
        lies in s + L at every rank; it need not lie in the box."""
        cols = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                                  max_size=k))
        L = col_lattice(cols, k)
        bound = 2 ** (t - 1)
        s = data.draw(st.lists(st.integers(-bound, bound), min_size=k, max_size=k))
        g = build_target_group(L, bound)
        res = [sum(a * x for a, x in zip(f.generator, s)) % f.order for f in g]
        out = lift_shift(res, L, bound)
        assert [sum(a * x for a, x in zip(f.generator, out)) % f.order for f in g] == res
        assert contains(L, [a - b for a, b in zip(out, s)])

    @pytest.mark.parametrize("cols,k", [([], 1), ([], 2), ([[2, 1]], 2), ([[1, 0]], 2)],
                             ids=["trivial-1", "trivial-2", "rank1-2-1", "rank1-1-0"])
    def test_lift_exhaustive_below_full_rank(self, cols, k):
        """Every shift of the default box at t = 1 lifts into its own coset."""
        L = col_lattice(cols, k)
        bound = sieve_config(L, 1).shift_bound
        g = build_target_group(L, bound)
        for s in product(range(-bound, bound + 1), repeat=k):
            res = [sum(a * x for a, x in zip(f.generator, s)) % f.order for f in g]
            assert contains(L, [a - b for a, b in zip(lift_shift(res, L, bound), s)]), s


class TestRecoverShift:
    def test_zero_shift(self):
        L = L8()
        cfg = sieve_config(L, 2)
        rec = recover_shift([0], cfg, random.Random(14))
        assert rec is not None and coset_canonical(L, rec) == (0,)

    def test_k1_planted(self):
        L = L8()
        cfg = sieve_config(L, 2, shift_bound=3)
        wins = 0
        for i in range(10):
            rec = recover_shift([3], cfg, random.Random(100 + i))
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
            rec = recover_shift(s, cfg, random.Random(200 + i))
            if rec is not None and all(
                c == 0 for c in coset_canonical(L, [a - b for a, b in zip(rec, s)])
            ):
                wins += 1
        assert wins >= 3

    def test_trivial_z1_shift_one(self):
        # The box |s| <= 1 holds 1 and -1; a torsion factor of order 2 gave
        # both the same residue, and the lift returned -1.
        cfg = sieve_config(Lattice.trivial(1), 1)
        for seed in range(5):
            assert recover_shift([1], cfg, random.Random(seed)) == (1,)

    def test_deficient_rank_interior_shift(self):
        # trivial lattice: pure torsion recovery; m override keeps it small
        L = Lattice.trivial(1)
        cfg = sieve_config(L, 2, m=2)
        wins = 0
        for i in range(6):
            rec = recover_shift([1], cfg, random.Random(300 + i))
            wins += rec == (1,)
        assert wins >= 4

    def test_gaussian_mode_smoke(self):
        # probing mode only: multipliers are near H^# but not in it
        L = L8()
        cfg = sieve_config(L, 1, m=2, noise="gaussian")
        rec = recover_shift([1], cfg, random.Random(16))
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
                sieve(cfg.k * cfg.m, 2, (cfg.N // 8,), cfg, random.Random(400 + i), stats)
                tot += stats.qubits
            counts.append(tot / 3)
        alpha = (math.log2(counts[2]) - math.log2(counts[0])) / 2
        assert alpha <= 3.5
