"""Classical simulation of the collimation sieve for abelian hidden shifts.

In exact mode every multiplier lies on the grid (1/N) Z^k / Z^k with
N = lcm(Delta, Q) (Delta the Gram determinant of the basis, Q the torus
grid), so the sieve holds a multiplier as the tuple of its numerators in
[0, N) and a window as its integer center, its radius fixed by the stage
(N >> (jm+1) at stage j, in units of 1/N); sums, tiles and window tests are
integer arithmetic mod N.  A generator of the target group is likewise the
tuple of its numerators over its order d, and d divides N, so every sieve
target is an integer point too.  Phase vectors store their multiplier lists
as multiplier -> multiplicity dictionaries (computational-basis measurements
of equal-amplitude states depend only on counts, so this is exact and
collapses the bookkeeping when the dual group is finite).  Unit r of a
multiset is found from its sorted keys and running unit totals
(`_cumulative`), and every random part of one is a single uniform
sub-multiset draw (`_submultiset`: distinct units by `rng.sample`, tallied
by bucket; nothing is drawn when one multiplier fills the multiset).
Phases are never materialized: the hidden shift enters only in the final
Fourier measurement, where the multipliers' numerators determine the outcome
distribution.

The three stages mirror the qubit-creation / recursive-collimation / final-
measurement split: create_qubit draws the dual point y of one qubit {0, y},
sieve() builds each stage-0 leaf as one fold of its qubits' points into a
multiset and runs the depth-first recursion with tandem two-spot collimation
windows (each join draws its collimation tile first, as the tile of one
uniform unit of the product, and builds only that tile's pair sums), and
recover_shift assembles one cyclic factor of the target group
at a time before lifting the measured residues to an integer shift through
the Smith form of the lattice's basis: s* = V^-1 z, exact in every rank.
"""

from __future__ import annotations

import cmath
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .lattice import (
    Lattice,
    basis_bit_complexity,
    coset_canonical,
    dual_membership,
    dual_sample_uniform,
    gaussian_grid_noise,
)

Point = Tuple[int, ...]  # numerators over the modulus N: the point x / N of the torus

QUBIT_BUDGET = 1 << 22      # qubits one SieveStats may count
STAGE_CEILING = 12          # largest km sieve_config accepts
ORDER_CEILING = 1 << 10     # largest cyclic order of the target group sieve_config accepts
POSTSELECT_ATTEMPTS = 64    # post-selection rounds per cyclic factor
NODE_RETRIES = 64           # collimation attempts per recursion node


class SieveBudgetExceeded(RuntimeError):
    """A retry or qubit budget ran out; the caller records a failed trial."""


@dataclass(frozen=True)
class SieveConfig:
    lattice: Lattice
    t: int
    m: int              # stage exponent; km collimation stages
    G: int              # Gaussian width for the noisy sampler (1/g)
    Q: int              # measurement/torus grid radix
    N: int              # multiplier modulus, lcm(Delta, Q)
    noise: str = "exact"            # "exact" | "gaussian"
    shift_bound: int = 0            # infinity-norm box of the shift; sets the torsion orders
    check: bool = False             # assert window/length invariants as we go

    @property
    def k(self) -> int:
        return self.lattice.k

    def stage_radius(self, j: int) -> int:
        """Window radius 2^-(jm+1) at stage j, in units of 1/N."""
        return self.N >> (j * self.m + 1)

    @property
    def min_len(self) -> int:
        return 4 ** (self.k * self.m)

    @property
    def max_len(self) -> int:
        return 4 ** (self.k * self.m + 1)


def sieve_config(L: Lattice, t: int, *, m: Optional[int] = None,
                 noise: str = "exact", shift_bound: Optional[int] = None,
                 check: bool = False) -> SieveConfig:
    """Choose the stage exponent m and grids for a shift recovery over L.

    m is minimal (>= 2) with 2^(k m^2) > k (n + 2h) 2^t, which makes the
    final collimation radius 2^(-k m^2 - 1) fine enough for the target-group
    measurement to land within trace distance 1/2.  Q = 2^q with
    q >= 2 k m^2 + 2, so every window radius and tile width down to the last
    stage is a whole number of 1/N steps, and q >= t', so the torsion orders
    2^t' of the target group divide N."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if t >= STAGE_CEILING ** 2:
        # 2^(k m^2) > 2^t needs k m^2 > t, and k m^2 <= (km)^2 <= STAGE_CEILING^2.
        raise ValueError(f"t = {t} reaches the ceiling {STAGE_CEILING ** 2}: no km <= "
                         f"{STAGE_CEILING} collimates finely enough for 2^-t")
    if noise not in ("exact", "gaussian"):
        raise ValueError(f"unknown noise mode {noise!r}")
    if m is not None and m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if shift_bound is not None and shift_bound < 0:
        raise ValueError(f"shift_bound must be >= 0, got {shift_bound}")
    k = L.k
    bound = shift_bound if shift_bound is not None else 2 ** (t - 1)
    # Read in both noise modes: the gaussian sampler needs the frame, and an
    # exact sieve over a basis whose inverse norms underflow does not finish.
    L.frame
    # The largest cyclic order of the target group: assemble_cyclic is O(order^2).
    # The torsion order 2^t' is compared by its exponent, before it is built.
    t_torsion = _torsion_exponent(L, bound)
    if t_torsion >= ORDER_CEILING.bit_length():
        raise ValueError(f"target group order 2^{t_torsion} exceeds the ceiling {ORDER_CEILING}")
    order = max(_row_orders(L, bound), default=1)
    if order > ORDER_CEILING:
        raise ValueError(f"target group order {order} exceeds the ceiling {ORDER_CEILING}")
    n = k * t
    h = basis_bit_complexity(L)
    need = k * (n + 2 * h) * (2 ** t)
    if m is None:
        m = 2
        while k * m <= STAGE_CEILING and 2 ** (k * m * m) <= need:
            m += 1
    if k * m > STAGE_CEILING:
        raise ValueError(f"km = {k * m} exceeds the desk-scale ceiling {STAGE_CEILING}")
    g_exp = k * m + t + 2
    q_exp = max(2 * g_exp, 2 * k * m * m + 2, t_torsion)
    Q = 2 ** q_exp
    N = math.lcm(L.gram_det, Q)
    # Each stage radius N >> (jm+1), j <= km, is whole, so each joined
    # radius splits into 2^(m+1) tiles of the next stage's diameter.
    assert N % (2 << (k * m * m)) == 0, "stage radii off the 1/N grid"
    return SieveConfig(
        lattice=L, t=t, m=m, G=2 ** g_exp, Q=Q, N=N,
        noise=noise, shift_bound=bound, check=check,
    )


def _lift(d: int, N: int) -> int:
    """The representative of d mod N in (-N/2, N/2]."""
    d %= N
    return d - N if 2 * d > N else d


def _in_window(y: Point, center: Point, r: int, N: int) -> bool:
    """Whether y lies within r of center per coordinate on the torus; all
    three in units of 1/N."""
    return 2 * r >= N or all(abs(_lift(a - c, N)) <= r for a, c in zip(y, center))


Counts = Dict[Point, int]


def _cumulative(counts: Dict) -> Tuple[list, List[int]]:
    """Sorted keys of a multiset and their running unit totals: unit r
    (0 <= r < total) lies in keys[bisect_right(ends, r)]."""
    keys = sorted(counts)
    return keys, list(accumulate(counts[y] for y in keys))


@dataclass
class Spot:
    """A multiplier multiset and the center of its window; the window's
    radius is fixed by the stage and its modulus by the config."""

    counts: Counts
    center: Point

    @property
    def length(self) -> int:
        return sum(self.counts.values())


@dataclass
class PhaseVector:
    """One- or two-spot phase vector; two-spot windows differ by the target."""

    spots: Tuple[Spot, ...]


@dataclass
class SieveStats:
    qubits: int = 0
    collimations: int = 0
    rejections: Dict[int, int] = field(default_factory=dict)
    max_live_multipliers: int = 0
    postselect_attempts: int = 0
    postselect_successes: int = 0

    def note_live(self, n: int) -> None:
        if n > self.max_live_multipliers:
            self.max_live_multipliers = n

    def reject(self, stage: int) -> None:
        self.rejections[stage] = self.rejections.get(stage, 0) + 1


def create_qubit(cfg: SieveConfig, rng: random.Random,
                 stats: Optional[SieveStats] = None) -> Point:
    """Sample one phase qubit, multipliers {0, y} with y uniform over H^#,
    and return y.  Phases are implied, not stored, so the hidden shift is
    not needed."""
    stats = stats if stats is not None else SieveStats()
    stats.qubits += 1
    if stats.qubits > QUBIT_BUDGET:
        raise SieveBudgetExceeded("qubit budget exhausted")
    L, N = cfg.lattice, cfg.N
    y, _, _ = dual_sample_uniform(L, cfg.Q, rng)
    if cfg.noise == "gaussian":
        # The noisy point is on the (1/Q) grid, and Q divides N.
        step = N // cfg.Q
        y = tuple(step * c for c in gaussian_grid_noise(L, y, N, cfg.G, cfg.Q, rng))
    return y


def _arcs(lo: int, length: int, N: int) -> Tuple[Tuple[int, int], ...]:
    """The residues lo, lo+1, ..., lo+length-1 mod N as at most two ranges
    [x0, x1) of [0, N)."""
    if length >= N:
        return ((0, N),)
    lo %= N
    hi = lo + length
    return ((lo, hi),) if hi <= N else ((lo, N), (0, hi - N))


def _walk(keys: list, ranges: list, axis: int, lo: int, hi: int, prefix: tuple, out: list) -> None:
    """Append to out every key of the sorted keys[lo:hi], all sharing prefix
    on axes 0..axis-1, whose coordinate on each axis from this one on lies
    in one of that axis's ranges: bisect this axis, then the next within
    each block of equal values on this one."""
    last = axis == len(ranges) - 1
    for x0, x1 in ranges[axis]:
        start = bisect_left(keys, prefix + (x0,), lo, hi)
        end = bisect_left(keys, prefix + (x1,), start, hi)
        if last:
            out.extend(keys[start:end])
            continue
        while start < end:
            value = keys[start][axis]
            stop = bisect_left(keys, prefix + (value + 1,), start, end)
            _walk(keys, ranges, axis + 1, start, stop, prefix + (value,), out)
            start = stop


def tensor(a: PhaseVector, b: PhaseVector, N: int,
           box: Sequence[Tuple[int, int]]) -> PhaseVector:
    """The tensor product restricted to one box: the pairwise multiplier sums
    mod N whose lifted offset from the joined center lies, on each axis i,
    in the range box[i] = (lo, hi), inclusive and within the lift range
    (-N/2, N/2]; window centers add in tandem.

    b must be one-spot; a two-spot a keeps its two-spot structure.  On each
    axis the box is, for a fixed u of a, at most two ranges of v mod N, and
    b's sorted keys are walked one axis at a time (`_walk`), so only the
    kept sums are built."""
    if len(b.spots) != 1:
        raise ValueError("the second factor of a tensor must be a one-spot phase vector")
    rspot = b.spots[0]
    keys = sorted(rspot.counts)
    bcounts = rspot.counts
    new_spots = []
    for spot in a.spots:
        center = tuple([(x + y) % N for x, y in zip(spot.center, rspot.center)])
        counts: Counts = {}
        for u, cu in spot.counts.items():
            ranges = [_arcs(c + lo - x, hi - lo + 1, N) for c, x, (lo, hi) in zip(center, u, box)]
            kept: list = []
            _walk(keys, ranges, 0, 0, len(keys), (), kept)
            for v in kept:
                w = tuple([(x + y) % N for x, y in zip(u, v)])
                counts[w] = counts.get(w, 0) + cu * bcounts[v]
        new_spots.append(Spot(counts, center))
    return PhaseVector(tuple(new_spots))


def _tile_index(y: Point, center: Point, r: int, N: int,
                tiles_per_axis: int) -> Tuple[int, ...]:
    """Per-axis index of the tile of width 2r / tiles_per_axis that holds y,
    counted from center - r and clamped into the window of radius r."""
    width = 2 * r // tiles_per_axis
    top = tiles_per_axis - 1
    idx = []
    for a, c in zip(y, center):
        d = (a - c) % N
        i = (d - N + r if 2 * d > N else d + r) // width  # the lift of d, plus r
        idx.append(0 if i < 0 else top if i > top else i)
    return tuple(idx)


def _tile_box(tile: Tuple[int, ...], r: int, N: int,
              tiles_per_axis: int) -> Tuple[Tuple[int, int], ...]:
    """Per axis, the inclusive range of lifted offsets from the center that
    `_tile_index` puts in this tile: the end tiles run to the edge of the
    lift range (-N/2, N/2], and every range is clipped to it, so no offset
    is counted twice mod N."""
    width = 2 * r // tiles_per_axis
    top = tiles_per_axis - 1
    low, high = -((N - 1) // 2), N // 2
    return tuple((max(low, i * width - r) if i else low,
                  min(high, (i + 1) * width - r - 1) if i < top else high)
                 for i in tile)


def _tile_center(tile: Tuple[int, ...], center: Point, r: int, N: int,
                 tiles_per_axis: int) -> Point:
    """The center of one tile of the window of radius r about center;
    tiles_per_axis must divide r."""
    sub = r // tiles_per_axis
    return tuple([(c - r + (2 * i + 1) * sub) % N for c, i in zip(center, tile)])


def _unit_pair(a: PhaseVector, bcounts: Counts, unit: int) -> Tuple[int, Point, Point]:
    """Unit `unit` of the product of a with the one spot bcounts, as its
    spot of a and its multipliers u of that spot and v of b.  The spots of a
    hold their units in turn; within a spot u takes c_u len(b) units in the
    order of its counts, and unit q of those lies on unit q // c_u of b, in
    the order of b's counts."""
    blen = sum(bcounts.values())
    for s, spot in enumerate(a.spots):
        for u, cu in spot.counts.items():
            if unit < cu * blen:
                unit //= cu
                for v, cv in bcounts.items():
                    if unit < cv:
                        return s, u, v
                    unit -= cv
            unit -= cu * blen
    raise ValueError("unit index outside the product")


def collimate(a: PhaseVector, b: PhaseVector, j: int, cfg: SieveConfig, rng: random.Random,
              stats: Optional[SieveStats] = None) -> PhaseVector:
    """Join a and b and take the collimation measurement at stage j: tile
    each joined window, of radius 2 stage_radius(j-1), into 2^(k(m+1))
    subcubes of radius stage_radius(j) (paired in tandem across two-spot
    windows), sample a tile with probability proportional to its resident
    count in the product a (x) b, and restrict the product to it.

    The tile drawn is that of one unit of the product drawn uniformly, which
    is that law exactly, and `tensor` then builds only the pair sums that
    land in it.  Equal-magnitude amplitudes make the counting measure the
    exact Born rule for this measurement."""
    r, N, tiles_per_axis = 2 * cfg.stage_radius(j - 1), cfg.N, 2 ** (cfg.m + 1)
    bspot = b.spots[0]
    total = sum(spot.length for spot in a.spots) * bspot.length
    s, u, v = _unit_pair(a, bspot.counts, rng.randrange(total))
    joined = [(x + y) % N for x, y in zip(a.spots[s].center, bspot.center)]
    chosen = _tile_index([(x + y) % N for x, y in zip(u, v)], joined, r, N, tiles_per_axis)
    out = tensor(a, b, N, _tile_box(chosen, r, N, tiles_per_axis))
    stats = stats if stats is not None else SieveStats()
    stats.collimations += 1
    stats.note_live(sum(len(spot.counts) for spot in out.spots))
    return PhaseVector(tuple(Spot(spot.counts, _tile_center(chosen, spot.center, r, N, tiles_per_axis))
                             for spot in out.spots))


def _submultiset(counts: Counts, size: int, rng: random.Random) -> Counts:
    """Uniformly random sub-multiset of the given size: `size` distinct units
    drawn without replacement, tallied by bucket.  One distinct multiplier
    has exactly one sub-multiset of each size, so that draws nothing."""
    if len(counts) == 1:
        ((y, c),) = counts.items()
        if not 0 <= size <= c:
            raise ValueError(f"sub-multiset size {size} outside [0, {c}]")
        return {y: size} if size else {}
    keys, ends = _cumulative(counts)
    taken = [0] * len(keys)
    for r in rng.sample(range(ends[-1]), size):
        taken[bisect_right(ends, r)] += 1
    return {y: c for y, c in zip(keys, taken) if c}


def shorten(pv: PhaseVector, cfg: SieveConfig, rng: random.Random) -> PhaseVector:
    """Measure oversized spots down into [4^km, 4^(km+1)).

    An oversized spot is split into two near-equal random parts and one part
    is kept with probability proportional to its size, repeatedly.  A uniform
    part of a uniform part is uniform, and the kept lengths do not depend on
    which units were drawn, so the halving runs on lengths alone and the kept
    units are drawn once.  Two-spot vectors shorten each summand separately."""
    new_spots = []
    for spot in pv.spots:
        keep = spot.length
        while keep >= cfg.max_len:
            half = keep - keep // 2
            keep = half if rng.randrange(keep) < half else keep // 2
        counts = spot.counts if keep == spot.length else _submultiset(spot.counts, keep, rng)
        new_spots.append(Spot(counts, spot.center))
    return PhaseVector(tuple(new_spots))


def _balanced_split(counts: Counts, rng: random.Random) -> Tuple[Counts, Counts]:
    total = sum(counts.values())
    half = _submultiset(counts, total // 2, rng)
    rest = {y: c - half.get(y, 0) for y, c in counts.items() if c - half.get(y, 0) > 0}
    return rest, half


def _check_vector(pv: PhaseVector, cfg: SieveConfig, j: int) -> None:
    r = cfg.stage_radius(j)
    for spot in pv.spots:
        for y in spot.counts:
            assert _in_window(y, spot.center, r, cfg.N), "multiplier escaped its window"
            if cfg.noise == "exact":
                assert dual_membership(cfg.lattice, y, cfg.N), "multiplier left the dual group"
        assert cfg.min_len <= spot.length < cfg.max_len, "length discipline violated"


def sieve(j: int, p: int, target: Point, cfg: SieveConfig, rng: random.Random,
          stats: Optional[SieveStats] = None):
    """Depth-first collimation sieve; the target is numerators over cfg.N.

    p=1 returns a single-spot vector at stage j; p=2 below the last stage
    returns a two-spot vector whose windows differ by the target; at the last
    stage j = km, p=2 performs the pairing measurement and returns the
    multiplier difference of the measured pair, a point within
    2^(1-km^2-1)-windows of the target."""
    if not (0 <= j <= cfg.k * cfg.m):
        raise ValueError("stage out of range")
    stats = stats if stats is not None else SieveStats()
    km = cfg.k * cfg.m
    if j == 0:
        # 2km qubits give one spot of length 4^km; p = 2 takes one more qubit
        # and splits it in half.  Each qubit {0, y} folds into the multiset:
        # every u stays and u + y joins it.  Base windows are the whole torus.
        zero = (0,) * cfg.k
        counts: Counts = {zero: 1}
        for _ in range(2 * km - 1 + p):
            y = create_qubit(cfg, rng, stats)
            new = dict(counts)
            for u, c in counts.items():
                w = tuple([(a + b) % cfg.N for a, b in zip(u, y)])
                new[w] = new.get(w, 0) + c
            counts = new
        if p == 1:
            spots = (Spot(counts, zero),)
        else:
            a, b = _balanced_split(counts, rng)
            spots = (Spot(a, zero), Spot(b, target))
        out = PhaseVector(spots)
        if cfg.check:
            _check_vector(out, cfg, 0)
        return out

    for _ in range(NODE_RETRIES):
        # a one- or two-spot child as p is, joined with a one-spot child
        a = sieve(j - 1, p, target, cfg, rng, stats)
        b = sieve(j - 1, 1, target, cfg, rng, stats)
        out = collimate(a, b, j, cfg, rng, stats)
        if any(s.length < cfg.min_len for s in out.spots):
            stats.reject(j)
            continue
        out = shorten(out, cfg, rng)
        if p == 2 and j == km:
            result = _pairing_measurement(out, cfg.N, rng)
            if result is None:
                stats.reject(j)
                continue
            return result
        if cfg.check:
            _check_vector(out, cfg, j)
        return out
    raise SieveBudgetExceeded(f"stage {j} retry budget exhausted")


def _pairing_measurement(pv: PhaseVector, N: int, rng: random.Random) -> Optional[Point]:
    """Pair up basis states across the two spots and measure the partition;
    a sampled pair becomes the output qubit, returned as the difference of
    its multipliers; unpaired outcomes retry."""
    y_len = pv.spots[0].length
    z_len = pv.spots[1].length
    npairs = min(y_len, z_len)
    total = y_len + z_len
    if rng.randrange(total) >= 2 * npairs:
        return None
    i = rng.randrange(npairs)
    pair = []
    for spot in pv.spots:
        keys, ends = _cumulative(spot.counts)
        pair.append(keys[bisect_right(ends, i)])
    return tuple((b - a) % N for a, b in zip(pair[0], pair[1]))


# ---------------------------------------------------------------------------
# Target group, final measurement, and the lift back to an integer shift.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicFactor:
    order: int
    generator: Point  # numerators over the order: the point generator / order
    kind: str  # "finite" (complement of H_1^# in H^#) or "torsion" (2^t' part)


def _torsion_exponent(L: Lattice, bound: int) -> int:
    """The least t' with 2^t' > 2 W bound, W the largest ||V_i||_1 over the
    rows i >= rank of V in the Smith form D = V M W of L's basis: for
    ||s||_inf <= bound, (V s)_i on those rows lies in [-W bound, W bound],
    so it is fixed by its residue mod 2^t'."""
    V = L.smith[1]
    W = max((sum(map(abs, V.data[i])) for i in range(L.rank, L.k)), default=0)
    return (2 * W * bound).bit_length()


def _row_orders(L: Lattice, bound: int) -> List[int]:
    """The order of the target-group factor on each row i of V in the Smith
    form D = V M W of L's basis: D_ii below the rank, 2^t' from it on.  A
    factor of order 1 is trivial."""
    D = L.smith[0]
    return [D[i, i] for i in range(L.rank)] + [2 ** _torsion_exponent(L, bound)] * (L.k - L.rank)


def build_target_group(L: Lattice, bound: int) -> Tuple[CyclicFactor, ...]:
    """A = A1 + A2 for shifts in the box ||s||_inf <= bound, one cyclic
    factor per row of V (D = V M W) of order above 1: rows i < rank over
    D_ii are a complement of H_1^# in H^#, and rows i >= rank, which span
    the integer orthogonal, over 2^t' (`_torsion_exponent`) are the
    2^t'-torsion of H_1^#."""
    V = L.smith[1]
    factors = tuple(CyclicFactor(d, tuple(x % d for x in V.data[i]),
                                 "finite" if i < L.rank else "torsion")
                    for i, d in enumerate(_row_orders(L, bound)) if d > 1)
    assert all(dual_membership(L, f.generator, f.order) for f in factors)
    return factors


def assemble_cyclic(factor: CyclicFactor, cfg: SieveConfig, shift: Sequence[int],
                    rng: random.Random,
                    stats: Optional[SieveStats] = None) -> int:
    """Produce the qubits for one cyclic factor, post-select onto indices
    below the order, and sample the Z/d Fourier measurement outcome.

    The outcome distribution is computed from the exact phase multipliers
    (the single place the hidden shift is consulted)."""
    d = factor.order
    e = max(1, (d - 1).bit_length())
    km = cfg.k * cfg.m
    step = cfg.N // d  # d divides N: finite orders divide Delta, 2^t' divides Q
    stats = stats if stats is not None else SieveStats()
    for _ in range(POSTSELECT_ATTEMPTS):
        deltas = []
        for level in range(e):
            target = tuple(g * 2 ** level * step % cfg.N for g in factor.generator)
            deltas.append(sieve(km, 2, target, cfg, rng, stats))
        # Boolean post-selection onto b < d succeeds with probability d/2^e.
        stats.postselect_attempts += 1
        if rng.randrange(2 ** e) >= d:
            continue
        stats.postselect_successes += 1
        # delta . s per level; the phase of index b sums the levels of its bits.
        pairings = [sum(a * x for a, x in zip(shift, delta)) for delta in deltas]
        phases = []
        for b in range(d):
            acc = sum(pr for level, pr in enumerate(pairings) if (b >> level) & 1)
            phases.append(acc % cfg.N / cfg.N)
        probs = []
        for c in range(d):
            amp = sum(cmath.exp(2j * cmath.pi * (theta - b * c / d))
                      for b, theta in enumerate(phases))
            probs.append(abs(amp) ** 2)
        total = sum(probs)
        r = rng.random() * total
        acc_p = 0.0
        for c, pr in enumerate(probs):
            acc_p += pr
            if r < acc_p:
                return c
        return d - 1
    raise SieveBudgetExceeded("post-selection retry budget exhausted")


def lift_shift(residues: Sequence[int], L: Lattice, bound: int) -> Tuple[int, ...]:
    """The centred representative of s + L for any shift s with
    ||s||_inf <= bound whose pairings with the factors of
    build_target_group(L, bound), in order, are the measured residues.

    Factor i measures (V s)_i mod its order o_i (D = V M W), and a row of
    order 1 measures nothing.  z holds the centred residues.  On a torsion
    row (i >= rank), (V s)_i lies in [-W bound, W bound] and 2 W bound < o_i
    (`_torsion_exponent`), so z_i = (V s)_i; on a row i < rank,
    z_i = (V s)_i mod D_ii.  So V s - z lies in D Z^rank, and s - V^-1 z in
    V^-1 D Z^rank = L: s* = V^-1 z is in s + L at every rank, with no
    search."""
    orders = _row_orders(L, bound)
    rows = [i for i, d in enumerate(orders) if d > 1]
    if len(residues) != len(rows):
        raise ValueError(f"{len(residues)} residues for {len(rows)} target-group factors")
    z = [0] * L.k
    for i, c in zip(rows, residues):
        z[i] = _lift(c, orders[i])
    return coset_canonical(L, L.smith[1].inverse_unimodular().mul_vec(z), centred=True)


def recover_shift(shift: Sequence[int], cfg: SieveConfig, rng: random.Random,
                  stats: Optional[SieveStats] = None) -> Optional[Tuple[int, ...]]:
    """Full shift recovery over L = cfg.lattice: the lift of the measured
    residues, or None when a budget runs out.  When every residue is right
    and the planted shift lies in the box ||s||_inf <= shift_bound, the lift
    is the centred representative of s + L at every rank; it may lie
    outside the box."""
    stats = stats if stats is not None else SieveStats()
    try:
        residues = [assemble_cyclic(fac, cfg, shift, rng, stats)
                    for fac in build_target_group(cfg.lattice, cfg.shift_bound)]
    except SieveBudgetExceeded:
        return None
    return lift_shift(residues, cfg.lattice, cfg.shift_bound)
