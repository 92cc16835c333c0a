"""Classical simulation of the collimation sieve for abelian hidden shifts.

In exact mode every multiplier lies on the grid (1/N) Z^k / Z^k with
N = lcm(Delta, Q) (Delta the Gram determinant of the basis, Q the torus
grid), so the sieve holds a multiplier as the tuple of its numerators in
[0, N) and a window as an integer center and radius in units of 1/N; sums,
tiles and window tests are integer arithmetic mod N.  A generator of the
target group is likewise the tuple of its numerators over its order d, and
d divides N, so every sieve target is an integer point too.  Phase vectors
store their multiplier lists as multiplier -> multiplicity dictionaries
(computational-basis measurements of equal-amplitude states depend only on
counts, so this is exact and collapses the bookkeeping when the dual group
is finite).  Unit r of a multiset is found from its sorted keys and running
unit totals (`_cumulative`), and every random part of one is a single
uniform sub-multiset draw (`_submultiset`: distinct units by `rng.sample`,
tallied by bucket).  Phases are never materialized: the hidden shift enters
only in the final Fourier measurement, where the multipliers' numerators
determine the outcome distribution.

The three stages mirror the qubit-creation / recursive-collimation / final-
measurement split: create_qubit draws a dual point per qubit, sieve() runs
the depth-first recursion with tandem two-spot collimation windows, and
recover_shift assembles one cyclic factor of the target group at a time
before lifting the measured residues to an integer shift by solving the
congruence system (approximate CVP on the solution lattice).
"""

from __future__ import annotations

import cmath
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .lattice import (
    Lattice,
    basis_bit_complexity,
    dual_membership,
    dual_sample_uniform,
    gaussian_grid_noise,
)
from .lll import babai_nearest_plane, lll
from .matrix import IntMatrix, snf

Point = Tuple[int, ...]  # numerators over the modulus N: the point x / N of the torus

QUBIT_BUDGET = 1 << 22      # qubits one SieveStats may count
STAGE_CEILING = 12          # largest km sieve_config accepts
POSTSELECT_ATTEMPTS = 64    # post-selection rounds per cyclic factor
NODE_RETRIES = 64           # collimation attempts per recursion node


class SieveBudgetExceeded(RuntimeError):
    """A retry or qubit budget ran out; the caller records a failed trial."""


@dataclass(frozen=True)
class SieveConfig:
    k: int
    t: int
    m: int              # stage exponent; km collimation stages
    G: int              # Gaussian width for the noisy sampler (1/g)
    Q: int              # measurement/torus grid radix
    N: int              # multiplier modulus, lcm(Delta, Q)
    noise: str = "exact"            # "exact" | "gaussian"
    shift_bound: int = 0            # infinity-norm box for the lifted shift
    check: bool = False             # assert window/length invariants as we go

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
    stage is a whole number of 1/N steps."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if noise not in ("exact", "gaussian"):
        raise ValueError(f"unknown noise mode {noise!r}")
    if m is not None and m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if shift_bound is not None and shift_bound < 0:
        raise ValueError(f"shift_bound must be >= 0, got {shift_bound}")
    k = L.k
    n = k * t
    h = basis_bit_complexity(L)
    need = k * (n + 2 * h) * (2 ** t)
    if m is None:
        m = 2
        while 2 ** (k * m * m) <= need:
            m += 1
    if k * m > STAGE_CEILING:
        raise ValueError(f"km = {k * m} exceeds the desk-scale ceiling {STAGE_CEILING}")
    g_exp = k * m + t + 2
    q_exp = max(2 * g_exp, 2 * k * m * m + 2)
    Q = 2 ** q_exp
    return SieveConfig(
        k=k, t=t, m=m, G=2 ** g_exp, Q=Q, N=math.lcm(L.gram_det, Q),
        noise=noise, shift_bound=shift_bound if shift_bound is not None else 2 ** (t - 1),
        check=check,
    )


def _lift(d: int, N: int) -> int:
    """The representative of d mod N in (-N/2, N/2]."""
    d %= N
    return d - N if 2 * d > N else d


@dataclass(frozen=True)
class Window:
    """The box of points within `radius` of `center` per coordinate on the
    torus; center and radius in units of 1/modulus."""

    center: Point
    radius: int
    modulus: int

    def contains(self, y: Point) -> bool:
        N, r = self.modulus, self.radius
        if 2 * r >= N:
            return True
        return all(abs(_lift(a - c, N)) <= r for a, c in zip(y, self.center))


Counts = Dict[Point, int]


def _cumulative(counts: Dict) -> Tuple[list, List[int]]:
    """Sorted keys of a multiset and their running unit totals: unit r
    (0 <= r < total) lies in keys[bisect_right(ends, r)]."""
    keys = sorted(counts)
    return keys, list(accumulate(counts[y] for y in keys))


@dataclass
class Spot:
    counts: Counts
    window: Window

    @property
    def length(self) -> int:
        return sum(self.counts.values())


@dataclass
class PhaseVector:
    """One- or two-spot phase vector; two-spot windows differ by the target."""

    spots: Tuple[Spot, ...]


@dataclass(frozen=True)
class PhaseQubit:
    """Length-2 phase vector: multipliers for the |0> and |1> branches, as
    numerators over the modulus."""

    zero_mult: Point
    one_mult: Point
    modulus: int

    def delta(self) -> Point:
        return tuple((b - a) % self.modulus for a, b in zip(self.zero_mult, self.one_mult))


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


def create_qubit(L: Lattice, cfg: SieveConfig, rng: random.Random,
                 stats: Optional[SieveStats] = None) -> PhaseVector:
    """Sample one phase qubit: multipliers {0, y} with y uniform over H^#.
    Phases are implied, not stored, so the hidden shift is not needed."""
    if stats is not None:
        stats.qubits += 1
        if stats.qubits > QUBIT_BUDGET:
            raise SieveBudgetExceeded("qubit budget exhausted")
    N = cfg.N
    y, _, _ = dual_sample_uniform(L, cfg.Q, rng)
    if cfg.noise == "gaussian":
        # The noisy point is on the (1/Q) grid, and Q divides N.
        step = N // cfg.Q
        y = tuple(step * c for c in gaussian_grid_noise(L, y, N, cfg.G, cfg.Q, rng))
    zero = (0,) * L.k
    counts: Counts = {zero: 1}
    counts[y] = counts.get(y, 0) + 1
    return PhaseVector((Spot(counts, Window(zero, N // 2, N)),))


def tensor(a: PhaseVector, b: PhaseVector) -> PhaseVector:
    """Tensor product: pairwise multiplier sums mod N, windows add in tandem.

    b must be one-spot; a two-spot a keeps its two-spot structure."""
    if len(b.spots) != 1:
        raise ValueError("the second factor of a tensor must be a one-spot phase vector")
    rspot = b.spots[0]
    rwin = rspot.window
    N = rwin.modulus
    new_spots = []
    for spot in a.spots:
        counts: Counts = {}
        for u, cu in spot.counts.items():
            for v, cv in rspot.counts.items():
                w = tuple([(x + y) % N for x, y in zip(u, v)])
                counts[w] = counts.get(w, 0) + cu * cv
        win = spot.window
        center = tuple([(x + y) % N for x, y in zip(win.center, rwin.center)])
        new_spots.append(Spot(counts, Window(center, win.radius + rwin.radius, N)))
    return PhaseVector(tuple(new_spots))


def _tile_index(y: Point, window: Window, tiles_per_axis: int) -> Tuple[int, ...]:
    """Per-axis index of the tile of width 2 radius / tiles_per_axis that
    holds y, counted from center - radius and clamped into the window."""
    N, r = window.modulus, window.radius
    width = 2 * r // tiles_per_axis
    top = tiles_per_axis - 1
    idx = []
    for a, c in zip(y, window.center):
        d = (a - c) % N
        i = (d - N + r if 2 * d > N else d + r) // width  # the lift of d, plus r
        idx.append(0 if i < 0 else top if i > top else i)
    return tuple(idx)


def _subwindow(window: Window, tile: Tuple[int, ...], tiles_per_axis: int) -> Window:
    """The window of one tile: radius / tiles_per_axis about the tile's
    center.  The radius must split into whole 1/N steps."""
    sub, rem = divmod(window.radius, tiles_per_axis)
    if rem:
        raise ValueError(f"radius {window.radius} does not split into {tiles_per_axis} tiles")
    N = window.modulus
    center = tuple([(c - window.radius + (2 * i + 1) * sub) % N
                    for c, i in zip(window.center, tile)])
    return Window(center, sub, N)


def collimation_tally(pv: PhaseVector, m: int):
    """Tile assignment and joint tile occupancy for the collimation
    measurement; the outcome distribution is tally/total exactly."""
    tiles_per_axis = 2 ** (m + 1)
    per_spot_idx = []
    tally: Dict[Tuple[int, ...], int] = {}
    for spot in pv.spots:
        assignment: Dict[Point, Tuple[int, ...]] = {}
        for y, c in spot.counts.items():
            ti = _tile_index(y, spot.window, tiles_per_axis)
            assignment[y] = ti
            tally[ti] = tally.get(ti, 0) + c
        per_spot_idx.append(assignment)
    return per_spot_idx, tally


def collimate(pv: PhaseVector, m: int, rng: random.Random,
              stats: Optional[SieveStats] = None) -> PhaseVector:
    """Collimation measurement: tile each window into 2^(k(m+1)) subcubes
    (paired in tandem across two-spot windows), sample a tile with
    probability proportional to its resident count, and restrict.

    Equal-magnitude amplitudes make the counting measure the exact Born
    rule for this measurement."""
    tiles_per_axis = 2 ** (m + 1)
    per_spot_idx, tally = collimation_tally(pv, m)
    if stats is not None:
        stats.collimations += 1
        stats.note_live(sum(len(s.counts) for s in pv.spots))
    tiles, ends = _cumulative(tally)
    chosen = tiles[bisect_right(ends, rng.randrange(ends[-1]))]
    new_spots = []
    for spot, assignment in zip(pv.spots, per_spot_idx):
        counts = {y: c for y, c in spot.counts.items() if assignment[y] == chosen}
        new_spots.append(Spot(counts, _subwindow(spot.window, chosen, tiles_per_axis)))
    return PhaseVector(tuple(new_spots))


def _submultiset(counts: Counts, size: int, rng: random.Random) -> Counts:
    """Uniformly random sub-multiset of the given size: `size` distinct units
    drawn without replacement, tallied by bucket."""
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
        new_spots.append(Spot(counts, spot.window))
    return PhaseVector(tuple(new_spots))


def _balanced_split(counts: Counts, rng: random.Random) -> Tuple[Counts, Counts]:
    total = sum(counts.values())
    half = _submultiset(counts, total // 2, rng)
    rest = {y: c - half.get(y, 0) for y, c in counts.items() if c - half.get(y, 0) > 0}
    return rest, half


def _check_vector(pv: PhaseVector, cfg: SieveConfig, L: Lattice, j: int,
                  final: bool) -> None:
    radius = cfg.stage_radius(j)
    for spot in pv.spots:
        assert spot.window.radius == radius, "radius telescoping violated"
        for y in spot.counts:
            assert spot.window.contains(y), "multiplier escaped its window"
            if cfg.noise == "exact":
                assert dual_membership(L, y, cfg.N), "multiplier left the dual group"
        if final:
            assert cfg.min_len <= spot.length < cfg.max_len, "length discipline violated"


def sieve(j: int, p: int, target: Point, cfg: SieveConfig, L: Lattice,
          rng: random.Random, stats: Optional[SieveStats] = None):
    """Depth-first collimation sieve; the target is numerators over cfg.N.

    p=1 returns a single-spot vector at stage j; p=2 below the last stage
    returns a two-spot vector whose windows differ by the target; at the last
    stage j = km, p=2 performs the pairing measurement and returns a
    PhaseQubit whose multiplier difference is within 2^(1-km^2-1)-windows of
    the target."""
    if not (0 <= j <= cfg.k * cfg.m):
        raise ValueError("stage out of range")
    km = cfg.k * cfg.m
    if j == 0:
        # 2km qubits give one spot of length 4^km; p = 2 takes one more qubit
        # and splits it in half.  Base windows are the whole torus.
        pv = create_qubit(L, cfg, rng, stats)
        for _ in range(2 * km - 2 + p):
            pv = tensor(pv, create_qubit(L, cfg, rng, stats))
        counts = pv.spots[0].counts
        whole = Window((0,) * cfg.k, cfg.N // 2, cfg.N)
        if p == 1:
            spots = (Spot(counts, whole),)
        else:
            a, b = _balanced_split(counts, rng)
            spots = (Spot(a, whole), Spot(b, Window(target, cfg.N // 2, cfg.N)))
        out = PhaseVector(spots)
        if cfg.check:
            _check_vector(out, cfg, L, 0, final=True)
        return out

    for _ in range(NODE_RETRIES):
        if p == 1:
            u = sieve(j - 1, 1, target, cfg, L, rng, stats)
            v = sieve(j - 1, 1, target, cfg, L, rng, stats)
            joined = tensor(u, v)
        else:
            uv = sieve(j - 1, 2, target, cfg, L, rng, stats)
            w = sieve(j - 1, 1, target, cfg, L, rng, stats)
            joined = tensor(uv, w)
        out = collimate(joined, cfg.m, rng, stats)
        if any(s.length < cfg.min_len for s in out.spots):
            if stats is not None:
                stats.reject(j)
            continue
        out = shorten(out, cfg, rng)
        if p == 2 and j == km:
            result = _pairing_measurement(out, rng)
            if result is None:
                if stats is not None:
                    stats.reject(j)
                continue
            return result
        if cfg.check:
            _check_vector(out, cfg, L, j, final=True)
        return out
    raise SieveBudgetExceeded(f"stage {j} retry budget exhausted")


def _pairing_measurement(pv: PhaseVector, rng: random.Random) -> Optional[PhaseQubit]:
    """Pair up basis states across the two spots and measure the partition;
    a sampled pair becomes the output qubit, unpaired outcomes retry."""
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
    return PhaseQubit(pair[0], pair[1], pv.spots[0].window.modulus)


# ---------------------------------------------------------------------------
# Target group, final measurement, and the lift back to an integer shift.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicFactor:
    order: int
    generator: Point  # numerators over the order: the point generator / order
    kind: str  # "finite" (complement of H_1^# in H^#) or "torsion" (2^t part)


def build_target_group(L: Lattice, t: int) -> Tuple[CyclicFactor, ...]:
    """A = A1 + A2: a complement of H_1^# in H^# (one cyclic factor per
    nontrivial invariant factor of the basis) plus the 2^t-torsion of H_1^#
    (integer-orthogonal columns over 2^t)."""
    factors: List[CyclicFactor] = []
    if L.rank:
        D, V, _ = snf(L.basis)
        for i in range(L.rank):
            d = D[i, i]
            if d > 1:
                factors.append(CyclicFactor(d, tuple(V[i, j] % d for j in range(L.k)), "finite"))
    for col in L.geometry.ortho.columns():
        factors.append(CyclicFactor(2 ** t, tuple(c % 2 ** t for c in col), "torsion"))
    assert all(dual_membership(L, f.generator, f.order) for f in factors)
    return tuple(factors)


def assemble_cyclic(factor: CyclicFactor, cfg: SieveConfig, L: Lattice,
                    shift: Sequence[int], rng: random.Random,
                    stats: Optional[SieveStats] = None) -> int:
    """Produce the qubits for one cyclic factor, post-select onto indices
    below the order, and sample the Z/d Fourier measurement outcome.

    The outcome distribution is computed from the exact phase multipliers
    (the single place the hidden shift is consulted)."""
    d = factor.order
    e = max(1, (d - 1).bit_length())
    km = cfg.k * cfg.m
    step = cfg.N // d  # d divides N: finite orders divide Delta, 2^t divides Q
    for _ in range(POSTSELECT_ATTEMPTS):
        deltas = []
        for level in range(e):
            target = tuple(g * 2 ** level * step % cfg.N for g in factor.generator)
            qubit = sieve(km, 2, target, cfg, L, rng, stats)
            deltas.append(qubit.delta())
        # Boolean post-selection onto b < d succeeds with probability d/2^e.
        if stats is not None:
            stats.postselect_attempts += 1
        if rng.randrange(2 ** e) >= d:
            continue
        if stats is not None:
            stats.postselect_successes += 1
        # delta . s per level; the phase of index b sums the levels of its bits.
        pairings = [sum(a * x for a, x in zip(shift, delta)) for delta in deltas]
        phases = []
        for b in range(d):
            acc = sum(pr for level, pr in enumerate(pairings) if (b >> level) & 1)
            phases.append(float(Fraction(acc % cfg.N, cfg.N)))
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


class InfeasibleShift(ValueError):
    """No shift inside the norm box satisfies the measured congruences."""


def lift_shift(residues: Sequence[Tuple[CyclicFactor, int]], L: Lattice,
               bound: int) -> Tuple[int, ...]:
    """Solve gen.s = c (mod d) for all measured factors with ||s||_inf <= bound,
    via a particular solution of the congruence system plus Babai
    nearest-plane on the solution lattice A^#."""
    k = L.k
    if not residues:
        return tuple([0] * k)
    rows = [list(fac.generator) for fac, _ in residues]
    mods = [fac.order for fac, _ in residues]
    targets = [int(c) % fac.order for fac, c in residues]
    m = len(rows)
    sys_rows = [rows[i] + [mods[i] if j == i else 0 for j in range(m)] for i in range(m)]
    Asys = IntMatrix.from_rows(sys_rows)
    D, V, W = snf(Asys)
    vc = V.mul_vec(targets)
    y = [0] * (k + m)
    rank = 0
    for i in range(min(m, k + m)):
        if D[i, i] != 0:
            rank = i + 1
    for i in range(m):
        di = D[i, i] if i < rank else 0
        if di:
            q, r = divmod(vc[i], di)
            if r:
                raise InfeasibleShift("congruence system has no integer solution")
            y[i] = q
        elif vc[i]:
            raise InfeasibleShift("congruence system has no integer solution")
    x = W.mul_vec(y)
    s0 = list(x[:k])
    kernel_cols = [W.column(j)[:k] for j in range(rank, k + m)]
    sol_lattice = Lattice.from_generators(IntMatrix.from_columns(kernel_cols, rows=k))
    assert sol_lattice.rank == k, "solution lattice must have full rank"
    reduced = lll(sol_lattice.basis.to_rational())
    point = babai_nearest_plane(reduced, [Fraction(c) for c in s0])
    best = None
    base = [Fraction(c) - pc for c, pc in zip(s0, point)]
    # Babai candidate first; a small coefficient enumeration catches near-ties.
    span = range(-2, 3)
    cols = [reduced.column(j) for j in range(k)]

    def consider(vec: List[Fraction]) -> None:
        nonlocal best
        ints = [int(c) for c in vec]
        norm = max(abs(c) for c in ints) if ints else 0
        if norm <= bound and (best is None or norm < best[0]):
            best = (norm, ints)

    consider(base)
    if best is None and k <= 4:
        for coeffs in _small_boxes(k, span):
            cand = list(base)
            for j, a in enumerate(coeffs):
                if a:
                    cand = [x - a * y for x, y in zip(cand, cols[j])]
            consider(cand)
    if best is None:
        raise InfeasibleShift(f"no solution with infinity norm <= {bound}")
    return tuple(best[1])


def _small_boxes(k: int, span) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = [()]
    for _ in range(k):
        out = [c + (a,) for c in out for a in span]
    return out


def recover_shift(shift: Sequence[int], L: Lattice, t: int, rng: random.Random,
                  cfg: SieveConfig,
                  stats: Optional[SieveStats] = None) -> Optional[Tuple[int, ...]]:
    """Full shift recovery; returns a vector congruent to the planted shift
    mod L with probability >= 1/2 in exact mode, or None on failure."""
    stats = stats if stats is not None else SieveStats()
    residues: List[Tuple[CyclicFactor, int]] = []
    try:
        for fac in build_target_group(L, t):
            c = assemble_cyclic(fac, cfg, L, shift, rng, stats)
            residues.append((fac, c))
        return lift_shift(residues, L, cfg.shift_bound)
    except (SieveBudgetExceeded, InfeasibleShift):
        return None
