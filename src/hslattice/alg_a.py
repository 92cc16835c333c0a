"""Classical end-to-end simulation of the infinite-index abelian HSP recovery.

The quantum Fourier stage is replaced by its exact sampling model: a uniform
dual-group point plus orthogonal Gaussian noise, rasterized to the 1/Q grid.
The classical stages are implemented in full: the flattened (k+1)-dimensional
lattice, LLL, short-prefix rank inference, echelonization against a
max-determinant row selection, continued-fraction denoising with denominator
cutoff R, and the rational Smith normal form that yields an integral basis of
the saturation H_1.  A final exact finite-group stage (the classical stand-in
for Shor--Kitaev on the finite-index preimage) recovers the hidden lattice
inside H_1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Tuple

from .lattice import Lattice, dual_sample_uniform, gaussian_grid_noise, saturation_from_snf
from .lll import lll, lll_from_coarse
from .matrix import IntMatrix, RatMatrix, snf_rational
from .rationals import legendre_reconstruct


class ScheduleOverflow(ValueError):
    """Requested parameters exceed the configured bit-length ceiling."""


class WrongColattice(ValueError):
    """The secret is not a full-rank sublattice of the candidate H_1."""


# The largest (k+1) * bits(Q) schedule accepts: the size of the flattened
# (k+1)-dimensional lattice that recover_colattice reduces.
PARAM_BIT_CEILING = 1 << 19
# The coarse reduction of recover_colattice takes one stage per STAGE_BITS
# bits of log2 T.  When that makes more than one stage, a first stage at
# T_1 = 2^FIRST_STAGE_BITS comes before them: a full-rank secret makes all
# its swaps there, on small integers, and the next stage then makes none.
# Every stage but the last is on its own grid 1/T_j; only the last, which
# the certificate reads, carries the extra factor 2^bits(R).
STAGE_BITS = 512
FIRST_STAGE_BITS = 64


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


@dataclass(frozen=True)
class AlgAParams:
    """Power-of-two parameter schedule for the recovery pipeline.

    Q is the measurement grid radix, R the denominator cutoff (r = 1/R the
    short-vector threshold), R1 and Lambda the collimation-free short-vector
    and multiplier bounds, T the flattening (t = 1/T), S the Gaussian
    sharpness (s = 1/S)."""

    n: int
    k: int
    Q: int
    R: int
    R1: int
    Lambda: int
    T: int
    S: int
    retries: int = 8

    def validate(self) -> None:
        n, k = self.n, self.k
        delta_bound = 1 << (2 * n)
        assert self.R >= 1 << (2 * n + 1)
        assert self.R >= k + 1
        assert self.R * self.R >= k + 1
        assert self.R1 >= delta_bound and self.R1 >= 1 << k
        assert self.R1 >= (1 << (k + 1)) * self.R
        assert self.Lambda == self.R1 ** k
        assert self.T >= self.Lambda * self.R1 and self.T > 1
        assert self.S >= delta_bound * delta_bound
        assert self.S * self.S >= self.Lambda * self.Lambda * k
        assert self.S * self.S > self.T * self.T * k
        assert self.S >= 2 * self.T * self.T
        assert self.S >= 4 * self.R * self.R * self.T ** 3
        assert self.Q >= self.S * self.S

    def escalated(self) -> "AlgAParams":
        """One doubling-on-failure step: T doubles, S and Q follow."""
        T = 2 * self.T
        S = max(16 * self.S, 4 * self.R * self.R * T ** 3)
        S = _next_pow2(S)
        p = replace(self, T=T, S=S, Q=S * S)
        p.validate()
        return p


def schedule(n: int, k: int, retries: int = 8) -> AlgAParams:
    """Smallest power-of-two parameters satisfying the full constraint list."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    R = _next_pow2(max(1 << (2 * n + 1), k + 1))
    R1 = _next_pow2(max(1 << (2 * n), 1 << k, (1 << (k + 1)) * R))
    Lam = R1 ** k
    T = Lam * R1
    sqrt_k = math.isqrt(k) + 1  # integer upper bound on sqrt(k)
    S = _next_pow2(max(
        1 << (4 * n),
        Lam * sqrt_k,
        T * sqrt_k + 1,
        2 * T * T,
        4 * R * R * T ** 3,
    ))
    Q = S * S
    if (k + 1) * Q.bit_length() > PARAM_BIT_CEILING:
        raise ScheduleOverflow(
            f"the flattened lattice needs (k+1) bits(Q) = {(k + 1) * Q.bit_length()} bits, "
            f"ceiling is {PARAM_BIT_CEILING}"
        )
    p = AlgAParams(n=n, k=k, Q=Q, R=R, R1=R1, Lambda=Lam, T=T, S=S, retries=retries)
    p.validate()
    return p


@dataclass(frozen=True)
class FourierSample:
    """One measured Fourier mode on the grid (1/Q)Z^k, as its numerators
    over Q.

    true_y0 is the noiseless dual point, as its numerators over
    lcm(Delta, Q), retained only in debug mode so the recovery path provably
    never reads the secret in production."""

    y1: Tuple[int, ...]
    true_y0: Optional[Tuple[int, ...]] = None


def sample_fourier_point(secret: Lattice, p: AlgAParams, rng: random.Random,
                         debug: bool = False) -> FourierSample:
    """Draw y1 = grid-round(y0 + u2): y0 exactly uniform over H^# (on the 1/Q
    grid in the torus directions), u2 Gaussian in H_R with density
    exp(-2 pi S^2 ||u||^2), i.e. per-coordinate deviation 1/(2 sqrt(pi) S)."""
    if secret.k != p.k:
        raise ValueError("dimension mismatch")
    y0, _, _ = dual_sample_uniform(secret, p.Q, rng)
    y1 = gaussian_grid_noise(secret, y0, math.lcm(secret.gram_det, p.Q), p.S, p.Q, rng)
    return FourierSample(y1, y0 if debug else None)


@dataclass
class RecoveryTrace:
    """Intermediate matrices of the classical recovery, kept for inspection.

    The recovery works on the integer numerators of E, B1 and B2 over one
    common denominator; each is kept here once, as the RatMatrix that wraps
    those numerators.  The reduced basis E U is kept as the unimodular U:
    the recovery forms only its first kappa columns, B1, and lll_basis
    forms the whole product when it is read."""

    E: RatMatrix
    U: Optional[IntMatrix] = None
    B1: Optional[RatMatrix] = None
    ell_guess: Optional[int] = None
    B2: Optional[RatMatrix] = None
    A4: Optional[RatMatrix] = None
    A5: Optional[RatMatrix] = None
    failure: Optional[str] = None

    @property
    def lll_basis(self) -> Optional[RatMatrix]:
        """The reduced basis E U, formed on each read; None until U is set."""
        return None if self.U is None else RatMatrix(self.E.num @ self.U, self.E.den)


def _flattened(unit: int, last: List[int]) -> IntMatrix:
    """The columns unit * e_1, ..., unit * e_k and `last` of Z^(k+1)."""
    k = len(last) - 1
    return IntMatrix.from_columns([[unit * (i == j) for i in range(k + 1)] for j in range(k)]
                                  + [last])


def _coarse_stages(lift: List[int], modulus: int, p: AlgAParams) -> List[IntMatrix]:
    """The coarse copies of E that lll_from_coarse reduces, finest last.

    With b = log2 T and s = ceil(b / STAGE_BITS), the uniform stages flatten
    with T_j = 2^(j b / s) for j = 1..s (rounded down; T_s = T).  When s > 1
    a first stage with T = 2^FIRST_STAGE_BITS comes before them, so there
    are s + 1 stages; when s = 1 the one stage is E's own grid.  Each stage
    rounds lift(y) to the grid 1/G: its columns are G e_1, ..., G e_k and
    (round(G lift(y)), G / T_j).  The last stage has G = T * 2^bits(R), so
    that the rounding term sqrt(k) T / (2 G R) of recover_colattice's
    certificate, which reads only that stage, stays far below 1/R.  An
    earlier stage only steers the transform U the next one starts from, so
    it takes its own grid, G = T_j, and stays bits(R) bits shorter.

    Every G is a power of two, so one exact division per coordinate serves
    all stages: with top = log2 of the last G and 2^(top + 1) lift(y) /
    modulus = q + f, f in [0, 1), a stage with G = 2^g and sh = top + 1 - g
    >= 1 takes round(G lift(y) / modulus) = round((q + f) / 2^sh) from
    q >> sh, q's low sh bits and whether f = 0, half to even as round()
    does.  That division shifts out modulus's factor 2^v and divides by its
    odd part alone."""
    b = p.T.bit_length() - 1
    s = -(-b // STAGE_BITS)
    exponents = [j * b // s for j in range(1, s + 1)]
    if s > 1:
        exponents.insert(0, FIRST_STAGE_BITS)
    top = b + p.R.bit_length()
    v = (modulus & -modulus).bit_length() - 1
    low = (1 << v) - 1
    split = []
    for c in lift:
        x = c << (top + 1)
        q, r = divmod(x >> v, modulus >> v)
        split.append((q, not r and not x & low))
    stages = []
    for j, e in enumerate(exponents):
        g = top if j == len(exponents) - 1 else e  # log2 G
        sh = top + 1 - g
        half = 1 << (sh - 1)
        last = []
        for q, exact in split:
            hi, lo = q >> sh, q & (2 * half - 1)
            last.append(hi + (lo > half or lo == half and (not exact or hi & 1)))
        stages.append(_flattened(1 << g, last + [1 << (g - e)]))
    return stages


def recover_colattice(y: Tuple[int, ...], modulus: int,
                      p: AlgAParams) -> Tuple[Optional[Lattice], RecoveryTrace]:
    """Recover H_1 = H_R intersect Z^k from a single Fourier sample, the
    point y / modulus of the torus.

    Returns (lattice, trace); the lattice is None when the sample is bad
    (no short LLL prefix, a singular row selection, or an unverified
    continued-fraction reconstruction), in which case the caller resamples.

    The short vectors (norm <= 1/R) of E = [I_k, lift(y); 0, 1/T] are found
    on coarse copies of E (_coarse_stages: one per STAGE_BITS bits of
    log2 T, after a first copy at T = 2^FIRST_STAGE_BITS when there are
    several), which lll_from_coarse reduces in turn, going straight to the
    last once a stage after the first makes no swap.  Their span is
    certified on the last copy, after the perturbation argument of Chang,
    Stehle and Villard (Math. Comp. 2012) and Villard (ISSAC 2007).  The
    earlier copies, each on its own grid 1/T_j, and the skip only steer U,
    so the certificate below, which reads the last copy alone, holds as it
    stands.  When the stage before the last made no swap, lll_from_coarse
    does not reduce the last one at all: it proves, with integer interval
    arithmetic on the exact Gram matrix of C U0 (U0 the transform handed
    on), that the exact reduction would make no swap, which size reductions
    it would make and which of the kappa comparisons below hold.  Each
    interval encloses the exact Gram-Schmidt value it stands for, so a
    decision is taken only where the enclosure settles it, and then it is
    the exact decision; no float enters.  Where one stays open, the exact
    reduction of C runs.  Either way U and kappa are those of the exact
    reduction, so the argument below reads them as it stands.

    Let U reduce the last stage C, on the grid 1/G with G = T * 2^bits(R),
    and let x be an integer vector with |E x| <= 1/R.  The last entry of
    E x is c/T with |c| <= T/R, and C / G differs from E only in the
    rounded entries of the last column, each by at most 1/(2G); so
    |C x| / G <= 1/R + sqrt(k) T / (2 G R), and in C's integer units
    |C x| <= (2G + T (isqrt(k) + 1)) / (2R).  If every Gram-Schmidt norm
    of C U from index kappa on exceeds that bound, C x, as a combination
    of C U's columns, uses only the first kappa of them; the same
    coefficients on E U give E x.  So every short vector of
    E lies in the span of the first kappa columns of E U.  When those
    columns are themselves short they are B1: they span exactly the span of
    E's short vectors, and no pass over E's own (much longer) integers is
    needed.  An exact LLL basis of E whose short prefix also has kappa
    columns spans the same space, and everything downstream reads only the
    rational span of B1: the max-|det| row selection ranks every selection
    by the same factor under B1 -> B1 V, and B3 = B1 adj(B2) / det(B2) does
    not change.  So the result is the one the exact reduction gives.  When a
    certified column is not short, the exact lll runs on E U and its leading
    short columns are B1, as without the certificate.

    Only those first kappa columns of E U are formed (kappa = 1 for a
    full-rank secret); the whole product, of E's long integers by U's, is
    formed only for the exact lll, and the trace keeps U, with E U the
    reduced basis either way, so trace.lll_basis forms it when read."""
    k = len(y)
    # lift(y): the numerators of the representative in (-1/2, 1/2]^k.
    lift = [c - modulus if 2 * c > modulus else c for c in y]
    # E = [I_k, lift(y); 0, 1/T] as integers over scale.  Every step below
    # is invariant under a common scale, so any multiple of T and the
    # modulus serves.
    scale = math.lcm(p.T, modulus)
    E = _flattened(scale, [c * (scale // modulus) for c in lift] + [scale // p.T])
    trace = RecoveryTrace(E.to_rational(scale))

    stages = _coarse_stages(lift, modulus, p)
    G = stages[-1][0, 0]
    bound_sq = (2 * G + p.T * (math.isqrt(k) + 1)) ** 2
    R_sq = p.R * p.R
    # The certified prefix: every coarse Gram-Schmidt norm from kappa on
    # exceeds the coarse image bound of a vector of norm <= 1/R.
    U, kappa = lll_from_coarse(stages, Fraction(bound_sq, 4 * R_sq))
    scale_sq = scale * scale

    def short(col) -> bool:  # its norm, over `scale`, is at most r = 1/R
        return sum(x * x for x in col) * R_sq <= scale_sq

    B1 = E @ IntMatrix.from_columns(U.columns()[:kappa], rows=k + 1)
    if not all(map(short, B1.columns())):
        B = lll((E @ U).to_rational()).to_integer()
        # The U with E U = B, from the bottom row up: E is scale I_k beside
        # its last column.
        bottom = [x // E[k, k] for x in B.data[k]]
        U = IntMatrix.from_rows([[(x - E[r, k] * t) // scale for x, t in zip(B.data[r], bottom)]
                                 for r in range(k)] + [bottom])
        cols = B.columns()
        kappa = next((i for i, col in enumerate(cols) if not short(col)), k + 1)
        B1 = IntMatrix.from_columns(cols[:kappa], rows=k + 1)
    trace.U = U
    if kappa == 0:
        trace.failure = "no short vectors in the LLL prefix"
        return None, trace
    return _colattice_from_prefix(B1.to_rational(scale), p, trace), trace


def _colattice_from_prefix(B1: RatMatrix, p: AlgAParams,
                           trace: RecoveryTrace) -> Optional[Lattice]:
    """H_1 from B1, a basis of the span of E's short vectors (kappa >= 1
    columns), filling in the rest of trace; None on a bad sample."""
    kappa = B1.cols
    k = B1.rows - 1
    ell = k + 1 - kappa
    trace.ell_guess = ell
    trace.B1 = B1
    B1, scale = B1.num, B1.den

    # Every selection's determinant carries the same factor scale^kappa, so
    # the integer determinants rank the selections as the rational ones do.
    best_sel: Optional[List[int]] = None
    best_det = 0
    for extra in combinations(range(k), kappa - 1):
        sel = list(extra) + [k]
        d = IntMatrix.from_rows([B1.data[i] for i in sel]).det()
        if abs(d) > abs(best_det):
            best_det = d
            best_sel = sel
    if best_sel is None:
        trace.failure = "every row selection containing the last row is singular"
        return None
    sel = best_sel
    nonsel = [i for i in range(k) if i not in set(sel)]
    B2 = IntMatrix.from_rows([B1.data[i] for i in sel])
    trace.B2 = B2.to_rational(scale)
    # B3 = B1 B2^-1 = B1 adj(B2) / det(B2); the common scale cancels.
    det, adj = B2.adjugate()
    B3 = (B1 @ adj.scale(1 if det > 0 else -1)).to_rational(abs(det))

    # Columns of B3 carry the identity on the selected rows; the one whose
    # pivot sits on the last row is the flattening direction and is dropped.
    a4_rows: List[List[Fraction]] = []
    for i in nonsel:
        out_row = []
        for c in range(kappa - 1):
            rec = legendre_reconstruct(B3[i, c], p.R)
            if not rec.verified:
                trace.failure = "unverified continued-fraction reconstruction"
                return None
            out_row.append(rec.value)
        a4_rows.append(out_row)
    A4 = RatMatrix.from_rows(a4_rows, cols=kappa - 1)
    trace.A4 = A4

    a5 = [[0] * ell for _ in range(k)]
    for i, r in enumerate(nonsel):
        a5[r][i] = 1
    for c in range(kappa - 1):
        for i in range(ell):
            a5[sel[c]][i] = -A4[i, c]
    A5 = RatMatrix.from_rows(a5)
    trace.A5 = A5

    if ell == 0:
        return Lattice.trivial(k)
    _, V, _ = snf_rational(A5)
    return saturation_from_snf(V, ell)


def _pull_back(h1: Lattice, secret: Lattice) -> IntMatrix:
    """The integer P with h1.basis @ P = secret.basis, by back-substitution
    on the pivot rows of h1's HNF basis, which form an upper-triangular
    matrix with nonzero diagonal.  Raises WrongColattice when a pivot row
    leaves a remainder; the caller checks the other rows."""
    N = h1.basis
    pivots = h1.pivots
    cols = []
    for s in secret.basis.columns():
        x = [0] * h1.rank
        for i in range(h1.rank - 1, -1, -1):
            r, _ = pivots[i]
            rest = s[r] - sum(N[r, j] * x[j] for j in range(i + 1, h1.rank))
            x[i], rem = divmod(rest, N[r, i])
            if rem:
                raise WrongColattice("secret is not in H1")
        cols.append(x)
    return IntMatrix.from_columns(cols, rows=h1.rank)


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b), for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _insert(rows: List[List[int]], v: List[int], index: int) -> bool:
    """Add v to the group spanned by the triangular rows modulo index; True
    when the group grew.

    Row r is zero after coordinate r, its pivot rows[r][r] divides index and
    its other entries lie in [0, index); v, reduced mod index, has len(v)
    coordinates and is zero after them.  v is reduced down the pivots, bottom
    row first; it is a member when no pivot leaves a remainder.  At a
    remainder, an extended-gcd step swaps (row r, v) for a unimodular pair
    whose first has pivot g = gcd(pivot, v[r]) and whose second is zero from
    r on, and that second goes on down.  Then (index / g) row r, which is
    zero from r on, is inserted into the rows before r: with it every
    (index / pivot) row r lies in the span of the rows before r, so the rows
    alone span the group with index Z^ell and the one pass above decides
    membership (the strong echelon form modulo index)."""
    grew = False
    for r in range(len(v) - 1, -1, -1):
        x = v[r]
        if not x:
            continue
        row = rows[r]
        p = row[r]
        q, rem = divmod(x, p)
        if not rem:
            v = [(c - q * h) % index for c, h in zip(v[:r], row)]
            continue
        g, s, t = _xgcd(p, x)
        a, b = p // g, x // g
        rows[r] = [(s * h + t * c) % index for h, c in zip(row[:r], v)] + [g] + row[r + 1:]
        v = [(a * c - b * h) % index for h, c in zip(row[:r], v)]
        _insert(rows, [(index // g) * h % index for h in rows[r][:r]], index)
        grew = True
    return grew


def finite_stage(secret: Lattice, h1: Lattice, rng: random.Random) -> Optional[Lattice]:
    """Exact finite-group stage: recover the secret inside H_1.

    Pulls the secret back through the H_1 basis to a full-rank sublattice P
    of Z^ell, draws exact uniform dual samples of the finite dual group, grows
    the generated subgroup until it stabilizes for 2 ceil(log2 index) + 4
    consecutive draws, takes the annihilator of the dual generators as the
    primal basis, and maps back.  Returns None if the draw budget of
    64 (bits(index) + 2) draws runs out, and raises WrongColattice, before
    any draw, when the secret is not a sublattice of H_1 of its rank.

    The group is kept scaled by index = |det P|, as <index Z^ell, draws>: ell
    triangular rows, an HNF kept modulo the index (Domich, Kannan and
    Trotter, Math. Oper. Res. 1987; Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.4.8), which _insert tests and grows
    without a Lattice or an HNF.  Once the group's order modulo index Z^ell,
    index^ell / prod(pivots), reaches index it is the whole dual group and
    no draw can leave it; each remaining draw is then still made (ell
    rng.randrange(index) calls, up to the same window and budget), so the
    RNG ends where it would, but no product is computed."""
    if secret.rank != h1.rank:
        raise WrongColattice("finite_stage needs secret <= H1 of equal rank")
    ell = h1.rank
    if ell == 0:
        return h1
    P = _pull_back(h1, secret)
    if h1.basis @ P != secret.basis:
        raise WrongColattice("finite_stage needs secret <= H1 of equal rank")
    det, adj = P.adjugate()
    index = abs(det)
    if index == 1:
        return h1
    # A dual sample is P^-T a for a uniform over (Z/index)^ell; the group is
    # tracked scaled by index, and index P^-T = sign(det P) adj(P)^T.
    sign = 1 if det > 0 else -1
    dual = [[sign * x % index for x in row] for row in adj.transpose().data]
    window = 2 * (index - 1).bit_length() + 4
    budget = 64 * (index.bit_length() + 2)
    # Row r of <index Z^ell, draws> starts as index e_r; the group is whole
    # when the product of the pivots falls to index^(ell - 1).
    rows = [[0] * r + [index] + [0] * (ell - 1 - r) for r in range(ell)]
    pivot_product = index ** ell
    whole = index ** (ell - 1)
    stable = 0
    draws = 0
    while stable < window:
        if draws >= budget:
            return None
        draws += 1
        a = [rng.randrange(index) for _ in range(ell)]
        if pivot_product == whole or not _insert(
                rows, [sum(m * x for m, x in zip(row, a)) % index for row in dual], index):
            stable += 1
            continue
        stable = 0
        pivot_product = math.prod(row[r] for r, row in enumerate(rows))
    # The dual generators are the columns of G / index, G the rows as
    # columns; their annihilator {x : G^T x in index Z^ell} is spanned by the
    # columns of (index G^-1)^T, the rows of index adj(G) / det G.  G contains
    # index Z^ell, so index G^-1 is integral and the division exact.
    det_g, adj_g = IntMatrix.from_columns(rows, rows=ell).adjugate()
    rec_cols = [h1.basis.mul_vec([index * x // det_g for x in row]) for row in adj_g.data]
    return Lattice.from_generators(IntMatrix.from_columns(rec_cols, rows=secret.k))


@dataclass
class AlgAStats:
    samples: int = 0
    escalations: int = 0
    last_failure: Optional[str] = None


def end_to_end(secret: Lattice, p: AlgAParams, rng: random.Random,
               stats: Optional[AlgAStats] = None) -> Optional[Lattice]:
    """Full pipeline: sample + recover H_1 (with retries and doubling-on-
    failure escalation), then the finite stage.  None when retries run out."""
    stats = stats if stats is not None else AlgAStats()
    params = p
    for _ in range(p.retries):
        sample = sample_fourier_point(secret, params, rng)
        stats.samples += 1
        h1, trace = recover_colattice(sample.y1, params.Q, params)
        if h1 is None:
            stats.last_failure = trace.failure
        else:
            try:
                rec = finite_stage(secret, h1, rng)
            except WrongColattice:
                stats.last_failure = "wrong colattice candidate"
            else:
                if rec is not None:
                    return rec
                stats.last_failure = "finite stage draw budget"
        params = params.escalated()
        stats.escalations += 1
    return None
