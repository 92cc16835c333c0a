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

from .lattice import Lattice, dual_sample_uniform, gaussian_grid_noise
from .lll import lll_from_coarse
from .matrix import IntMatrix, RatMatrix, snf, snf_rational
from .rationals import legendre_reconstruct


class ScheduleOverflow(ValueError):
    """Requested parameters exceed the configured bit-length ceiling."""


PARAM_BIT_CEILING = 1 << 20


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
    if Q.bit_length() > PARAM_BIT_CEILING:
        raise ScheduleOverflow(
            f"Q needs {Q.bit_length()} bits, ceiling is {PARAM_BIT_CEILING}"
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

    The recovery works on the integer numerators of E, its reduction, B1 and
    B2 over one common denominator, and on those of B3 = B1 adj(B2) / det(B2)
    over |det(B2)|; each is kept here once, as the RatMatrix that wraps those
    numerators."""

    E: RatMatrix
    lll_basis: Optional[RatMatrix] = None
    B1: Optional[RatMatrix] = None
    ell_guess: Optional[int] = None
    B2: Optional[RatMatrix] = None
    B3: Optional[RatMatrix] = None
    A4: Optional[RatMatrix] = None
    A5: Optional[RatMatrix] = None
    A6: Optional[IntMatrix] = None
    failure: Optional[str] = None


def _flattened(unit: int, last: List[int]) -> IntMatrix:
    """The columns unit * e_1, ..., unit * e_k and `last` of Z^(k+1)."""
    k = len(last) - 1
    return IntMatrix.from_columns([[unit * (i == j) for i in range(k + 1)] for j in range(k)]
                                  + [last])


def _round_half_even(a: int, b: int) -> int:
    """round(Fraction(a, b)) for b > 0, without building the Fraction."""
    q, r = divmod(2 * a + b, 2 * b)
    return q - 1 if r == 0 and q & 1 else q


def recover_colattice(y: Tuple[int, ...], modulus: int,
                      p: AlgAParams) -> Tuple[Optional[Lattice], RecoveryTrace]:
    """Recover H_1 = H_R intersect Z^k from a single Fourier sample, the
    point y / modulus of the torus.

    Returns (lattice, trace); the lattice is None when the sample is bad
    (no short LLL prefix, a singular row selection, or an unverified
    continued-fraction reconstruction), in which case the caller resamples."""
    k = len(y)
    # lift(y): the numerators of the representative in (-1/2, 1/2]^k.
    lift = [c - modulus if 2 * c > modulus else c for c in y]
    # E = [I_k, lift(y); 0, 1/T] as integers over scale.  Every step below
    # is invariant under a common scale, so any multiple of T and the
    # modulus serves.
    scale = math.lcm(p.T, modulus)
    E = _flattened(scale, [c * (scale // modulus) for c in lift] + [scale // p.T])
    trace = RecoveryTrace(E.to_rational(scale))

    # Reduce first with lift(y) rounded to the grid 1/G, G = T * 2^bits(R).
    # A lattice vector no longer than 1/R has last coordinate c/T with
    # |c| <= T/R, so the rounding moves each of its entries by at most
    # |c|/(2G) < 1/(2R^2): the short vectors keep their shape on a basis of
    # a fraction of Q's bits.  The exact pass on E follows.
    G = p.T << p.R.bit_length()
    coarse = _flattened(G, [_round_half_even(c * G, modulus) for c in lift] + [G // p.T])
    B = lll_from_coarse(E, coarse)
    trace.lll_basis = B.to_rational(scale)
    # A column is short when its norm, over `scale`, is at most r = 1/R.
    R_sq, scale_sq = p.R * p.R, scale * scale
    kappa = 0
    for col in B.columns():
        if sum(x * x for x in col) * R_sq <= scale_sq:
            kappa += 1
        else:
            break
    if kappa == 0:
        trace.failure = "no short vectors in the LLL prefix"
        return None, trace
    ell = k + 1 - kappa
    trace.ell_guess = ell
    B1 = IntMatrix.from_columns(B.columns()[:kappa], rows=k + 1)
    trace.B1 = B1.to_rational(scale)

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
        return None, trace
    sel = best_sel
    nonsel = [i for i in range(k) if i not in set(sel)]
    B2 = IntMatrix.from_rows([B1.data[i] for i in sel])
    trace.B2 = B2.to_rational(scale)
    # B3 = B1 B2^-1 = B1 adj(B2) / det(B2); the common scale cancels.
    det, adj = B2.adjugate()
    B3 = (B1 @ adj.scale(1 if det > 0 else -1)).to_rational(abs(det))
    trace.B3 = B3

    # Columns of B3 carry the identity on the selected rows; the one whose
    # pivot sits on the last row is the flattening direction and is dropped.
    a4_rows: List[List[Fraction]] = []
    for i in nonsel:
        out_row = []
        for c in range(kappa - 1):
            rec = legendre_reconstruct(B3[i, c], p.R)
            if not rec.verified:
                trace.failure = "unverified continued-fraction reconstruction"
                return None, trace
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
        h1 = Lattice.trivial(k)
        trace.A6 = h1.basis
        return h1, trace
    _, V, _ = snf_rational(A5)
    v_inv = V.inverse_unimodular()
    A6 = IntMatrix.from_columns([v_inv.column(j) for j in range(ell)], rows=k)
    trace.A6 = A6
    return Lattice.from_generators(A6), trace


def _pull_back(h1: Lattice, secret: Lattice) -> IntMatrix:
    """The integer P with h1.basis @ P = secret.basis, by back-substitution
    on the pivot rows of h1's HNF basis, which form an upper-triangular
    matrix with nonzero diagonal.  The secret must lie in h1."""
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
                raise ValueError("secret is not in H1")
        cols.append(x)
    return IntMatrix.from_columns(cols, rows=h1.rank)


def finite_stage(secret: Lattice, h1: Lattice, p: AlgAParams,
                 rng: random.Random) -> Optional[Lattice]:
    """Exact finite-group stage: recover the secret inside H_1.

    Pulls the secret back through the H_1 basis to a full-rank sublattice of
    Z^ell, draws exact uniform dual samples of the finite dual group, grows
    the generated subgroup until it stabilizes for 2 ceil(log2 index) + 4
    consecutive draws, converts the dual generators to a primal basis via the
    SNF, and maps back.  Returns None if the draw budget runs out."""
    if secret.rank != h1.rank or not h1.contains_lattice(secret):
        raise ValueError("finite_stage needs secret <= H1 of equal rank")
    ell = h1.rank
    if ell == 0:
        return h1
    P = _pull_back(h1, secret)
    det, adj = P.adjugate()
    index = abs(det)
    if index == 1:
        return h1
    # A dual sample is P^-T a for a uniform over (Z/index)^ell; the group is
    # tracked scaled by index, and index P^-T = sign(det P) adj(P)^T.
    sign = 1 if det > 0 else -1
    adj_t = adj.transpose()
    window = 2 * (index - 1).bit_length() + 4
    budget = 64 * (index.bit_length() + 2)
    # Track the group <Z^ell, samples> as the integer lattice (index * group).
    gens = [[index if i == j else 0 for i in range(ell)] for j in range(ell)]
    group = Lattice.from_generators(IntMatrix.from_columns(gens, rows=ell))
    stable = 0
    draws = 0
    while stable < window:
        if draws >= budget:
            return None
        draws += 1
        a = [rng.randrange(index) for _ in range(ell)]
        scaled = [sign * c % index for c in adj_t.mul_vec(a)]
        if group.contains(scaled):
            stable += 1
            continue
        stable = 0
        cols = [group.basis.column(j) for j in range(group.rank)] + [scaled]
        group = Lattice.from_generators(IntMatrix.from_columns(cols, rows=ell))
    # Dual generators y_j = column_j / index; primal = W diag(denominators).
    # The SNF's transforms do not change when its input is scaled, so the
    # SNF of index * (dual generators) gives W, and D / index the diagonal.
    D, _, W = snf(group.basis.transpose())
    qs = [index // math.gcd(D[i, i], index) for i in range(ell)]
    primal = IntMatrix.from_columns(
        [[W[i, j] * qs[j] for i in range(ell)] for j in range(ell)], rows=ell
    )
    rec_cols = [h1.basis.mul_vec(primal.column(j)) for j in range(ell)]
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
    params = p
    for _ in range(p.retries):
        sample = sample_fourier_point(secret, params, rng)
        if stats is not None:
            stats.samples += 1
        h1, trace = recover_colattice(sample.y1, params.Q, params)
        if (h1 is not None and h1.rank == secret.rank
                and h1.contains_lattice(secret)):
            rec = finite_stage(secret, h1, params, rng)
            if rec is not None:
                return rec
            if stats is not None:
                stats.last_failure = "finite stage draw budget"
        elif stats is not None:
            stats.last_failure = trace.failure or "wrong colattice candidate"
        params = params.escalated()
        if stats is not None:
            stats.escalations += 1
    return None
