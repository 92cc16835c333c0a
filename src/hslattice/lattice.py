"""Sublattices of Z^k and the geometry of their dual groups in (R/Z)^k.

A lattice H <= Z^k is its canonical column-HNF basis, and every value read
from the basis is cached on the lattice at first use.  The torus dual
H^# = {y : x.y in Z for all x in H} splits into a finite component group
(reached through the reciprocal lattice H^o) and a connected torus H_1^#
(reached through the integer points of H_R^perp); the operations here expose
exactly the pieces the recovery algorithms need.  A point y of (R/Z)^k is
always the tuple x of its integer numerators in [0, modulus), with the
modulus passed beside it: y = x / modulus.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .lll import gram_schmidt
from .matrix import IntMatrix, RatMatrix, hnf, hnf_pivots, snf

# 2*sqrt(pi) to 17 significant digits; fixes the Gaussian width s/(2 sqrt(pi))
# as an exact rational.
_TWO_SQRT_PI = Fraction(35449077018110322, 10 ** 16)


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^k, held as its canonical HNF basis; equality and
    hash are those of the basis."""

    basis: IntMatrix  # k x rank, column HNF, no zero columns

    @staticmethod
    def from_generators(G: IntMatrix) -> "Lattice":
        """Canonicalize an arbitrary generating set (any rank, any shape)."""
        H, _ = hnf(G)
        return Lattice(IntMatrix.from_columns([col for col in H.columns() if any(col)],
                                              rows=G.rows))

    @staticmethod
    def trivial(k: int) -> "Lattice":
        return Lattice(IntMatrix.from_columns([], rows=k))

    @property
    def k(self) -> int:
        return self.basis.rows

    @property
    def rank(self) -> int:
        return self.basis.cols

    @functools.cached_property
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The basis columns, read out of the row-major basis on first use."""
        return tuple(self.basis.columns())

    @functools.cached_property
    def gram_det(self) -> int:
        """The Gram determinant Delta = det(M^T M) of the basis M, 1 at rank 0."""
        delta = (self.basis.transpose() @ self.basis).det() if self.rank else 1
        if delta <= 0:
            raise ValueError("the basis has dependent columns")
        return delta

    @functools.cached_property
    def pivots(self) -> List[Tuple[int, int]]:
        """(pivot row, column) of each basis column, found on first use."""
        return hnf_pivots(self.basis)

    @functools.cached_property
    def smith(self) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
        """The Smith form (D, V, W) of the basis, D = V basis W, found on
        first use: the one SNF the saturation, the integer orthogonal and the
        sieve's target group read."""
        return snf(self.basis)

    @functools.cached_property
    def scaled_reciprocal(self) -> IntMatrix:
        """Delta times the reciprocal basis M (M^T M)^-1: M adj(M^T M), integral."""
        _, adj = (self.basis.transpose() @ self.basis).adjugate()
        return self.basis @ adj

    @functools.cached_property
    def orthogonal(self) -> IntMatrix:
        """Basis of {x in Z^k : M^T x = 0}, the integer points of H_R^perp:
        the rows rank.. of V in the Smith form D = V M W, as columns.  For
        x = V^T y, x^T M = y^T D W^-1 vanishes exactly when y does on the
        first rank coordinates."""
        return IntMatrix.from_columns(self.smith[1].data[self.rank:], rows=self.k)

    @functools.cached_property
    def frame(self) -> Tuple[Tuple[Tuple[Fraction, ...], Fraction], ...]:
        """The Gram-Schmidt frame of the basis as (vector, float-exact inverse
        norm) pairs; ValueError when an inverse norm underflows a float."""
        star, _, norms = gram_schmidt(self.columns)
        return tuple((tuple(v), Fraction(_inverse_sqrt(n))) for v, n in zip(star, norms))


def _inverse_sqrt(n: Fraction) -> float:
    """1 / sqrt(n) as a float for any positive rational n: n is split as
    4^e * m with m near 1 and 2^-e is put back by ldexp, so no step leaves
    the float range.  Raises ValueError when the result underflows to 0.0."""
    e = (n.numerator.bit_length() - n.denominator.bit_length()) // 2
    m = n / (Fraction(4) ** e)
    r = math.ldexp(1.0 / math.sqrt(float(m)), -e)
    if r == 0.0:
        raise ValueError(f"the inverse norm of a basis vector of squared length "
                         f"about 2^{2 * e} underflows a float")
    return r


def coset_canonical(L: Lattice, x: Sequence[int], centred: bool = False) -> Tuple[int, ...]:
    """Canonical representative of x + L: HNF pivot coordinates reduced into
    [0, pivot), or into [-pivot/2, pivot/2) when centred, from the bottom
    pivot row upward, other coordinates unchanged."""
    if len(x) != L.k:
        raise ValueError("dimension mismatch")
    v = [int(c) for c in x]
    for r, j in reversed(L.pivots):
        col = L.columns[j]
        p = col[r]
        q = (2 * v[r] + p) // (2 * p) if centred else v[r] // p
        if q:
            for i in range(L.k):
                v[i] -= q * col[i]
    return tuple(v)


def reciprocal_basis(L: Lattice) -> RatMatrix:
    """Generating matrix M (M^T M)^{-1} of the reciprocal lattice H^o."""
    if L.rank == 0:
        raise ValueError("rank-0 lattice has an empty reciprocal")
    return L.scaled_reciprocal.to_rational(L.gram_det)


def saturation(L: Lattice) -> Lattice:
    """H_1 = H_R intersect Z^k, computed from the Smith form of the basis."""
    if L.rank == 0:
        return L
    return saturation_from_snf(L.smith[1], L.rank)


def saturation_from_snf(V: IntMatrix, rank: int) -> Lattice:
    """The saturation of a rank-`rank` matrix M, from the left transform V of
    its SNF D = V M W: the lattice of the first `rank` columns of V^-1."""
    cols = V.inverse_unimodular().columns()[:rank]
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=V.rows))


def dual_membership(L: Lattice, x: Sequence[int], modulus: int) -> bool:
    """True iff the point x / modulus pairs integrally with every basis vector."""
    if len(x) != L.k:
        raise ValueError("dimension mismatch")
    for col in L.columns:
        if sum(map(operator.mul, x, col)) % modulus:
            return False
    return True


def dual_sample_uniform(L: Lattice, torus_grid: int,
                        rng: random.Random) -> Tuple[Tuple[int, ...], List[int], List[int]]:
    """Exact uniform sample y from H^#, with the connected torus part on the
    grid (1/torus_grid) Z^k, as numerators over the least modulus
    lcm(Delta, torus_grid): y = x / modulus.

    The finite component group is hit via frac(M_rec a) with a uniform over
    (Z/Delta)^rank (valid because Delta H^o <= H), convolved with
    frac(C u / torus_grid) for u uniform over (Z/torus_grid)^(k - rank), C
    the integer orthogonal.  Returns (x, a, u); the raw draws let callers
    check the genericity of the torus part."""
    if torus_grid < 1:
        raise ValueError("torus grid must be >= 1")
    modulus = math.lcm(L.gram_det, torus_grid)
    x = [0] * L.k
    a = [rng.randrange(L.gram_det) for _ in range(L.rank)]
    if a:
        step = modulus // L.gram_det
        x = [c + step * v for c, v in zip(x, L.scaled_reciprocal.mul_vec(a))]
    u = [rng.randrange(torus_grid) for _ in range(L.k - L.rank)]
    if u:
        step = modulus // torus_grid
        x = [c + step * v for c, v in zip(x, L.orthogonal.mul_vec(u))]
    return tuple(c % modulus for c in x), a, u


def gaussian_grid_noise(L: Lattice, x: Sequence[int], modulus: int, width: int, grid: int,
                        rng: random.Random) -> Tuple[int, ...]:
    """Add Gaussian noise along H_R with density exp(-2 pi width^2 ||u||^2),
    i.e. per-coordinate deviation 1/(2 sqrt(pi) width), to the point
    x / modulus and round to the (1/grid) Z^k grid; returns the numerators
    over grid.  One standard normal draw per basis vector.

    The offset is summed in units of 1/grid, so its denominators are only
    those of the draws, the frame and 2 sqrt(pi) width / grid, whatever the
    size of grid; with grid / modulus = a / m in lowest terms, each
    coordinate is then floor(c a / m + offset + 1/2), one division by the
    small 2 m q.  The point is the exact rational the unscaled sum gives."""
    sigma = grid / (_TWO_SQRT_PI * width)  # the deviation in units of 1/grid
    offset = [Fraction(0)] * len(x)
    for vec, inv_norm in L.frame:
        z = Fraction(rng.gauss(0.0, 1.0)) * sigma * inv_norm
        if z:
            offset = [o + z * g for o, g in zip(offset, vec)]
    common = math.gcd(grid, modulus)
    a, m = grid // common, modulus // common
    out = []
    for c, o in zip(x, offset):
        # floor(c a / m + o + 1/2) over the common denominator 2 m q
        q = o.denominator
        out.append((2 * (c * a * q + o.numerator * m) + m * q) // (2 * m * q) % grid)
    return tuple(out)


def basis_bit_complexity(L: Lattice) -> int:
    """Bit-complexity bound n with 2^n > prod_j ||m_j||_2 (Hadamard-style),
    the quantity the recovery schedule's R >= 2^(2n+1) needs."""
    prod_sq = 1
    for col in L.columns:
        prod_sq *= sum(c * c for c in col)
    return math.isqrt(prod_sq).bit_length() + 1
