"""Sublattices of Z^k and the geometry of their dual groups in (R/Z)^k.

A lattice H <= Z^k is held as a canonical column-HNF basis.  The torus dual
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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .lll import gram_schmidt
from .matrix import IntMatrix, RatMatrix, hnf, hnf_pivots, snf

# 2*sqrt(pi) to 17 significant digits; fixes the Gaussian width s/(2 sqrt(pi))
# as an exact rational.
_TWO_SQRT_PI = Fraction(35449077018110322, 10 ** 16)


@dataclass(frozen=True)
class Lattice:
    """A sublattice of Z^k with canonical HNF basis and cached Gram determinant."""

    k: int
    rank: int
    basis: IntMatrix  # k x rank, column HNF, no zero columns
    gram_det: int

    @staticmethod
    def from_generators(G: IntMatrix) -> "Lattice":
        """Canonicalize an arbitrary generating set (any rank, any shape)."""
        H, _ = hnf(G)
        cols = [col for col in H.columns() if any(col)]
        basis = IntMatrix.from_columns(cols, rows=G.rows)
        gram = basis.transpose() @ basis
        delta = gram.det() if basis.cols else 1
        if delta <= 0:
            raise ValueError("HNF produced dependent columns")
        return Lattice(G.rows, basis.cols, basis, delta)

    @staticmethod
    def zn(k: int) -> "Lattice":
        return Lattice.from_generators(IntMatrix.identity(k))

    @staticmethod
    def trivial(k: int) -> "Lattice":
        return Lattice(k, 0, IntMatrix(k, 0, tuple(() for _ in range(k))), 1)

    def contains(self, x: Sequence[int]) -> bool:
        return all(c == 0 for c in coset_canonical(self, x))

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(other.basis.column(j)) for j in range(other.rank))

    @functools.cached_property
    def pivots(self) -> List[Tuple[int, int]]:
        """(pivot row, column) of each basis column, found on first use."""
        return hnf_pivots(self.basis)

    @functools.cached_property
    def geometry(self) -> "LatticeGeometry":
        """The geometry of H^#, built on first use and kept with the lattice."""
        return LatticeGeometry.of(self)


@dataclass(frozen=True)
class LatticeGeometry:
    """What sampling from H^# needs: the reciprocal basis scaled by the Gram
    determinant Delta (integral, since Delta (M^T M)^-1 is the adjugate; None
    at rank 0), the integer orthogonal of H_R, and the Gram-Schmidt frame of
    the basis as (vector, float-exact inverse norm) pairs."""

    scaled_reciprocal: Optional[IntMatrix]
    ortho: IntMatrix
    frame: Tuple[Tuple[Tuple[Fraction, ...], Fraction], ...]

    @staticmethod
    def of(L: Lattice) -> "LatticeGeometry":
        star, _, norms = gram_schmidt(L.basis.columns())
        frame = tuple((tuple(v), Fraction(_inverse_sqrt(n))) for v, n in zip(star, norms))
        scaled = _scaled_reciprocal(L) if L.rank else None
        return LatticeGeometry(scaled, integer_orthogonal(L), frame)


def _scaled_reciprocal(L: Lattice) -> IntMatrix:
    """Delta times the reciprocal basis M (M^T M)^-1, i.e. M adj(M^T M)."""
    _, adj = (L.basis.transpose() @ L.basis).adjugate()
    return L.basis @ adj


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


def coset_canonical(L: Lattice, x: Sequence[int]) -> Tuple[int, ...]:
    """Canonical representative of x + L: HNF pivot coordinates reduced into
    [0, pivot) from the bottom pivot row upward, other coordinates unchanged."""
    if len(x) != L.k:
        raise ValueError("dimension mismatch")
    v = [int(c) for c in x]
    for r, j in reversed(L.pivots):
        col = L.basis.column(j)
        q = v[r] // col[r]
        if q:
            for i in range(L.k):
                v[i] -= q * col[i]
    return tuple(v)


def reciprocal_basis(L: Lattice) -> RatMatrix:
    """Generating matrix M (M^T M)^{-1} of the reciprocal lattice H^o."""
    if L.rank == 0:
        raise ValueError("rank-0 lattice has an empty reciprocal")
    return _scaled_reciprocal(L).to_rational(L.gram_det)


def saturation(L: Lattice) -> Lattice:
    """H_1 = H_R intersect Z^k, computed from the SNF of the basis."""
    if L.rank == 0:
        return L
    _, V, _ = snf(L.basis)
    v_inv = V.inverse_unimodular()
    cols = [v_inv.column(j) for j in range(L.rank)]
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=L.k))


def integer_orthogonal(L: Lattice) -> IntMatrix:
    """Basis of {x in Z^k : M^T x = 0}, the integer points of H_R^perp."""
    if L.rank == 0:
        return IntMatrix.identity(L.k)
    _, _, W = snf(L.basis.transpose())
    rank = L.rank
    cols = [W.column(j) for j in range(rank, L.k)]
    return IntMatrix.from_columns(cols, rows=L.k)


def dual_membership(L: Lattice, x: Sequence[int], modulus: int) -> bool:
    """True iff the point x / modulus pairs integrally with every basis vector."""
    if len(x) != L.k:
        raise ValueError("dimension mismatch")
    return all(sum(a * b for a, b in zip(x, col)) % modulus == 0 for col in zip(*L.basis.data))


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
    g = L.geometry
    modulus = math.lcm(L.gram_det, torus_grid)
    x = [0] * L.k
    a = [rng.randrange(L.gram_det) for _ in range(L.rank)]
    if a:
        step = modulus // L.gram_det
        x = [c + step * v for c, v in zip(x, g.scaled_reciprocal.mul_vec(a))]
    u = [rng.randrange(torus_grid) for _ in range(g.ortho.cols)]
    if u:
        step = modulus // torus_grid
        x = [c + step * v for c, v in zip(x, g.ortho.mul_vec(u))]
    return tuple(c % modulus for c in x), a, u


def gaussian_grid_noise(L: Lattice, x: Sequence[int], modulus: int, width: int, grid: int,
                        rng: random.Random) -> Tuple[int, ...]:
    """Add Gaussian noise along H_R with density exp(-2 pi width^2 ||u||^2),
    i.e. per-coordinate deviation 1/(2 sqrt(pi) width), to the point
    x / modulus and round to the (1/grid) Z^k grid; returns the numerators
    over grid.  One standard normal draw per basis vector."""
    sigma = 1 / (_TWO_SQRT_PI * width)
    offset = [Fraction(0)] * len(x)
    for vec, inv_norm in L.geometry.frame:
        z = Fraction(rng.gauss(0.0, 1.0)) * sigma * inv_norm
        if z:
            offset = [o + z * g for o, g in zip(offset, vec)]
    out = []
    for c, o in zip(x, offset):
        # floor(grid (c / modulus + o) + 1/2) over the common denominator 2 modulus q
        q = o.denominator
        out.append((2 * grid * (c * q + o.numerator * modulus) + modulus * q)
                   // (2 * modulus * q) % grid)
    return tuple(out)


def basis_bit_complexity(L: Lattice) -> int:
    """Bit-complexity bound n with 2^n > prod_j ||m_j||_2 (Hadamard-style),
    the quantity the recovery schedule's R >= 2^(2n+1) needs."""
    prod_sq = 1
    for j in range(L.rank):
        col = L.basis.column(j)
        prod_sq *= sum(c * c for c in col)
    return math.isqrt(prod_sq).bit_length() + 1
