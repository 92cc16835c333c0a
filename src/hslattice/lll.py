"""Exact lattice basis reduction and Babai nearest-plane over Q.

The LLL core is the all-integer variant (de Weger bookkeeping: Gram
subdeterminants d_i and scaled Gram-Schmidt coefficients lambda_ij), so a
rational input is cleared to the lcm of its denominators first and rescaled
at the end.  The core can also record its unimodular transform, which
lll_from_coarse uses to do most of the work on a low-precision copy of the
basis before one exact pass at full precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .matrix import IntMatrix, RatMatrix


def gram_schmidt(cols: Sequence[Sequence]):
    """Exact GS data of integer or rational columns: orthogonal vectors, mu
    coefficients and squared norms (Fractions).  Raises ValueError when the
    columns are dependent (a zero norm)."""
    star: List[List[Fraction]] = []
    mu: List[List[Fraction]] = []
    norms: List[Fraction] = []
    for i, b in enumerate(cols):
        v = list(b)
        mu_row = []
        for j in range(i):
            m = sum((x * y for x, y in zip(b, star[j])), Fraction(0)) / norms[j]
            mu_row.append(m)
            v = [x - m * y for x, y in zip(v, star[j])]
        star.append(v)
        mu.append(mu_row)
        n = sum((x * x for x in v), Fraction(0))
        if n == 0:
            raise ValueError("dependent columns")
        norms.append(n)
    return star, mu, norms


def lll(B: RatMatrix) -> RatMatrix:
    """LLL-reduce the columns of B with exact rational arithmetic.

    The output generates the same lattice, is size-reduced (|mu_ij| <= 1/2),
    and satisfies the Lovasz condition with parameter delta = 3/4.
    """
    if B.cols == 0:
        return B
    scale, M = B.cleared()
    cols = M.columns()
    _lll_integer(cols)
    return IntMatrix.from_columns(cols, rows=B.rows).to_rational(scale)


def lll_from_coarse(B: IntMatrix, coarse: IntMatrix) -> IntMatrix:
    """LLL-reduce the integer basis B (delta = 3/4), starting from the
    reduction of `coarse`, a basis of the same shape whose entries are a
    multiple of B's rounded to a coarser grid.

    The unimodular transform U that reduces `coarse` is recorded and applied
    to B; B*U generates B's lattice and is close to reduced, so the final pass
    of the exact core on it is short.  Nearly all swaps then act on integers
    of the coarse size, not of B's (the gradual-precision idea of van Hoeij
    and Novocin, and of Novocin, Stehle and Villard).  LLL's decisions do not
    change when a basis is scaled, so `coarse` may have any common factor.
    The output meets the same conditions as lll(B)'s.
    """
    if (coarse.rows, coarse.cols) != (B.rows, B.cols):
        raise ValueError("coarse basis must have the shape of B")
    n = B.cols
    rough = coarse.columns()
    u = [[int(i == j) for i in range(n)] for j in range(n)]
    _lll_integer(rough, u)
    cols = B.columns()
    moved = [[sum(c * col[r] for c, col in zip(uj, cols)) for r in range(B.rows)] for uj in u]
    _lll_integer(moved)
    return IntMatrix.from_columns(moved, rows=B.rows)


def _lll_integer(b: List[Sequence[int]], u: Optional[List[List[int]]] = None) -> None:
    """In-place integer LLL on column vectors b (de Weger formulation), with
    Lovasz parameter delta = 3/4.

    When u is given (one coefficient column per column of b), every
    size-reduction and swap is applied to it as well, so a u that starts as
    the identity ends as the transform U with input * U = output."""
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def init_column(i: int) -> None:
        for j in range(i + 1):
            g = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                g = (d[t + 1] * g - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = g
            else:
                if g == 0:
                    raise ValueError("dependent columns")
                d[i + 1] = g

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            if u is not None:
                u[k] = [x - q * y for x, y in zip(u[k], u[l])]
            lam[k][l] -= q * d[l + 1]
            for t in range(l):
                lam[k][t] -= q * lam[l][t]

    def swap(k: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
        if u is not None:
            u[k], u[k - 1] = u[k - 1], u[k]
        for t in range(k - 1):
            lam[k][t], lam[k - 1][t] = lam[k - 1][t], lam[k][t]
        lam_k = lam[k][k - 1]
        new_d = (d[k - 1] * d[k + 1] + lam_k * lam_k) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_k * t) // d[k]
            lam[i][k - 1] = (new_d * t + lam_k * lam[i][k]) // d[k + 1]
        d[k] = new_d

    for i in range(n):
        init_column(i)
    k = 1
    while k < n:
        reduce(k, k - 1)
        # Lovasz: d[k+1] * d[k-1] >= (3/4 * d[k]^2 - lam^2) scaled to integers.
        if 4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < 3 * d[k] * d[k]:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1


def babai_nearest_plane(B: RatMatrix, target: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Nearest-plane rounding of target against the (ideally reduced) basis B.

    Returns the lattice point; the residual target - point has Gram-Schmidt
    coordinates in [-1/2, 1/2), since each coefficient m is rounded to
    floor(m + 1/2)."""
    cols = B.columns()
    star, _, norms = gram_schmidt(cols)
    resid = [Fraction(x) for x in target]
    point = [Fraction(0)] * B.rows
    for i in range(len(cols) - 1, -1, -1):
        m = sum((x * y for x, y in zip(resid, star[i])), Fraction(0)) / norms[i]
        c = (m + Fraction(1, 2)).__floor__()  # round half up, exact
        if c:
            resid = [x - c * y for x, y in zip(resid, cols[i])]
            point = [p + c * y for p, y in zip(point, cols[i])]
    return tuple(point)
