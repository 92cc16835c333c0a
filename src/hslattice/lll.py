"""Exact lattice basis reduction and Babai nearest-plane over Q.

The LLL core is the all-integer variant (de Weger bookkeeping: Gram
subdeterminants d_i and scaled Gram-Schmidt coefficients lambda_ij), so a
rational input is cleared to a common denominator first and rescaled at the
end.  gmpy2 integers are used inside the core when available; they are a
drop-in replacement for int and considerably faster at the operand sizes the
recovery schedule produces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .matrix import RatMatrix

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover
    mpz = int


def gram_schmidt(cols: List[Tuple[Fraction, ...]]):
    """Exact GS data: orthogonal vectors, mu coefficients and squared norms.
    Raises ValueError when the columns are dependent (a zero norm)."""
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


def lll(B: RatMatrix, delta: Fraction = Fraction(3, 4)) -> RatMatrix:
    """LLL-reduce the columns of B with exact rational arithmetic.

    The output generates the same lattice, is size-reduced (|mu_ij| <= 1/2),
    and satisfies the Lovasz condition with parameter delta.
    """
    delta = Fraction(delta)
    if not Fraction(1, 4) < delta < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    if B.cols == 0:
        return B
    scale = B.denominator_lcm()
    cols = [[mpz(x.numerator * (scale // x.denominator)) for x in B.column(j)]
            for j in range(B.cols)]
    _lll_integer(cols, delta.numerator, delta.denominator)
    inv = Fraction(1, scale)
    return RatMatrix.from_columns([[int(x) * inv for x in c] for c in cols], rows=B.rows)


def _lll_integer(b: List[List], dnum: int, dden: int) -> None:
    """In-place integer LLL on column vectors b (de Weger formulation)."""
    n = len(b)
    d = [mpz(1)] * (n + 1)
    lam = [[mpz(0)] * n for _ in range(n)]

    def init_column(i: int) -> None:
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for t in range(j):
                u = (d[t + 1] * u - lam[i][t] * lam[j][t]) // d[t]
            if j < i:
                lam[i][j] = u
            else:
                if u == 0:
                    raise ValueError("dependent columns")
                d[i + 1] = u

    def reduce(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for t in range(l):
                lam[k][t] -= q * lam[l][t]

    def swap(k: int) -> None:
        b[k], b[k - 1] = b[k - 1], b[k]
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
        # Lovasz: d[k+1] * d[k-1] >= (delta * d[k]^2 - lam^2) scaled to integers.
        if dden * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < dnum * d[k] * d[k]:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1


def is_size_reduced(B: RatMatrix) -> bool:
    _, mu, _ = gram_schmidt(B.columns())
    return all(2 * abs(m) <= 1 for row in mu for m in row)


def satisfies_lovasz(B: RatMatrix, delta: Fraction = Fraction(3, 4)) -> bool:
    _, mu, norms = gram_schmidt(B.columns())
    return all(
        norms[k] >= (Fraction(delta) - mu[k][k - 1] ** 2) * norms[k - 1]
        for k in range(1, B.cols)
    )


def babai_nearest_plane(B: RatMatrix, target: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    """Nearest-plane rounding of target against the (ideally reduced) basis B.

    Returns the lattice point; the residual target - point has Gram-Schmidt
    coordinates in (-1/2, 1/2]."""
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


def enumerate_short_vectors(B: RatMatrix, bound_sq: Fraction) -> List[Tuple[Fraction, ...]]:
    """All nonzero lattice vectors v with ||v||^2 <= bound_sq (exact).

    Fincke-Pohst style recursion on the Gram-Schmidt triangularization of B;
    intended for small test lattices.  One vector per +/- pair is returned.
    """
    cols = B.columns()
    star, mu, norms = gram_schmidt(cols)
    n = len(cols)
    out: List[Tuple[Fraction, ...]] = []
    coeff = [0] * n

    def center(i: int) -> Fraction:
        return -sum((Fraction(coeff[j]) * mu[j][i] for j in range(i + 1, n)), Fraction(0))

    def recurse(i: int, remaining: Fraction) -> None:
        if i < 0:
            if any(coeff):
                v = [Fraction(0)] * B.rows
                for c, col in zip(coeff, cols):
                    if c:
                        v = [x + c * y for x, y in zip(v, col)]
                out.append(tuple(v))
            return
        c = center(i)
        # |x - c|^2 * norms[i] <= remaining
        radius_sq = remaining / norms[i]
        lo, hi = _rational_interval(c, radius_sq)
        for x in range(lo, hi + 1):
            coeff[i] = x
            used = (Fraction(x) - c) ** 2 * norms[i]
            if used <= remaining:
                recurse(i - 1, remaining - used)
        coeff[i] = 0

    recurse(n - 1, Fraction(bound_sq))
    # Keep one representative per antipodal pair.
    seen = set()
    uniq = []
    for v in out:
        if v in seen or tuple(-x for x in v) in seen:
            continue
        seen.add(v)
        uniq.append(v)
    return uniq


def _rational_interval(c: Fraction, radius_sq: Fraction) -> Tuple[int, int]:
    """Integer range [lo, hi] containing {x : (x - c)^2 <= radius_sq}."""
    if radius_sq < 0:
        return 0, -1
    from math import isqrt

    # r = sqrt(radius_sq): bracket with integers: floor/ceil of c +/- r.
    num, den = radius_sq.numerator, radius_sq.denominator
    r_hi = Fraction(isqrt(num * den) + 1, den)  # >= sqrt(radius_sq)
    lo = (c - r_hi).__ceil__()
    hi = (c + r_hi).__floor__()
    return lo, hi


def successive_minima(B: RatMatrix) -> List[Fraction]:
    """Exact successive minima (squared norms) of the lattice spanned by B.

    Brute-force oracle: enumerate short vectors inside balls of doubling
    radius (so skewed lattices do not force one huge enumeration) and
    greedily pick linearly independent ones by increasing norm."""
    reduced = lll(B)
    cols = reduced.columns()
    norms = [sum((x * x for x in c), Fraction(0)) for c in cols]
    bound = min(norms)
    cap = max(norms)
    while True:
        vecs = enumerate_short_vectors(reduced, bound)
        vecs.sort(key=lambda v: sum((x * x for x in v), Fraction(0)))
        picked: List[Tuple[Fraction, ...]] = []
        minima: List[Fraction] = []
        for v in vecs:
            if len(picked) == len(cols):
                break
            try:
                gram_schmidt(picked + [v])
            except ValueError:
                continue  # dependent on the vectors already picked
            picked.append(v)
            minima.append(sum((x * x for x in v), Fraction(0)))
        if len(minima) == len(cols):
            return minima
        bound = min(2 * bound, cap) if bound < cap else 2 * bound

