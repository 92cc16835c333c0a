"""Exact oracles for checking lattice reductions and eliminations: the LLL
conditions, short-vector enumeration, successive minima, a textbook
rational inverse and determinant, lattice membership, the finite stage that
takes a fresh HNF on every growth, the Fraction formulas of the noise
step and of the coarse stages' rounding, and the sieve's full join product
with its tile tally.

These are slow references, most of them brute force for small test
lattices; no pipeline calls them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import floor, isqrt, prod
from typing import List, Optional, Sequence, Tuple

from hslattice.alg_a import _pull_back
from hslattice.lattice import Lattice, coset_canonical
from hslattice.lll import gram_schmidt, lll
from hslattice.matrix import IntMatrix, RatMatrix
from hslattice.sieve import PhaseVector, Spot, _tile_index


def zn(k: int) -> Lattice:
    """The lattice Z^k."""
    return Lattice.from_generators(IntMatrix.identity(k))


def contains(L: Lattice, x: Sequence[int]) -> bool:
    """x lies in L: its canonical coset representative is zero."""
    return all(c == 0 for c in coset_canonical(L, x))


def contains_lattice(L: Lattice, other: Lattice) -> bool:
    return all(contains(L, col) for col in other.columns)


def reference_tensor(a: PhaseVector, b: PhaseVector, N: int) -> PhaseVector:
    """The full tensor product: every pairwise multiplier sum mod N, with
    the window centers added in tandem; b is one-spot."""
    rspot = b.spots[0]
    new_spots = []
    for spot in a.spots:
        counts = {}
        for u, cu in spot.counts.items():
            for v, cv in rspot.counts.items():
                w = tuple((x + y) % N for x, y in zip(u, v))
                counts[w] = counts.get(w, 0) + cu * cv
        center = tuple((x + y) % N for x, y in zip(spot.center, rspot.center))
        new_spots.append(Spot(counts, center))
    return PhaseVector(tuple(new_spots))


def reference_tally(pv: PhaseVector, m: int, r: int, N: int):
    """The tile of every multiplier of each spot, and the joint tile
    occupancy, for windows of radius r cut into 2^(m+1) tiles per axis: the
    collimation outcome is tile t with probability tally[t] / total."""
    tiles_per_axis = 2 ** (m + 1)
    per_spot_idx = []
    tally = {}
    for spot in pv.spots:
        assignment = {}
        for y, c in spot.counts.items():
            ti = _tile_index(y, spot.center, r, N, tiles_per_axis)
            assignment[y] = ti
            tally[ti] = tally.get(ti, 0) + c
        per_spot_idx.append(assignment)
    return per_spot_idx, tally


def round_half_even(a: int, b: int) -> int:
    """round(Fraction(a, b)) for b > 0, without building the Fraction: the
    rounding of each coarse stage of alg_a._coarse_stages."""
    q, r = divmod(2 * a + b, 2 * b)
    return q - 1 if r == 0 and q & 1 else q


def reference_grid_noise(L: Lattice, x: Sequence[int], modulus: int, width: int, grid: int,
                         rng: random.Random) -> Tuple[int, ...]:
    """lattice.gaussian_grid_noise as a Fraction formula: the point
    x / modulus plus the offset sum of z_i b*_i / |b*_i|, z_i a draw times
    1 / (2 sqrt(pi) width), rounded half up to the grid and returned as
    numerators in [0, grid); the same draws in the same order."""
    coords = [Fraction(c, modulus) for c in x]
    sigma = 1 / (Fraction(35449077018110322, 10 ** 16) * width)
    for vec, inv_norm in L.frame:
        z = Fraction(rng.gauss(0.0, 1.0)) * sigma * inv_norm
        if z:
            coords = [c + z * g for c, g in zip(coords, vec)]
    return tuple(floor(c * grid + Fraction(1, 2)) % grid for c in coords)


def is_size_reduced(B: RatMatrix) -> bool:
    _, mu, _ = gram_schmidt(B.columns())
    return all(2 * abs(m) <= 1 for row in mu for m in row)


def satisfies_lovasz(B: RatMatrix) -> bool:
    """The Lovasz condition with delta = 3/4, the parameter lll uses."""
    _, mu, norms = gram_schmidt(B.columns())
    return all(
        norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
        for k in range(1, B.cols)
    )


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


def reference_inverse(A: RatMatrix) -> RatMatrix:
    """Gauss-Jordan inverse over Fraction, pivoting on the first nonzero entry."""
    if A.rows != A.cols:
        raise ValueError("inverse of non-square matrix")
    n = A.rows
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A.data)]
    for t in range(n):
        piv = next((i for i in range(t, n) if a[i][t] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[t], a[piv] = a[piv], a[t]
        inv_p = 1 / a[t][t]
        a[t] = [x * inv_p for x in a[t]]
        for i in range(n):
            if i != t and a[i][t] != 0:
                f = a[i][t]
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return RatMatrix.from_rows([row[n:] for row in a])


def leibniz_det(A: RatMatrix) -> Fraction:
    """Determinant as the signed sum over all n! permutations."""
    n = A.rows
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = prod((A[i, perm[i]] for i in range(n)), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


def reference_finite_stage(secret: Lattice, h1: Lattice,
                           rng: random.Random) -> Optional[Lattice]:
    """The finite stage with the grown group a Lattice, tested by
    contains and rebuilt by a fresh HNF on every growth: the same
    draws, stopping rule and annihilator as alg_a.finite_stage, which keeps
    the group as triangular rows modulo the index."""
    if secret.rank != h1.rank or not contains_lattice(h1, secret):
        raise ValueError("finite_stage needs secret <= H1 of equal rank")
    ell = h1.rank
    if ell == 0:
        return h1
    P = _pull_back(h1, secret)
    det, adj = P.adjugate()
    index = abs(det)
    if index == 1:
        return h1
    sign = 1 if det > 0 else -1
    adj_t = adj.transpose()
    window = 2 * (index - 1).bit_length() + 4
    budget = 64 * (index.bit_length() + 2)
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
        if contains(group, scaled):
            stable += 1
            continue
        stable = 0
        cols = [group.basis.column(j) for j in range(group.rank)] + [scaled]
        group = Lattice.from_generators(IntMatrix.from_columns(cols, rows=ell))
    det_g, adj_g = group.basis.adjugate()
    rec_cols = [h1.basis.mul_vec([index * x // det_g for x in row]) for row in adj_g.data]
    return Lattice.from_generators(IntMatrix.from_columns(rec_cols, rows=secret.k))
