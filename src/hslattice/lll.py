"""Exact lattice basis reduction and Babai nearest-plane over Q.

The LLL core is the all-integer variant (de Weger bookkeeping: Gram
subdeterminants d_i and scaled Gram-Schmidt coefficients lambda_ij), so a
rational input is cleared to the lcm of its denominators first and rescaled
at the end.  The core can also record its unimodular transform, which
lll_from_coarse uses to reduce low-precision copies of a basis in stages and
return the transform, which the caller applies to as many columns of the
full-precision basis as it reads.  After a swap-free
stage, the last stage is first handed to _certify_swap_free, which proves
every decision the core would make on it with integer interval arithmetic;
the size-reduction quotients it proves are applied to the transform, and
the core runs only where a decision stays open.
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


def lll_from_coarse(stages: Sequence[IntMatrix],
                    threshold: Fraction) -> Tuple[IntMatrix, int]:
    """Reduce the coarse bases `stages` of a basis B in turn, finest last,
    and return (U, kappa): U is the unimodular transform that LLL-reduces
    (delta = 3/4) the last stage, and kappa the least index such that every
    squared Gram-Schmidt norm |b*_i|^2, i >= kappa, of that stage after
    reduction exceeds `threshold`.  B itself is never read: the caller
    forms the columns of B * U it needs, often only the first kappa.

    Every stage has B's shape; the stages need not share a scale.  Stage j
    starts from the transform of stage j - 1, so each stage mostly refines a
    basis that the previous, coarser one has already reduced, and nearly all
    swaps act on integers of the coarse size, not of B's (gradual feeding:
    van Hoeij and Novocin, LATIN 2010; Novocin, Stehle and Villard, STOC
    2011).  An earlier stage reaches the result only through the transform
    it hands on, so it can be as coarse as steering U allows; only the last
    stage's precision shows in kappa.  Once a stage after the first makes no
    swap, the extra precision it added left the basis's order alone, so the
    stages between it and the last are skipped and the last one runs next;
    the last stage always runs, so U reduces it whatever the skip.

    When the stage before the last made no swap, the last one most likely
    makes none either, and _certify_swap_free proves that with integer
    interval arithmetic on its Gram matrix: every size reduction, Lovasz
    test and kappa comparison that the exact reduction would make is
    decided exactly, from intervals that enclose the exact values, and U is
    updated by the proven quotients alone.  Where a decision stays open it
    returns None, and the exact reduction runs as it would without it, so U
    and kappa are the same either way.  B * U generates B's lattice but need
    not be LLL-reduced itself; a caller that needs that runs lll on it.
    """
    if not stages or any((C.rows, C.cols) != (stages[0].rows, stages[0].cols) for C in stages):
        raise ValueError("the coarse bases must share one shape")
    n = stages[0].cols
    u = [[int(i == j) for i in range(n)] for j in range(n)]

    def times_u(M: IntMatrix) -> List[List[int]]:
        return [[sum(a * c for a, c in zip(row, uj)) for row in M.data] for uj in u]

    swaps = None
    for j, C in enumerate(stages[:-1]):
        _, swaps = _lll_integer(times_u(C), u)
        if j and not swaps:
            break
    last = times_u(stages[-1])
    certified = _certify_swap_free(last, threshold) if swaps == 0 else None
    if certified is not None:
        quotients, kappa = certified
        for k, l, q in quotients:
            u[k] = [x - q * y for x, y in zip(u[k], u[l])]
    else:
        d, _ = _lll_integer(last, u)
        kappa = n
        while kappa and d[kappa] * threshold.denominator > threshold.numerator * d[kappa - 1]:
            kappa -= 1
    return IntMatrix.from_columns(u, rows=n), kappa


# Fixed-point fraction bits of the mu intervals of _certify_swap_free, and
# the guard bits below them that every other rounding keeps.
FRAC_BITS = 96
GUARD_BITS = 32


def _at(lo: int, hi: int, e: int, target: int) -> Tuple[int, int]:
    """The interval [lo, hi] 2^e as mantissas over 2^target: exact when
    target <= e, rounded outward (lo down, hi up) otherwise."""
    s = e - target
    if s >= 0:
        return lo << s, hi << s
    return lo >> -s, -(-hi >> -s)


def _mul_at(x: Tuple[int, int, int], y: Tuple[int, int, int],
            target: int) -> Tuple[int, int]:
    """An enclosure of x * y over 2^target for intervals (lo, hi, e).  Each
    factor is first rounded outward to the precision the other's magnitude
    leaves room for, so the product costs about as many bits as the result
    keeps; a product below 2^target is enclosed in [-1, 1] outright."""
    top_x = max(-x[0], x[1]).bit_length() + x[2]  # |x| < 2^top_x
    top_y = max(-y[0], y[1]).bit_length() + y[2]
    if top_x + top_y <= target:
        return -1, 1
    e_x = max(x[2], target - top_y - 2)
    e_y = max(y[2], target - top_x - 2)
    a, b = _at(x[0], x[1], x[2], e_x)
    c, d = _at(y[0], y[1], y[2], e_y)
    products = (a * c, a * d, b * c, b * d)
    return _at(min(products), max(products), e_x + e_y, target)


def _reduced_sum(a: int, terms, target: int) -> Tuple[int, int, int]:
    """An enclosure (lo, hi, e) of a - sum of x * y over (x, y) in terms, with
    e = target, or e = 0 for a alone when target < 0 (exact)."""
    if not terms and target < 0:
        return a, a, 0
    lo, hi = _at(a, a, 0, target)
    for x, y in terms:
        p, q = _mul_at(x, y, target)
        lo -= q
        hi -= p
    return lo, hi, target


def _times_pow2_gt(x: int, ex: int, y: int, ey: int) -> bool:
    """x 2^ex > y 2^ey, exactly."""
    if ex >= ey:
        return x << (ex - ey) > y
    return x > y << (ey - ex)


def _interval_gram_schmidt(A: List[List[int]]):
    """Enclosures of the Gram-Schmidt data of columns with lower-triangular
    integer Gram matrix A (A[i][j] = <b_i, b_j> for j <= i): (mu, r), mu[i][j]
    the interval [lo, hi] 2^-FRAC_BITS around mu_ij and r[i] the interval
    (lo, hi, e) = [lo, hi] 2^e around r_i^2 = |b*_i|^2, with lo > 0.  None
    when some r_i^2 is not proven positive.

    It is the LDL^T factorisation nu_ij = A_ij - sum_{t<j} mu_jt nu_it,
    mu_ij = nu_ij / r_j^2 and r_i^2 = A_ii - sum_{t<i} mu_it nu_it, each value
    rounded outward.  The nu_ij of column j keep GUARD_BITS below 2^-FRAC_BITS
    r_j^2, so mu_ij is good to about 2^-FRAC_BITS whatever its size; r_j^2
    keeps that many bits below |mu_ij| r_j^2 with |mu_ij| <= sqrt(A_ii /
    r_j^2), since an error in r_j^2 is scaled by mu_ij.  The widths only
    decide how often the caller proves something, never whether it is true."""
    n = len(A)
    mu: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    nu: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    r: List[Tuple[int, int, int]] = []
    top_later = [0] * n  # bits of the largest A_kk with k > i
    for i in range(n - 2, -1, -1):
        top_later[i] = max(top_later[i + 1], A[i + 1][i + 1].bit_length())
    for i in range(n):
        for j in range(i):
            r_lo, r_hi, e_r = r[j]
            e = r_lo.bit_length() + e_r - FRAC_BITS - GUARD_BITS
            terms = [((*mu[j][t], -FRAC_BITS), nu[i][t]) for t in range(j)]
            lo, hi, e = nu_ij = _reduced_sum(A[i][j], terms, e)
            nu[i].append(nu_ij)
            # mu_ij 2^FRAC_BITS = nu_ij 2^s / r_j^2, rounded outward: the
            # least quotient divides lo by the largest divisor when lo >= 0.
            s = e + FRAC_BITS - e_r
            lo_den = r_hi if lo >= 0 else r_lo
            hi_den = r_lo if hi >= 0 else r_hi
            if s >= 0:
                mu[i].append(((lo << s) // lo_den, -((-hi << s) // hi_den)))
            else:
                mu[i].append((lo // (lo_den << -s), -(-hi // (hi_den << -s))))
        terms = [((*mu[i][t], -FRAC_BITS), nu[i][t]) for t in range(i)]
        r_i = _reduced_sum(A[i][i], terms, A[i][i].bit_length() - 2 * (FRAC_BITS + GUARD_BITS))
        if r_i[0] > 0:
            log_r = r_i[0].bit_length() - 1 + r_i[2]
            mu_bits = max(0, (top_later[i] - log_r + 1) // 2 + 1) if i < n - 1 else 0
            needed = log_r - mu_bits - FRAC_BITS - GUARD_BITS
            if needed < r_i[2]:
                r_i = _reduced_sum(A[i][i], terms, needed)
        if r_i[0] <= 0:
            return None
        r.append(r_i)
    return mu, r


def _certify_swap_free(b: List[Sequence[int]], threshold: Fraction):
    """Prove that _lll_integer(b) makes no swap, and return (quotients,
    kappa): the size reductions (k, l, q), b_k -= q b_l, that it makes, in
    its order, and the kappa that lll_from_coarse counts from its d.  None
    when any of its decisions is not proven.

    It replays _lll_integer's swap-free run, k = 1..n-1: reduce(k, k - 1),
    the Lovasz test, then reduce(k, l) for l = k-2..0, on intervals from
    _interval_gram_schmidt of the exact Gram matrix, with mu updated exactly
    as _lll_integer updates lambda_kl = d_{l+1} mu_kl.  Each decision is
    taken only where the interval settles it:
    - no reduction when |mu| <= 1/2 surely (2 |lambda| <= d_{l+1});
    - reduction by q when mu lies surely in (q - 1/2, q + 1/2), so that
      |mu| > 1/2 and floor(mu + 1/2) = q;
    - no swap when r_k^2 / r_{k-1}^2 + mu_{k,k-1}^2 >= 3/4 surely, the test
      4 (d_{k+1} d_{k-1} + lambda^2) >= 3 d_k^2 divided by d_k^2 (a sure
      swap is not proven swap-free either);
    - each kappa comparison r_{kappa-1}^2 > threshold, that is d_kappa >
      threshold d_{kappa-1}, from r's bounds.
    Only integers enter; the intervals enclose the exact values, so every
    decision made is the exact reduction's."""
    n = len(b)
    A = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(i + 1)] for i in range(n)]
    gs = _interval_gram_schmidt(A)
    if gs is None:
        return None
    mu, r = gs
    one = 1 << FRAC_BITS
    half = one >> 1
    quotients = []

    def reduce(k: int, l: int) -> bool:
        lo, hi = mu[k][l]
        if -half <= lo and hi <= half:
            return True
        q = (lo + half) >> FRAC_BITS  # floor(mu_lo + 1/2)
        if not (2 * q - 1) * half < lo or not hi < (2 * q + 1) * half:
            return False
        quotients.append((k, l, q))
        mu[k][l] = (lo - q * one, hi - q * one)
        for t in range(l):
            a, c = mu[l][t]
            lo, hi = mu[k][t]
            mu[k][t] = (lo - q * c, hi - q * a) if q > 0 else (lo - q * a, hi - q * c)
        return True

    for k in range(1, n):
        if not reduce(k, k - 1):
            return None
        lo, hi = mu[k][k - 1]
        mu_sq = 0 if lo <= 0 <= hi else min(lo * lo, hi * hi)
        # r_k^2 / r_{k-1}^2 >= 3/4 - mu^2, with mu^2 >= mu_sq 2^-2FRAC_BITS
        rest = (3 << 2 * FRAC_BITS) - 4 * mu_sq
        rk_lo, _, e_k = r[k]
        _, rp_hi, e_p = r[k - 1]
        if rest > 0 and _times_pow2_gt(rest * rp_hi, e_p, 4 * rk_lo, e_k + 2 * FRAC_BITS):
            return None
        for l in range(k - 2, -1, -1):
            if not reduce(k, l):
                return None
    kappa = n
    while kappa:
        lo, hi, e = r[kappa - 1]
        if _times_pow2_gt(lo * threshold.denominator, e, threshold.numerator, 0):
            kappa -= 1
        elif _times_pow2_gt(hi * threshold.denominator, e, threshold.numerator, 0):
            return None
        else:
            break
    return quotients, kappa


def _lll_integer(b: List[Sequence[int]],
                 u: Optional[List[List[int]]] = None) -> Tuple[List[int], int]:
    """In-place integer LLL on column vectors b (de Weger formulation), with
    Lovasz parameter delta = 3/4.  Returns (d, swaps): the Gram
    subdeterminants d of the output, d[0] = 1 and d[i + 1] = d[i] * |b*_i|^2,
    and the number of swaps made (0 when b was already in Lovasz order,
    though size reduction may still have changed it).

    When u is given (one coefficient column per column of b), every
    size-reduction and swap is applied to it as well: a u that starts as U0
    ends as U0 * U, where input * U = output."""
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
    swaps = 0
    k = 1
    while k < n:
        reduce(k, k - 1)
        # Lovasz: d[k+1] * d[k-1] >= (3/4 * d[k]^2 - lam^2) scaled to integers.
        if 4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < 3 * d[k] * d[k]:
            swap(k)
            swaps += 1
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return d, swaps


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
