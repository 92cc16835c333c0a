"""Exact rational tools: continued fractions, Legendre denoising, partial fractions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .intmath import factor


def continued_fraction_convergents(x: Fraction) -> List[Fraction]:
    """All convergents of the simple continued fraction of x, ending with x."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    h_prev, h = 1, a // b
    k_prev, k = 0, 1
    convergents = [Fraction(h, k)]
    a, b = b, a - (a // b) * b
    while b != 0:
        q = a // b
        a, b = b, a - q * b
        h_prev, h = h, q * h + h_prev
        k_prev, k = k, q * k + k_prev
        convergents.append(Fraction(h, k))
    return convergents


class LegendreResult(NamedTuple):
    value: Fraction
    verified: bool


def legendre_reconstruct(x: Fraction, R: int) -> LegendreResult:
    """Denoise x to a nearby fraction with denominator at most R.

    Returns the largest-denominator convergent p/q with q <= R that satisfies
    Legendre's criterion |x - p/q| < 1/(2q^2), flagged verified.  If no
    convergent satisfies it, the largest-denominator convergent with q <= R is
    returned flagged unverified.  An exact input with denominator <= R is its
    own final convergent and comes back verified.
    """
    if R < 1:
        raise ValueError("denominator cutoff R must be >= 1")
    x = Fraction(x)
    best = None
    verified_best = None
    for c in continued_fraction_convergents(x):
        if c.denominator > R:
            break
        best = c
        if abs(x - c) * 2 * c.denominator ** 2 < 1:
            verified_best = c
    if verified_best is not None:
        return LegendreResult(verified_best, True)
    assert best is not None  # the 0th convergent always has denominator 1
    return LegendreResult(best, False)


@dataclass(frozen=True)
class PartialFractionForm:
    """Canonical partial-fraction decomposition of a rational number.

    ``terms`` holds (prime p, exponent k, numerator r) triples with
    1 <= r < p (the per-pair form), sorted by (p, k).  The sum of the integer
    part and all terms r/p^k reproduces the source rational exactly.
    """

    integer_part: int
    terms: Tuple[Tuple[int, int, int], ...]

    def value(self) -> Fraction:
        return self.integer_part + sum(
            (Fraction(r, p ** k) for p, k, r in self.terms), Fraction(0)
        )

    def abbreviated(self) -> Tuple[int, Tuple[Tuple[int, int, int], ...]]:
        """Per-prime form: one (p, k, r) term per prime, 1 <= r < p^k, p does not divide r."""
        kmax: dict[int, int] = {}
        for p, k, _ in self.terms:
            kmax[p] = max(kmax.get(p, 0), k)
        merged = tuple(
            (p, kmax[p], sum(r * p ** (kmax[p] - k) for q, k, r in self.terms if q == p))
            for p in sorted(kmax)
        )
        return self.integer_part, merged

    def __str__(self) -> str:
        parts: List[str] = []
        if self.integer_part != 0 or not self.terms:
            parts.append(str(self.integer_part))
        parts += [str(Fraction(r, p ** k)) for p, k, r in self.terms]
        return " + ".join(parts)


def partial_fractions(x: Fraction) -> PartialFractionForm:
    """Decompose x as n + sum r/p^k with 1 <= r < p and distinct pairs (p, k).

    The denominator is factored internally (desk scale); the decomposition is
    the unique one obtained from the Chinese remainder theorem on the prime
    power parts of the denominator.
    """
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    terms: List[Tuple[int, int, int]] = []
    remainder = Fraction(a, b)
    for p, k in factor(b):
        q = p ** k
        # CRT component: r/q with r = a * (b/q)^{-1} mod q, 1 <= r < q.
        r = a * pow(b // q, -1, q) % q
        remainder -= Fraction(r, q)
        # Base-p digits of r spread the component over exponents <= k.
        for j in range(k):
            digit = r % p
            r //= p
            if digit:
                terms.append((p, k - j, digit))
    assert remainder.denominator == 1
    terms.sort()
    return PartialFractionForm(int(remainder), tuple(terms))
