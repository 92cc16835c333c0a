"""Integer helpers: primality testing, desk-scale factoring."""

from __future__ import annotations

import math
import random
from typing import List, Tuple

# Factoring is a stand-in for an oracle; keep it honest about its scale.
FACTOR_BIT_BOUND = 96

_TRIAL_LIMIT = 1 << 20


class FactorBoundExceeded(ValueError):
    """Input is beyond the configured desk-scale factoring bound."""


def is_probable_prime(n: int, rounds: int = 24, rng: random.Random | None = None) -> bool:
    """Miller-Rabin with small-prime prefilter."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    rng = rng or random.Random(0xC0FFEE ^ n)
    # Fixed witnesses cover everything below 3.3e24; random ones back them up.
    witnesses = list(small_primes) + [rng.randrange(2, n - 1) for _ in range(rounds)]
    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho_brent(n: int, rng: random.Random) -> int:
    """Return a non-trivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int) -> List[Tuple[int, int]]:
    """Factor n >= 1 into sorted (prime, exponent) pairs.

    Trial division to 2^20, then Brent-Pollard rho with Miller-Rabin
    certification.  Inputs above FACTOR_BIT_BOUND bits are rejected.
    """
    if n < 1:
        raise ValueError("factor() requires n >= 1")
    if n.bit_length() > FACTOR_BIT_BOUND:
        raise FactorBoundExceeded(
            f"{n.bit_length()}-bit input exceeds the {FACTOR_BIT_BOUND}-bit factoring bound"
        )
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    w = 0
    while p * p <= n and p < _TRIAL_LIMIT:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += wheel[w]
        w = (w + 1) % 8
    rng = random.Random(0x5EED ^ n)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho_brent(m, rng)
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())
