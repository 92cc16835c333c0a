import random

import pytest

from hslattice.intmath import (
    FactorBoundExceeded,
    factor,
    is_probable_prime,
)


def test_factor_one():
    assert factor(1) == []


def test_factor_360():
    assert factor(360) == [(2, 3), (3, 2), (5, 1)]


def test_factor_prime():
    assert factor(97) == [(97, 1)]


def test_factor_random_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        fs = factor(n)
        prod = 1
        for p, e in fs:
            assert is_probable_prime(p)
            prod *= p ** e
        assert prod == n
        assert [p for p, _ in fs] == sorted(p for p, _ in fs)


def test_factor_semiprime():
    # two 40-bit primes; exercises the rho path
    p, q = 1099511627791, 1099511627803
    assert factor(p * q) == [(p, 1), (q, 1)]


def test_factor_bound():
    with pytest.raises(FactorBoundExceeded):
        factor(1 << 100)
    with pytest.raises(ValueError):
        factor(0)


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 101}
    for n in range(2, 110):
        assert is_probable_prime(n) == (n in primes or all(n % p for p in range(2, n)))
