import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hslattice.intmath import FactorBoundExceeded
from hslattice.rationals import (
    PartialFractionForm,
    continued_fraction_convergents,
    legendre_reconstruct,
    partial_fractions,
)


class TestConvergents:
    def test_half(self):
        assert continued_fraction_convergents(Fraction(1, 2)) == [0, Fraction(1, 2)]

    def test_terminates_at_input(self):
        assert continued_fraction_convergents(Fraction(22, 7))[-1] == Fraction(22, 7)

    def test_contains_one_third(self):
        assert Fraction(1, 3) in continued_fraction_convergents(Fraction(667, 2000))

    def test_denominators_increase(self):
        rng = random.Random(3)
        for _ in range(200):
            x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
            convs = continued_fraction_convergents(x)
            dens = [c.denominator for c in convs]
            assert dens[-1] == x.denominator
            for a, b in zip(dens[1:], dens[2:]):
                assert b > a

    def test_negative(self):
        convs = continued_fraction_convergents(Fraction(-22, 7))
        assert convs[-1] == Fraction(-22, 7)


class TestLegendre:
    def test_exact_input(self):
        res = legendre_reconstruct(Fraction(22, 7), 10)
        assert res.value == Fraction(22, 7) and res.verified

    def test_small_perturbation(self):
        res = legendre_reconstruct(Fraction(667, 2000), 3)
        assert res.value == Fraction(1, 3) and res.verified
        # cross-check by brute force over all denominators <= 3
        x = Fraction(667, 2000)
        hits = [
            Fraction(a, b)
            for b in range(1, 4)
            for a in range(-5, 6)
            if abs(x - Fraction(a, b)) * 2 * b * b < 1
        ]
        assert Fraction(1, 3) in hits

    def test_half_plus_epsilon(self):
        res = legendre_reconstruct(Fraction(1, 2) + Fraction(1, 1000), 2)
        assert res.value == Fraction(1, 2) and res.verified

    def test_unverified_flag(self):
        # x = 1/2 exactly but cutoff 1 only allows integers
        res = legendre_reconstruct(Fraction(1, 2), 1)
        assert not res.verified
        assert res.value.denominator == 1

    def test_random_recovery_cutoff_at_denominator(self):
        # planted a/b with |eps| < 1/(2b^2), cutoff R = b: 100% exact recovery
        rng = random.Random(7)
        for _ in range(1000):
            b = rng.randrange(2, 1 << 16)
            a = rng.randrange(-b * 4, b * 4)
            while True:
                g = Fraction(a, b)
                if g.denominator == b:
                    break
                a += 1
            d = 8 * b * b
            eps = Fraction(rng.randrange(-d // (2 * b * b) + 1, d // (2 * b * b)), d)
            assert abs(eps) * 2 * b * b < 1
            res = legendre_reconstruct(Fraction(a, b) + eps, b)
            assert res.verified and res.value == Fraction(a, b)

    def test_random_recovery_fixed_cutoff(self):
        # fixed cutoff R = 2^16 under the uniqueness regime |eps| < 1/(2 b R)
        rng = random.Random(8)
        R = 1 << 16
        for _ in range(300):
            b = rng.randrange(2, R)
            a = rng.randrange(1, b)
            x = Fraction(a, b)
            d = 4 * b * R
            eps = Fraction(rng.randrange(-1, 2), d)
            res = legendre_reconstruct(x + eps, R)
            assert res.verified and res.value == x

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            legendre_reconstruct(Fraction(1, 2), 0)


class TestPartialFractions:
    def test_canonical_example(self):
        form = partial_fractions(Fraction(1, 360))
        assert form.integer_part == -2
        assert form.terms == ((2, 1, 1), (2, 3, 1), (3, 1, 2), (3, 2, 1), (5, 1, 3))
        assert form.value() == Fraction(1, 360)
        assert str(form) == "-2 + 1/2 + 1/8 + 2/3 + 1/9 + 3/5"

    def test_abbreviated_example(self):
        n, terms = partial_fractions(Fraction(1, 360)).abbreviated()
        assert n == -2
        assert terms == ((2, 3, 5), (3, 2, 7), (5, 1, 3))
        total = n + sum(Fraction(r, p ** k) for p, k, r in terms)
        assert total == Fraction(1, 360)

    def test_integer(self):
        form = partial_fractions(Fraction(7))
        assert form.integer_part == 7 and form.terms == ()
        assert str(form) == "7"

    def test_term_invariants_random(self):
        rng = random.Random(11)
        for _ in range(1000):
            x = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
            form = partial_fractions(x)
            assert form.value() == x
            seen_pairs = set()
            for p, k, r in form.terms:
                assert 1 <= r < p and k >= 1
                assert (p, k) not in seen_pairs
                seen_pairs.add((p, k))
            assert form.terms == tuple(sorted(form.terms))
            n, abbrev = form.abbreviated()
            assert n + sum(Fraction(r, p ** k) for p, k, r in abbrev) == x
            seen_primes = set()
            for p, k, r in abbrev:
                assert 1 <= r < p ** k and r % p != 0
                assert p not in seen_primes
                seen_primes.add(p)

    def test_uniqueness_by_canonical_equality(self):
        # equal inputs through different representations give identical forms
        a = partial_fractions(Fraction(6, 2160))
        b = partial_fractions(Fraction(1, 360))
        assert a == b == PartialFractionForm(a.integer_part, a.terms)

    def test_factor_bound_propagates(self):
        with pytest.raises(FactorBoundExceeded):
            partial_fractions(Fraction(1, (1 << 97) + 1))


# Denominators up to 10^6 keep factoring far below FACTOR_BIT_BOUND.
rationals = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))


class TestRationalProperties:
    @settings(max_examples=200, deadline=None)
    @given(rationals)
    def test_partial_fraction_round_trip(self, x):
        form = partial_fractions(x)
        assert form.value() == x
        assert PartialFractionForm(*form.abbreviated()).value() == x

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 6), st.data())
    def test_legendre_reconstruction(self, R, data):
        """A p/q with q <= R and |x - p/q| < 1/(2 q^2) makes the result
        verified, with a denominator in [q, R] that meets Legendre's bound."""
        q = data.draw(st.integers(1, R))
        p = data.draw(st.integers(-10 * q, 10 * q).filter(lambda a: math.gcd(a, q) == 1))
        d = data.draw(st.integers(2 * q * q + 1, 8 * q * q + 8))
        x = Fraction(p, q) + Fraction(data.draw(st.integers(-(d - 1), d - 1)), 2 * q * q * d)
        res = legendre_reconstruct(x, R)
        assert res.verified
        assert q <= res.value.denominator <= R
        assert abs(x - res.value) * 2 * res.value.denominator ** 2 < 1
