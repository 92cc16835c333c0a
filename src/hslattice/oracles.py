"""Constructible hiding functions used as verification oracles.

Every oracle maps group elements to canonical coset representatives, so token
equality is exactly coset equality: no hashing, no collisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .intmath import is_probable_prime
from .lattice import Lattice, coset_canonical
from .rationals import partial_fractions


class BrickOracle:
    """Hides a lattice L <= Z^k via brick-tiling canonical representatives."""

    def __init__(self, lattice: Lattice):
        self.lattice = lattice

    def evaluate(self, x: Sequence[int]) -> Tuple[int, ...]:
        return coset_canonical(self.lattice, x)

    def token(self, x: Sequence[int]) -> bytes:
        return " ".join(str(c) for c in self.evaluate(x)).encode()


class RationalOracle:
    """Hides the subgroup of Q generated by 1 and 1/p for accepted primes p.

    Evaluation drops the integer part of the partial-fraction expansion and
    every exponent-1 term r/p with p accepted, then sums what remains.
    An accepted value that is not a prime raises ValueError, since no
    partial-fraction term has it as its denominator's base."""

    def __init__(self, accepted_primes: Iterable[int]):
        self._accepted = frozenset(int(p) for p in accepted_primes)
        bad = sorted(p for p in self._accepted if not is_probable_prime(p))
        if bad:
            raise ValueError(f"accepted values must be primes, not {', '.join(map(str, bad))}")

    def evaluate(self, x: Fraction) -> Fraction:
        form = partial_fractions(Fraction(x))
        total = Fraction(0)
        for p, k, r in form.terms:
            if k == 1 and p in self._accepted:
                continue
            total += Fraction(r, p ** k)
        return total

    def token(self, x: Fraction) -> bytes:
        return str(self.evaluate(x)).encode()


@dataclass(frozen=True)
class SparseVec:
    """Sparse F2 vector: strictly increasing indices of the nonzero entries."""

    indices: Tuple[int, ...]

    @staticmethod
    def make(indices: Iterable[int]) -> "SparseVec":
        seen = sorted(set(int(i) for i in indices))
        if any(i < 0 for i in seen):
            raise ValueError("indices must be nonnegative")
        return SparseVec(tuple(seen))

    def __add__(self, other: "SparseVec") -> "SparseVec":
        # mod-2 addition: symmetric difference of supports
        return SparseVec(tuple(sorted(set(self.indices) ^ set(other.indices))))

    def __str__(self) -> str:
        return "+".join(f"e{i}" for i in self.indices) if self.indices else "0"

    @staticmethod
    def parse(text: str) -> "SparseVec":
        text = text.strip()
        if text == "0" or not text:
            return SparseVec(())
        parts = [p.strip() for p in text.split("+")]
        idx = []
        for p in parts:
            if not p.startswith("e"):
                raise ValueError(f"bad sparse term {p!r}")
            idx.append(int(p[1:]))
        return SparseVec.make(idx)


class SparseSimonOracle:
    """Hides the span of accepted basis vectors by deleting their terms."""

    def __init__(self, accepted: Iterable[int]):
        self._accepted = frozenset(int(i) for i in accepted)

    def evaluate(self, v: SparseVec) -> SparseVec:
        return SparseVec(tuple(i for i in v.indices if i not in self._accepted))

    def token(self, v: SparseVec) -> bytes:
        return str(self.evaluate(v)).encode()


class ShiftPairOracle:
    """Joint hiding function f(x, a) = c(x - a*s) for a hidden shift s, with c
    the brick oracle's canonical representative of the lattice's cosets.

    f(x, 1) = f(x - s, 0) for every x; the shift is well-defined only mod the
    lattice."""

    def __init__(self, lattice: Lattice, shift: Sequence[int]):
        if len(shift) != lattice.k:
            raise ValueError("dimension mismatch")
        self.lattice = lattice
        self.shift = tuple(int(c) for c in shift)

    def evaluate(self, x: Sequence[int], a: int) -> Tuple[int, ...]:
        if a not in (0, 1):
            raise ValueError("register must be 0 or 1")
        if len(x) != self.lattice.k:
            raise ValueError("dimension mismatch")
        if a:
            x = [int(c) - s for c, s in zip(x, self.shift)]
        return coset_canonical(self.lattice, x)

    def token(self, x: Sequence[int], a: int) -> bytes:
        return " ".join(str(c) for c in self.evaluate(x, a)).encode()
