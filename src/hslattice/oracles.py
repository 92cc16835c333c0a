"""Constructible hiding functions used as verification oracles.

Every oracle maps group elements to canonical coset representatives, so token
equality is exactly coset equality: no hashing, no collisions.  Oracles count
calls and accumulate a 1-norm cost meter for pseudo-polynomial query-cost
experiments; counters are plain ints bumped under the GIL, so concurrent
trials should use one oracle instance each and merge counts afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .lattice import Lattice, coset_canonical
from .rationals import partial_fractions


class BrickOracle:
    """Hides a lattice L <= Z^k via brick-tiling canonical representatives."""

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        self.calls = 0
        self.cost_1norm = 0

    def evaluate(self, x: Sequence[int]) -> Tuple[int, ...]:
        if len(x) != self.lattice.k:
            raise ValueError("dimension mismatch")
        self.calls += 1
        self.cost_1norm += sum(abs(int(c)) for c in x)
        return coset_canonical(self.lattice, x)

    def token(self, x: Sequence[int]) -> bytes:
        return " ".join(str(c) for c in self.evaluate(x)).encode()

    def descriptor(self) -> dict:
        return {"kind": "brick", "basis": [list(row) for row in self.lattice.basis.data]}


class RationalOracle:
    """Hides the subgroup of Q generated by 1 and 1/p for accepted primes p.

    Evaluation drops the integer part of the partial-fraction expansion and
    every exponent-1 term r/p with p accepted, then sums what remains."""

    def __init__(self, accepted_primes: Iterable[int] | Callable[[int], bool]):
        if callable(accepted_primes):
            self._accepted = accepted_primes
            self._accepted_set: Optional[frozenset] = None
        else:
            s = frozenset(int(p) for p in accepted_primes)
            self._accepted = s.__contains__
            self._accepted_set = s
        self.calls = 0
        self.cost_1norm = 0

    def evaluate(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        self.calls += 1
        self.cost_1norm += abs(x.numerator) + x.denominator
        form = partial_fractions(x)
        total = Fraction(0)
        for p, k, r in form.terms:
            if k == 1 and self._accepted(p):
                continue
            total += Fraction(r, p ** k)
        return total

    def token(self, x: Fraction) -> bytes:
        return str(self.evaluate(x)).encode()

    def descriptor(self) -> dict:
        if self._accepted_set is None:
            raise ValueError("predicate-backed oracle has no finite descriptor")
        return {"kind": "rational", "accepted": sorted(self._accepted_set)}


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

    def __init__(self, accepted: Iterable[int] | Callable[[int], bool]):
        if callable(accepted):
            self._accepted = accepted
            self._accepted_set: Optional[frozenset] = None
        else:
            s = frozenset(int(i) for i in accepted)
            self._accepted = s.__contains__
            self._accepted_set = s
        self.calls = 0
        self.cost_1norm = 0

    def evaluate(self, v: SparseVec) -> SparseVec:
        self.calls += 1
        self.cost_1norm += len(v.indices)
        return SparseVec(tuple(i for i in v.indices if not self._accepted(i)))

    def token(self, v: SparseVec) -> bytes:
        return str(self.evaluate(v)).encode()

    def descriptor(self) -> dict:
        if self._accepted_set is None:
            raise ValueError("predicate-backed oracle has no finite descriptor")
        return {"kind": "sparse-simon", "accepted": sorted(self._accepted_set)}


class ShiftPairOracle:
    """Joint hiding function f(x, a) = base(x - a*s) for a hidden shift s.

    f(x, 1) = f(x - s, 0) for every x; the shift is well-defined only mod the
    lattice the base oracle hides."""

    def __init__(self, lattice: Lattice, shift: Sequence[int], base: BrickOracle):
        if len(shift) != lattice.k:
            raise ValueError("dimension mismatch")
        self.lattice = lattice
        self.shift = tuple(int(c) for c in shift)
        self.base = base
        self.calls = 0
        self.cost_1norm = 0

    def evaluate(self, x: Sequence[int], a: int) -> Tuple[int, ...]:
        if a not in (0, 1):
            raise ValueError("register must be 0 or 1")
        self.calls += 1
        self.cost_1norm += sum(abs(int(c)) for c in x) + a
        if a:
            x = [int(c) - s for c, s in zip(x, self.shift)]
        return self.base.evaluate(x)

    def token(self, x: Sequence[int], a: int) -> bytes:
        return " ".join(str(c) for c in self.evaluate(x, a)).encode()

    def descriptor(self) -> dict:
        return {
            "kind": "shift-pair",
            "basis": [list(row) for row in self.lattice.basis.data],
            "shift": list(self.shift),
        }


def brick_oracle(lattice: Lattice) -> BrickOracle:
    return BrickOracle(lattice)


def rational_oracle(accepted_primes) -> RationalOracle:
    return RationalOracle(accepted_primes)


def sparse_simon_oracle(accepted) -> SparseSimonOracle:
    return SparseSimonOracle(accepted)


def shift_pair_oracle(lattice: Lattice, shift: Sequence[int],
                      base: Optional[BrickOracle] = None) -> ShiftPairOracle:
    return ShiftPairOracle(lattice, shift, base or BrickOracle(lattice))
