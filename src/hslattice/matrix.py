"""Dense exact matrices over Z and Q, with HNF and SNF.

Matrices are immutable values; every operation returns a fresh matrix.
Conventions:

* HNF is a *column* form.  Each nonzero column's pivot is its last nonzero
  entry; pivot rows increase strictly left to right; pivots are positive;
  entries in a pivot row to the right of the pivot lie in [0, pivot);
  zero columns trail.  Full-rank square matrices come out upper triangular.
* SNF is diag(d1, d2, ...) with nonnegative d1 | d2 | ... and unimodular
  transforms on both sides.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Sequence, Tuple


def _freeze(rows: Iterable[Iterable]) -> Tuple[Tuple, ...]:
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    data: Tuple[Tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = _freeze([[int(x) for x in row] for row in rows])
        r = len(data)
        c = len(data[0]) if r else (cols or 0)
        if any(len(row) != c for row in data):
            raise ValueError("ragged rows")
        return IntMatrix(r, c, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, _freeze([[1 if i == j else 0 for j in range(n)] for i in range(n)]))

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        return self.data[ij[0]][ij[1]]

    @functools.cached_property
    def _columns(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(zip(*self.data)) if self.rows else tuple(() for _ in range(self.cols))

    def column(self, j: int) -> Tuple[int, ...]:
        return self._columns[j]

    def columns(self) -> List[Tuple[int, ...]]:
        return list(self._columns)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        if not cols:
            return IntMatrix(rows or 0, 0, _freeze([[] for _ in range(rows or 0)]))
        r = len(cols[0])
        return IntMatrix(r, len(cols), _freeze([[int(col[i]) for col in cols] for i in range(r)]))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, self._columns)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        od = other._columns
        out = [[sum(a * b for a, b in zip(row, col)) for col in od] for row in self.data]
        return IntMatrix(self.rows, other.cols, _freeze(out))

    def mul_vec(self, v: Sequence[int]) -> Tuple[int, ...]:
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.data)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, _freeze([[c * x for x in row] for row in self.data]))

    def to_rational(self, denominator: int = 1) -> "RatMatrix":
        """The rational matrix self / denominator, for denominator > 0."""
        return RatMatrix(self, denominator)

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        return _bareiss([list(row) for row in self.data], self.rows, jordan=False)

    def adjugate(self) -> Tuple[int, "IntMatrix"]:
        """(det, adj) with self @ adj = det * I, for a nonsingular square matrix."""
        if self.rows != self.cols:
            raise ValueError("adjugate of non-square matrix")
        n = self.rows
        a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.data)]
        det = _bareiss(a, n, jordan=True)
        if det == 0:
            raise ValueError("singular matrix")
        # The appended block ends as p * self^-1 for the last pivot p = +-det;
        # adj = det * self^-1.
        sign = 1 if n == 0 or a[0][0] == det else -1
        return det, IntMatrix(n, n, _freeze([[sign * x for x in row[n:]] for row in a]))

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse of a unimodular matrix (integer entries)."""
        det, adj = self.adjugate()
        if det not in (1, -1):
            raise ValueError(f"matrix of determinant {det} is not unimodular")
        return adj.scale(det)


def _bareiss(a: List[List[int]], n: int, jordan: bool) -> int:
    """Fraction-free elimination (Bareiss, Math. Comp. 1968) on the first n
    columns of the n integer rows a, in place; returns their determinant.

    Step t multiplies every other row by the pivot, subtracts, and divides
    exactly by the previous pivot: each entry is then a (t+1)-minor of the
    input, so the integers grow no larger than those minors.  Forward
    elimination (jordan=False) clears below the pivots only.  Gauss-Jordan
    clears above them too, so the n columns end as p * I and columns
    appended to the rows end multiplied by p times the inverse, where p =
    +-det is the last pivot.
    Returns 0, leaving a partly reduced, when the columns are singular."""
    sign, prev = 1, 1
    for t in range(n):
        if not a[t][t]:
            piv = next((i for i in range(t + 1, n) if a[i][t]), None)
            if piv is None:
                return 0
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        at = a[t]
        p = at[t]
        for i in range(n) if jordan else range(t + 1, n):
            if i != t:
                f = a[i][t]
                a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], at)]
        prev = p
    return sign * prev


@dataclass(frozen=True, eq=False)
class RatMatrix:
    """The rational matrix num / den: integer numerators over one positive
    common denominator, not necessarily the least.  Every operation runs on
    num; the Fraction entries are built only when `data` is first read.  Two
    matrices are equal when their entries are, whatever their denominators."""

    num: IntMatrix
    den: int = 1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        entries = [[Fraction(x) for x in row] for row in rows]
        den = lcm(*(x.denominator for row in entries for x in row))
        return IntMatrix.from_rows([[x.numerator * (den // x.denominator) for x in row]
                                    for row in entries], cols).to_rational(den)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return IntMatrix.identity(n).to_rational()

    @property
    def rows(self) -> int:
        return self.num.rows

    @property
    def cols(self) -> int:
        return self.num.cols

    @functools.cached_property
    def data(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return _freeze([[Fraction(x, self.den) for x in row] for row in self.num.data])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.num.scale(other.den) == other.num.scale(self.den)

    def __hash__(self) -> int:
        return hash(self.data)

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        return Fraction(self.num[ij], self.den)

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num.column(j))

    def columns(self) -> List[Tuple[Fraction, ...]]:
        return [self.column(j) for j in range(self.cols)]

    @staticmethod
    def from_columns(cols: Sequence[Sequence], rows: int | None = None) -> "RatMatrix":
        return RatMatrix.from_rows(cols, cols=rows).transpose()

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.num.transpose(), self.den)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(self.num @ other.num, self.den * other.den)

    def mul_vec(self, v: Sequence) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num.mul_vec(v))

    def scale(self, c) -> "RatMatrix":
        c = Fraction(c)
        return RatMatrix(self.num.scale(c.numerator), self.den * c.denominator)

    def denominator_lcm(self) -> int:
        return self.den // gcd(self.den, *(x for row in self.num.data for x in row))

    def to_integer(self) -> IntMatrix:
        c, M = self.cleared()
        if c != 1:
            raise ValueError("matrix has non-integer entries")
        return M

    def cleared(self) -> Tuple[int, IntMatrix]:
        """(c, c * self) with c the least common denominator."""
        c = self.denominator_lcm()
        g = self.den // c
        return c, self.num if g == 1 else IntMatrix(self.rows, self.cols, _freeze(
            [[x // g for x in row] for row in self.num.data]))

    def inverse(self) -> "RatMatrix":
        det, adj = self.num.adjugate()
        return adj.scale(self.den if det > 0 else -self.den).to_rational(abs(det))

    def det(self) -> Fraction:
        return Fraction(self.num.det(), self.den ** self.rows)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def hnf(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Column Hermite normal form: returns (H, U) with M @ U = H, |det U| = 1.

    Elimination runs Euclidean div-mod chains against the smallest live entry
    in each pivot row, which keeps intermediate entries small (Kannan-Bachem
    style reduction each sweep)."""
    k, n = M.rows, M.cols
    cols = [list(col) for col in zip(*M.data)] if k else [[] for _ in range(n)]
    u_cols = [[int(i == j) for i in range(n)] for j in range(n)]
    assigned: List[Tuple[int, int]] = []  # (pivot_row, column index into cols)
    free = list(range(n))
    for r in range(k - 1, -1, -1):
        while True:
            live = [j for j in free if cols[j][r] != 0]
            if not live:
                break
            if len(live) == 1:
                dst = live[0]
                break
            dst = min(live, key=lambda j: abs(cols[j][r]))
            p = cols[dst][r]
            for j in live:
                if j == dst:
                    continue
                q = cols[j][r] // p
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[dst])]
                    u_cols[j] = [a - q * b for a, b in zip(u_cols[j], u_cols[dst])]
        live = [j for j in free if cols[j][r] != 0]
        if not live:
            continue
        dst = live[0]
        if cols[dst][r] < 0:
            cols[dst] = [-x for x in cols[dst]]
            u_cols[dst] = [-x for x in u_cols[dst]]
        assigned.append((r, dst))
        free.remove(dst)
    # Pivot columns ordered by pivot row, zero columns trailing.
    assigned.sort()
    order = [j for _, j in assigned] + free
    cols = [cols[j] for j in order]
    u_cols = [u_cols[j] for j in order]
    pivots = [(r, idx) for idx, (r, _) in enumerate(sorted(assigned))]
    # Reduce entries to the right of each pivot, bottom pivot first.
    for r, j in reversed(pivots):
        p = cols[j][r]
        for j2 in range(j + 1, n):
            q = cols[j2][r] // p
            if q:
                cols[j2] = [a - q * b for a, b in zip(cols[j2], cols[j])]
                u_cols[j2] = [a - q * b for a, b in zip(u_cols[j2], u_cols[j])]
    H = IntMatrix.from_columns(cols, rows=k)
    U = IntMatrix.from_columns(u_cols, rows=n)
    return H, U


def hnf_pivots(H: IntMatrix) -> List[Tuple[int, int]]:
    """(pivot_row, column) pairs of a matrix already in column HNF."""
    out = []
    for j in range(H.cols):
        col = H.column(j)
        nz = [i for i, x in enumerate(col) if x != 0]
        if nz:
            out.append((nz[-1], j))
    return out


def snf(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: returns (D, V, W) with D = V @ M @ W diagonal,
    nonnegative, each diagonal entry dividing the next; V, W unimodular.

    Pivoting always moves the smallest nonzero entry of the trailing block to
    the corner and eliminates by div-mod sweeps, which keeps intermediate
    entries reduced (the Kannan-Bachem precaution against blow-up)."""
    k, n = M.rows, M.cols
    a = [list(row) for row in M.data]
    v = [[int(i == j) for j in range(k)] for i in range(k)]
    w = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i1: int, i2: int) -> None:
        a[i1], a[i2] = a[i2], a[i1]
        v[i1], v[i2] = v[i2], v[i1]

    def swap_cols(j1: int, j2: int) -> None:
        for m in (a, w):
            for row in m:
                row[j1], row[j2] = row[j2], row[j1]

    def min_pivot(t: int):
        best = None
        for i in range(t, k):
            row = a[i]
            for j in range(t, n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        return best

    for t in range(min(k, n)):
        while True:
            best = min_pivot(t)
            if best is None:
                break
            _, pi, pj = best
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, k):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    v[i] = [x - q * y for x, y in zip(v[i], v[t])]
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    for m in (a, w):
                        for row in m:
                            row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
            if dirty:
                continue
            # Pivot must divide the rest of the block; pull in an offender row.
            offender = None
            for i in range(t + 1, k):
                if any(x % p for x in a[i][t + 1:]):
                    offender = i
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            v[t] = [x + y for x, y in zip(v[t], v[offender])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            v[t] = [-x for x in v[t]]
    D = IntMatrix(k, n, _freeze(a))
    V = IntMatrix(k, k, _freeze(v))
    W = IntMatrix(n, n, _freeze(w))
    return D, V, W


def snf_rational(A: RatMatrix) -> Tuple[RatMatrix, IntMatrix, IntMatrix]:
    """SNF of a rational matrix: D = V @ A @ W with integer unimodular V, W
    and diagonal D whose successive quotients are integers.

    Runs the integer SNF on the numerators and puts D back over the
    denominator; the SNF's transforms do not change when its input is scaled."""
    D, V, W = snf(A.num)
    return D.to_rational(A.den), V, W


# ---------------------------------------------------------------------------
# Text matrix format: first line "rows cols", then row-major entries.
# ---------------------------------------------------------------------------

def format_matrix(M) -> str:
    lines = [f"{M.rows} {M.cols}"]
    for row in M.data:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_rational(text: str) -> Fraction:
    """An integer or 'p/q' token; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


def parse_matrix(text: str) -> RatMatrix:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text must start with 'rows cols'")
    r, c = int(tokens[0]), int(tokens[1])
    if r < 0 or c < 0:
        raise ValueError(f"matrix dimensions must be nonnegative, got {r} x {c}")
    entries = tokens[2:]
    if len(entries) != r * c:
        raise ValueError(f"expected {r * c} entries, got {len(entries)}")
    data = [[parse_rational(entries[i * c + j]) for j in range(c)] for i in range(r)]
    return RatMatrix.from_rows(data, cols=c)


def parse_int_matrix(text: str) -> IntMatrix:
    return parse_matrix(text).to_integer()
