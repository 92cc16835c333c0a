"""Benchmark workloads: seeded input streams, one trial per harness call, and
the exact correctness check of every trial.

The benchmark owns its inputs.  Each trial's planted secret (a generator
matrix) or planted shift is drawn here from the workload seed and handed to
the public experiment entry points as an in-memory descriptor, together with
a 64-bit per-trial seed for the recovery's own randomness.  The program
never sees the workload seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from hslattice import experiments
from hslattice.lattice import Lattice, basis_bit_complexity, coset_canonical
from hslattice.matrix import IntMatrix

ENTRY_BOUND = 64   # acceptance 8: secret basis entries in [-64, 64]
RETRIES = 8        # acceptance 8: doubling-on-failure budget
SIEVE_BASIS = [[4, 0], [0, 4]]  # acceptance 11, k = 2: L = diag(4, 4)
SIEVE_T = 2
RECOVERY_CALLS = 8  # harness calls a trial may take before it counts as failed


@dataclass(frozen=True)
class Trial:
    descriptor: Dict
    seed: int
    planted: Tuple  # HSP: generator columns; sieve: the shift


@dataclass(frozen=True)
class Outcome:
    recovered: bool      # exact recovery, checked by the benchmark
    queries: int         # Fourier samples (HSP) or qubits (sieve)
    record: Dict         # the harness's trial record without its wall time


def _rank(cols: List[List[int]]) -> int:
    """Exact rank of a list of integer vectors (fraction-free elimination)."""
    rows = [list(c) for c in cols]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [p[c] * x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def _solve(basis: List[List[int]], v: List[int]) -> Optional[List[Fraction]]:
    """The coordinates x with sum(x[j] * basis[j]) == v, by exact Gaussian
    elimination over the rationals; None when v is not in the span.  The
    basis vectors must be linearly independent."""
    k, r = len(v), len(basis)
    rows = [[Fraction(basis[j][i]) for j in range(r)] + [Fraction(v[i])] for i in range(k)]
    for c in range(r):  # row c becomes the pivot row of column c
        piv = next((i for i in range(c, k) if rows[i][c]), None)
        if piv is None:
            raise CheckFailed("a basis given to the span check is linearly dependent")
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c]
        for i in range(k):
            if i != c and rows[i][c]:
                f = rows[i][c] / p[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
    if any(row[r] for row in rows[r:]):
        return None
    return [rows[c][r] / rows[c][c] for c in range(r)]


def _same_lattice(a: List[List[int]], b: List[List[int]]) -> bool:
    """Whether two lists of independent integer vectors span the same
    lattice: each vector of one is an integer combination of the other.
    Uses no hslattice code."""
    def inside(vs, basis):
        for v in vs:
            x = _solve(basis, v) if basis else ([] if not any(v) else None)
            if x is None or any(c.denominator != 1 for c in x):
                return False
        return True
    return inside(a, b) and inside(b, a)


def _lattice(cols: List[List[int]], k: int) -> Lattice:
    if not cols:
        return Lattice.trivial(k)
    return Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))


def _columns(rows: List[List[int]]) -> List[List[int]]:
    return [list(c) for c in zip(*rows)] if rows and rows[0] else []


class Workload:
    name = ""
    floor = 0.0          # acceptance success-rate floor
    query_unit = ""
    warmup = ("", 0)     # (workload, trials) run before anything is timed
    rss_trials = 1       # peak_rss_mb is read after this many trials
    trace_trials_per_s = 0.1  # traced runs take this many trials per --seconds
    speed_kernel = "interp"   # the speed.KERNELS entry that tracks this workload

    def trials(self, seed: int, stream: str = "measure") -> Iterator[Trial]:
        rng = random.Random(f"{self.name}:{stream}:{seed}")
        i = 0
        while True:
            yield self.make_trial(rng, i)
            i += 1

    def make_trial(self, rng: random.Random, i: int) -> Trial:
        raise NotImplementedError

    def run(self, trial: Trial) -> Dict:
        """One harness call for one trial; returns the harness's trial record."""
        raise NotImplementedError

    def check(self, trial: Trial, record: Dict) -> Outcome:
        raise NotImplementedError

    def recovered_later(self, trial: Trial) -> bool:
        """Whether one of up to RECOVERY_CALLS - 1 further harness calls on
        the trial's planted input, each with a fresh per-trial seed, recovers
        it exactly.  Recovery is Monte Carlo and the program does not flag a
        wrong result, so a user re-runs it until the candidate checks out;
        the benchmark's exact check stands in for that test."""
        rng = random.Random(f"{self.name}:retry:{trial.seed}")
        for _ in range(RECOVERY_CALLS - 1):
            again = replace(trial, seed=rng.getrandbits(64))
            if self.check(again, self.run(again)).recovered:
                return True
        return False


class HspWorkload(Workload):
    """Hidden-sublattice recovery, secrets generated as in acceptance 8.

    With `n` set, every trial runs the parameter schedule for that stated
    bit complexity, and secrets whose own bit complexity exceeds it are
    drawn again.  Without it each trial uses its secret's own complexity."""

    floor = 0.70
    query_unit = "samples"
    warmup = ("hsp-k1k2", 50)

    def __init__(self, name: str, ks: Tuple[int, ...], full_rank: bool, n: Optional[int],
                 rss_trials: int, trace_trials_per_s: float, speed_kernel: str):
        self.name = name
        self.ks = ks
        self.full_rank = full_rank
        self.n = n
        self.rss_trials = rss_trials
        self.trace_trials_per_s = trace_trials_per_s
        self.speed_kernel = speed_kernel

    def make_trial(self, rng: random.Random, i: int) -> Trial:
        k = self.ks[i % len(self.ks)]
        rank = k if self.full_rank else rng.randrange(0, k + 1)
        while True:
            cols = [[rng.randrange(-ENTRY_BOUND, ENTRY_BOUND + 1) for _ in range(k)]
                    for _ in range(rank)]
            if _rank(cols) == rank and (
                    self.n is None or basis_bit_complexity(_lattice(cols, k)) <= self.n):
                break
        rows = [[col[r] for col in cols] for r in range(k)] if rank else []
        descriptor = {"k": k, "secret": {"basis": rows}, "retries": RETRIES}
        if self.n is not None:
            descriptor["n"] = self.n
        return Trial(descriptor, rng.getrandbits(64), tuple(map(tuple, cols)))

    def run(self, trial: Trial) -> Dict:
        report = experiments.run_hsp_experiment(trial.descriptor, trial.seed, 1, timing=True)
        return report["trials"][0]

    def check(self, trial: Trial, record: Dict) -> Outcome:
        """The recovered lattice must equal the planted one both by the
        program's `Lattice.__eq__` and by the benchmark's own exact check."""
        k = trial.descriptor["k"]
        given = [list(c) for c in trial.planted]
        planted = _lattice(given, k)
        secret = record["secret_basis"]
        if secret != [list(row) for row in planted.basis.data] or \
                not _same_lattice(given, _columns(secret)):
            raise CheckFailed("the harness planted another secret than the one given")
        rows = record["recovered_basis"]
        recovered = False
        if rows is not None:
            cols = _columns(rows)
            recovered = _same_lattice(given, cols)
            if recovered != (_lattice(cols, k) == planted):
                raise CheckFailed(f"trial {record['trial']}: Lattice.__eq__ disagrees with "
                                  "the exact span check")
        return _outcome(record, recovered, record["samples"])


class SieveWorkload(Workload):
    """Hidden-shift recovery over L = diag(4, 4), t = 2, as in acceptance 11."""

    name = "sieve-k2"
    floor = 0.50
    query_unit = "qubits"
    warmup = ("sieve-k2", 1)
    rss_trials = 5
    trace_trials_per_s = 0.25

    def __init__(self):
        self.lattice = _lattice([list(c) for c in zip(*SIEVE_BASIS)], len(SIEVE_BASIS))
        self.bound = 2 ** (SIEVE_T - 1)  # the sieve's default shift box

    def make_trial(self, rng: random.Random, i: int) -> Trial:
        shift = [rng.randrange(-self.bound, self.bound + 1) for _ in SIEVE_BASIS]
        descriptor = {"k": len(SIEVE_BASIS), "basis": SIEVE_BASIS, "t": SIEVE_T,
                      "shift": shift, "check": True}
        return Trial(descriptor, rng.getrandbits(64), tuple(shift))

    def run(self, trial: Trial) -> Dict:
        report = experiments.run_shift_experiment(trial.descriptor, trial.seed, 1, timing=True)
        return report["trials"][0]

    def check(self, trial: Trial, record: Dict) -> Outcome:
        shift = list(trial.planted)
        if record["shift"] != shift:
            raise CheckFailed("the harness planted another shift than the one given")
        got: Optional[List[int]] = record["recovered"]
        recovered = False
        if got is not None:
            diff = [a - b for a, b in zip(got, shift)]
            recovered = all(c == 0 for c in coset_canonical(self.lattice, diff))
            # L is diagonal, so congruence is also checkable coordinate-wise.
            if recovered != all(d % row[i] == 0 for i, (d, row) in enumerate(zip(diff, SIEVE_BASIS))):
                raise CheckFailed("coset_canonical disagrees with the diagonal congruence")
        return _outcome(record, recovered, record["qubits"])


class CheckFailed(RuntimeError):
    """The program's output contradicts the benchmark's own check."""


def _outcome(record: Dict, recovered: bool, queries: int) -> Outcome:
    if record["success"] != recovered:
        raise CheckFailed(f"trial {record['trial']}: harness says success={record['success']}, "
                          f"exact check says {recovered}")
    rest = {key: value for key, value in record.items() if key != "wall_time_s"}
    return Outcome(recovered, queries, rest)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # n = 160 bounded the bit complexity of all 3000 such secrets sampled.
        HspWorkload("hsp-k5", (5,), full_rank=True, n=160, rss_trials=2,
                    trace_trials_per_s=0.067, speed_kernel="bigint"),
        HspWorkload("hsp-k1k2", (1, 2), full_rank=False, n=None, rss_trials=2000,
                    trace_trials_per_s=100, speed_kernel="interp"),
        SieveWorkload(),
    )
}
