"""Seeded experiment harness: descriptors in, reproducible JSON reports out.

Seeds are 64-bit and expand through a splittable counter-based stream
(SplitMix64), so per-trial generators are independent of execution order.
Reports are byte-for-byte reproducible for a fixed (descriptor, seed,
trials); wall-clock timing is only attached on request since it breaks byte
identity.
"""

from __future__ import annotations

import random
import time
from typing import Dict

from .alg_a import AlgAStats, end_to_end, schedule
from .lattice import Lattice, basis_bit_complexity, coset_canonical
from .matrix import IntMatrix, format_matrix
from .sieve import SieveStats, recover_shift, sieve_config

SCHEMA_VERSION = "v1"

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(splitmix64((seed & _MASK64) ^ splitmix64(trial)))


def random_lattice(k: int, rank: int, entry_bound: int, rng: random.Random) -> Lattice:
    """Random rank-`rank` sublattice of Z^k with basis entries in [-b, b]."""
    if rank == 0:
        return Lattice.trivial(k)
    while True:
        cols = [[rng.randrange(-entry_bound, entry_bound + 1) for _ in range(k)]
                for _ in range(rank)]
        try:
            L = Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))
        except ValueError:
            continue
        if L.rank == rank:
            return L


def _descriptor_int(descriptor: Dict, key: str) -> int:
    if key not in descriptor:
        raise ValueError(f"descriptor has no {key!r} field")
    return int(descriptor[key])


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")


def _secret_for_trial(descriptor: Dict, rng: random.Random) -> Lattice:
    k = _descriptor_int(descriptor, "k")
    spec = descriptor.get("secret", {"random_rank": "random"})
    if "basis" in spec:
        rows = spec["basis"]
        if rows:
            return Lattice.from_generators(IntMatrix.from_rows(rows))
        return Lattice.trivial(k)
    rank = spec.get("random_rank", "random")
    if rank == "random":
        rank = rng.randrange(0, k + 1)
    bound = int(spec.get("entry_bound", 64))
    return random_lattice(k, int(rank), bound, rng)


def run_hsp_experiment(descriptor: Dict, seed: int, trials: int,
                       debug_trace: bool = False, timing: bool = False) -> Dict:
    """Plant secrets and run the full recovery per trial; emit a v1 report."""
    _check_trials(trials)
    k = _descriptor_int(descriptor, "k")

    def one_trial(i: int) -> Dict:
        rng = trial_rng(seed, i)
        secret = _secret_for_trial(descriptor, rng)
        n = descriptor.get("n") or max(1, basis_bit_complexity(secret))
        params = schedule(int(n), k, retries=int(descriptor.get("retries", 8)))
        stats = AlgAStats()
        t0 = time.monotonic()
        recovered = end_to_end(secret, params, rng, stats=stats)
        elapsed = time.monotonic() - t0
        record = {
            "trial": i,
            "success": recovered == secret,
            "samples": stats.samples,
            "secret_rank": secret.rank,
            "n": int(n),
            "params_bits": {"Q": params.Q.bit_length(), "R": params.R.bit_length(),
                            "S": params.S.bit_length(), "T": params.T.bit_length()},
            "secret_basis": [list(row) for row in secret.basis.data],
            "recovered_basis": ([list(row) for row in recovered.basis.data]
                                if recovered is not None else None),
        }
        if timing:
            record["wall_time_s"] = elapsed
        if debug_trace and i == 0:
            from .alg_a import recover_colattice, sample_fourier_point

            trace_rng = trial_rng(seed ^ 0xDEB06, i)
            sample = sample_fourier_point(secret, params, trace_rng, debug=True)
            _, trace = recover_colattice(sample.y1, params)
            record["trace"] = {
                "E": format_matrix(trace.E),
                "lll_basis": format_matrix(trace.lll_basis) if trace.lll_basis else None,
                "ell_guess": trace.ell_guess,
                "failure": trace.failure,
            }
        return record

    records = [one_trial(i) for i in range(trials)]
    wins = sum(r["success"] for r in records)
    return {
        "schema": SCHEMA_VERSION,
        "command": "hsp-recover",
        "parameters": {"descriptor": descriptor, "trials": trials},
        "seed": seed,
        "trials": records,
        "success_rate": wins / trials if trials else 0.0,
        "timing": None,
    }


def run_shift_experiment(descriptor: Dict, seed: int, trials: int,
                         noise: str = "exact", timing: bool = False) -> Dict:
    """Plant hidden shifts and run the collimation sieve per trial."""
    _check_trials(trials)
    lattice = Lattice.from_generators(IntMatrix.from_rows(descriptor["basis"])) \
        if descriptor.get("basis") else Lattice.trivial(_descriptor_int(descriptor, "k"))
    t = _descriptor_int(descriptor, "t")
    cfg = sieve_config(
        lattice, t,
        m=descriptor.get("m"),
        noise=noise,
        shift_bound=descriptor.get("shift_bound"),
        max_retries=int(descriptor.get("max_retries", 64)),
        check=bool(descriptor.get("check", False)),
    )

    def one_trial(i: int) -> Dict:
        rng = trial_rng(seed, i)
        spec_shift = descriptor.get("shift", "random")
        if spec_shift == "random":
            b = cfg.shift_bound
            shift = [rng.randrange(-b, b + 1) for _ in range(lattice.k)]
        else:
            shift = [int(c) for c in spec_shift]
        stats = SieveStats()
        t0 = time.monotonic()
        recovered = recover_shift(shift, lattice, t, rng, cfg=cfg, stats=stats)
        elapsed = time.monotonic() - t0
        success = recovered is not None and all(
            c == 0 for c in coset_canonical(lattice, [a - b for a, b in zip(recovered, shift)])
        )
        record = {
            "trial": i,
            "success": success,
            "shift": list(shift),
            "recovered": list(recovered) if recovered is not None else None,
            "qubits": stats.qubits,
            "collimations": stats.collimations,
            "rejections": {str(k): v for k, v in sorted(stats.rejections.items())},
            "max_live_multipliers": stats.max_live_multipliers,
        }
        if timing:
            record["wall_time_s"] = elapsed
        return record

    records = [one_trial(i) for i in range(trials)]
    wins = sum(r["success"] for r in records)
    return {
        "schema": SCHEMA_VERSION,
        "command": "shift-recover",
        "parameters": {"descriptor": descriptor, "trials": trials, "noise": noise,
                       "m": cfg.m, "shift_bound": cfg.shift_bound},
        "seed": seed,
        "trials": records,
        "success_rate": wins / trials if trials else 0.0,
        "timing": None,
    }

