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
from typing import Dict, List, Tuple

from .alg_a import AlgAStats, end_to_end, recover_colattice, sample_fourier_point, schedule
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
        L = Lattice.from_generators(IntMatrix.from_columns(cols, rows=k))
        if L.rank == rank:
            return L


def _json_int(value, name: str) -> int:
    """A JSON integer; a bool, a string or a float is a descriptor error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"descriptor {name} must be an integer, got {value!r}")
    return value


def _descriptor_int(descriptor: Dict, key: str) -> int:
    if key not in descriptor:
        raise ValueError(f"descriptor has no {key!r} field")
    return _json_int(descriptor[key], repr(key))


def _check_keys(spec, allowed: Tuple[str, ...], name: str) -> None:
    """A JSON object whose keys are all in `allowed`; anything else is a
    descriptor error."""
    if not isinstance(spec, dict):
        raise ValueError(f"{name} must be an object, got {spec!r}")
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValueError(f"{name} has unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"allowed: {', '.join(allowed)}")


def _at_least(value: int, low: int, name: str) -> int:
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _lattice_from_rows(rows, k: int) -> Lattice:
    """The lattice generated by the columns of a descriptor's basis rows."""
    if not isinstance(rows, list) or len(rows) not in (0, k):
        raise ValueError(f"basis must be a list of k = {k} rows, got {rows!r}")
    if not rows:
        return Lattice.trivial(k)
    if not all(isinstance(row, list) for row in rows):
        raise ValueError(f"descriptor 'basis' rows must be lists, got {rows!r}")
    ints = [[_json_int(x, "'basis' entry") for x in row] for row in rows]
    return Lattice.from_generators(IntMatrix.from_rows(ints))


def _secret_for_trial(descriptor: Dict, rng: random.Random) -> Lattice:
    k = _descriptor_int(descriptor, "k")
    spec = descriptor.get("secret", {"random_rank": "random"})
    _check_keys(spec, ("basis", "random_rank", "entry_bound"), "descriptor 'secret'")
    if "basis" in spec:
        return _lattice_from_rows(spec["basis"], k)
    rank = spec.get("random_rank", "random")
    if rank == "random":
        rank = rng.randrange(0, k + 1)
    elif not 0 <= _json_int(rank, "secret 'random_rank'") <= k:
        raise ValueError(f"secret 'random_rank' must be in [0, k = {k}], got {rank}")
    bound = _at_least(_json_int(spec.get("entry_bound", 64), "secret 'entry_bound'"), 1,
                      "secret 'entry_bound'")
    return random_lattice(k, rank, bound, rng)


def run_hsp_experiment(descriptor: Dict, seed: int, trials: int,
                       debug_trace: bool = False, timing: bool = False) -> Dict:
    """Plant secrets and run the full recovery per trial; emit a v1 report."""
    _at_least(trials, 0, "trials")
    if isinstance(descriptor, dict) and "basis" in descriptor:
        raise ValueError("hsp-recover takes the secret basis as 'secret': {'basis': ...}")
    _check_keys(descriptor, ("k", "secret", "n", "retries"), "descriptor")
    k = _at_least(_descriptor_int(descriptor, "k"), 1, "descriptor 'k'")
    stated_n = _json_int(descriptor.get("n", 0), "'n'")  # 0: the secret's bit size
    retries = _at_least(_json_int(descriptor.get("retries", 8), "'retries'"), 1,
                        "descriptor 'retries'")

    def one_trial(i: int) -> Dict:
        rng = trial_rng(seed, i)
        secret = _secret_for_trial(descriptor, rng)
        n = stated_n or max(1, basis_bit_complexity(secret))
        params = schedule(n, k, retries=retries)
        stats = AlgAStats()
        t0 = time.monotonic()
        recovered = end_to_end(secret, params, rng, stats=stats)
        elapsed = time.monotonic() - t0
        record = {
            "trial": i,
            "success": recovered == secret,
            "samples": stats.samples,
            "secret_rank": secret.rank,
            "n": n,
            "params_bits": {"Q": params.Q.bit_length(), "R": params.R.bit_length(),
                            "S": params.S.bit_length(), "T": params.T.bit_length()},
            "secret_basis": [list(row) for row in secret.basis.data],
            "recovered_basis": ([list(row) for row in recovered.basis.data]
                                if recovered is not None else None),
        }
        if timing:
            record["wall_time_s"] = elapsed
        if debug_trace and i == 0:
            trace_rng = trial_rng(seed ^ 0xDEB06, i)
            sample = sample_fourier_point(secret, params, trace_rng)
            _, trace = recover_colattice(sample.y1, params.Q, params)
            basis = trace.lll_basis  # formed on each read
            record["trace"] = {
                "E": format_matrix(trace.E),
                "lll_basis": format_matrix(basis) if basis is not None else None,
                "ell_guess": trace.ell_guess,
                "failure": trace.failure,
            }
        return record

    return _report("hsp-recover", {"descriptor": descriptor, "trials": trials}, seed,
                   [one_trial(i) for i in range(trials)])


def run_shift_experiment(descriptor: Dict, seed: int, trials: int,
                         noise: str = "exact", timing: bool = False) -> Dict:
    """Plant hidden shifts and run the collimation sieve per trial."""
    _at_least(trials, 0, "trials")
    _check_keys(descriptor, ("k", "basis", "shift", "t", "m", "shift_bound", "check"),
                "descriptor")
    rows = descriptor.get("basis", [])
    if not isinstance(rows, list):
        raise ValueError(f"descriptor 'basis' must be a list of rows, got {rows!r}")
    k = _descriptor_int(descriptor, "k") if "k" in descriptor or not rows else len(rows)
    lattice = _lattice_from_rows(rows, _at_least(k, 1, "descriptor 'k'"))
    spec_shift = descriptor.get("shift", "random")
    if spec_shift != "random":
        if not isinstance(spec_shift, list) or len(spec_shift) != k:
            raise ValueError(f"shift must be \"random\" or a list of k = {k} integers, "
                             f"got {spec_shift!r}")
        spec_shift = [_json_int(c, "'shift' entry") for c in spec_shift]
    t = _descriptor_int(descriptor, "t")
    options = {key: _descriptor_int(descriptor, key)
               for key in ("m", "shift_bound") if key in descriptor}
    check = descriptor.get("check", False)
    if not isinstance(check, bool):
        raise ValueError(f"descriptor 'check' must be true or false, got {check!r}")
    cfg = sieve_config(lattice, t, noise=noise, check=check, **options)

    def one_trial(i: int) -> Dict:
        rng = trial_rng(seed, i)
        if spec_shift == "random":
            b = cfg.shift_bound
            shift = [rng.randrange(-b, b + 1) for _ in range(lattice.k)]
        else:
            shift = list(spec_shift)
        stats = SieveStats()
        t0 = time.monotonic()
        recovered = recover_shift(shift, cfg, rng, stats=stats)
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

    return _report("shift-recover", {"descriptor": descriptor, "trials": trials, "noise": noise,
                                     "m": cfg.m, "shift_bound": cfg.shift_bound},
                   seed, [one_trial(i) for i in range(trials)])


def _report(command: str, parameters: Dict, seed: int, records: List[Dict]) -> Dict:
    wins = sum(r["success"] for r in records)
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "trials": records,
        "success_rate": wins / len(records) if records else 0.0,
        "timing": None,
    }

