"""hslattice benchmark: HSP and hidden-shift recovery, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload hsp-k1k2 --seed 1 --seconds 30 --trace 0

`--trace 0` times the workload untraced for `--seconds` seconds of harness
time and prints the end-to-end metrics, with times normalised to a reference
machine speed (speed.py).  `--trace 1` runs a fixed number of trials
(proportional to `--seconds`) untraced, traced and untraced again, checks
that all three give identical results, and prints the per-layer metrics.
Every trial is checked exactly; the last stdout line is the JSON result, and the exit
code is 1 when a check fails or the success rate misses its floor.  See
perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 11


def _import_program() -> None:
    """Put the checkout's own package first on the path, or exit 2."""
    if not (SRC / "hslattice" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hslattice package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hslattice

    if Path(hslattice.__file__).resolve().parent != SRC / "hslattice":
        sys.exit(f"perfbench: imported hslattice from {hslattice.__file__}, not {SRC}")


def environment() -> Dict:
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    """HEAD of the checkout; None when it is not the top of a git repository."""
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = git.stdout.split()
    if git.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _setup_s(workload: str, seed: int) -> float:
    """Median, over fresh processes, of the time from process start until the
    workload's first trial input is ready (import and workload construction
    included).  The probe prints its CLOCK_MONOTONIC reading at that point,
    so the interpreter's exit and the wait for it are not counted."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                                "--workload", workload, "--seed", str(seed)],
                               cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(probe.stdout) - start)
    return statistics.median(times)


def _warm_up(wl, seed: int) -> None:
    from workloads import WORKLOADS

    warm = WORKLOADS[wl.warmup[0]]
    for trial in islice(warm.trials(seed, "warmup"), wl.warmup[1]):
        warm.check(trial, warm.run(trial))


def timed_run(wl, seed: int, seconds: float) -> Dict:
    """End-to-end metrics: trials back to back until `seconds` of harness
    time have passed.  Input generation and checking are not timed.  The
    time metrics are normalised to the reference speed (see speed.py); the
    run details keep the raw figures."""
    from speed import SpeedSampler

    setup = _setup_s(wl.name, seed)
    _warm_up(wl, seed)
    busy = 0.0
    times: List[float] = []
    ends: List[int] = []    # speed samples taken by the end of each trial
    queries = wins = failed = 0
    rss: Optional[float] = None
    stream = wl.trials(seed)
    with SpeedSampler(wl.speed_kernel) as sampler:
        while busy < seconds:
            trial = next(stream)
            spent = sampler.spent_s
            start = time.perf_counter()
            record = wl.run(trial)
            took = time.perf_counter() - start - (sampler.spent_s - spent)
            busy += took
            times.append(took)
            ends.append(len(sampler.samples))
            outcome = wl.check(trial, record)
            queries += outcome.queries
            wins += outcome.recovered
            # A first-call miss is retried untimed; it fails only if no retry recovers it.
            failed += not (outcome.recovered or wl.recovered_later(trial))
            if len(times) == wl.rss_trials:
                rss = _peak_rss_mb()
    n = len(times)
    scaled = sampler.normalise(times, ends)
    metrics = {
        "trials_per_s": (n / sum(scaled), "1/s"),
        "trial_s_p50": (statistics.median(scaled), "s"),
        "success_rate": (wins / n, "ratio"),
        "oracle_queries_per_success": (queries / max(wins, 1), "count"),
        # Set-up ran just before the trials; it is scaled by the run's mean speed.
        "setup_s": (setup * sampler.scale(), "s"),
        "peak_rss_mb": (rss if rss is not None else _peak_rss_mb(), "MB"),
    }
    info = {"trials": n, "busy_s": busy, "query_unit": wl.query_unit,
            "raw_trials_per_s": n / busy, "raw_trial_s_p50": statistics.median(times),
            "raw_setup_s": setup,
            # p90 only where at least ten trials lie beyond it.
            "trial_s_p90": statistics.quantiles(scaled, n=10)[-1] if n >= 100 else None,
            "speed": sampler.summary(), "rss_after_trials": min(n, wl.rss_trials)}
    out = _result(wl, n, wins, failed, metrics, info)
    out["trial_s"] = times
    out["trial_s_scaled"] = scaled
    out["kernel_s"] = sampler.samples
    return out


def _pass(wl, trials, tracer=None):
    """Run the trials from empty module caches; returns (records, seconds)."""
    from tracing import clear_caches

    clear_caches()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        records = [wl.run(t) for t in trials]
        return records, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()


def traced_run(wl, seed: int, seconds: float, spans_path: Path) -> Dict:
    """Per-layer metrics: the same trials untraced, traced, and untraced
    again; the tracing overhead is the traced time minus the mean untraced
    time, which cancels a steady drift between the passes."""
    from tracing import Tracer, cache_entries

    n = max(1, round(seconds * wl.trace_trials_per_s))
    trials = list(islice(wl.trials(seed), n))
    _warm_up(wl, seed)
    tracer = Tracer()
    before, before_s = _pass(wl, trials)
    traced, traced_s = _pass(wl, trials, tracer)
    entries = cache_entries()
    after, after_s = _pass(wl, trials)
    plain_s = (before_s + after_s) / 2

    traced_out = [wl.check(t, r) for t, r in zip(trials, traced)]
    identical = all([wl.check(t, r).record for t, r in zip(trials, records)]
                    == [o.record for o in traced_out] for records in (before, after))
    if not identical:
        print("perfbench: traced and untraced runs gave different results", file=sys.stderr)

    layer = tracer.layer_metrics()
    layer["lattice.cache_entries"] = entries
    collimations = sum(o.record.get("collimations", 0) for o in traced_out)
    rejections = sum(sum(o.record.get("rejections", {}).values()) for o in traced_out)
    layer["sieve.collimation_accept_ratio"] = 1 - rejections / collimations if collimations else 0.0
    layer["sieve.max_live_multipliers"] = max(o.record.get("max_live_multipliers", 0)
                                              for o in traced_out)
    layer["trace.overhead_s"] = traced_s - plain_s
    layer["trace.trials"] = n
    metrics = {name: (value, _unit(name)) for name, value in sorted(layer.items())}
    wins = sum(o.recovered for o in traced_out)
    failed = sum(not (o.recovered or wl.recovered_later(t)) for t, o in zip(trials, traced_out))
    info = {"trials": n, "untraced_s": [before_s, after_s], "traced_s": traced_s,
            "identical": identical, "spans": len(tracer.spans), "spans_file": str(spans_path)}
    tracer.write(str(spans_path), {"workload": wl.name, "seed": seed})
    return _result(wl, n, wins, failed, metrics, info, extra_ok=identical)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    if name.endswith("_bits_p50"):
        return "bits"
    return "count"


def _result(wl, attempted: int, wins: int, failed: int, metrics: Dict, info: Dict,
            extra_ok: bool = True) -> Dict:
    """`wins` counts the trials recovered by their first harness call, which
    is what `success_rate` reports; `failed` those no call recovered."""
    rate = wins / attempted
    if rate < wl.floor:
        print(f"perfbench: success rate {rate:.3f} is below the floor {wl.floor}", file=sys.stderr)
    return {
        "info": info,
        "result": {
            "correct": extra_ok and rate >= wl.floor,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        next(wl.trials(args.seed))
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            out = traced_run(wl, args.seed, args.seconds, OUT / f"{stem}-spans.json")
        else:
            out = timed_run(wl, args.seed, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **out}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: record[key] for key in ("workload", "seed", "environment", "info")}))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
