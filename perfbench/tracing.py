"""In-memory span tracer that wraps hslattice's layer functions from outside.

`Tracer.install()` replaces each function in `LAYERS` by a wrapper in every
loaded hslattice module (and each method on its class), so calls made by the
pipelines themselves are traced without any change to the package.  A span
is (name, start, end, parent span, trial id); a trial is one call of a
trial root.  Spans stay in memory until `write()`; counts are taken at the
same boundaries.  `uninstall()` restores the original objects.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (metric prefix, module, attribute); several attributes may share a prefix.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("experiments", "hslattice.experiments", "run_hsp_experiment"),
    ("experiments", "hslattice.experiments", "run_shift_experiment"),
    ("alg_a.end_to_end", "hslattice.alg_a", "end_to_end"),
    ("alg_a.sample_fourier_point", "hslattice.alg_a", "sample_fourier_point"),
    ("alg_a.recover_colattice", "hslattice.alg_a", "recover_colattice"),
    ("alg_a.finite_stage", "hslattice.alg_a", "finite_stage"),
    ("lll.lll", "hslattice.lll", "lll"),
    ("lll.babai_nearest_plane", "hslattice.lll", "babai_nearest_plane"),
    ("matrix.hnf", "hslattice.matrix", "hnf"),
    ("matrix.snf", "hslattice.matrix", "snf"),
    ("matrix.snf_rational", "hslattice.matrix", "snf_rational"),
    ("matrix.RatMatrix.det", "hslattice.matrix", "RatMatrix.det"),
    ("matrix.RatMatrix.inverse", "hslattice.matrix", "RatMatrix.inverse"),
    ("rationals.legendre_reconstruct", "hslattice.rationals", "legendre_reconstruct"),
    ("lattice.dual_sample_uniform", "hslattice.lattice", "dual_sample_uniform"),
    ("lattice.Lattice.from_generators", "hslattice.lattice", "Lattice.from_generators"),
    ("lattice.dual_membership", "hslattice.lattice", "dual_membership"),
    ("sieve.recover_shift", "hslattice.sieve", "recover_shift"),
    ("sieve.assemble_cyclic", "hslattice.sieve", "assemble_cyclic"),
    ("sieve.sieve", "hslattice.sieve", "sieve"),
    ("sieve.create_qubit", "hslattice.sieve", "create_qubit"),
    ("sieve.tensor", "hslattice.sieve", "tensor"),
    ("sieve.collimate", "hslattice.sieve", "collimate"),
    ("sieve.shorten", "hslattice.sieve", "shorten"),
    ("sieve.lift_shift", "hslattice.sieve", "lift_shift"),
)
PREFIXES = tuple(dict.fromkeys(prefix for prefix, _, _ in LAYERS))
ROOTS = ("alg_a.end_to_end", "sieve.recover_shift")  # one call = one trial

# The module caches summed into lattice.cache_entries, where they exist.
CACHES = (("hslattice.lattice", "_DUAL_CACHE"),
          ("hslattice.lattice", "_REDUCED_RECIPROCAL_CACHE"),
          ("hslattice.alg_a", "_FRAME_CACHE"))


def cache_entries() -> int:
    return sum(len(getattr(sys.modules[m], name, {})) for m, name in CACHES)


def clear_caches() -> None:
    for m, name in CACHES:
        getattr(sys.modules[m], name, {}).clear()


def _distinct(pv) -> int:
    return sum(len(spot.counts) for spot in pv.spots)


def _lll_input_bits(tracer: "Tracer", args, result) -> None:
    B = args[0]
    scale = B.denominator_lcm()
    bits = max((abs(x.numerator * (scale // x.denominator)).bit_length()
                for row in B.data for x in row), default=0)
    tracer.lll_bits.append(bits)


def _count(key: str, test: Callable) -> Callable:
    def hook(tracer: "Tracer", args, result) -> None:
        tracer.counts[key] += test(args, result)
    return hook


# Counts taken at a layer boundary, from the call's arguments and result.
HOOKS: Dict[str, Callable] = {
    "lll.lll": _lll_input_bits,
    "alg_a.recover_colattice": _count("alg_a.colattice_ok", lambda a, r: r[0] is not None),
    "rationals.legendre_reconstruct": _count("rationals.legendre_verified", lambda a, r: r.verified),
    "sieve.tensor": _count("sieve.tensor.pair_sums", lambda a, r: _distinct(a[0]) * _distinct(a[1])),
    "sieve.shorten": _count("sieve.shorten.units_in",
                            lambda a, r: sum(spot.length for spot in a[0].spots)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.lll_bits: List[int] = []   # per lll call, for lll.lll.input_bits_p50
        self.hook_s: List[Tuple[int, int, float]] = []  # (enclosing span, trial, seconds)
        self._stack: List[int] = []
        self._trial = -1      # -1: outside every trial
        self._trials = 0
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        root = name in ROOTS
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root:
                self._trial = self._trials
                self._trials += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._trial)
                if root:
                    self._trial = -1
            if hook is not None:
                # The hook runs inside the caller's span; its time is kept
                # apart so that no layer is charged with it.
                hook(self, args, result)
                self.hook_s.append((parent, self._trial, clock() - end))
            return result

        return traced

    def install(self) -> None:
        for _, module_name, _ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items()
                   if n == "hslattice" or n.startswith("hslattice.")]
        for name, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patch(cls, method, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapped)

    def _patch(self, owner: object, key: str, wrapped: object) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def layer_metrics(self) -> Dict[str, float]:
        """Self time and calls per layer, and trace.coverage: the layers'
        self time inside trials, roots excluded, over the trials' wall time.
        The hooks' own time (trace.hook_s) is taken out of both."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, trial in self.spans:
            if parent >= 0:
                child[parent] += end - start
        hook_total = hook_in_trials = 0.0
        for parent, trial, seconds in self.hook_s:
            if parent >= 0:
                child[parent] += seconds
            hook_total += seconds
            if trial >= 0:
                hook_in_trials += seconds
        self_s: Dict[str, float] = dict.fromkeys(PREFIXES, 0.0)
        calls: Dict[str, int] = dict.fromkeys(PREFIXES, 0)
        inside = trial_wall = 0.0
        for i, (name, start, end, parent, trial) in enumerate(self.spans):
            own = end - start - child[i]
            self_s[name] += own
            calls[name] += 1
            if name in ROOTS:
                trial_wall += end - start
            elif trial >= 0:
                inside += own
        out: Dict[str, float] = {}
        for prefix in PREFIXES:
            out[f"{prefix}.self_s"] = self_s[prefix]
            out[f"{prefix}.calls"] = calls[prefix]
        trial_wall -= hook_in_trials
        out["trace.coverage"] = inside / trial_wall if trial_wall else 0.0
        out["trace.hook_s"] = hook_total
        out["lll.lll.input_bits_p50"] = statistics.median(self.lll_bits) if self.lll_bits else 0
        out["alg_a.colattice_ok_ratio"] = _ratio(self.counts["alg_a.colattice_ok"],
                                                 calls["alg_a.recover_colattice"])
        out["rationals.legendre_reconstruct.verified_ratio"] = _ratio(
            self.counts["rationals.legendre_verified"], calls["rationals.legendre_reconstruct"])
        out["sieve.tensor.pair_sums"] = self.counts["sieve.tensor.pair_sums"]
        out["sieve.shorten.units_in"] = self.counts["sieve.shorten.units_in"]
        return out

    def write(self, path: str, header: Dict) -> None:
        """Write every span as [name index, start, end, parent, trial], times in
        seconds from the first span, and every hook as [enclosing span, trial,
        seconds]."""
        names = list(PREFIXES)
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({**header, "names": names, "spans": [
                [index[n], round(s - origin, 9), round(e - origin, 9), p, t]
                for n, s, e, p, t in self.spans],
                "hooks": [[p, t, round(h, 9)] for p, t, h in self.hook_s]},
                fh, separators=(",", ":"))


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0
