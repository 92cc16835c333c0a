"""Machine-speed sampling, so that trial times from runs made at different
times on a shared machine can be compared.

On a shared VM the same trials run up to twice as slow at one time as at
another, in CPU time as well as wall time: the CPU is busy with other
tenants' work (for example on a sibling hyperthread), not taken away.  The
`SpeedSampler` runs a small fixed kernel of the benchmark's own, which calls
no hslattice code, from a profiling-timer signal every `INTERVAL_S` of CPU
time.  Its samples are spread evenly over the measured run, so their mean
tracks the speed the trials saw.  A trial's time is normalised by scaling it
with reference_s / the mean kernel time around the trial: it reads as the
time the work would take at the speed where the kernel takes reference_s.
The speed changes within a run, between states that last a fraction of a
second, so each trial is scaled by its own neighbourhood rather than all by
the run's mean.  A change to hslattice moves the trial times but not the
kernel, so it shows in full.

The kernel is chosen per workload to match its dominant operations: Python
big-integer arithmetic for the LLL-bound workload, interpreter-bound
small-integer, list and dict work for the others.  These respond differently
to contention, and a kernel of the other kind tracks a workload less well.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Callable, Dict, List

INTERVAL_S = 0.02
WINDOW = 32  # samples (0.64 s of CPU time) that give a short trial its speed

_SMALL = [3 ** i * 7 + 1 for i in range(40)]
_BIG = [7 ** (4600 + 13 * i) | 1 for i in range(3)]  # about 13000 bits each


def _interp_kernel() -> int:
    acc = 0
    table: Dict[int, int] = {}
    for i in range(300):
        x = _SMALL[i % 40]
        acc = (acc * 31 + x * x // (i + 1)) % (1 << 200)
        table[i & 63] = table.get(i & 63, 0) + acc
    return min(table.values())


def _bigint_kernel() -> int:
    # A product and a division of integers of about 13000 bits: the entry size
    # of hsp-k5's LLL input (lll.lll.input_bits_p50), whose time is spent in
    # operations of this kind.
    x, y, z = _BIG
    return (x * y) // z


# kernel name -> (kernel, reference time of one call in seconds)
KERNELS: Dict[str, tuple] = {
    "interp": (_interp_kernel, 2.0e-4),
    "bigint": (_bigint_kernel, 5.0e-4),
}


class SpeedSampler:
    """Context manager: while active, runs the kernel every INTERVAL_S of
    process CPU time.  `spent_s` is the running total of kernel time, to be
    taken out of any span the samples fall in."""

    def __init__(self, kernel: str) -> None:
        self.kernel_name = kernel
        self._kernel: Callable[[], int]
        self._kernel, self.reference_s = KERNELS[kernel]
        self.samples: List[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> "SpeedSampler":
        for _ in range(20):
            self._kernel()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        if not self.samples:  # a run shorter than one interval
            self._sample(None, None)

    def scale(self) -> float:
        """The factor that turns a time measured during the sampling into a
        time at the reference speed, from the mean over the whole run."""
        return self.reference_s / statistics.mean(self.samples)

    def normalise(self, times: List[float], ends: List[int]) -> List[float]:
        """Each trial's time at the reference speed.  `ends[i]` is the
        number of samples taken when trial i ended.  A trial is scaled by
        the samples taken during it, or by the last WINDOW samples up to its
        end when fewer fell inside it (the first WINDOW samples for trials
        that ended before them)."""
        out: List[float] = []
        start = 0
        for took, end in zip(times, ends):
            lo = max(0, min(start, end - WINDOW))
            hi = max(end, min(WINDOW, len(self.samples)))
            out.append(took * self.reference_s * (hi - lo) / sum(self.samples[lo:hi]))
            start = end
        return out

    def summary(self) -> Dict:
        return {"kernel": self.kernel_name, "samples": len(self.samples),
                "kernel_s_mean": statistics.mean(self.samples),
                "kernel_s_p50": statistics.median(self.samples),
                "reference_s": self.reference_s, "scale": self.scale()}
