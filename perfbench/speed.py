"""Machine-speed reference for the benchmark's timings.

The benchmark runs on small shared VMs whose speed drifts: the same
job takes up to 45% longer from one few-second phase to the next, and
the machine's mean speed moves by a third between runs a minute apart.
Medians of raw times then spread by 0.15-0.30 (IQR / median) across
runs of the same code, more than any useful regression bound.

So the benchmark times a fixed reference kernel next to each job or
request, and reports each timing at the reference speed::

    reported = measured * REFERENCE_KERNEL_S / kernel time around it

A change to the program cannot change the kernel, so a program that
gets 20% slower still reports 20% more; only the machine's drift is
divided out.  The measured times are printed beside the reported ones.

The kernel has two halves, because the machine's slow phases slow
different work by different amounts: interpreter loops over small numpy
operations (as in the engines' hot paths), and gathers from a 16 MB
array (as the program's larger arrays miss the caches).  Scaling by
both tracked the cluster workload's job times better than either alone
(IQR / median of the per-run median over seven runs: 0.05 against 0.07).
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import time

import numpy as np

# The kernel's median time on the 2-vCPU Xeon VM the benchmark was built
# on, so reported values stay close to seconds as measured there.
REFERENCE_KERNEL_S = 0.0065
REPEATS = 3
# Reference-time pacing (ReferenceClock) follows the machine's speed
# within these factors, so a stream lasts at most 5/4 of its schedule.
PACE_LIMITS = (0.8, 1.5)
RECENT = 5
MAX_PINNED_CPUS = 4

_VALUES = np.cumsum(np.random.default_rng(7).random(4096))
_LANES = np.arange(64)
_BIG_BITS = 21
_BIG = np.random.default_rng(8).random(1 << _BIG_BITS)
_GATHER = np.random.default_rng(9).integers(0, 1 << _BIG_BITS, size=1 << 14)


def _kernel() -> float:
    start = time.perf_counter()
    total = 0.0
    counts: dict[int, int] = {}
    for i in range(300):
        picked = _VALUES[(_LANES * (i + 1)) % _VALUES.size]
        slot = int(np.searchsorted(_VALUES, picked[3]))
        total += float(picked.sum()) * 1e-9 + slot
        counts[i & 63] = counts.get(i & 63, 0) + slot
        for k in range(20):
            total += k * i
    mask = (1 << _BIG_BITS) - 1
    for r in range(8):
        total += float(_BIG[(_GATHER + r * 7919) & mask].sum())
    return time.perf_counter() - start


def kernel_seconds(repeats: int = REPEATS) -> float:
    """The fastest of ``repeats`` kernel runs (about 6.5 ms each)."""
    return min(_kernel() for _ in range(repeats))


def kernel_seconds_per_cpu(repeats: int = 2) -> float:
    """Mean of the kernel's time pinned to each CPU this process may
    use (unpinned where there are more than ``MAX_PINNED_CPUS`` or the
    platform cannot pin threads).

    For work that runs on another thread than the caller's (the serve
    workloads' service thread), which may be on either CPU: the two
    vCPUs of the VM differ in speed by up to 40% at times.  Only the
    calling thread is pinned, and only while it times the kernel.
    """
    if not hasattr(os, "sched_setaffinity"):
        return kernel_seconds(repeats)
    allowed = os.sched_getaffinity(0)
    if len(allowed) > MAX_PINNED_CPUS:
        return kernel_seconds(repeats)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(kernel_seconds(repeats))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two kernel samples to
    the reference speed."""
    return REFERENCE_KERNEL_S / math.sqrt(before * after)


class SpeedLog:
    """Kernel samples over time, taken while the program is idle."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernels: list[float] = []

    def sample(self) -> None:
        kernel = kernel_seconds_per_cpu()
        self.times.append(time.monotonic())
        self.kernels.append(kernel)

    def recent_scale(self) -> float:
        """Scale from the median of the last few samples."""
        recent = sorted(self.kernels[-RECENT:])
        return REFERENCE_KERNEL_S / recent[len(recent) // 2]

    def scale_between(self, start: float, end: float) -> float:
        """Scale for an interval: the last sample that ended by
        ``start`` and the first taken after ``end`` (the nearest one
        on a side with none)."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        before = max(before, 0)
        after = min(after, len(self.times) - 1)
        return scale(self.kernels[before], self.kernels[after])


class ReferenceClock:
    """Maps a schedule in reference seconds to wall-clock time.

    Reference time advances at the machine's current speed (the recent
    kernel samples of ``log``), within ``PACE_LIMITS``: on a machine in
    a slow phase a fixed-rate schedule spreads out in wall time, so the
    load offered relative to the machine's speed, and with it the
    queueing it causes, does not drift with the host.
    """

    def __init__(self, log: SpeedLog, start: float) -> None:
        self.log = log
        self._anchor = (start, 0.0, self._rate())

    def _rate(self) -> float:
        low, high = PACE_LIMITS
        return min(max(self.log.recent_scale(), low), high)

    def retune(self) -> None:
        """Re-anchor at the present with the latest samples' speed."""
        now = time.monotonic()
        self._anchor = (now, self.reference_at(now), self._rate())

    def reference_at(self, wall: float) -> float:
        anchor_wall, anchor_ref, rate = self._anchor
        return anchor_ref + (wall - anchor_wall) * rate

    def wall_at(self, reference: float) -> float:
        anchor_wall, anchor_ref, rate = self._anchor
        return anchor_wall + (reference - anchor_ref) / rate
