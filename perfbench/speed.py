"""How fast the CPU runs right now, sampled while the workload runs.

The 2-vCPU machine this benchmark was tuned on shares its cores with other
tenants: the same ``model.step`` loop takes 4.5 us per call one second and
9 us the next, the slow stretches last from a second to whole minutes, and
repetition times of a multi-second job spread by 20-30% across runs
whatever statistic is taken over them.

A ``Speedometer`` runs a fixed 0.2 ms kernel (small numpy ops in a Python
loop, the instruction mix of ``model.step``) from a SIGALRM handler every
10 ms, in the benchmark process and in every process forked from it while
it is active (the ``lyap`` pool workers), and keeps each sample's start and
end in memory shared with those children.  ``corrected(start, end)`` is the
time the workload spent in that interval, samples excluded, scaled by
``REFERENCE_KERNEL_S`` / the mean kernel time over the interval (or the
half second around a shorter one): the interval's length at a fixed,
uncontended CPU speed.  Contention that slows
the kernel and the workload alike cancels; work the program does not do
cannot appear.
"""

from __future__ import annotations

import bisect
import mmap
import os
import signal
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
# The speed of a stage is the mean kernel time over at least this long
# around it.  A mean of a few noisy samples makes REFERENCE / mean biased
# upward (1/x is convex), the more so the noisier the machine; the
# neighbours' load changes over seconds, so half a second stays local.
WINDOW_S = 0.5
# Kernel time on an uncontended vCPU of the machine this was tuned on
# (Intel Xeon, 2 vCPUs, numpy 2.4): corrected times are at that speed.
REFERENCE_KERNEL_S = 1.75e-4
SLOTS = 128          # processes per run: the benchmark plus every forked worker
SAMPLES = 1 << 13    # per process: 80 s of sampling

_W = np.random.default_rng(0).normal(0.0, 0.25, size=(16, 16))
_active = None
_hooked = False


def _kernel() -> None:
    x = np.zeros(16)
    for _ in range(40):
        z = (x >= 1.0).astype(np.float64)
        x = 0.5 * x * (1.0 - z) + _W @ z + 0.1


def _before_fork():
    if _active is not None:
        _active._child_slot = _active._next_slot if _active._next_slot < SLOTS else -1
        _active._next_slot += 1


def _after_fork_in_child():
    if _active is None:
        return
    if _active._child_slot < 0:  # out of slots: this child is not sampled
        signal.signal(signal.SIGALRM, _active._old)
        return
    _active._slot = _active._child_slot
    _active._count[_active._slot] = 0
    _active._start_timer()


class Speedometer:
    def __init__(self):
        self._shm = mmap.mmap(-1, SLOTS * (SAMPLES * 16 + 8))  # anonymous, shared across fork
        self._marks = np.frombuffer(self._shm, np.float64, SLOTS * SAMPLES * 2).reshape(SLOTS, SAMPLES, 2)
        self._count = np.frombuffer(self._shm, np.int64, SLOTS, offset=SLOTS * SAMPLES * 16)
        self._slot = 0
        self._next_slot = 1
        self._child_slot = 0
        self._old = None
        self.starts = self.ends = self.slots = None

    def __enter__(self):
        global _active, _hooked
        if _active is not None:
            raise RuntimeError("a Speedometer is already running")
        if not _hooked:
            os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)
            _hooked = True
        _active = self
        self._old = signal.getsignal(signal.SIGALRM)
        _kernel()  # the first call pays numpy's one-time costs; keep it out of the samples
        self._start_timer()
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        _active = None
        self._collect()

    def _start_timer(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _kernel()
        k = self._count[self._slot]
        if k < SAMPLES:
            self._marks[self._slot, k] = (t0, perf_counter())
            self._count[self._slot] = k + 1

    def _collect(self):
        used = min(self._next_slot, SLOTS)
        parts = [(self._marks[s, :self._count[s]], s) for s in range(used)]
        marks = np.concatenate([m for m, _ in parts])
        slots = np.concatenate([np.full(len(m), s) for m, s in parts])
        order = np.argsort(marks[:, 0], kind="stable")
        self.starts, self.ends, self.slots = marks[order, 0], marks[order, 1], slots[order]

    @property
    def samples(self) -> int:
        return 0 if self.starts is None else len(self.starts)

    def corrected(self, start: float, end: float) -> float:
        """Workload time in [start, end], samples excluded, at the reference CPU speed.

        Where forked workers sampled the window, their samples alone give
        the speed: the parent then mostly waits on them.
        """
        busy = (end - start) - self._kernel_time(start, end)
        pad = max(0.0, WINDOW_S - (end - start)) / 2
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_right(self.starts, end + pad)
        kernel = self.ends[lo:hi] - self.starts[lo:hi]
        workers = self.slots[lo:hi] > 0
        if workers.any():
            kernel = kernel[workers]
        if kernel.size == 0:
            return float(busy)
        return float(busy * REFERENCE_KERNEL_S / kernel.mean())

    def _kernel_time(self, start: float, end: float) -> float:
        """Kernel time inside [start, end], per sampled process (they run side by side)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        slots = self.slots[lo:hi]
        if slots.size == 0:
            return 0.0
        kernel = self.ends[lo:hi] - self.starts[lo:hi]
        workers = slots > 0
        if workers.any():
            return float(kernel[workers].sum()) / len(np.unique(slots[workers]))
        return float(kernel.sum())
