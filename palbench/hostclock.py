"""Wall time scaled to the speed the host ran at.

The benchmark runs on hosts whose cores are shared with other machines: the
same solve can take 1.8 times as long in one minute as in the next, and the
slow phases last from milliseconds to minutes. :class:`HostClock` times a
call and measures how fast the host ran during it. A timer signal interrupts
the call every ``PERIOD`` seconds to run a fixed numpy kernel that does not
touch palflow, and the kernel also runs once before and once after the call.
The call's wall time, less the time spent in the kernel, is scaled by the
mean of ``REF_KERNEL_S`` over each kernel time: it is the time the call
would have taken on a host that runs the kernel in ``REF_KERNEL_S`` seconds.
The mean of the speed ratios, not the ratio of the mean time, is what
follows a call whose speed switches between fast and slow within it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.02          # seconds between kernel runs during a timed call
REF_KERNEL_S = 4e-4    # kernel time that defines the reference host speed


class HostClock:
    """Times calls in wall seconds and in reference-host seconds."""

    def __init__(self, ticking: bool = True):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((24, 24))
        self._m = rng.standard_normal((20, 100))
        self._v = rng.standard_normal(100)
        self._b = rng.standard_normal((200, 200))
        self._u = rng.standard_normal(200)
        self.ticking = ticking
        self._ticks: list = []     # (start, seconds in the handler)
        self.kernel_s: list = []   # every kernel time measured
        for _ in range(50):        # warm up the kernel's code paths
            self._kernel()

    def _kernel(self) -> float:
        """A small LAPACK call, small matrix-vector and elementwise ops, and
        a few products with a 320 KB matrix: the mix a palflow field
        evaluation spends its time in. The large products make the kernel
        feel contention for the cache as well as for the core."""
        t0 = time.perf_counter()
        np.linalg.svd(self._a)
        v = self._v
        for _ in range(8):
            v = v - 1e-3 * (self._m.T @ (self._m @ v))
            v = np.sign(v) * np.maximum(np.abs(v) - 1e-4, 0.0)
        u = self._u
        for _ in range(4):
            u = self._b @ u
            u = u / np.linalg.norm(u)
        dt = time.perf_counter() - t0
        self.kernel_s.append(dt)
        return dt

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self._ticks.append((t0, time.perf_counter() - t0))

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns ``(wall_s, scaled_s, result)``. Without
        ticking, the two times are the same wall time."""
        if not self.ticking:
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
            return dt, dt, out
        first = len(self.kernel_s)
        self._kernel()
        self._ticks = []
        old = signal.signal(signal.SIGALRM, self._tick)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            out = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, old)
        wall = t1 - t0 - sum(dt for start, dt in self._ticks if start < t1)
        self._kernel()
        speed = float(np.mean(REF_KERNEL_S / np.array(self.kernel_s[first:])))
        return wall, wall * speed, out
