"""Host-speed calibration: operation times in reference seconds.

On the host this benchmark was built on (2 vCPUs shared with other
tenants) the same code runs at speeds up to 1.9x apart that change every
few seconds and within them, with CPU time equal to wall time: nothing
waits, the core itself runs slower.  One ``cond_entropy_W_given_X``
call took 0.09 s or 0.18 s in the same process.  Code made of many
small numpy calls and code that streams through large arrays slow down
by different amounts, so there are two calibration loops, one of each
kind; neither touches inforate.

``SpeedSampler.measure`` times an operation and rescales it to the
reference speed, at which its loop takes ``REFERENCE_S[kind]``.  Inside
the sampler's context a SIGALRM handler times the loop every
``PERIOD_S`` seconds while the operation runs; the loop also runs right
before and right after it.  Each stretch of the operation between two
samples is rescaled by the mean loop time at its ends, and the handler's
own time is left out:

    t = sum over stretches of  t_stretch * REFERENCE_S / mean(loop at its ends)

Measured here on 60 s of the same ``loss_rate_analytic`` call, the
spread between quartiles of the per-call times was 39 % of the median
raw, 22 % rescaled by the loops before and after each call, and 5 % with
samples inside the call.  Over 240 s of the Monte Carlo operation, the
medians of eight blocks of calls moved by 13 % raw, by 30 % rescaled
with the small-call loop and by 5 % with the large-array loop.
"""

import signal
from time import perf_counter

import numpy as np

# each loop's time on the reference host in its fast state
REFERENCE_S = {"small_calls": 0.0025, "large_arrays": 0.0025}
PERIOD_S = 0.05

_X = np.linspace(-3.0, 3.0, 15)
_U = np.random.default_rng(0).random(1 << 17)


def _small_calls():
    """Small-array numpy calls from a Python loop, like an integrand."""
    acc = 0.0
    for _ in range(400):
        v = np.exp(-0.5 * _X * _X)
        acc += float(v @ _X) + float(np.where(v > 0.5, v, 0.0).sum())
    return acc > 0.0


def _large_arrays():
    """Two sorts of a 1 MiB array, like the histogram estimators."""
    a = np.sort(_U)
    b = np.sort(_U[::-1])
    return a[0] <= a[-1] and a[0] == b[0]


LOOPS = {"small_calls": _small_calls, "large_arrays": _large_arrays}


class SpeedSampler:
    """Times operations in wall seconds and in reference seconds."""

    def __init__(self, kind):
        self._loop = LOOPS[kind]
        self._reference_s = REFERENCE_S[kind]
        self._marks = []  # (start, seconds in the handler, loop seconds)
        self._quiet = False
        self._previous = None

    def loop_seconds(self):
        t0 = perf_counter()
        ok = self._loop()
        elapsed = perf_counter() - t0
        if not ok:
            raise RuntimeError("calibration loop produced a wrong result")
        return elapsed

    def _on_alarm(self, signum, frame):
        if self._quiet:
            return
        self._quiet = True
        t0 = perf_counter()
        loop = self.loop_seconds()
        self._marks.append((t0, perf_counter() - t0, loop))
        self._quiet = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _quiet_loop(self):
        self._quiet = True
        try:
            return self.loop_seconds()
        finally:
            self._quiet = False

    def measure(self, fn):
        """(fn's result, wall seconds, reference seconds) of one call."""
        self._marks.clear()
        before = self._quiet_loop()
        t0 = perf_counter()
        out = fn()
        t1 = perf_counter()
        after = self._quiet_loop()
        points = [(t0, 0.0, before)]
        points += [m for m in self._marks if t0 <= m[0] < t1]
        points.append((t1, 0.0, after))
        wall = 0.0
        ref = 0.0
        for (a, busy, loop_a), (b, _, loop_b) in zip(points[:-1], points[1:]):
            stretch = b - (a + busy)
            wall += stretch
            ref += stretch * self._reference_s / (0.5 * (loop_a + loop_b))
        return out, wall, ref
