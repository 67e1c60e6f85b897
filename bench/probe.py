"""Host-speed probe for the untraced passes.

The benchmark runs on a few virtual CPUs of a shared host, whose speed drifts
by up to about a fifth over tens of seconds as other tenants' load comes and
goes.  Measured over a 30 s run, that drift moves a pass's median wall time
more than the regressions the benchmark must catch.  So, while the passes
run, a ``SIGALRM`` handler times a fixed reference kernel every
``INTERVAL_S`` seconds.  The kernel calls only Python and numpy, so no
change to phasemono changes its cost; its median time during a pass measures
how fast the host ran that pass, and dividing the pass time by it cancels
the drift that the two share.  The drift does not slow all code alike, so
the kernel mixes five parts of about equal time, each like a part of the
workloads' own work: an interpreter loop, ufuncs on 48-point arrays, a sweep
over 4 MiB, formatting floats as text, and 2D real FFTs on a 128x128 grid.
Over the same passes, this mix tracked all three workloads better than any
of its parts alone or any smaller subset tried.

``clock()`` is ``time.perf_counter`` minus the time spent in the handler, so
timings taken with it exclude the probe's own work.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.06
# the reference kernel's median time inside the passes on the host the
# benchmark was tuned on (a shared 2-vCPU x86-64 VM); a pass at that speed
# reads its own wall time
REF_S = 4.5e-3

_rng = np.random.default_rng(0)
_SMALL = np.linspace(0.0, 1.0, 48)
_LARGE = np.ones(1 << 19)
_VALUES = _rng.standard_normal(600)
_GRID = _rng.standard_normal((128, 128))


def _reference_kernel():
    s = 0
    for i in range(5_000):
        s += i * i % 7
    a = _SMALL
    for _ in range(110):
        a = np.maximum(a * 0.5, _SMALL) + np.sqrt(a)
    text = "\n".join(",".join("%.17g" % v for v in _VALUES[i:i + 8])
                     for i in range(0, len(_VALUES), 8))
    for _ in range(2):
        grid = np.fft.irfft2(np.fft.rfft2(_GRID))
    return s, a, _LARGE.sum(), _LARGE * 1.0001, text, grid


class SpeedProbe:
    """Context manager that samples the reference kernel while it is open."""

    def __init__(self):
        self.samples = []
        self._spent = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._spent += time.perf_counter() - t0
        self._busy = False

    def clock(self):
        return time.perf_counter() - self._spent

    def host_factor(self, first):
        """REF_S over the median kernel time of the samples from index
        ``first`` on: the factor that rescales a time taken over that span
        to the tuning host's speed."""
        return REF_S / statistics.median(self.samples[first:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
