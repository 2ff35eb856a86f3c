"""Host speed, sampled while a pass runs, to calibrate its times.

On a shared host the CPU speed a process gets can change by 2x for
minutes at a time, with CPU time equal to wall time, so raw seconds of
the same code spread past any usable bound.  Two steps take the host out
of the measurement.  Times are CPU times of the measured thread
(``time.thread_time``; the process-wide CPU clock reads stale while a
profiling timer is armed), so other processes on the same CPUs do not
count.  And a ``Pace`` times a fixed reference kernel every ``PERIOD_S``
CPU seconds from a SIGPROF handler in the measured process itself,
between the bytecodes of the work; an interval is rescaled to the host
speed at which the kernel takes ``NOMINAL_S``::

    calibrated = sum over the interval of dt * NOMINAL_S / kernel_time

The kernel is fixed benchmark code with two parts.  One is shaped like
groupdom's lattice work (closure of element sets under a group table
with small numpy gathers and bitmask integers); it runs once untimed
before it is timed, so that its time does not depend on what the
program left in the caches.  The other probes a set and a dict too large
for the caches, as groupdom's set cover and complexes do; it misses the
caches whatever the program did.  The host's slowdowns reach both parts
as they reach the program.  The time spent in the handler is taken out
of every measured interval.
"""

from __future__ import annotations

import random
import signal
import time
from bisect import bisect_left, bisect_right

import numpy as np

PERIOD_S = 0.05            # one kernel sample every 50 ms of CPU time
NOMINAL_S = 2e-3           # the kernel's time at the nominal host speed
WINDOW_S = 0.5             # a short interval is calibrated over +-0.5 s

_N = 120
_MUL = (np.add.outer(np.arange(_N), np.arange(_N)) % _N).astype(np.int16)
_GENS = (8, 18, 30, 45, 20, 12, 40, 24)

_rng = random.Random(0)
_KEYS = [_rng.getrandbits(60) for _ in range(1 << 16)]
_SET = set(_KEYS)
_DICT = {k: i for i, k in enumerate(_KEYS)}
_PROBES = [_KEYS[_rng.randrange(len(_KEYS))] if i % 2 else _rng.getrandbits(60)
           for i in range(1000)]


def _closures() -> int:
    seen: dict[int, int] = {}
    for g in _GENS:
        members = np.array([0, g])
        while True:
            prod = np.unique(_MUL[np.ix_(members, members)])
            if len(prod) == len(members):
                break
            members = prod
        mask = 0
        for m in members.tolist():
            mask |= 1 << m
        seen[mask] = seen.get(mask, 0) + mask.bit_count()
    return sum(seen.values())


def _probes() -> int:
    hits = 0
    for k in _PROBES:
        if k in _SET:
            hits += _DICT[k] & 1
    return hits


def timed_kernel() -> float:
    """CPU seconds of one kernel run: the closures warm, then timed twice,
    then the probes."""
    _closures()
    t0 = time.thread_time()
    _closures()
    _closures()
    _probes()
    return time.thread_time() - t0


class Pace:
    """Context manager sampling the kernel's time on a timer.

    ``samples`` holds (start, handler time, kernel time) triples in
    ``time.thread_time`` seconds.  Intervals are calibrated with
    ``calibrate(t0, t1)``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._starts: list[float] = []
        self._saved = None

    def _tick(self, signum, frame):
        t0 = time.thread_time()
        k = timed_kernel()
        self.samples.append((t0, time.thread_time() - t0, k))

    def __enter__(self):
        timed_kernel()  # first-call costs are not host speed
        self._saved = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._saved)
        if not self.samples:  # a pass shorter than PERIOD_S
            self._tick(None, None)
        self._starts = [s[0] for s in self.samples]
        return False

    def handler_s(self, t0: float, t1: float) -> float:
        """Time spent in samples that started inside [t0, t1)."""
        lo, hi = bisect_left(self._starts, t0), bisect_left(self._starts, t1)
        return sum(s[1] for s in self.samples[lo:hi])

    def speed(self, t0: float, t1: float) -> float:
        """Mean host speed over [t0, t1] widened by WINDOW_S on each side, as a
        multiple of the nominal speed (NOMINAL_S / kernel time)."""
        lo = bisect_left(self._starts, t0 - WINDOW_S)
        hi = bisect_right(self._starts, t1 + WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        return sum(NOMINAL_S / s[2] for s in near) / len(near)

    def calibrate(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the nominal host speed, without
        the time spent sampling."""
        return (t1 - t0 - self.handler_s(t0, t1)) * self.speed(t0, t1)
