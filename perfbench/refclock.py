"""Reference tick: the machine's current speed for pure-Python work.

The 2-core virtual machine this benchmark was written on shares its cores
with other machines.  Its speed for one fixed pure-Python loop drifted by up
to half over tens of seconds, with no steal time reported, and process CPU
time drifted with it.  Raw job times from two 30-second runs of identical
work differed by up to 30%.

A tick is a fixed Gaussian elimination over GF(251) on a few 8x8 matrices,
done by the small field class below.  It exercises the same kind of
interpreter work as the package's hot loops (method calls, list
comprehensions, small-int arithmetic) but shares no code with the package,
so a change to the package cannot change a tick.  The runner ticks before
the first job and after every job, a ``Probe`` ticks every 0.1 s during a
job, and each job's measured time is rescaled by ``TICK_REF_S`` over the
mean of its ticks.  The result is the job's time at the speed that gave
``TICK_REF_S``.
"""

from __future__ import annotations

import math
import random
import signal
import time

# Tick on an idle core of the reference machine: 2-core x86-64 virtual
# machine, CPython 3.11.7.
TICK_REF_S = 0.0014
PROBE_INTERVAL_S = 0.1


class _PrimeField:
    p = 251

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


_F = _PrimeField()
_rng = random.Random(251)
_MATRICES = [[[_rng.randrange(_F.p) for _ in range(8)] for _ in range(8)]
             for _ in range(12)]


def _rank(rows) -> int:
    F = _F
    A = [list(r) for r in rows]
    n = len(A)
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = F.inv(A[r][c])
        A[r] = [F.mul(inv, x) for x in A[r]]
        for i in range(n):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(A[i], A[r])]
        r += 1
    return r


def tick() -> float:
    """Seconds taken by one fixed unit of reference work, now."""
    start = time.perf_counter()
    for rows in _MATRICES:
        _rank(rows)
    return time.perf_counter() - start


def rescale(seconds: float, ticks) -> float:
    """A time measured among the given ticks, at the reference speed."""
    return seconds * TICK_REF_S * len(ticks) / math.fsum(ticks)


class Probe:
    """Ticks every PROBE_INTERVAL_S while a job runs, from a timer signal.

    A long job (the 6/GF(16) search takes seconds) outlasts the machine's
    speed swings, so the ticks on either side of it are not enough.  The
    handler's own time is summed in ``spent``, for the caller to take out of
    the job's time.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.ticks = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.ticks.append(tick())
        self.spent += time.perf_counter() - start

    def start(self):
        self.ticks.clear()
        self.spent = 0.0
        if self.enabled:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)

    def stop(self):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
