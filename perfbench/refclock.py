"""A clock that runs at the reference machine's speed.

The benchmark's host is shared.  Its speed changes with what other
tenants run: the same step of the same seed runs 1.4 s in one second and
2.5 s a few seconds later, with CPU time equal to wall time (the slowdown
is not descheduling, so CPU time does not remove it).  These regimes last
from seconds to minutes, so a median over a run's steps cannot remove
them either.

:class:`RefClock` measures the machine's speed while the program runs.
Every ``PERIOD_S`` of wall time a timer signal interrupts the program and
times a fixed piece of work (the kernel).  The machine's speed
is the kernel's reference time over its time now, and the clock advances
by wall time multiplied by that speed.  A step that takes 2.5 wall seconds
while the kernel runs 1.75 times slower than on the reference machine
reads about 1.4 reference seconds.  Time spent in the signal handler is
left out of the clock.

The kernel is what the program's steps are made of: many small numpy
calls from the interpreter, reading an array too large for the core's
own caches.  Of the kernels tried it tracked the steps' slowdowns best
(run-to-run spread of eval-dense steps 0.05 against 0.34 unscaled, of
calls-sim steps 0.02 against 0.21); pure interpreter work (dict updates,
small sorts) slowed more than the steps did, and pointer chasing through
a large heap less.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: Wall seconds between speed samples.
PERIOD_S = 0.05
#: The kernel's time on the reference machine in its fast regime: a
#: 2-CPU shared VM (Intel Xeon, Python 3.11, numpy 2.4).  Reference
#: seconds are seconds on that machine at that speed.
REFERENCE_KERNEL_S = 8.5e-5

_ARRAY = np.random.default_rng(0).random((300, 300))


def kernel(n: int = 40) -> float:
    """The fixed work whose duration gives the machine's speed."""
    acc = 0.0
    for i in range(n):
        acc += float(_ARRAY[i, (i * 7) % 300]) + _ARRAY[:, i].sum()
    return acc


def _kernel_s() -> float:
    # The faster of two: a timer interrupt inside one of them does not
    # read as a slow machine.
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    return best


class RefClock:
    """Reference-speed time, sampled by a timer signal while started.

    Use it as a context manager around everything that is timed; read it
    with :meth:`now`.  Outside the context the clock does not advance.
    """

    def __init__(self) -> None:
        self._ref = 0.0  # reference seconds up to ``_last``
        self._last = 0.0  # wall time of the last sample
        self._speed = 1.0
        self._running = False
        self._previous = None
        #: Wall seconds spent measuring the speed (left out of the clock).
        self.handler_s = 0.0
        #: Every speed sample taken.
        self.speeds: List[float] = []

    def __enter__(self) -> "RefClock":
        self._speed = REFERENCE_KERNEL_S / min(_kernel_s() for _ in range(3))
        self._last = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._ref = self.now()
        self._running = False

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        speed = REFERENCE_KERNEL_S / _kernel_s()
        ended = time.perf_counter()
        # The interval since the last sample ran at a speed between the
        # two samples' speeds.
        self._ref += (started - self._last) * (self._speed + speed) / 2
        self._speed = speed
        self._last = ended
        self.handler_s += ended - started
        self.speeds.append(speed)

    def now(self) -> float:
        """Reference seconds elapsed while the clock was running."""
        if not self._running:
            return self._ref
        return self._ref + (time.perf_counter() - self._last) * self._speed

    def median_speed(self) -> float:
        """The machine's median speed over the samples, 1.0 = reference."""
        return statistics.median(self.speeds) if self.speeds else self._speed
