"""The benchmark's clock: CPU time scaled by a fixed reference kernel.

On a shared 2-vCPU VM the same single-threaded work takes from 0.7 to 1.4
times its usual CPU time from one second to the next: a busy sibling
hyperthread or a neighbour's memory traffic slows the vCPU itself.  (Steal,
the time the host runs something else, is already left out of CPU time.)
So while the program runs, a SIGALRM handler runs a fixed reference kernel
in short units, one per ``REF_DUTY_S`` of wall time, and each
measured span's CPU time, less the units inside it, is scaled by
``REF_NOMINAL_S / unit time``: the mean time of the units run during the
span, or near it when the span is too short to hold one.  A scaled time
reads as CPU seconds on a machine where a unit takes ``REF_NOMINAL_S``,
about what it takes on that VM when it is quiet.

The kernel uses only the standard library, never wallcross, so no change to
the program moves it.  Its mix follows the program's: Fraction arithmetic,
dict and tuple traffic, and float special functions.  The collector is off
while it runs, so its time does not grow with the program's live heap.

The timer is a wall-clock one (ITIMER_REAL): while a CPU-time timer is
armed, Linux reads the process CPU clock only to the scheduler tick (4 ms).
The same tick also enforces a span's time limit, in scaled CPU seconds, so
an op that hits it counts the same time however busy the host is.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.004  # CPU seconds of one kernel unit on the quiet VM
REF_DUTY_S = 0.05  # seconds between two units, so ~8% of the time
REF_MIN_UNITS = 3  # a span's scale rests on at least this many units


def _unit():
    s = Fraction(0)
    for k in range(1, 300):
        s += Fraction(k % 7 + 1, k % 5 + 2) * Fraction(3, k % 11 + 1)
        if k % 40 == 0:
            s = Fraction(s.numerator % 1000003, s.denominator % 1000 + 1)
    d = {}
    for k in range(3000):
        key = (k % 97, k % 13)
        d[key] = d.get(key, 0) + k
    t = 0.0
    for k in range(1, 1600):
        t += math.lgamma(1.5 + k * 1e-3) * math.cos(k * 0.01)
    return s, len(d), t


class Deadline(BaseException):
    """Raised by the sampler's tick once an armed span has used its limit.
    A BaseException, so no handler in the library can swallow it."""


class Sampler:
    """Runs kernel units from SIGALRM while installed (``with Sampler()``).

    ``at[i]`` is the process CPU time when unit i started, ``took[i]`` its
    CPU seconds and ``wall[i]`` its wall seconds."""

    def __init__(self):
        self.at, self.took, self.wall = [], [], []
        self._limit = None
        self._previous = None

    def arm(self, limit_s):
        """Start a span: the first tick after it has used ``limit_s`` scaled
        CPU seconds, the kernel's own left out, raises Deadline."""
        self._limit, self._c0, self._n0 = limit_s, time.process_time(), len(self.took)

    def disarm(self):
        self._limit = None

    def _tick(self, _signum, _frame):
        if self._limit is not None and len(self.took) > self._n0:
            k_cpu = sum(self.took[self._n0:])
            unit_s = k_cpu / (len(self.took) - self._n0)
            if scaled(time.process_time() - self._c0 - k_cpu, unit_s) > self._limit:
                self._limit = None
                raise Deadline()
        self._run_unit()

    def top_up(self):
        """Run units until REF_MIN_UNITS have run, so that a span shorter
        than that many ticks can still be scaled."""
        while len(self.at) < REF_MIN_UNITS:
            self._run_unit()

    def _run_unit(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            _unit()
            c1 = time.process_time()
            self.wall.append(time.perf_counter() - t0)
            self.at.append(c0)
            self.took.append(c1 - c0)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_DUTY_S, REF_DUTY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def inside(self, c0, c1):
        """The units that started in [c0, c1) of process CPU time: their
        count, CPU seconds and wall seconds."""
        i, j = bisect.bisect_left(self.at, c0), bisect.bisect_left(self.at, c1)
        return j - i, sum(self.took[i:j]), sum(self.wall[i:j])

    def unit_s(self, c0, c1):
        """Mean unit time for the span [c0, c1): the units inside it, widened
        on both sides to at least REF_MIN_UNITS."""
        i, j = bisect.bisect_left(self.at, c0), bisect.bisect_left(self.at, c1)
        while j - i < REF_MIN_UNITS and (i > 0 or j < len(self.at)):
            i, j = max(0, i - 1), min(len(self.at), j + 1)
        if i == j:
            raise RuntimeError("no kernel unit ran; the span cannot be scaled")
        return statistics.fmean(self.took[i:j])


def scaled(cpu_s, unit_s):
    """CPU seconds at the speed where a kernel unit takes REF_NOMINAL_S."""
    return cpu_s * REF_NOMINAL_S / unit_s
