"""Machine-speed probe: scales CPU seconds to a fixed machine speed.

On a shared host the CPU time of the same Python code swings by a quarter or
more within seconds, as neighbours contend for the core and its caches. The
probe runs a fixed kernel (small objects with arithmetic dunders, like the
dual numbers of the program, and small numpy calls, like its ODE and
quadrature steps) on an interval timer while the ops run, and records its
CPU time and wall stamp. An op's CPU time, minus the probe's own CPU inside
the op, is then multiplied by REF_KERNEL_S over the median kernel time
around the op: its CPU seconds at the speed where one kernel run takes
REF_KERNEL_S. The kernel is the benchmark's own code, so no
change to the program can move it.
"""

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

REF_KERNEL_S = 0.0024       # one kernel run, quiet core of the reference host
PERIOD_S = 0.1              # wall seconds between probe runs
WINDOW_S = 1.0              # wall seconds either side of an op


class _Num:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, o):
        return _Num(self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return _Num(self.a * o.a, self.a * o.b + self.b * o.a)


_A = [[3.0, -1.0, 0.5], [-1.0, 2.0, 0.25], [0.5, 0.25, 1.0]]


def kernel():
    """About 2 ms of work in the program's mix: half small-object
    arithmetic in the interpreter, half small-array numpy calls."""
    x = _Num(0.5, 1.0)
    acc = _Num(0.0, 0.0)
    for i in range(1200):
        acc = acc + x * _Num(i * 1e-3, 0.0)
    A = np.asarray(_A)
    v = np.ones(3)
    for _ in range(60):
        v = np.linalg.solve(A, np.asarray([acc.a, 1.0, v[0]]))
        v = v / float(np.max(np.abs(A @ v)))
    return v


class SpeedProbe:
    """Runs ``kernel`` every PERIOD_S of wall time on SIGALRM.

    A wall-clock timer, not ITIMER_PROF: while a process CPU timer is armed,
    Linux serves CLOCK_PROCESS_CPUTIME_ID from tick-granular accounting, and
    ``time.process_time`` loses its precision."""

    def __init__(self):
        self.stamps = []        # wall time of each probe run
        self.kernel_s = []      # CPU seconds of the kernel
        self.cost_s = []        # CPU seconds of the whole handler
        self._old = None

    def _handler(self, signum, frame):
        h0 = time.process_time()
        self.sample(h0)
        self.cost_s[-1] = time.process_time() - h0

    def sample(self, h0=None):
        h0 = time.process_time() if h0 is None else h0
        kernel()
        self.kernel_s.append(time.process_time() - h0)
        self.stamps.append(time.perf_counter())
        self.cost_s.append(0.0)

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def probe_cost(self, w0, w1):
        """CPU seconds the probe took between wall times w0 and w1."""
        return sum(self.cost_s[bisect_left(self.stamps, w0):
                               bisect_right(self.stamps, w1)])

    def factor(self, w0, w1):
        """REF_KERNEL_S over the median kernel time within WINDOW_S of the
        wall interval [w0, w1]."""
        lo = bisect_left(self.stamps, w0 - WINDOW_S)
        hi = bisect_right(self.stamps, w1 + WINDOW_S)
        near = self.kernel_s[lo:hi]
        if not near:
            i = min(lo, len(self.kernel_s) - 1)
            near = self.kernel_s[max(0, i - 2):i + 3]
        return REF_KERNEL_S / statistics.median(near)
