"""Op times normalised by the machine's speed while the op ran.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds, as other tenants load the cores: six consecutive
fresh-process runs of `graph` took from 5.1 s to 7.9 s, with CPU time
tracking wall time.  A probe measures that drift while the op runs: an
interval timer interrupts the program every PROBE_INTERVAL_S and times a
fixed pure-Python loop.  The loop is the benchmark's own code, so no change
to the package moves it, and its one list dies at once, so its cost does
not depend on the program's heap.

For an interval, the net time is its wall time minus the probes inside it,
and the normalised time is the net time scaled by PROBE_REF_S over the
probes' mean duration: the seconds the interval would have taken at the
reference speed.  An interval with fewer than MIN_PROBES probes uses the
MIN_PROBES probes nearest to it.  Over eight consecutive runs of `graph`,
whose raw times had a standard deviation of 17% (in log), the normalised
times had one of 3.7%; a probe of plain method calls left 5.8%, and one of
integer arithmetic more.  Over 15 alternating `sweep` and `graph` processes
under heavy load, the quartile spread of medians of three consecutive
processes fell from 10% and 9% raw to 4% and 4% normalised.  The correction
is not exact: across such series the slope of log op time against log probe
time ranged from 0.8 to 1.5, so a sustained change of load still moves
normalised times, though less than raw ones.
"""

import signal
import time

PROBE_INTERVAL_S = 0.02
# mean probe duration on an unloaded core of a 2-vCPU Xeon VM, Python 3.11
PROBE_REF_S = 1.2e-4
MIN_PROBES = 10


class _Field:
    """A toy prime field whose elements are cached objects, as in fields.py."""

    def __init__(self, p):
        self.p = p
        self.cache = {i: _Element(self, i) for i in range(p)}

    def from_index(self, i):
        return self.cache[i]


class _Element:
    __slots__ = ("field", "index")

    def __init__(self, field, index):
        self.field = field
        self.index = index

    def __add__(self, other):
        f = self.field
        return f.from_index((self.index + other.index) % f.p)

    def __mul__(self, other):
        f = self.field
        return f.from_index((self.index * other.index) % f.p)

    def __bool__(self):
        return self.index != 0


_F = _Field(257)
_A = [_F.from_index((37 * i + 11) % 257) for i in range(16)]
_B = [_F.from_index((91 * i + 3) % 257 if i % 3 else 0) for i in range(16)]


def _probe():
    """A dense product of two 16-term polynomials over _F, skipping zeros
    as poly.py does: the mix of method calls, attribute and dict access the
    package's element and polynomial arithmetic runs on."""
    out = [_F.from_index(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        if not x:
            continue
        for j, y in enumerate(_B):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


class SpeedClock:
    def __init__(self):
        self.durations = []
        self._prefix = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._prefix = [0.0]
        for d in self.durations:
            self._prefix.append(self._prefix[-1] + d)

    def mark(self):
        """(time, probes so far), read with no probe in between."""
        while True:
            n = len(self.durations)
            t = time.perf_counter()
            if len(self.durations) == n:
                return t, n

    def net(self, m0, m1):
        """Wall seconds between two marks, less the probes inside them."""
        p = self._prefix
        return m1[0] - m0[0] - (p[m1[1]] - p[m0[1]])

    def normalised(self, m0, m1):
        """Seconds between two marks at the reference speed, from the probes
        inside them, or the MIN_PROBES probes nearest to them."""
        p = self._prefix
        lo, hi = m0[1], m1[1]
        if hi - lo < MIN_PROBES:
            hi = min(len(p) - 1, (lo + hi + MIN_PROBES) // 2)
            lo = max(0, hi - MIN_PROBES)
        mean = (p[hi] - p[lo]) / (hi - lo) if hi > lo else PROBE_REF_S
        return self.net(m0, m1) * PROBE_REF_S / mean
