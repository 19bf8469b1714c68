"""CPU-speed-normalized timing.

On a shared host the speed of one core can change by a factor of two for
tens of seconds at a time, far more than the changes this benchmark must
detect. So every measured interval is scaled to a reference speed: a
SIGALRM handler times a fixed pure-Python probe every PERIOD_S seconds in
the measured thread, and an interval of net time t (probe time removed)
counts as t * REFERENCE_PROBE_S / probe, with the probe times in and
around the interval averaged. The probe is benchmark code, so a change to
the program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.1
# probes this close to an interval also count for it, so that a short
# interval is scaled by several probes rather than by one
WINDOW_S = 0.25
# one probe on the fastest state of a shared 2-core x86-64 VM running
# CPython 3.11; scaled times read as seconds on that machine
REFERENCE_PROBE_S = 1.6e-3

_TABLE = tuple(tuple((x * y + x) % 7 for y in range(7)) for x in range(7))


def _below(a, b):
    return _TABLE[a][b] <= _TABLE[b][a]


def _probe():
    """Fixed pure-Python work in two styles: dict and tuple arithmetic, and
    table lookups with frozensets and generators like the program's own."""
    acc = 0
    for _ in range(5):
        d = {}
        for i in range(1000):
            t = (i, i * 7 % 13, i & 5)
            d[t] = d.get(t[1], 0) + 1
            acc += t[0] * t[2]
    for _ in range(14):
        for a in range(7):
            row = _TABLE[a]
            s = frozenset(row[b] for b in range(7) if _below(a, b))
            acc += len(s)
            acc += sum(1 for c in range(7) if _TABLE[row[c]][a] in s)
            acc += tuple(_TABLE[x][a] for x in range(7)) < row
    return acc


class SpeedClock:
    """Stamps are (raw perf_counter, net time); ``elapsed`` scales the net
    time between two stamps to the reference speed."""

    def __init__(self):
        self.probe_s = 0.0  # time spent inside probes so far
        self.times = array("d")  # raw time of each probe
        self.cum = array("d", [0.0])  # prefix sums of reference / probe
        self._running = False

    def start(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def _tick(self, *_):
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        self.times.append(t1)
        self.cum.append(self.cum[-1] + REFERENCE_PROBE_S / (t1 - t0))
        self.probe_s += t1 - t0

    def net(self):
        """perf_counter minus the time spent in probes."""
        return self.stamp()[1]

    def stamp(self):
        while True:
            p = self.probe_s
            t = perf_counter()
            if p == self.probe_s:  # no probe ran between the two reads
                return t, t - p

    def factor(self, t_a, t_b):
        """Mean reference/probe ratio of the probes within WINDOW_S of
        [t_a, t_b], or of the last probe before t_b when none is; 1 before
        any probe."""
        if not self.times:
            return 1.0
        i = bisect_left(self.times, t_a - WINDOW_S)
        j = bisect_right(self.times, t_b + WINDOW_S)
        if j > i:
            return (self.cum[j] - self.cum[i]) / (j - i)
        k = max(j - 1, 0)
        return self.cum[k + 1] - self.cum[k]

    def elapsed(self, a, b):
        """Scaled seconds between stamps a and b; call it after the run, when
        the probes that follow b exist."""
        return (b[1] - a[1]) * self.factor(a[0], b[0])

    def mean_factor(self):
        return self.cum[-1] / max(len(self.times), 1)
