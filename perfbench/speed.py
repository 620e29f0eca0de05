"""Wall time scaled to a reference host speed.

The 2-core hosts this benchmark was built on switch between speed states
about 45% apart, each lasting from seconds to minutes.  A fixed loop
timed for a minute read 0.07-0.09 s in one state and 0.11-0.13 s in the
other.  Raw wall-time medians of identical runs therefore spread by 20-30%
from run to run, depending on which state a run happened to land in.

`SpeedClock` cancels the host state.  While a pass runs, a timer signal
makes it time a fixed pure-Python calibration loop every
CALIBRATE_EVERY_S seconds, between two bytecodes of whatever runs then.
A timed interval is cut at those samples into segments; each segment's wall time is multiplied by
REFERENCE_S / (mean loop time of the samples at its two ends), and the
samples' own time is left out.  A sample is the fastest of LOOP_REPEATS
runs of the loop.  A CLI child process takes its own samples the same
way (`cli_child.py`) and hands them back.  The result reads as seconds on a host
that runs the loop in REFERENCE_S.  The loop does not touch stabpres,
so a change to the program moves the scaled times as it moves the raw
ones.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from statistics import mean
from time import perf_counter

REFERENCE_S = 0.005  # loop time in the faster host state
CALIBRATE_EVERY_S = 0.5
LOOP_REPEATS = 3
_MATRIX = [[(i * j + 7) % 11 - 5 for j in range(60)] for i in range(60)]


def calibration_loop():
    """Dict churn over a large table, then row operations on an integer
    matrix: the two kinds of inner loop the library spends its time in."""
    table = {}
    for i in range(10_000):
        table[(i * 7919) % 200_003] = (i, i + 1)
    rows = [list(r) for r in _MATRIX]
    for t in range(10):
        for i in range(t + 1, 60):
            c, ri, rt = rows[i][t] - 3, rows[i], rows[t]
            for j in range(60):
                ri[j] = (ri[j] + c * rt[j]) % 1009
    return len(table) + rows[-1][-1]


class SpeedClock:
    def __init__(self):
        self.samples = []  # (start, end, loop seconds), in time order
        self.intervals = []  # (label, start, end)

    def calibrate(self):
        """One sample: the fastest of LOOP_REPEATS loop runs, so that a
        single preemption, or the heap growth of a process's first run,
        does not read as a slow host."""
        start = perf_counter()
        fastest = float("inf")
        for _ in range(LOOP_REPEATS):
            t = perf_counter()
            calibration_loop()
            fastest = min(fastest, perf_counter() - t)
        self.samples.append((start, perf_counter(), fastest))

    @contextmanager
    def sampling(self):
        """Take a sample every CALIBRATE_EVERY_S seconds while the block runs.

        The parent must not sample while it waits for a child, or the
        two would compete for the CPU; use this only around work done in
        this process."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def add_samples(self, samples):
        """Merge samples taken in a child process; perf_counter is the
        system-wide monotonic clock, so their times compare with ours."""
        self.samples = sorted(self.samples + [tuple(s) for s in samples])

    def record(self, label, start, end):
        self.intervals.append((label, start, end))

    def scaled(self):
        """label -> summed scaled seconds of its intervals.

        Call after the last interval; it takes the closing sample itself.
        """
        self.calibrate()
        starts = [s for s, _, _ in self.samples]
        out = Counter()
        for label, start, end in self.intervals:
            first = bisect_right(starts, start)  # samples first..last-1 lie inside
            last = bisect_left(starts, end)
            edges = [(start, first - 1)] + [(self.samples[k][1], k) for k in range(first, last)]
            for right, (seg_start, left) in enumerate(edges, start=first):
                seg_end = self.samples[right][0] if right < last else end
                ends = [j for j in (left, right) if 0 <= j < len(self.samples)]
                loop_s = mean(self.samples[j][2] for j in ends)
                out[label] += (seg_end - seg_start) * REFERENCE_S / loop_s
        return out
