"""A fixed pure-Python task that measures how fast the host runs right now.

The 2-core shared host this benchmark was tuned on changes speed by up
to 2x, flipping within seconds and drifting over minutes, while the
process stays on the CPU the whole time (CPU time equals wall time),
so raw pass times of the same code spread by 36 % across ten runs.  A SpeedProbe times the reference
task between a workload's items; run.py scales each item by NOMINAL_S
over the mean of the reference times just before and after it, which
reports every time as if the reference task took NOMINAL_S.  The task
uses nothing from qbeads, so no change to qbeads moves it.
"""

import time

# the reference task's duration that scaled times assume: roughly its
# median on the tuning host (2 cores, Python 3.11.7)
NOMINAL_S = 0.010
# sample at least this often between items
EVERY_S = 0.2


def task():
    """Count the proper 3-colorings of a 12-cycle with chords by
    backtracking, with list indexing, modular arithmetic, a dict of
    seen partial states and small function calls: the mix qbeads'
    solvers run."""
    n = 12
    adjacent = [[(v - 1) % n, (v + 1) % n, (v + 5) % n] for v in range(n)]
    colors = [None] * n
    seen = {}

    def fits(v, c):
        return all(colors[u] != c for u in adjacent[v])

    def extend(v):
        if v == n:
            return 1
        key = (v, colors[v - 1], colors[0]) if v else (0, None, None)
        seen[key] = seen.get(key, 0) + 1
        total = 0
        for c in range(3):
            if fits(v, c):
                colors[v] = c
                total = (total + extend(v + 1)) % 1000003
                colors[v] = None
        return total

    return extend(0), len(seen)


class SpeedProbe:
    """Reference-task timings, taken between items at least every
    EVERY_S seconds."""

    def __init__(self):
        self.samples = []
        for _ in range(5):  # warm up
            task()
        self.sample()

    def sample(self):
        t0 = time.perf_counter()
        task()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def poll(self):
        """Sample if EVERY_S has passed since the last sample."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def mark(self):
        """Index of the latest sample, to pass to factor() later."""
        return len(self.samples) - 1

    def factor(self, mark):
        """NOMINAL_S over the mean of sample `mark` and the next one:
        the factor that turns a time measured between them into a time
        at the nominal speed."""
        return NOMINAL_S / ((self.samples[mark] + self.samples[mark + 1]) / 2)
