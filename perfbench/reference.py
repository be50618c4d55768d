"""Reference work: a fixed job that uses none of the program's code, timed
between the benchmark's ops to measure how fast the machine is at that moment.

On the 2-core Intel Xeon VM this benchmark was built on, the machine's speed
changes by up to 1.6 times from one second to the next, with no CPU steal
and no load inside the VM, and the change shows in user CPU time as much as
in wall time.  Work of every kind slows together.  Over 200 s of
sample-grid passes on one seed, this job took either about 0.075 s or about
0.12 s, switching every few seconds, and the quartile spread of 3-pass
medians was 0.20 for wall time and 0.04 for wall time in units of this job.
Over ten 25 s certify-large runs with different seeds, the quartile spread
was 0.28 for wall-clock ops per second and 0.07 for ops per reference time.
So the job runs before each pass and after each op, and run.py reports op
time in units of the job's time measured around it.

The job mixes the kinds of work the workloads do: parsing a JSON document of
floats, scipy's `linprog` on small LPs (wrapper-bound) and on one larger LP
(HiGHS-bound), inverse-CDF sampling of a Markov chain over arrays of
several megabytes, a dense solve and a pure-Python loop.  Its inputs are
fixed, so every run, seed and commit times the same job.
"""

import json
import time

import numpy as np
from scipy.optimize import linprog

SEED = 20220104


class Reference:
    """Builds the job's inputs once; `run()` does the job and returns its
    wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.doc = json.dumps({"values": rng.random((80, 1000)).tolist()})
        self.small = [self._lp(rng, 12, 36) for _ in range(4)]
        self.large = self._lp(rng, 60, 360)
        rows = np.cumsum(rng.random((40, 40)), axis=1)
        self.cdf = rows / rows[:, -1:]
        # Sampling works in preallocated buffers: fresh multi-megabyte arrays
        # would time the allocator's state, which the program's ops change.
        self.draws = rng.random((8192, 24))
        self.gathered = np.empty((8192, 40))
        self.below = np.empty((8192, 40), dtype=bool)
        self.state = np.empty(8192, dtype=np.int64)
        self.matrix = rng.random((150, 150)) + 150 * np.eye(150)

    @staticmethod
    def _lp(rng, rows, cols):
        a_eq = rng.random((rows, cols))
        return rng.random(cols), a_eq, a_eq @ np.full(cols, 1.0 / cols)

    def run(self):
        start = time.perf_counter()
        json.loads(self.doc)
        for cost, a_eq, b_eq in (*self.small, self.large):
            result = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
            if result.status != 0:
                raise RuntimeError(f"reference LP failed: {result.message}")
        # Inverse-CDF sampling of a Markov chain over large arrays, the
        # memory-bound kind of work `simulate` does.
        state = self.state
        state[:] = 0
        for t in range(self.draws.shape[1]):
            np.take(self.cdf, state, axis=0, out=self.gathered)
            np.less(self.gathered, self.draws[:, t, None], out=self.below)
            self.below.sum(axis=1, out=state)
            np.minimum(state, len(self.cdf) - 1, out=state)
        np.linalg.solve(self.matrix, np.ones(len(self.matrix)))
        total = 0
        for i in range(50000):
            total += i * i
        return time.perf_counter() - start
