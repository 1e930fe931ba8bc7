"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by up to 2x over
seconds to minutes (other tenants on the same cores and caches), which
moves wall times far more than the changes the benchmark must resolve.
A fixed pure-Python kernel that uses no cubekit code -- a BFS over
adjacency arrays that fills a dict of edge keys, then a sort, the same
kinds of work cubekit does -- is timed before the first operation and
after every operation.  Each operation's wall time is rescaled by
NOMINAL_S over the mean of the two kernel times around it, giving its
time on a machine where the kernel takes NOMINAL_S.  Raw wall times are
kept in the results file.
"""

from __future__ import annotations

import gc
import random
import time
from array import array

NOMINAL_S = 0.025   # kernel time on this reference machine, quiet


class Calibrator:
    def __init__(self, n: int = 12000, seed: int = 1):
        rng = random.Random(seed)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            j = rng.randrange(i)
            nbrs[i].append(j)
            nbrs[j].append(i)
        for _ in range(n // 2):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                nbrs[i].append(j)
                nbrs[j].append(i)
        # Flat arrays, so a kernel run allocates no objects the cyclic
        # collector tracks: with a 600 MB fixture alive, one collection
        # triggered here would cost more than the kernel itself.
        self.start = array("i", [0])
        self.adj = array("i")
        for row in nbrs:
            self.adj.extend(row)
            self.start.append(len(self.adj))
        self.n = n
        self.samples: list[float] = []

    def _kernel(self) -> int:
        n, start, adj = self.n, self.start, self.adj
        seen = bytearray(n)
        seen[0] = 1
        order = [0]
        index = {}
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for k in range(start[u], start[u + 1]):
                v = adj[k]
                index[u * n + v if u < v else v * n + u] = k
                if not seen[v]:
                    seen[v] = 1
                    order.append(v)
        order.sort(key=lambda x: -x)
        return len(index) + order[0]

    def sample(self) -> float:
        """Seconds of one kernel run, now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(seconds: float, kernel_s: float) -> float:
        """Wall seconds rescaled to the nominal machine speed, given the
        kernel time measured around them."""
        return seconds * NOMINAL_S / kernel_s
