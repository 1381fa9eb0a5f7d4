"""A fixed reference loop that tracks the host's speed during a run.

On shared virtual machines the same Python code runs at speeds that drift
by a factor of two or more over seconds to minutes, and CPU time drifts with
wall time, so a run's raw throughput mostly measures the host.  The
reference loop is the benchmark's own code and never calls hamperm: a
breadth-first search over a fixed random graph, pure-Python set and list
work like the program's.  measure() runs it between instances, outside the
timed regions, for REF_SHARE of the run's wall time, so its samples spread
over the run the way the instances do.  An instance's cost in reference
slices (mean instance time over mean slice time) then moves with the
program's speed but hardly with the host's; so does set-up time converted
the same way to seconds at a nominal host speed.
"""

from __future__ import annotations

import random
import time

REF_SHARE = 0.10  # share of a run's wall time spent in the reference loop
REF_VERTICES = 3000
# Nominal wall time of one slice, about its median on a 2-vCPU x86-64 VM
# with CPython 3.11.7; it converts slices back to seconds.
REF_SLICE_S = 0.005


class Reference:
    def __init__(self):
        rng = random.Random("perfbench/reference")
        adj: list[set[int]] = [set() for _ in range(REF_VERTICES)]
        for v in range(REF_VERTICES):
            for _ in range(3):
                w = rng.randrange(REF_VERTICES)
                if w != v:
                    adj[v].add(w)
                    adj[w].add(v)
        self.adj = [tuple(sorted(ws)) for ws in adj]
        self.start = None
        self.busy = 0.0
        self.slices = 0

    def _slice(self) -> None:
        adj = self.adj
        for s in range(3):
            seen, queue = {s}, [s]
            for v in queue:
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)

    def catch_up(self) -> None:
        """Run slices until they fill REF_SHARE of the time since the first
        call."""
        if self.start is None:
            self.start = time.perf_counter()
        while True:
            other = time.perf_counter() - self.start - self.busy
            if self.busy >= REF_SHARE * other:
                return
            t0 = time.perf_counter()
            self._slice()
            self.busy += time.perf_counter() - t0
            self.slices += 1

    def slice_s(self) -> float:
        """Mean wall time of one slice."""
        return self.busy / self.slices

    def nominal_s(self, seconds: float) -> float:
        """Wall time measured in this run, converted to a host on which a
        slice takes REF_SLICE_S."""
        return seconds / self.slice_s() * REF_SLICE_S
