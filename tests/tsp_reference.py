"""The TSP local search as it was before delta evaluation and before the
iterated local search replaced it, kept verbatim as the record of the old
search: good rotation sweeps and composites of a 3-cycle or POTDT with up
to one or two good rotations.  Each candidate is scored by copying the
tour, applying the move and its rotations, and re-summing the whole tour
weight.  tests/test_tsp.py requires tsp_solve's mean weight on n=30-40
matrices and its mean ratio to the Held-Karp optimum at n=12 to be no worse
than this search's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from hamperm.graphs import complete_graph
from hamperm.tour import Move, Tour
from hamperm.tsp import Weight, WeightMatrix, tour_weight


@dataclass
class BestQueue:
    tour: Optional[list[int]] = None
    weight: Optional[Weight] = None

    def offer(self, tour: Sequence[int], weight: Weight) -> bool:
        if self.weight is None or weight < self.weight:
            self.tour = list(tour)
            self.weight = weight
            return True
        return False


def is_good_rotation(wm: WeightMatrix, t: Tour, x: int, y: int) -> bool:
    """Strict 2-opt gain: w[x,y] + w[H(x),H(y)] < w[x,H(x)] + w[y,H(y)]."""
    if y in (x, t.succ(x), t.pred(x)):
        raise ValueError(f"{x} and {y} are adjacent on the tour")
    hx, hy = t.succ(x), t.succ(y)
    return wm.w(x, y) + wm.w(hx, hy) < wm.w(x, hx) + wm.w(y, hy)


def _rotation_sweep(wm: WeightMatrix, t: Tour, trace: list) -> None:
    """Apply good rotations until none exists (a full 2-opt pass)."""
    n = wm.n
    improved = True
    while improved:
        improved = False
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                if y in (x, t.succ(x), t.pred(x)):
                    continue
                if is_good_rotation(wm, t, x, y):
                    t.rotate(x, y)
                    trace.append(("rotation", (x, y), tour_weight(wm, t)))
                    improved = True


def _good_composite(
    wm: WeightMatrix,
    t: Tour,
    rng: random.Random,
    potdt_samples: int,
) -> Optional[Tour]:
    """One strictly improving composite: an admissible move followed by up
    to one (3-cycle) or two (POTDT) good rotations, committed atomically."""
    n = wm.n
    base = tour_weight(wm, t)

    def attempt(m: Move, extra_rotations: int) -> Optional[Tour]:
        t2 = t.copy()
        t2.apply(m)
        for _ in range(extra_rotations):
            gain = None
            for x in set(m.verts):
                for y in range(1, n + 1):
                    if y in (x, t2.succ(x), t2.pred(x)):
                        continue
                    if is_good_rotation(wm, t2, x, y):
                        gain = (x, y)
                        break
                if gain:
                    break
            if not gain:
                break
            t2.rotate(*gain)
        return t2 if tour_weight(wm, t2) < base else None

    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                if len({a, b, c}) < 3 or not t.clockwise(a, b, c):
                    continue
                got = attempt(Move.cycle3(a, b, c), 1)
                if got is not None:
                    return got
    for _ in range(potdt_samples):
        a, c, b, d = rng.sample(range(1, n + 1), 4)
        if not t.interlace(a, c, b, d):
            continue
        got = attempt(Move.potdt(a, c, b, d), 2)
        if got is not None:
            return got
    return None


def tsp_solve(
    wm: WeightMatrix, seed: int, budget: Optional[int] = None
) -> tuple[list[int], Weight, list]:
    """Seeded local search; returns (tour, weight, trace of accepted steps).

    The returned weight equals tour_weight of the returned tour and never
    exceeds the starting weight; every accepted step strictly decreases it.
    """
    n = wm.n
    if n < 4:
        raise ValueError("tsp_solve requires n >= 4")
    if budget is None:
        budget = 20 * n
    rng = random.Random(seed)
    host = complete_graph(n)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    t = Tour(host, verts)
    trace: list = [("start", None, tour_weight(wm, t))]
    best = BestQueue()
    best.offer(t.sequence_from(1), tour_weight(wm, t))
    _rotation_sweep(wm, t, trace)
    best.offer(t.sequence_from(1), tour_weight(wm, t))
    for _ in range(budget):
        nxt = _good_composite(wm, t, rng, potdt_samples=4 * n * n)
        if nxt is None:
            break
        t = nxt
        trace.append(("composite", None, tour_weight(wm, t)))
        _rotation_sweep(wm, t, trace)
        best.offer(t.sequence_from(1), tour_weight(wm, t))
    return best.tour, best.weight, trace
