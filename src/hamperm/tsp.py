"""Weighted symmetric tours: an iterated local search from the paper's moves.

tsp_solve descends from a shuffled tour with two kinds of improving move,
each the weighted form of one of the paper's steps:

  * 2-opt, the paper's rotation: tour arcs a-b and c-d become a-c and b-d,
    reversing the path between them;
  * Or-opt, the paper's 3-cycle where one of the two adjacent segments it
    exchanges is a run of 1-3 cities: the run moves, unreversed, between
    two other adjacent cities.

Both are tried from a city a through its K = 8 nearest cities only (ties
broken by label): a move is tried only when its first new arc a-c has c in
a's list and is shorter than the arc of a it replaces (Bentley's gain
criterion).  Don't-look bits keep a queue of the cities whose arcs changed
since they were last tried, and a descent ends when the queue is empty.

Then it kicks: a random double bridge, which is the paper's interlaced
POTDT (a c)(b d).  It changes 4 arcs, reverses no segment, and its weight
change is read off those arcs in O(1).  The descent restarts from the
kick's 8 endpoints only, and the kicked tour is kept only if it ends
strictly lighter than the tour before the kick, which is restored
otherwise.  The budget counts kicks.  Full passes over every city, until
one applies no move, finish the search, so the returned tour has no
improving neighbour-list move.

A tour is a bare order/pos array of tour.py, with no host, registry or
orientation bit.  A 2-opt is one tour._reverse, which reverses the shorter
of its two paths, so the list may be read either way afterwards; an Or-opt
(a segment exchange) and a kick (a double bridge) are each one
tour._relink, which keeps the list's direction.  The tour returned is read
from vertex 1 in the list's direction.

Every decision compares sums of weights, so the search runs on the weights
times their common denominator, as ints, and the running weight is kept in
those units: exact, and divided back exactly for the trace.  Each trace
entry is strictly lighter than the one before it, and the running weight is
checked against tour_weight at the end.

Weights are exact (int or Fraction) so the strict comparisons never suffer
floating-point noise.  File format: line 1 "w n", then n rows of n numbers;
symmetry and a zero diagonal are validated on read.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import ParseError
from .tour import Tour, _positions, _relink, _reverse

Weight = Union[int, Fraction]
# A weight table indexed by vertex labels: w[u][v] is the weight of u-v.
_Table = list[list[Weight]]


class WeightMatrix:
    """Symmetric nonnegative weights with a zero diagonal, 1-based."""

    def __init__(self, rows: Sequence[Sequence[Weight]]):
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("weight matrix must be square")
        self.n = n
        self.rows = [list(r) for r in rows]
        for i in range(n):
            if self.rows[i][i] != 0:
                raise ValueError(f"diagonal entry ({i + 1},{i + 1}) is nonzero")
            for j in range(n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError(f"asymmetric at ({i + 1},{j + 1})")
                if self.rows[i][j] < 0:
                    raise ValueError(f"negative weight at ({i + 1},{j + 1})")

    def w(self, i: int, j: int) -> Weight:
        return self.rows[i - 1][j - 1]


def _parse_number(tok: str, lineno: int) -> Weight:
    try:
        return int(tok)
    except ValueError:
        pass
    _, e, exponent = tok.upper().partition("E")
    try:
        # Fraction builds 10**exponent ("1e10000000" takes seconds); refuse
        # past 4300, the digit count at which int() refuses a decimal string
        if e and abs(int(exponent)) > 4300:
            raise ValueError("exponent out of range")
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {tok!r}", lineno) from None


def read_weights(path: str) -> WeightMatrix:
    n = None
    rows: list[list[Weight]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if n is None:
                if len(parts) != 2 or parts[0] != "w":
                    raise ParseError("expected header 'w n'", lineno)
                try:
                    n = int(parts[1])
                except ValueError:
                    raise ParseError("non-integer size", lineno) from None
                if n < 1:
                    raise ParseError("size out of range", lineno)
                continue
            if len(parts) != n:
                raise ParseError(f"expected {n} entries", lineno)
            rows.append([_parse_number(tok, lineno) for tok in parts])
    if n is None:
        raise ParseError("empty file", 1)
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, found {len(rows)}", 1)
    try:
        return WeightMatrix(rows)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def write_weights(wm: WeightMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"w {wm.n}\n")
        for row in wm.rows:
            fh.write(" ".join(str(x) for x in row) + "\n")


def tour_weight(wm: WeightMatrix, t: Union[Tour, Sequence[int]]) -> Weight:
    seq = t.sequence() if isinstance(t, Tour) else list(t)
    if sorted(seq) != list(range(1, wm.n + 1)):
        raise ValueError("tour is not a permutation of 1..n")
    return sum(wm.w(seq[i], seq[(i + 1) % wm.n]) for i in range(wm.n))


# --------------------------------------------------------------------------
# local search
# --------------------------------------------------------------------------

# neighbour-list length
K = 8


def _scaled(w: _Table) -> tuple[list[list[int]], int]:
    """(w times the least common denominator of its entries, as ints; that
    denominator).  Sums of weights compare on the scaled table as on w."""
    scale = math.lcm(*(x.denominator for row in w for x in row))
    if scale == 1:
        return w, 1
    return [[int(x * scale) for x in row] for row in w], scale


def _exact(cost: int, scale: int) -> Weight:
    """A weight in scaled units, back in the units of the weights."""
    return Fraction(cost, scale) if scale > 1 else cost


def _nearest(wi: list[list[int]]) -> list[list[int]]:
    """near[v]: the K cities nearest v, nearest first, ties broken by
    label."""
    verts = range(1, len(wi))
    return [[]] + [
        sorted((u for u in verts if u != v), key=wi[v].__getitem__)[:K]
        for v in verts
    ]


def _improve(
    wi: list[list[int]],
    near: list[list[int]],
    order: list[int],
    pos: list[int],
    a: int,
) -> Optional[tuple[str, int, tuple[int, ...]]]:
    """Apply the first improving move tried from city a; return its kind,
    its weight change and the cities whose arcs it changed, or None."""
    n = len(order)
    wa = wi[a]
    i = pos[a]
    # s = 1 reads the tour forward from a, s = -1 backward
    for s in (1, -1):
        # 2-opt: a-b and c-d become a-c and b-d, where b is after a and d
        # after c
        b = order[(i + s) % n]
        wab, wb = wa[b], wi[b]
        for c in near[a]:
            wac = wa[c]
            if wac >= wab:
                break
            d = order[(pos[c] + s) % n]
            delta = wac + wb[d] - wab - wi[c][d]
            if delta < 0:
                # reverse the path b..c or, when s = -1, the rest of the
                # cycle, a..d in the list: either gives the new tour
                if s == 1:
                    _reverse(order, pos, pos[b], pos[c])
                else:
                    _reverse(order, pos, pos[a], pos[d])
                return "2-opt", delta, (a, b, c, d)
    for s in (1, -1):
        # Or-opt: o a..e q ... c d becomes o q ... c a..e d, where the run
        # a..e holds 1-3 cities: read in direction s, the 3-cycle (o e c)
        o = order[(i - s) % n]
        wao, wo = wa[o], wi[o]
        for c in near[a]:
            wac = wa[c]
            if wac >= wao:
                break
            wc = wi[c]
            d = order[(pos[c] + s) % n]
            e = a
            for _ in range(3):
                q = order[(pos[e] + s) % n]
                we = wi[e]
                delta = wo[q] + wac + we[d] - wao - we[q] - wc[d]
                if delta < 0:
                    # cut after o, e and c in direction s and exchange the
                    # chunks a..e and q..c
                    cuts = sorted(pos[v] - (s < 0) for v in (o, e, c))
                    _relink(order, pos, cuts)
                    return "or-opt", delta, (o, a, e, q, c, d)
                if q == c:
                    break
                e = q
    return None


def _descend(
    wi: list[list[int]],
    near: list[list[int]],
    order: list[int],
    pos: list[int],
    cost: int,
    queue: Sequence[int],
    trace: Optional[list] = None,
    scale: int = 1,
) -> int:
    """Try _improve from the cities of queue, queueing again each city whose
    arcs a move changes, until the queue is empty.  Returns the running
    weight cost after the moves; each move is appended to trace, if given,
    with its exact weight."""
    queued = [False] * len(wi)
    todo: deque[int] = deque()
    for v in queue:
        if not queued[v]:
            queued[v] = True
            todo.append(v)
    while todo:
        a = todo.popleft()
        queued[a] = False
        got = _improve(wi, near, order, pos, a)
        if got is None:
            continue
        kind, delta, touched = got
        cost += delta
        if trace is not None:
            trace.append((kind, None, _exact(cost, scale)))
        for v in touched:
            if not queued[v]:
                queued[v] = True
                todo.append(v)
    return cost


def _kick(
    wi: list[list[int]], order: list[int], pos: list[int], rng: random.Random
) -> tuple[int, tuple[int, ...]]:
    """Apply a random double bridge: the POTDT (a c)(b d) for four cities
    a, b, c, d in tour order, which turns a X Y Z d' into a Z Y X d', d'
    the city after d.  Returns its weight change and its 8 endpoints."""
    n = len(order)
    i, j, k, m = sorted(rng.sample(range(n), 4))
    a, b, c, d = order[i], order[j], order[k], order[m]
    a1, b1, c1, d1 = order[i + 1], order[j + 1], order[k + 1], order[(m + 1) % n]
    delta = (wi[a][c1] + wi[c][a1] + wi[b][d1] + wi[d][b1]) - (
        wi[a][a1] + wi[b][b1] + wi[c][c1] + wi[d][d1]
    )
    _relink(order, pos, (i, j, k, m))
    return delta, (a, a1, b, b1, c, c1, d, d1)


def tsp_solve(
    wm: WeightMatrix, seed: int, budget: Optional[int] = None
) -> tuple[list[int], Weight, list]:
    """Seeded iterated local search; returns (tour, weight, trace).

    The trace starts with ("start", None, weight of the shuffled tour) and
    logs each descent move ("2-opt" or "or-opt") and each kept kick
    ("kick") with the weight after it, so its weights strictly decrease.
    The returned weight equals tour_weight of the returned tour, and no
    improving 2-opt or Or-opt move is left from any city's neighbour list.
    budget is the number of kicks (default n ceil(ln n)); it must be
    nonnegative.  Weights must be int or Fraction.
    """
    n = wm.n
    if n < 4:
        raise ValueError("tsp_solve requires n >= 4")
    if budget is None:
        budget = n * math.ceil(math.log(n))
    elif budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    # the running weight is only exact, and so only equal to a fresh
    # tour_weight, for exact weights
    if not all(isinstance(x, (int, Fraction)) for row in wm.rows for x in row):
        raise ValueError("tsp_solve requires int or Fraction weights")
    # weights indexed by vertex labels: row and column 0 are padding
    w = [[0] * (n + 1)] + [[0, *row] for row in wm.rows]
    wi, scale = _scaled(w)
    near = _nearest(wi)
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pos = _positions(order)
    trace: list = [("start", None, tour_weight(wm, order))]
    cost = sum(wi[order[i - 1]][v] for i, v in enumerate(order))
    cost = _descend(wi, near, order, pos, cost, order[:], trace, scale)
    for _ in range(budget):
        saved = order[:], pos[:]
        delta, ends = _kick(wi, order, pos, rng)
        kicked = _descend(wi, near, order, pos, cost + delta, ends)
        if kicked < cost:
            cost = kicked
            trace.append(("kick", None, _exact(cost, scale)))
        else:
            order, pos = saved
    # don't-look bits miss a move of a city whose own arcs stayed while a
    # later move changed its partner's; full passes until one moves nothing
    # leave no improving neighbour-list move
    steps = None
    while steps != len(trace):
        steps = len(trace)
        cost = _descend(wi, near, order, pos, cost, order[:], trace, scale)
    # Return the weight as tour_weight sums it: an int whenever every arc
    # weight on the tour is an int, as the scaled running weight need not
    # say.
    i = pos[1]
    tour = order[i:] + order[:i]
    final = tour_weight(wm, tour)
    if final * scale != cost:
        raise AssertionError(
            f"running weight drifted: {_exact(cost, scale)} != {final}"
        )
    return tour, final, trace
