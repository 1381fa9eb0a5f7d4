"""Weighted symmetric tours: good rotations, good move sets, local search.

A rotation or admissible move is "good" when the arcs it creates weigh
strictly less than the arcs it replaces, so every accepted step strictly
decreases the tour weight.  tsp_solve runs a greedy good-rotation sweep
(a 2-opt pass) to a local optimum, then repeatedly tries good admissible
moves composed with up to one (3-cycle) or two (POTDT) follow-up rotations,
committing a composite only when its net weight strictly improves.  Since
every accepted step improves, the final tour is the best one seen.

Every gain is computed from the arcs a step changes, never by re-summing
the tour.  A candidate costs O(1) for its move's delta plus the scan for its
follow-up rotation(s) (O(n) per scanned vertex at worst, usually far less),
done on the tour's successor/predecessor arrays with the moved arcs
overridden (a POTDT's second rotation is scanned on arrays rebuilt after
its first, in O(n)); a tour is built (copy, apply, rotate) only for the
candidate that is committed.  The running weight is updated by each accepted delta
and checked against tour_weight once, at the end of tsp_solve.

Weights are exact (int or Fraction) so the strict comparisons never suffer
floating-point noise.  File format: line 1 "w n", then n rows of n numbers;
symmetry and a zero diagonal are validated on read.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import ParseError, complete_graph
from .tour import InadmissibleMove, Move, Tour

Weight = Union[int, Fraction]
# A weight table indexed by vertex labels: w[u][v] is the weight of u-v.
_Table = Union[list[list[Weight]], dict[int, list[Weight]]]


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
        try:
            return Fraction(tok)
        except ValueError:
            raise ParseError(f"bad number {tok!r}", lineno) from None


def read_weights(path: str) -> WeightMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    n = None
    rows: list[list[Weight]] = []
    for lineno, raw in enumerate(lines, start=1):
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


def _rotation_delta(w: _Table, x: int, hx: int, y: int, hy: int) -> Weight:
    """Weight change of the rotation that replaces arcs x-hx and y-hy by
    x-y and hx-hy.  Negative exactly when the rotation is good."""
    return (w[x][y] + w[hx][hy]) - (w[x][hx] + w[y][hy])


def _move_delta(w: _Table, ov: dict[int, int], succ) -> Weight:
    """Weight change of a move: the arcs v-ov[v] it creates minus the arcs
    v-succ[v] they replace.  Negative exactly when the move set is good."""
    new = old = 0
    for v, h in ov.items():
        new += w[v][h]
        old += w[v][succ[v]]
    return new - old


def _rows_of(wm: WeightMatrix, verts) -> _Table:
    """The rows of `verts` as a table indexed by vertex labels."""
    return {v: [0, *wm.rows[v - 1]] for v in verts}


def is_good_rotation(wm: WeightMatrix, t: Tour, x: int, y: int) -> bool:
    """Strict 2-opt gain: w[x,y] + w[H(x),H(y)] < w[x,H(x)] + w[y,H(y)]."""
    if y in (x, t.succ(x), t.pred(x)):
        raise ValueError(f"{x} and {y} are adjacent on the tour")
    hx, hy = t.succ(x), t.succ(y)
    return _rotation_delta(_rows_of(wm, (x, hx, y)), x, hx, y, hy) < 0


def is_good_set(wm: WeightMatrix, t: Tour, m: Move) -> bool:
    """Created arcs strictly outweighed by the arcs they replace."""
    if not t.admissible(m):
        raise InadmissibleMove(f"{m} is not admissible on the tour")
    ov = t.overlay(m)
    succ = {v: t.succ(v) for v in ov}
    return _move_delta(_rows_of(wm, ov), ov, succ) < 0


# --------------------------------------------------------------------------
# local search
# --------------------------------------------------------------------------


def _links(t: Tour) -> tuple[list[int], list[int]]:
    """Successor and predecessor arrays of t, indexed by vertex."""
    order = t.order
    succ = [0] * (len(order) + 1)
    pred = [0] * (len(order) + 1)
    prev = order[-1]
    for v in order:
        succ[prev] = v
        pred[v] = prev
        prev = v
    return succ, pred


def _first_good_rotation(
    w: _Table, succ: list[int], pred: list[int], xs
) -> Optional[tuple[int, int, Weight]]:
    """(x, y, delta) of the first good rotation with x in xs (in xs's
    order) and y in 1..n, or None."""
    verts = range(1, len(succ))
    for x in xs:
        hx, px = succ[x], pred[x]
        for y in verts:
            if y == x or y == hx or y == px:
                continue
            d = _rotation_delta(w, x, hx, y, succ[y])
            if d < 0:
                return x, y, d
    return None


def _rotated_links(
    succ: list[int], pred: list[int], x: int, y: int
) -> tuple[list[int], list[int]]:
    """New arrays for the tour after rotation (x, y), which reverses the
    segment succ(x)..y so the tour reads x, y, ..., succ(x), succ(y)."""
    s2, p2 = succ[:], pred[:]
    hx, hy = succ[x], succ[y]
    v = hx
    while True:
        s2[v], p2[v] = pred[v], succ[v]
        if v == y:
            break
        v = succ[v]
    s2[x], p2[y] = y, x
    s2[hx], p2[hy] = hy, hx
    return s2, p2


def _score(
    w: _Table,
    succ: list[int],
    pred: list[int],
    ov: dict[int, int],
    xs,
    rotations: int,
) -> tuple[Weight, list[tuple[int, int]]]:
    """Net weight change of a move (given by its overlay ov) followed by up
    to `rotations` first good rotations from xs, and those rotations.

    succ and pred describe the current tour; they are rewired to the
    post-move tour for the scan and restored before returning.
    """
    delta = _move_delta(w, ov, succ)
    old = [(v, succ[v]) for v in ov]
    for v, h in ov.items():
        succ[v], pred[h] = h, v
    rots = []
    s, p = succ, pred
    for k in range(rotations):
        got = _first_good_rotation(w, s, p, xs)
        if got is None:
            break
        x, y, d = got
        delta += d
        rots.append((x, y))
        if k + 1 < rotations:
            s, p = _rotated_links(s, p, x, y)
    for v, h in old:
        succ[v], pred[h] = h, v
    return delta, rots


def _rotation_sweep(w: _Table, t: Tour, weight: Weight, trace: list) -> Weight:
    """Apply good rotations until none exists (a full 2-opt pass); returns
    the new weight."""
    verts = range(1, t.n + 1)
    succ, pred = _links(t)
    improved = True
    while improved:
        improved = False
        for x in verts:
            for y in verts:
                hx = succ[x]
                if y == x or y == hx or y == pred[x]:
                    continue
                d = _rotation_delta(w, x, hx, y, succ[y])
                if d < 0:
                    t.rotate(x, y)
                    succ, pred = _links(t)
                    weight += d
                    trace.append(("rotation", (x, y), weight))
                    improved = True
    return weight


def _good_composite(
    w: _Table,
    t: Tour,
    rng: random.Random,
    potdt_samples: int,
) -> Optional[tuple[Tour, Weight]]:
    """One strictly improving composite: an admissible move followed by up
    to one (3-cycle) or two (POTDT) good rotations, committed atomically.
    Returns the new tour and its weight change."""
    n = t.n
    verts = range(1, n + 1)
    succ, pred = _links(t)
    pos = t.pos

    def commit(m: Move, rots: list[tuple[int, int]]) -> Tour:
        t2 = t.copy().apply(m)
        for x, y in rots:
            t2.rotate(x, y)
        return t2

    for a in verts:
        pa = pos[a]
        # rel[v]: clockwise distance from a to v; (a b c) is admissible
        # iff 0 < rel[b] < rel[c]
        rel = {v: (i - pa) % n for v, i in pos.items()}
        for b in verts:
            if b == a:
                continue
            rb = rel[b]
            for c in verts:
                if rel[c] <= rb:
                    continue
                ov = {a: succ[b], b: succ[c], c: succ[a]}
                delta, rots = _score(w, succ, pred, ov, {a, b, c}, 1)
                if delta < 0:
                    return commit(Move.cycle3(a, b, c), rots), delta
    for _ in range(potdt_samples):
        a, c, b, d = rng.sample(verts, 4)
        if not t.interlace(a, c, b, d):
            continue
        ov = {a: succ[c], c: succ[a], b: succ[d], d: succ[b]}
        delta, rots = _score(w, succ, pred, ov, {a, c, b, d}, 2)
        if delta < 0:
            return commit(Move.potdt(a, c, b, d), rots), delta
    return None


def tsp_solve(
    wm: WeightMatrix, seed: int, budget: Optional[int] = None
) -> tuple[list[int], Weight, list]:
    """Seeded local search; returns (tour, weight, trace of accepted steps).

    The returned weight equals tour_weight of the returned tour and never
    exceeds the starting weight; every accepted step strictly decreases it.
    budget caps the number of composite steps (default 20 n); it must be
    nonnegative.  Weights must be int or Fraction.
    """
    n = wm.n
    if n < 4:
        raise ValueError("tsp_solve requires n >= 4")
    if budget is None:
        budget = 20 * n
    elif budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    # the running weight is only exact, and so only equal to a fresh
    # tour_weight, for exact weights
    if not all(isinstance(x, (int, Fraction)) for row in wm.rows for x in row):
        raise ValueError("tsp_solve requires int or Fraction weights")
    # weights indexed by vertex labels: row and column 0 are padding
    w = [[0] * (n + 1)] + [[0, *row] for row in wm.rows]
    rng = random.Random(seed)
    host = complete_graph(n)
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    t = Tour(host, verts)
    weight = tour_weight(wm, t)
    trace: list = [("start", None, weight)]
    weight = _rotation_sweep(w, t, weight, trace)
    for _ in range(budget):
        got = _good_composite(w, t, rng, potdt_samples=4 * n * n)
        if got is None:
            break
        t, delta = got
        weight += delta
        trace.append(("composite", None, weight))
        weight = _rotation_sweep(w, t, weight, trace)
    # Every accepted step strictly improves, so the best tour is t.  Return
    # its weight as tour_weight sums it: an int whenever every arc weight on
    # the tour is an int, as the running sum need not be.
    final = tour_weight(wm, t)
    assert final == weight, "running weight drifted"
    return t.sequence_from(1), final, trace
