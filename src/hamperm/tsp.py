"""Weighted symmetric tours: good rotations, good move sets, local search.

A rotation or admissible move is "good" when the arcs it creates weigh
strictly less than the arcs it replaces, so every accepted step strictly
decreases the tour weight.  tsp_solve runs a greedy good-rotation sweep
(a 2-opt pass) to a local optimum, then repeatedly tries good admissible
moves composed with up to one (3-cycle) or two (POTDT) follow-up rotations,
committing a composite only when its net weight strictly improves.  Since
every accepted step improves, the final tour is the best one seen.

A tour is a pair of successor/predecessor arrays indexed by vertex, with no
host graph: every pair of cities is an edge, so no arc is a pseudo-arc.  A
move h' = h s writes its new successors (its overlay) into the arrays; a
rotation reverses the successor links of one segment.  Positions, needed to
tell which moves are admissible, are read off by one walk of the successors
per composite search, and the result is the walk from vertex 1.

Every gain is computed from the arcs a step changes, never by re-summing
the tour.  A scored candidate costs O(1) for its move's delta plus the scan
for its follow-up rotation(s) (O(n) per scanned vertex at worst, usually far
less), done on the arrays with the moved arcs overridden; new arrays are
built only for the candidate that is committed.  The running weight is
updated by each accepted delta and checked against tour_weight once, at the
end of tsp_solve.

Most 3-cycles are not scored.  Each composite search first tabulates, for
every x and h, the least change M[x][h] - w[x][h] of a rotation (x, y) on a
tour where x's successor is h and y's is unchanged (n^2 minima over n terms,
in C-level min/map).  A 3-cycle is scored only if its move delta d0 plus the
least of those entries and the exact terms for its moved vertices can be
negative.  Since this is a true lower bound, every skipped 3-cycle would
have been rejected anyway, so the accepted steps, the tour and the trace
are those of a full scan.  Every POTDT draw is scored in full.  The bound
and the rotation scans only compare sums of weights, so they run on the
weights times their common denominator, as ints; the deltas summed into
the tour weight are those of the exact weights.

Weights are exact (int or Fraction) so the strict comparisons never suffer
floating-point noise.  File format: line 1 "w n", then n rows of n numbers;
symmetry and a zero diagonal are validated on read.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import add, sub
from typing import Optional, Sequence, Union

from .graphs import ParseError
from .tour import Tour

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
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
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


# --------------------------------------------------------------------------
# local search
# --------------------------------------------------------------------------


def _links(order: Sequence[int]) -> tuple[list[int], list[int]]:
    """Successor and predecessor arrays, indexed by vertex, of the tour that
    visits order cyclically."""
    succ = [0] * (len(order) + 1)
    pred = [0] * (len(order) + 1)
    prev = order[-1]
    for v in order:
        succ[prev] = v
        pred[v] = prev
        prev = v
    return succ, pred


def _walk(succ: list[int]) -> list[int]:
    """The tour with successor array succ, as a list starting at vertex 1."""
    order = [1]
    v = succ[1]
    while v != 1:
        order.append(v)
        v = succ[v]
    return order


def _first_good_rotation(
    w: _Table, succ: list[int], pred: list[int], xs
) -> Optional[tuple[int, int]]:
    """(x, y) of the first good rotation with x in xs (in xs's order) and
    y in 1..n, or None."""
    verts = range(1, len(succ))
    for x in xs:
        hx, px = succ[x], pred[x]
        for y in verts:
            if y == x or y == hx or y == px:
                continue
            if _rotation_delta(w, x, hx, y, succ[y]) < 0:
                return x, y
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
    wi: _Table,
    succ: list[int],
    pred: list[int],
    ov: dict[int, int],
    xs,
    rotations: int,
) -> tuple[Weight, list[tuple[int, int]]]:
    """Net weight change of a move (given by its overlay ov) followed by up
    to `rotations` first good rotations from xs, and those rotations.

    The rotations are found on wi = _scaled(w), where a delta is negative
    exactly when it is on w, and their deltas are summed in w.  succ and
    pred describe the current tour; they are rewired to the post-move tour
    for the scan and restored before returning.
    """
    delta = _move_delta(w, ov, succ)
    old = [(v, succ[v]) for v in ov]
    for v, h in ov.items():
        succ[v], pred[h] = h, v
    rots = []
    s, p = succ, pred
    for k in range(rotations):
        got = _first_good_rotation(wi, s, p, xs)
        if got is None:
            break
        x, y = got
        delta += _rotation_delta(w, x, s[x], y, s[y])
        rots.append(got)
        if k + 1 < rotations:
            s, p = _rotated_links(s, p, x, y)
    for v, h in old:
        succ[v], pred[h] = h, v
    return delta, rots


def _rotation_sweep(
    w: _Table, succ: list[int], pred: list[int], weight: Weight, trace: list
) -> tuple[list[int], list[int], Weight]:
    """Apply good rotations until none exists (a full 2-opt pass); returns
    the new arrays and weight."""
    verts = range(1, len(succ))
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
                    succ, pred = _rotated_links(succ, pred, x, y)
                    weight += d
                    trace.append(("rotation", (x, y), weight))
                    improved = True
    return succ, pred, weight


def _scaled(w: _Table) -> _Table:
    """The table w times the least common denominator of its entries, as
    ints.  The 3-cycle bound and the rotation scans only compare sums of
    weights, so on the scaled table they make the same decisions as on w,
    in int arithmetic."""
    scale = math.lcm(*(x.denominator for row in w for x in row))
    if scale == 1:
        return w
    return [[int(x * scale) for x in row] for row in w]


def _rotation_table(w: _Table, nxt: list[int]) -> list[list[Weight]]:
    """T with T[x][h] = min of w[x][y] + w[h][nxt y] - w[y][nxt y] over
    every vertex y.

    On a tour where x's successor is h, the rotation (x, y) changes the
    weight by w[x][y] + w[h][hy] - w[y][hy] - w[x][h], with hy the
    successor of y.  So T[x][h] - w[x][h] bounds it from below whenever
    y -> hy is the arc y -> nxt y.  Built with C-level min and map: n^2
    entries of n terms."""
    verts = range(1, len(nxt))
    hs = nxt[1:]
    arcs = [w[y][h] for y, h in zip(verts, hs)]
    cols = [list(map(sub, map(w[h].__getitem__, hs), arcs)) for h in verts]
    return [[]] + [
        [0, *(min(map(add, row, col)) for col in cols)]
        for row in (w[x][1:] for x in verts)
    ]


def _cycle3_open(
    w: _Table,
    succ: list[int],
    arc: list[Weight],
    M: list[list[Weight]],
    rel: list[int],
    a: int,
    b: int,
):
    """The c, in label order, that make (a b c) admissible (rel[b] < rel[c])
    and whose composite _score might find improving: c is left out only
    when the move's delta d0 >= 0 and no first rotation can gain d0.

    The first rotation is at some x in {a, b, c}, whose new successor is
    hx.  If y kept its successor, the rotation's delta is at least
    M[x][hx] - w[x][hx].  If y is moved too, it is evaluated exactly; the
    rotation (x, y) removes and adds the same arcs as (y, x), so each pair
    of moved vertices is one term."""
    rb = rel[b]
    sa, sb = succ[a], succ[b]
    wa, wb, wsb = w[a], w[b], w[sb]
    ma, mb = M[a][sb], M[b]
    a_sb = wa[sb]
    base = a_sb - arc[a] - arc[b]
    for c in range(1, len(succ)):
        if rel[c] <= rb:
            continue
        sc = succ[c]
        b_sc, c_sa = wb[sc], w[c][sa]
        d0 = base + b_sc + c_sa - arc[c]
        # a rotation at x can make the composite negative only if its
        # delta + w[x][hx] is below w[x][hx] - d0
        ta, tb, tc = a_sb - d0, b_sc - d0, c_sa - d0
        if (
            d0 < 0
            or ma < ta
            or mb[sc] < tb
            or M[c][sa] < tc
            or wa[b] + wsb[sc] - b_sc < ta
            or wa[c] + wsb[sa] - c_sa < ta
            or wb[c] + w[sc][sa] - c_sa < tb
        ):
            yield c


def _commit(
    succ: list[int],
    pred: list[int],
    ov: dict[int, int],
    rots: list[tuple[int, int]],
) -> tuple[list[int], list[int]]:
    """New arrays for the tour after the move with overlay ov and then the
    rotations rots; succ and pred are left as they are."""
    s, p = succ[:], pred[:]
    for v, h in ov.items():
        s[v], p[h] = h, v
    for x, y in rots:
        s, p = _rotated_links(s, p, x, y)
    return s, p


def _good_composite(
    w: _Table,
    wi: _Table,
    succ: list[int],
    pred: list[int],
    rng: random.Random,
) -> Optional[tuple[list[int], list[int], Weight]]:
    """One strictly improving composite: an admissible move followed by up
    to one (3-cycle) or two (POTDT) good rotations, committed atomically.
    Returns the new tour's arrays and its weight change.

    3-cycles are scanned in label order, and one is scored only where
    _cycle3_open's lower bound on its delta, computed on wi = _scaled(w),
    is negative.  The skipped ones would be rejected anyway, so the first
    accepted candidate is the one a full scan finds.  Then 4 n^2 random
    POTDTs are drawn, and each interlaced one is scored."""
    n = len(succ) - 1
    verts = range(1, n + 1)
    pos = [0] * (n + 1)
    for i, v in enumerate(_walk(succ)):
        pos[v] = i
    arc = [wi[v][succ[v]] for v in range(n + 1)]
    M = _rotation_table(wi, succ)
    for a in verts:
        pa = pos[a]
        # rel[v]: clockwise distance from a to v; (a b c) is admissible
        # iff 0 < rel[b] < rel[c]
        rel = [(i - pa) % n for i in pos]
        for b in verts:
            if b == a:
                continue
            for c in _cycle3_open(wi, succ, arc, M, rel, a, b):
                ov = {a: succ[b], b: succ[c], c: succ[a]}
                delta, rots = _score(w, wi, succ, pred, ov, {a, b, c}, 1)
                if delta < 0:
                    return (*_commit(succ, pred, ov, rots), delta)
    for _ in range(4 * n * n):
        a, c, b, d = rng.sample(verts, 4)
        # (a c)(b d) is admissible iff the chords [a,c] and [b,d] interlace
        pa = pos[a]
        qc = (pos[c] - pa) % n
        if ((pos[b] - pa) % n < qc) == ((pos[d] - pa) % n < qc):
            continue
        ov = {a: succ[c], c: succ[a], b: succ[d], d: succ[b]}
        delta, rots = _score(w, wi, succ, pred, ov, {a, c, b, d}, 2)
        if delta < 0:
            return (*_commit(succ, pred, ov, rots), delta)
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
    wi = _scaled(w)
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    weight = tour_weight(wm, order)
    trace: list = [("start", None, weight)]
    succ, pred, weight = _rotation_sweep(w, *_links(order), weight, trace)
    for _ in range(budget):
        got = _good_composite(w, wi, succ, pred, rng)
        if got is None:
            break
        succ, pred, delta = got
        weight += delta
        trace.append(("composite", None, weight))
        succ, pred, weight = _rotation_sweep(w, succ, pred, weight, trace)
    # Every accepted step strictly improves, so the best tour is the last.
    # Return its weight as tour_weight sums it: an int whenever every arc
    # weight on the tour is an int, as the running sum need not be.
    tour = _walk(succ)
    final = tour_weight(wm, tour)
    if final != weight:
        raise AssertionError(f"running weight drifted: {weight} != {final}")
    return tour, final, trace
