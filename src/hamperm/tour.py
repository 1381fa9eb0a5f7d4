"""Pseudo-Hamilton circuits and the moves that transform them.

A Tour is a cyclic order (an n-cycle) over all vertices of a host graph or
digraph.  Consecutive pairs that are not realized by host edges/arcs are
pseudo-arcs.  The registry keeps one int key per pseudo-arc, unordered on an
undirected host (n >= 3), as a sorted list updated incrementally;
pseudo_vertex(i) decodes the i-th key into its pseudo-arc's initial vertex,
and pseudo_vertices() decodes every key through it.

Moves are admissible permutations: 3-cycles (a b c) and products of two
disjoint transpositions (a c)(b d) ("POTDT").  A move is admissible exactly
when composing it into the n-cycle yields another n-cycle, which is
equivalent to:

    * 3-cycle (a b c): the ordinals of a, b, c occur clockwise on the tour;
    * POTDT (a c)(b d): the chords [a,c] and [b,d] properly interlace.

Composition convention: applying move s to tour h yields h' = h . s, i.e.
h'(x) = h(s(x)).  Concretely a 3-cycle (a b c) rewires

    succ(a) <- succ(b),  succ(b) <- succ(c),  succ(c) <- succ(a)

and a POTDT (a c)(b d) rewires

    succ(a) <- succ(c),  succ(c) <- succ(a),
    succ(b) <- succ(d),  succ(d) <- succ(b).

Rotations (graph mode only) reverse the tour segment between v and w where
[v, w] is a host edge off the tour.

A tour is an array, order, with pos[v] the index of v in it; only
_reverse and _relink rearrange one, for Tour and for tsp.py alike.  A Tour
reads order backward when its bit rev is set.  A rotation reverses the
shorter side of the cycle (at most n/2 positions) and flips rev when that
is the side off its segment, as in Fredman, Johnson, McGeoch & Ostheimer
(J. Algorithms 18, 1995); every read goes through rev, so no result depends
on the side, and order[0] carries no meaning.  A move costs a few C-level
list slices.  Either does O(1) host lookups and registry updates: a
reversed edge keeps its unordered key, so only the 3-4 arcs a move creates,
or the 2 arcs a rotation creates, are tested against the host.

An Abbreviation is the paper's notation for a tour: the runs of base-tour
ordinals it traverses, "a … b" ascending and "a --- b" descending.  It is a
view of a Tour, moved by the same apply and rotate, and serves the goldens
and rendering.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Sequence

from .graphs import AnyGraph


class InadmissibleMove(ValueError):
    pass


class UnsupportedOperation(RuntimeError):
    pass


_ARITY = {"cycle3": 3, "potdt": 4}


@dataclass(frozen=True)
class Move:
    """A 3-cycle (a b c) or a POTDT (a c)(b d).

    For kind "cycle3", verts = (a, b, c).
    For kind "potdt", verts = (a, c, b, d), meaning the product (a c)(b d).
    """

    kind: str  # "cycle3" | "potdt"
    verts: tuple[int, ...]

    def __post_init__(self) -> None:
        # a repeated vertex is no 3-cycle or POTDT, and Tour.apply would
        # never finish walking its chunks
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown move kind {self.kind!r}")
        if len(self.verts) != arity:
            raise ValueError(f"a {self.kind} move has {arity} vertices")
        if len(set(self.verts)) != arity:
            name = "3-cycle" if arity == 3 else "POTDT"
            raise ValueError(f"{name} vertices must be distinct")

    @staticmethod
    def cycle3(a: int, b: int, c: int) -> "Move":
        return Move("cycle3", (a, b, c))

    @staticmethod
    def potdt(a: int, c: int, b: int, d: int) -> "Move":
        return Move("potdt", (a, c, b, d))

    def perm(self) -> dict[int, int]:
        """The move as a permutation (only moved points)."""
        if self.kind == "cycle3":
            a, b, c = self.verts
            return {a: b, b: c, c: a}
        a, c, b, d = self.verts
        return {a: c, c: a, b: d, d: b}

    def inverse(self) -> "Move":
        if self.kind == "cycle3":
            a, b, c = self.verts
            return Move("cycle3", (a, c, b))
        return self  # a POTDT is its own inverse

    def canonical_key(self):
        """Equality key identifying a move with its cyclic/pair rewritings."""
        if self.kind == "cycle3":
            a, b, c = self.verts
            rots = [(a, b, c), (b, c, a), (c, a, b)]
            return ("cycle3", min(rots))
        a, c, b, d = self.verts
        p1 = (a, c) if a < c else (c, a)
        p2 = (b, d) if b < d else (d, b)
        return ("potdt", min(p1, p2), max(p1, p2))

    def __str__(self) -> str:
        if self.kind == "cycle3":
            return "(%d %d %d)" % self.verts
        a, c, b, d = self.verts
        return "(%d %d)(%d %d)" % (a, c, b, d)


class Tour:
    """A pseudo-Hamilton circuit over a host graph/digraph, read along
    order, or against it when rev is set (never on a digraph).

    pseudo_keys holds one int per pseudo-arc (u, v), in increasing order:
    min(u,v)*(n+1) + max(u,v) on an undirected host with n >= 3, where the
    n tour edges are n distinct pairs, and the ordered u*(n+1) + v on a
    digraph or for n <= 2 (the 2-cycle 1, 2 runs the pair {1, 2} twice).
    The order depends only on the current pseudo-arcs, not on the moves
    that made them.
    """

    def __init__(self, host: AnyGraph, order: Sequence[int]):
        if sorted(order) != list(range(1, host.n + 1)):
            raise ValueError("order must be a permutation of 1..n")
        self.host = host
        self.order: list[int] = list(order)
        self.pos: list[int] = _positions(self.order)
        self.rev = False
        self._base = host.n + 1
        self._unordered = not host.directed and host.n >= 3
        self.pseudo_keys: list[int] = self._count_pseudo_keys()

    # ---------- basic accessors ----------

    @property
    def n(self) -> int:
        return len(self.order)

    def succ(self, v: int) -> int:
        i = self.pos[v]
        return self.order[i - 1 if self.rev else i + 1 - len(self.order)]

    def pred(self, v: int) -> int:
        i = self.pos[v]
        return self.order[i + 1 - len(self.order) if self.rev else i - 1]

    def sequence(self) -> list[int]:
        """The tour as a list starting at order[0]."""
        return self.sequence_from(self.order[0])

    def sequence_from(self, v: int) -> list[int]:
        """The tour as a list starting at vertex v."""
        order, i = self.order, self.pos[v]
        if self.rev:
            return order[i::-1] + order[:i:-1]
        return order[i:] + order[:i]

    def copy(self) -> "Tour":
        t = Tour.__new__(Tour)
        t.host = self.host
        t.order = list(self.order)
        t.pos = list(self.pos)
        t.rev = self.rev
        t._base = self._base
        t._unordered = self._unordered
        t.pseudo_keys = list(self.pseudo_keys)
        return t

    # ---------- pseudo registry ----------

    def _key(self, u: int, v: int) -> int:
        if self._unordered and v < u:
            return v * self._base + u
        return u * self._base + v

    def _count_pseudo_keys(self) -> list[int]:
        """The registry recounted from the host, one lookup per tour arc."""
        order = self.order
        host = self.host
        adj = host.out_adj if host.directed else host.adj
        key = self._key
        return sorted(
            key(u, v)
            for u, v in zip(order, order[1:] + order[:1])
            if v not in adj[u]
        )

    def pseudo_index(self, v: int) -> int:
        """The index of v's pseudo-arc key in pseudo_keys, or
        len(pseudo_keys) when v is no pseudo-arc vertex."""
        return _index(self.pseudo_keys, self._key(v, self.succ(v)))

    def pseudo_vertex(self, i: int) -> int:
        """The initial vertex of the pseudo-arc keyed pseudo_keys[i]."""
        u, v = divmod(self.pseudo_keys[i], self._base)
        if self._unordered and self.succ(u) != v:
            return v
        return u

    def pseudo_vertices(self) -> set[int]:
        """Initial vertices of the current pseudo-arcs (built on each call)."""
        return {self.pseudo_vertex(i) for i in range(len(self.pseudo_keys))}

    def pseudo_arcs(self) -> set[tuple[int, int]]:
        return {(v, self.succ(v)) for v in self.pseudo_vertices()}

    def is_circuit(self) -> bool:
        return not self.pseudo_keys

    # ---------- cyclic order predicates ----------

    def clockwise(self, a: int, b: int, c: int) -> bool:
        """True iff a, b, c occur in clockwise cyclic order on the tour."""
        if self.rev:
            b, c = c, b
        n = len(self.order)
        pa = self.pos[a]
        return (self.pos[b] - pa) % n < (self.pos[c] - pa) % n

    def interlace(self, a: int, c: int, b: int, d: int) -> bool:
        """True iff chords [a,c] and [b,d] properly interlace on the circle."""
        n = len(self.order)
        pa = self.pos[a]
        qc = (self.pos[c] - pa) % n
        qb = (self.pos[b] - pa) % n
        qd = (self.pos[d] - pa) % n
        return (qb < qc) != (qd < qc)

    # ---------- move application ----------

    def admissible(self, m: Move) -> bool:
        if m.kind == "cycle3":
            a, b, c = m.verts
            return self.clockwise(a, b, c)
        a, c, b, d = m.verts
        return self.interlace(a, c, b, d)

    def apply(self, m: Move) -> "Tour":
        """Apply an admissible move in place; returns self.

        Cutting the cycle between each moved vertex v and its successor,
        at cut pos[v] - rev, leaves chunks that the move only relinks.
        Only the moved vertices' arcs change, so the registry drops their
        old keys and adds the new arcs that are off the host.
        """
        if not self.admissible(m):
            raise InadmissibleMove(f"move {m} is not admissible on this tour")
        order, pos, rev = self.order, self.pos, self.rev
        f = -1 if rev else 1 - len(order)
        key = self._key
        keys = self.pseudo_keys
        for u in m.verts:
            _discard(keys, key(u, order[pos[u] + f]))
        _relink(order, pos, sorted(pos[v] - rev for v in m.verts))
        has_arc = self.host.has_arc
        for u in m.verts:
            v = order[pos[u] + f]
            if not has_arc(u, v):
                insort(keys, key(u, v))
        return self

    # ---------- rotation (graph mode) ----------

    def rotate(self, v: int, w: int) -> "Tour":
        """Reverse the segment succ(v)..w so the tour reads v, w, ..., succ(v).

        Requires [v, w] to be a host edge not on the tour; graph mode only.
        A reversed edge keeps its unordered key, so only the keys of the
        removed arcs (v, succ(v)) and (w, succ(w)) and of the new arc
        (succ(v), succ(w)) change.  When _reverse takes the side off the
        segment, order reads the new cycle backward, so rev flips.
        """
        host = self.host
        if host.directed:
            raise UnsupportedOperation("rotations are undefined for digraphs")
        order, pos = self.order, self.pos
        n = len(order)
        i, j = pos[v], pos[w]
        if (j - i) % n in (0, 1, n - 1):
            raise ValueError("rotation endpoints must be nonadjacent on the tour")
        if not host.has_arc(v, w):
            raise ValueError(f"[{v},{w}] is not a host edge")
        f = -1 if self.rev else 1 - n
        hv, hw = order[i + f], order[j + f]
        key = self._key
        keys = self.pseudo_keys
        _discard(keys, key(v, hv))
        _discard(keys, key(w, hw))
        if not host.has_arc(hv, hw):
            insort(keys, key(hv, hw))
        # the segment's positions, from after i to j in the tour's direction
        lo, hi = (j, i - 1) if self.rev else (i + 1, j)
        self.rev ^= _reverse(order, pos, lo % n, hi % n)
        return self

    # ---------- integrity / serialization ----------

    def check_invariants(self) -> None:
        """Raise AssertionError unless order, pos and the pseudo registry
        agree with each other and with the host (checks under python -O)."""
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise AssertionError("order is not a permutation of 1..n")
        pos = self.pos
        if len(pos) != n + 1 or any(pos[v] != i for i, v in enumerate(self.order)):
            raise AssertionError("pos does not match order")
        if self.rev and self.host.directed:
            raise AssertionError("a digraph tour is read backward")
        keys = self.pseudo_keys
        if any(k >= later for k, later in zip(keys, keys[1:])):
            raise AssertionError(
                f"pseudo keys {keys} are not strictly increasing"
            )
        fresh = self._count_pseudo_keys()
        if keys != fresh:
            raise AssertionError(f"pseudo registry {keys} != recount {fresh}")
        vertices = self.pseudo_vertices()
        if len(keys) != len(vertices):
            raise AssertionError(
                f"{len(keys)} pseudo keys for {len(vertices)} pseudo-arc vertices"
            )
        has_arc, succ = self.host.has_arc, self.succ
        if vertices != {v for v in self.order if not has_arc(v, succ(v))}:
            raise AssertionError("pseudo_vertices() decodes the wrong endpoints")


def _index(keys: list[int], k: int) -> int:
    """The index of k in the sorted list keys, or len(keys) if absent."""
    i = bisect_left(keys, k)
    return i if i < len(keys) and keys[i] == k else len(keys)


def _discard(keys: list[int], k: int) -> None:
    """Remove k from the sorted list keys if it is there."""
    i = _index(keys, k)
    del keys[i : i + 1]


# ---------- the array primitives ----------


def _positions(order: list[int]) -> list[int]:
    """pos[v]: the index of v in order, a permutation of 1..n."""
    pos = [0] * (len(order) + 1)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def _reverse(order: list[int], pos: list[int], i: int, j: int) -> bool:
    """Reverse the run at the cyclic positions i..j of order (past its end
    when j < i) or, when that run is more than half of order, the run at
    all other positions; pos follows.  Either gives the same cycle, which
    order reads backward after the second.  Returns whether it took the
    other run."""
    n = len(order)
    flip = 2 * ((j - i) % n + 1) > n
    if flip:
        i, j = (j + 1) % n, (i - 1) % n
    if i <= j:
        run = order[i : j + 1]
        run.reverse()
        order[i : j + 1] = run
        for k, v in enumerate(run, i):
            pos[v] = k
        return flip
    run = order[i:] + order[: j + 1]
    run.reverse()
    head, tail = run[: n - i], run[n - i :]
    order[i:], order[: j + 1] = head, tail
    for k, v in enumerate(head, i):
        pos[v] = k
    for k, v in enumerate(tail):
        pos[v] = k
    return flip


def _relink(order: list[int], pos: list[int], cuts: Sequence[int]) -> None:
    """Relink the chunks of order between sorted cuts, reversing none; pos
    follows.  Cut c lies between positions c and c + 1 (-1 <= c < n).  Cuts
    p < q < r exchange the chunks p+1..q and q+1..r; cuts p < q < r < s put
    p+1..q, q+1..r and r+1..s in reverse order (a double bridge).  No other
    position changes."""
    p, q, r, *rest = cuts
    last = rest[0] if rest else r
    middle = order[q + 1 : r + 1] + order[p + 1 : q + 1]
    if rest:
        middle = order[r + 1 : last + 1] + middle
    order[p + 1 : last + 1] = middle
    for k, v in enumerate(middle, p + 1):
        pos[v] = k


# ---------- abbreviations ----------


class Abbreviation:
    """The paper's run notation for a tour, read off a Tour.

    The base tour's sequence fixes the ordinals (base_order[i] has ordinal
    i + 1).  Moves and rotations go to a copy of the base through
    Tour.apply and Tour.rotate, with their checks; the ordinal sequence is
    that tour read from the base's first vertex, and runs are its maximal
    ascending or descending stretches.  A run (a, b) denotes the ordinals
    a..b, ascending when a <= b and descending (the "---" / minus-sign
    convention) when a > b.
    """

    def __init__(self, base: Tour):
        self.base_order = base.sequence()
        self.base_ord = {v: i + 1 for i, v in enumerate(self.base_order)}
        self.tour = base.copy()
        self.move_count = 0

    def ordinal_sequence(self) -> list[int]:
        ords = self.base_ord
        return [ords[v] for v in self.tour.sequence_from(self.base_order[0])]

    @property
    def runs(self) -> list[tuple[int, int]]:
        runs: list[tuple[int, int]] = []
        seq = self.ordinal_sequence()
        start = prev = seq[0]
        step = 0  # +1 or -1 once the current run has two ordinals
        for o in seq[1:]:
            if abs(o - prev) == 1 and step in (0, o - prev):
                step = o - prev
            else:
                runs.append((start, prev))
                start, step = o, 0
            prev = o
        runs.append((start, prev))
        return runs

    def materialize(self) -> Tour:
        return Tour(self.tour.host, self.tour.sequence_from(self.base_order[0]))

    def apply_move(self, m: Move) -> None:
        self.tour.apply(m)
        self.move_count += 1

    def rotate(self, v: int, w: int) -> None:
        self.tour.rotate(v, w)
        self.move_count += 1

    def render(self) -> str:
        """Sparse printed form: ascending runs as 'a … b', descending runs as
        'a --- b' (2-element runs printed in full)."""
        parts: list[str] = []
        for a, b in self.runs:
            if a == b:
                parts.append(str(a))
            elif abs(b - a) == 1:
                parts.extend([str(a), str(b)])
            elif b > a:
                parts.extend([str(a), "…", str(b)])
            else:
                parts.extend([str(a), "---", str(b)])
        return " ".join(parts)
