"""Ground truth at desk scale.

Three independent ways to reason about Hamilton circuits on small hosts,
and the exact optimum of a small weighted tour:

    * brute_force_circuits - exhaustive backtracking (n <= 12), canonicalized.
    * sigma / constructive_step / converge - the constructive distance
      argument: sigma = t^{-1} o target measures how far a tour is from a
      target circuit; each step applies one admissible move built from
      sigma's cycle structure and removes at least two moved points, so a
      complement-start tour (every tour edge outside the host) reaches the
      target without backtracking.  Two n-cycles differ by an even
      permutation, and an even permutation never moves exactly 1 or 2
      points, so once |sigma| <= 4 one move ends it: at most ceil(n/2) - 1
      moves for n >= 3 (_move_bound).
    * enumerate_all - breadth-wise branching on every admissible move whose
      two lead arcs land in the host; the constructive step's moves are
      such moves, so within ceil(n/2) - 1 levels this visits every
      circuit, and must agree with brute force exactly.  States are
      keyed by their arc sets, one int each, and a child's key is its
      parent's with the 6 or 8 changed arcs toggled, so a child already
      seen is never built; a new one is built from list slices of its
      parent: an admissible 3-cycle is a segment exchange, an interlaced
      POTDT a double bridge.  A move replaces at most 4 arcs, so a state
      with more than 4 non-host arcs per level left can reach no circuit
      and is neither built nor branched on; only states with no non-host
      arc are verified as circuits.  The last level keeps only such
      states, so it tries just the moves whose points include the tail of
      every non-host arc and whose created arcs are all host arcs.
    * held_karp - the least tour weight of a symmetric weight matrix by the
      Held-Karp bitmask dynamic program (n <= 13), in exact arithmetic.

The constructive machinery never consults the host to make progress: the
move built from sigma exists for purely cyclic-order reasons, so
converge() needs only a complement start to promise its step bound.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .graphs import AnyGraph
from .tour import Move, Tour

BRUTE_FORCE_CAP = 12
ENUMERATE_CAP = 10
HELD_KARP_CAP = 13


class OracleError(ValueError):
    pass


class RegimeError(OracleError):
    """The starting tour violates the complement-start requirement."""


def _move_bound(n: int) -> int:
    """The most constructive moves between two tours of n >= 3 vertices:
    sigma of two n-cycles is even, each move removes at least 2 of its
    (at most n) moved points, and an even sigma on 3 or 4 points is a
    3-cycle or a POTDT, which one move removes."""
    return math.ceil(n / 2) - 1


# --------------------------------------------------------------------------
# canonical circuit forms
# --------------------------------------------------------------------------


def canonical_circuit(seq: Sequence[int], directed: bool) -> tuple[int, ...]:
    """Least rotation (and, undirected, reflection) starting at vertex 1.

    Undirected, the circuit is read in the direction whose second vertex is
    the smaller, which is the least of the two reflections."""
    seq = tuple(seq)
    i = seq.index(1)
    rot = seq[i:] + seq[:i]
    if directed or len(rot) <= 2 or rot[1] < rot[-1]:
        return rot
    return rot[:1] + rot[:0:-1]


def verify_circuit(g: AnyGraph, seq: Sequence[int]) -> bool:
    """True iff seq is a Hamilton circuit of g (a permutation of 1..n whose
    consecutive pairs, cyclically, are all edges/arcs of g).  An undirected
    circuit needs n >= 3: a single edge run twice is none."""
    if len(seq) != g.n or sorted(seq) != list(range(1, g.n + 1)):
        return False
    if not g.directed and g.n < 3:
        return False
    return all(g.has_arc(seq[i], seq[(i + 1) % g.n]) for i in range(g.n))


def brute_force_circuits(g: AnyGraph) -> list[tuple[int, ...]]:
    """All Hamilton circuits of g, canonicalized and sorted.  n <= 12."""
    if g.n > BRUTE_FORCE_CAP:
        raise OracleError(
            f"brute force is capped at n <= {BRUTE_FORCE_CAP} (got n={g.n}); "
            "use the solver for larger hosts"
        )
    n = g.n
    if n == 1 or (n == 2 and not g.directed):
        return []  # a single edge is not a circuit
    # depth-first over paths from vertex 1: an explicit stack of successor
    # iterators, one per vertex on the path
    succ = g.out_adj if g.directed else g.adj
    found: set[tuple[int, ...]] = set()
    path = [1]
    used = {1}
    stack = [iter(succ[1])]
    while stack:
        for w in stack[-1]:
            if w in used:
                continue
            if len(path) + 1 == n:
                if 1 in succ[w]:
                    found.add(canonical_circuit(path + [w], g.directed))
                continue
            path.append(w)
            used.add(w)
            stack.append(iter(succ[w]))
            break
        else:  # the last path vertex has no successor left: backtrack
            stack.pop()
            used.discard(path.pop())
    return sorted(found)


def held_karp(wm):
    """The least weight of a tour of the tsp.WeightMatrix wm, n <= 13.

    best[S][j] is the least weight of a path from city 0 through the set S
    of other cities (a bitmask over cities 1..n-1) that ends at j in S, so
    the optimum closes best[all][j] with the arc j-0.  O(2^n n^2) steps in
    the weights' own int or Fraction arithmetic."""
    n = wm.n
    if n > HELD_KARP_CAP:
        raise OracleError(f"held_karp is capped at n <= {HELD_KARP_CAP} (got n={n})")
    w = wm.rows
    if n == 1:
        return w[0][0]
    m = n - 1
    best: list[list] = [[None] * m for _ in range(1 << m)]
    for j in range(m):
        best[1 << j][j] = w[0][j + 1]
    for mask, row in enumerate(best):
        for j, cost in enumerate(row):
            if cost is None:
                continue
            wj = w[j + 1]
            for k in range(m):
                if mask >> k & 1:
                    continue
                ext = cost + wj[k + 1]
                nxt = best[mask | 1 << k]
                if nxt[k] is None or ext < nxt[k]:
                    nxt[k] = ext
    return min(cost + w[j + 1][0] for j, cost in enumerate(best[-1]))


# --------------------------------------------------------------------------
# sigma decomposition and the constructive step
# --------------------------------------------------------------------------


@dataclass
class SigmaDecomposition:
    """sigma = t^{-1} o target, so that t o sigma = target pointwise."""

    tour: Tour
    target: tuple[int, ...]
    target_succ: dict[int, int]
    cycles: list[tuple[int, ...]] = field(default_factory=list)
    moved: frozenset[int] = frozenset()

    @property
    def size(self) -> int:
        return len(self.moved)

    def sigma_of(self, v: int) -> int:
        return self.tour.pred(self.target_succ[v])


def sigma(t: Tour, target: Sequence[int]) -> SigmaDecomposition:
    host = t.host
    if not verify_circuit(host, target):
        raise OracleError("target is not a Hamilton circuit of the host")
    target = tuple(target)
    n = host.n
    tsucc = {target[i]: target[(i + 1) % n] for i in range(n)}
    smap = {v: t.pred(tsucc[v]) for v in range(1, n + 1)}
    moved = frozenset(v for v in smap if smap[v] != v)
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for v in sorted(moved):
        if v in seen:
            continue
        cyc = [v]
        seen.add(v)
        w = smap[v]
        while w != v:
            cyc.append(w)
            seen.add(w)
            w = smap[w]
        cycles.append(tuple(cyc))
    return SigmaDecomposition(t, target, tsucc, cycles, moved)


def _residual_ok(sd: SigmaDecomposition, point: int, value: int) -> bool:
    """A residual created arc (point -> value) is regime-preserving if it is
    a target arc or lies outside the host."""
    return sd.target_succ[point] == value or not sd.tour.host.has_arc(point, value)


def constructive_step(sd: SigmaDecomposition) -> Move:
    """One admissible move, built from sigma, that lowers |sigma| by >= 2:
    the first regime-preserving 3-cycle, else the first regime-preserving
    POTDT, else the first 3-cycle, else the first POTDT."""
    if sd.size == 0:
        raise OracleError("sigma is the identity; nothing to do")
    t = sd.tour
    spare: Optional[Move] = None
    for cyc in sd.cycles:
        k = len(cyc)
        if k < 3:
            continue
        for i in range(k):
            a, b, c = cyc[i], cyc[(i + 1) % k], cyc[(i + 2) % k]
            if t.clockwise(a, b, c):
                m = Move.cycle3(a, b, c)
                if _residual_ok(sd, c, t.succ(a)):
                    return m
                spare = spare or m
    arcs = [(v, sd.sigma_of(v)) for cyc in sd.cycles for v in cyc]
    for i, (a, c) in enumerate(arcs):
        for b, d in arcs[i + 1 :]:
            if len({a, b, c, d}) < 4:
                continue
            if t.interlace(a, c, b, d):
                m = Move.potdt(a, c, b, d)
                if _residual_ok(sd, c, t.succ(a)) and _residual_ok(
                    sd, d, t.succ(b)
                ):
                    return m
                spare = spare or m
    if spare is None:
        raise AssertionError(
            "no admissible move found from a nonidentity sigma; "
            "this is unreachable for circuit targets and indicates a bug"
        )
    return spare


def complement_start_tour(
    g: AnyGraph, seed: int, tries: int = 64
) -> Optional[Tour]:
    """A seeded random tour all of whose arcs avoid g, or None if the
    complement of g has no Hamilton circuit."""
    rng = random.Random(seed)
    n = g.n
    verts = list(range(1, n + 1))
    # cheap randomized attempts first
    for _ in range(tries):
        rng.shuffle(verts)
        if all(
            not g.has_arc(verts[i], verts[(i + 1) % n]) for i in range(n)
        ):
            return Tour(g, list(verts))
    # exhaustive backtracking in the complement, in seeded random order;
    # an explicit stack of candidate iterators, one per vertex on the path
    verts.sort()

    def anti_succ(v: int) -> list[int]:
        """The unused w with (v, w) not a host arc, shuffled."""
        cands = [w for w in verts if w not in used and not g.has_arc(v, w)]
        rng.shuffle(cands)
        return cands

    order = [1]
    used = {1}
    stack = [iter(anti_succ(1))]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            if stack:
                used.discard(order.pop())
        elif len(order) + 1 == n:
            if not g.has_arc(w, 1):
                return Tour(g, order + [w])
        else:
            order.append(w)
            used.add(w)
            stack.append(iter(anti_succ(w)))
    return None


def converge(
    g: AnyGraph,
    target: Sequence[int],
    seed: int,
    start: Optional[Sequence[int]] = None,
) -> list[Move]:
    """Moves taking a complement-start tour of g to the target circuit, at
    most ceil(n/2) - 1 of them (_move_bound), each lowering |sigma| by at
    least 2."""
    if not verify_circuit(g, target):
        raise OracleError("target is not a Hamilton circuit of the host")
    n = g.n
    if start is not None:
        t = Tour(g, list(start))
    else:
        t = complement_start_tour(g, seed)
        if t is None:
            raise OracleError(
                "the complement of the host has no Hamilton circuit, so "
                "there is no complement start"
            )
    bad = [v for v in range(1, n + 1) if g.has_arc(v, t.succ(v))]
    if bad:
        raise RegimeError(
            f"start tour shares arcs with the host at {bad[:4]}; "
            "converge needs a start whose every arc avoids the host"
        )
    moves: list[Move] = []
    cap = _move_bound(n)
    sd = sigma(t, target)
    while sd.size:
        if len(moves) == cap:
            raise AssertionError("convergence exceeded its step bound")
        m = constructive_step(sd)
        before = sd.size
        t.apply(m)
        moves.append(m)
        sd = sigma(t, target)
        if sd.size > before - 2:
            raise AssertionError("constructive step failed to drop |sigma| by 2")
    return moves


# --------------------------------------------------------------------------
# breadth-wise enumeration of all circuits
# --------------------------------------------------------------------------


def _arc_bits(n: int, directed: bool) -> list[list[int]]:
    """bit[u][v] = 1 << k: one bit per ordered pair of 1..n for a digraph,
    one per unordered pair (bit[u][v] == bit[v][u]) for a graph."""
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    k = 0
    for u in range(1, n + 1):
        for v in range(1 if directed else u + 1, n + 1):
            if u != v:
                bit[u][v] = 1 << k
                k += 1
                if not directed:
                    bit[v][u] = bit[u][v]
    return bit


def _arc_key(bit: list[list[int]], seq: Sequence[int]) -> int:
    """The arc set of the cyclic sequence seq as one int.  Two Hamilton
    circuits have the same key exactly when canonical_circuit agrees."""
    key = 0
    for u, v in zip(seq, seq[1:] + seq[:1]):
        key |= bit[u][v]
    return key


def _branch(
    order: tuple[int, ...],
    key: int,
    nbrs: list[tuple[int, ...]],
    adj: dict[int, set[int]],
    bit: list[list[int]],
    seen: set[int],
    nh: int,
    cap: int,
) -> list[tuple[tuple[int, ...], int]]:
    """The children of one enumeration state whose arc-set keys are not in
    seen and miss the host in at most cap arcs, as (tour, key) pairs in
    discovery order: 3-cycles, then double bridges.  Each kept key is added
    to seen.  nh is the mask of the non-host arcs, so a key misses the host
    in (key & nh).bit_count() arcs.  enumerate_all calls it with cap > 0
    only; at cap 0 it is the reference _close is tested against.

    A child's key is the parent's with the removed and created arcs toggled
    (3 and 3 for a 3-cycle, 4 and 4 for a double bridge).  Parent and child
    are both n-cycles, so an arc that is removed and created again toggles
    twice and stays.  Only a child that is kept is built.

    A child misses at least the non-host arcs of its parent that the move
    does not remove, so the loops test partial keys too: a lead a is
    skipped when the key without a's tour arc misses more than cap + 3 (a
    move removes at most 3 more arcs), a chord is not recorded when the
    key without its two removed arcs misses more than cap + 2, and no
    3-cycle is tried from it above cap + 1.
    """
    n = len(order)
    dbl = order + order
    pos = [0] * (n + 1)
    outb = [0] * (n + 1)  # outb[v]: the bit of the tour arc leaving v
    for i, v in enumerate(order):
        pos[v] = i
        outb[v] = bit[v][dbl[i + 1]]
    new = []
    chords = {}
    for pa, a in enumerate(order):
        key_a = key ^ outb[a]
        if (key_a & nh).bit_count() > cap + 3:
            continue
        r = dbl[pa : pa + n]  # the tour read from a
        r1 = r[1]
        bit_a = bit[a]
        for x in nbrs[a]:
            qb = (pos[x] - 1 - pa) % n  # b = pred(x), as offset from a
            if not qb:
                continue
            b = r[qb]
            key_ab = key_a ^ outb[b] ^ bit_a[x]
            miss_ab = (key_ab & nh).bit_count()
            if miss_ab > cap + 2:
                continue
            bit_b = bit[b]
            pb = (pa + qb) % n
            # chord -> the parent's key with half a double bridge applied:
            # the arcs leaving a and b swapped for (a, x) and (b, succ(a))
            chords[(pa, pb) if pa < pb else (pb, pa)] = key_ab ^ bit_b[r1]
            if miss_ab > cap + 1:
                continue
            for y in nbrs[b]:
                qc = (pos[y] - 1 - pa) % n  # c = pred(y)
                # a, b, c clockwise; when c -> succ(a) is a host arc too,
                # leads (b, c) and (c, a) find this move as well, so only
                # the one with the least position of its first point
                # keeps it
                if qb < qc:
                    c = r[qc]
                    if pa + qc < n or r1 not in adj[c]:
                        k = key_ab ^ outb[c] ^ bit_b[y] ^ bit[c][r1]
                        if (k & nh).bit_count() <= cap and k not in seen:
                            seen.add(k)
                            new.append(
                                (r[:1] + r[qb + 1 : qc + 1] + r[1 : qb + 1] + r[qc + 1 :], k)
                            )
    chords = sorted(chords.items())
    los = [lo for (lo, _hi), _half in chords]
    for (l1, h1), half in chords:
        key_1 = half ^ key
        # chords properly interlacing (l1, h1): l1 < l2 < h1 < h2
        start2 = bisect_right(los, l1)
        for (l2, h2), half2 in chords[start2 : bisect_left(los, h1, start2)]:
            if h2 > h1:
                k = key_1 ^ half2
                if (k & nh).bit_count() <= cap and k not in seen:
                    seen.add(k)
                    new.append(
                        (
                            order[l1 : l1 + 1]
                            + dbl[h1 + 1 : h2 + 1]
                            + order[l2 + 1 : h1 + 1]
                            + order[l1 + 1 : l2 + 1]
                            + dbl[h2 + 1 : l1 + n],
                            k,
                        )
                    )
    return new


def _close(
    order: tuple[int, ...],
    key: int,
    bit: list[list[int]],
    seen: set[int],
    nh: int,
) -> list[tuple[tuple[int, ...], int]]:
    """The children of one enumeration state that miss the host in no arc,
    without a lead scan: the (tour, key) pairs of _branch(order, key, ...,
    seen, nh, 0), in another order, with the same keys added to seen.

    A child keeps every arc the move does not remove, so a closing move has
    among its points the tail of every non-host arc, T; with |T| > 4 none
    closes.  So only the 3-cycles on positions p < q < r and the double
    bridges on p1 < p2 < p3 < p4 that contain T are tried, and one is kept
    when every arc it creates is a host arc.  A 3-cycle is read from a =
    order[p], the rotation _branch keeps; a double bridge pairs its points
    as the chords (p1, p3) and (p2, p4), the only interlaced pairing.  Its
    lead arcs are host arcs, so _branch finds it too, with the same key
    and slices.
    """
    n = len(order)
    dbl = order + order
    outb = [bit[v][w] for v, w in zip(order, dbl[1:])]
    tails = tuple(i for i, b in enumerate(outb) if b & nh)
    if len(tails) > 4:
        return []
    rest = [i for i, b in enumerate(outb) if not b & nh]
    new = []
    if len(tails) < 4:
        for extra in combinations(rest, 3 - len(tails)):
            p, q, r = sorted(tails + extra)
            a, b, c = order[p], order[q], order[r]
            made = bit[a][dbl[q + 1]] ^ bit[b][dbl[r + 1]] ^ bit[c][dbl[p + 1]]
            if made & nh:
                continue
            k = key ^ outb[p] ^ outb[q] ^ outb[r] ^ made
            if k not in seen:
                seen.add(k)
                child = order[p : p + 1] + order[q + 1 : r + 1] + order[p + 1 : q + 1]
                new.append((child + dbl[r + 1 : p + n], k))
    for extra in combinations(rest, 4 - len(tails)):
        l1, l2, h1, h2 = sorted(tails + extra)
        made = (
            bit[order[l1]][dbl[h1 + 1]] ^ bit[order[h1]][dbl[l1 + 1]]
            ^ bit[order[l2]][dbl[h2 + 1]] ^ bit[order[h2]][dbl[l2 + 1]]
        )
        if made & nh:
            continue
        k = key ^ outb[l1] ^ outb[l2] ^ outb[h1] ^ outb[h2] ^ made
        if k not in seen:
            seen.add(k)
            child = order[l1 : l1 + 1] + dbl[h1 + 1 : h2 + 1] + order[l2 + 1 : h1 + 1]
            new.append((child + order[l1 + 1 : l2 + 1] + dbl[h2 + 1 : l1 + n], k))
    return new


def enumerate_all(
    g: AnyGraph, depth_cap: Optional[int] = None
) -> list[tuple[int, ...]]:
    """All Hamilton circuits of g by breadth-wise branching.

    Start from the identity tour, treat every vertex as movable, branch on
    every admissible 3-cycle/POTDT whose lead created arcs are host arcs,
    and collect circuits within ceil(n/2) - 1 levels (_move_bound): from
    any state the constructive step toward a circuit (in either reading,
    undirected) is such a move and lowers |sigma| by at least 2, and an
    even sigma on at most 4 points takes one move, so every circuit is
    within that many levels.  Must equal brute_force_circuits(g) as a set.

    A lead (a, b) has b = pred(x) for a host arc (a, x).  An admissible
    3-cycle (a b c) exchanges the segments succ(a)..b and succ(b)..c; two
    properly interlaced leads, as chords of tour positions, make a double
    bridge.  Either child is a concatenation of slices of the parent (four
    for a 3-cycle, five for a double bridge), so it is always one cyclic
    order.

    A state is keyed by its arc set (_arc_key), which is exactly its
    circuit up to rotation (and reflection, undirected), and a child's key
    is its parent's with the changed arcs toggled.  So "seen?" is decided
    before a child is built.

    A move removes 3 or 4 arcs, so a state missing the host in k arcs is
    at least ceil(k/4) moves from any circuit.  A child at level d is kept
    only if it misses at most 4 (depth_cap - d) arcs; every descendant of
    a dropped state could be dropped too, so each kept state is first
    found, as before, from a kept parent, and the kept states are exactly
    the unbounded search's states within the bound, at the same levels and
    in the same order.  Only kept states are sliced and branched on; a kept
    state missing no host arc is a circuit candidate, verified and then
    canonicalized.

    On the last level (cap 0) _close replaces _branch: it keeps the same
    children, in another order, from only the moves that remove every
    non-host arc of the parent and create host arcs alone.  That level's
    children are never branched on, so its order does not matter.
    """
    n = g.n
    if n > ENUMERATE_CAP:
        raise OracleError(
            f"enumerate_all is capped at n <= {ENUMERATE_CAP} (got n={g.n})"
        )
    if n < 3:
        return brute_force_circuits(g)
    if depth_cap is None:
        depth_cap = _move_bound(n)
    directed = g.directed
    adj = g.out_adj if directed else g.adj
    nbrs = [()] + [tuple(adj[v]) for v in range(1, n + 1)]
    bit = _arc_bits(n, directed)
    host = 0
    for u in range(1, n + 1):
        for v in adj[u]:
            host |= bit[u][v]
    nh = ~host
    start = tuple(range(1, n + 1))
    key = _arc_key(bit, start)
    seen = {key}
    results: set[tuple[int, ...]] = set()
    if not key & nh and verify_circuit(g, start):
        results.add(canonical_circuit(start, directed))
    frontier = [(start, key)]
    for depth in range(depth_cap):
        cap = 4 * (depth_cap - depth - 1)
        nxt: list[tuple[tuple[int, ...], int]] = []
        for order, key in frontier:
            if cap:
                children = _branch(order, key, nbrs, adj, bit, seen, nh, cap)
            else:
                children = _close(order, key, bit, seen, nh)
            for child, k in children:
                if not k & nh and verify_circuit(g, child):
                    results.add(canonical_circuit(child, directed))
                nxt.append((child, k))
        frontier = nxt
        if not frontier:
            break
    return sorted(results)
