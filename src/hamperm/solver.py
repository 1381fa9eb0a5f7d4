"""Randomized Hamilton-circuit search for graphs and digraphs.

The solver keeps a pseudo-Hamilton tour of the host and step by step turns
pseudo-arcs (tour arcs absent from the host) into host arcs.  The
search may start from any n-cycle.  On a graph it starts from a greedy
randomized path cover (_start_order): runs of host arcs, each extended to
the unvisited out-neighbour with the fewest unvisited out-neighbours left
(Warnsdorff's rule, seeded tie picks), and a jump to the next unvisited
vertex of a seeded shuffle when a run is stuck.  On a digraph it starts
from a seeded cycle factor (_factor_order): a maximum matching of
out-copies to in-copies (_max_matching, Hopcroft-Karp), whose arcs form
vertex-disjoint cycles and paths, each cycle cut at a seeded point and the
pieces joined in a seeded order.  Either start's pseudo-arcs are only its
joins, so on sparse random hosts a search begins with a few pseudo-arcs
instead of about n.  Each iteration then:

    * sample a few host edges at a pseudo-arc vertex and at its successor,
    * build candidate 3-cycle and pair-of-transposition moves from them,
    * keep only admissible candidates that create at most one new pseudo-arc
      (so |PSEUDO| never increases),
    * drop the candidate that undoes the last applied move,
    * apply the best candidate by DIFF (host arcs created minus pseudo-arc
      vertices consumed), ties broken by seeded random choice; with none
      left, digraph mode (where rotations are unavailable) escapes the dead
      end by popping the inverse of the last move off its BACKTRACK stack
      and applying it,
    * graph mode ends every iteration with one pseudo-anchored rotation
      (also monotone in |PSEUDO|).

An iteration's Python-level work is bounded by the sampled candidates.  A
vertex v is a pseudo-arc vertex when its tour successor is not in its host
neighbour set, a test on the tour's order/pos lists; the tour's registry
itself holds pseudo-arc keys in a sorted list, so its size is |PSEUDO|.
Pseudo-arc vertices (the anchor, the POTDT partner, the rotation's pivot)
are drawn as uniform indices into the key list, decoding only the keys
drawn.  Each sample of host edges is one uniform ordered subset drawn with
a single getrandbits (_sample).  Each candidate is a (key, vertices, DIFF)
tuple scored from tour positions and the 3-4 arcs it creates; once test_cap
candidates are scored the iteration draws and scores nothing more, and only
the applied one becomes a Move.  The search reads the host's own neighbour
sets and builds no copy of them: a draw sorts just the pool it draws from,
so no draw depends on the order a set iterates in.  A move costs a few
C-level list slices on the array Tour, a rotation the reversal of the
shorter side of the tour, each plus O(1) host lookups and O(log |PSEUDO|)
registry updates.  The inline reads of order and pos go through the tour's
bit rev, as Tour's own do.

Degree-2 chains are reduced first: the search runs on contract(g).reduced,
the host minus the edges no circuit can use, under the host's own labels,
so a circuit found there is a host circuit as it stands; it is still
re-verified on the original host.  Degree certificates (a vertex with
fewer than 2 usable edges, or no usable in- or out-arc) come from that
reduction.  solve_graph and solve_digraph check only n >= 3 and (strong)
connectivity themselves.  The caps and the iteration budget depend on n
alone, and on whether the search is thorough (_schedule).  Everything is
deterministic per (input, params).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .contract import ContractError, contract
from .graphs import AnyGraph, Digraph, Graph, is_connected, is_strongly_connected
from .oracle import verify_circuit
from .tour import Move, Tour


@dataclass
class SolveParams:
    """The solve's seed, and whether to search thoroughly: an iteration
    budget of 12*n^3*ceil(ln n) instead of 4*n*ceil(ln n) (_schedule)."""

    thorough: bool = False
    seed: int = 0


def _schedule(n: int, thorough: bool) -> tuple[int, int, int]:
    """(edge_cap, test_cap, budget) of a search on n vertices: samples of
    ceil(ln n) host edges, at most 2*ceil(ln n)^2 scored candidates per
    iteration, and 4*n*ceil(ln n) iterations (12*n^3*ceil(ln n) when
    thorough)."""
    ln = math.ceil(math.log(max(2, n)))
    return ln, 2 * ln * ln, (12 * n**3 if thorough else 4 * n) * ln


@dataclass
class SolveReport:
    """The result of one solve and the counts of its search.

    iterations: search steps taken (at most the budget; digraph restarts
    are not steps).  successes: steps that applied a candidate move.
    failures: steps that applied no candidate, because none was found or
    each one found undoes the last move; so iterations == successes +
    failures.
    backtracks: digraph failures that popped the BACKTRACK stack and
    applied the inverse of the last move (always 0 on a graph, at most
    failures on a digraph).  restarts: digraph stalls that replaced the
    tour by a new start (always 0 on a graph).  final_pseudo: |PSEUDO| at
    the end;
    pseudo_trajectory: |PSEUDO| after each step.  detail: why the solve
    stopped early or was refused, if it was.
    """

    outcome: str  # "circuit" | "timeout" | "infeasible-precondition"
    circuit: Optional[list[int]] = None
    iterations: int = 0
    successes: int = 0
    failures: int = 0
    backtracks: int = 0
    restarts: int = 0
    final_pseudo: int = 0
    pseudo_trajectory: list[int] = field(default_factory=list)
    detail: str = ""


# --------------------------------------------------------------------------
# core loop
# --------------------------------------------------------------------------


def _cycle3(order, pos, rev, adj, a, b, c):
    """The candidate (key, (a, b, c), DIFF) of the 3-cycle (a b c), or None
    unless it is admissible (a, b, c clockwise) and passes the pseudo filter
    (at most one of its created arcs a -> succ(b), b -> succ(c),
    c -> succ(a) is off the host).  key equals the Move's canonical_key();
    a vertex v counts as a pseudo-arc vertex when succ(v) is not in adj[v];
    order, pos and rev are the tour's."""
    n = len(order)
    pa, pb, pc = pos[a], pos[b], pos[c]
    # clockwise on the array, which is the tour's direction unless rev
    if ((pb - pa) % n < (pc - pa) % n) == rev:
        return None
    f = -1 if rev else 1 - n
    sa, sb, sc = order[pa + f], order[pb + f], order[pc + f]
    host = (sb in adj[a]) + (sc in adj[b]) + (sa in adj[c])
    if host < 2:
        return None
    diff = host - (sa in adj[a]) - (sb in adj[b]) - (sc in adj[c])
    if a < b and a < c:
        key = (a, b, c)
    elif b < c:
        key = (b, c, a)
    else:
        key = (c, a, b)
    return ("cycle3", key), (a, b, c), diff


def _potdt(order, pos, rev, adj, a, c, b, d):
    """The candidate (key, (a, c, b, d), DIFF) of the POTDT (a c)(b d), or
    None unless it is admissible (chords [a,c] and [b,d] interlace) and
    passes the pseudo filter (at most one of a -> succ(c), c -> succ(a),
    b -> succ(d), d -> succ(b) is off the host).  key equals the Move's
    canonical_key(); pseudo-arc vertices are tested as in _cycle3."""
    n = len(order)
    pa, pc, pb, pd = pos[a], pos[c], pos[b], pos[d]
    qc = (pc - pa) % n  # interlacing holds in either direction
    if ((pb - pa) % n < qc) == ((pd - pa) % n < qc):
        return None
    f = -1 if rev else 1 - n
    sa, sc = order[pa + f], order[pc + f]
    sb, sd = order[pb + f], order[pd + f]
    host = (sc in adj[a]) + (sa in adj[c]) + (sd in adj[b]) + (sb in adj[d])
    if host < 3:
        return None
    diff = host - (
        (sa in adj[a]) + (sc in adj[c]) + (sb in adj[b]) + (sd in adj[d])
    )
    p1 = (a, c) if a < c else (c, a)
    p2 = (b, d) if b < d else (d, b)
    key = ("potdt", p1, p2) if p1 < p2 else ("potdt", p2, p1)
    return key, (a, c, b, d), diff


def _candidates(
    t: Tour,
    a: int,
    adj: dict,
    inn: dict,
    rng: random.Random,
    k: int,
    cap: int,
) -> list[tuple]:
    """Admissible, filter-passing candidates (key, verts, DIFF) anchored at
    pseudo-arc vertex a, built from sampled host edges (adj and inn map a
    vertex to its host out- and in-neighbour sets, both adj on a graph); of
    candidates with equal keys the first is kept.

    Each pool of host edges yields an ordered sample of up to k (_sample).
    The cap-th scored candidate ends the call: no later pool is sampled and
    no POTDT partner is drawn.  Draws before the stop give the same
    candidates as they would without it; only draws that no candidate
    reads are skipped.
    """
    order, pos, rev = t.order, t.pos, t.rev
    n = len(order)
    # the index offsets of a vertex's successor and predecessor in order
    fs, fp = (-1, 1 - n) if rev else (1 - n, -1)
    ha = order[pos[a] + fs]
    tests = 0
    found: dict = {}
    # splice points b: the created arc (a, x) is a host arc by construction
    bs: list[int] = []
    for x in _sample(rng, adj[a] - {ha, a}, k):
        b = order[pos[x] + fp]
        if b != a:
            bs.append(b)
    for b in bs:
        # second edge at b: 3-cycle (a b c) also creates host arc (b, y)
        for y in _sample(rng, adj[b] - {a, b}, k):
            c = order[pos[y] + fp]
            if c != a and c != b:
                cand = _cycle3(order, pos, rev, adj, a, b, c)
                if cand is not None:
                    found.setdefault(cand[0], cand)
                tests += 1
                if tests == cap:
                    return list(found.values())
        # second edge into succ(a): 3-cycle (a b y) creates host arc (y, ha)
        for y in _sample(rng, inn[ha] - {a, b, ha}, k):
            cand = _cycle3(order, pos, rev, adj, a, b, y)
            if cand is not None:
                found.setdefault(cand[0], cand)
            tests += 1
            if tests == cap:
                return list(found.values())
    # POTDTs seeded from a second pseudo-arc vertex
    if len(t.pseudo_keys) > 1 and bs:
        v2 = _draw_pseudo(t, rng, a)
        s2 = order[pos[v2] + fs]
        for w in _sample(rng, adj[v2] - {s2, v2}, k):
            d = order[pos[w] + fp]
            for b in bs:
                if b != v2 and d != a and d != b and d != v2:
                    cand = _potdt(order, pos, rev, adj, a, b, v2, d)
                    if cand is not None:
                        found.setdefault(cand[0], cand)
                    tests += 1
                    if tests == cap:
                        return list(found.values())
    return list(found.values())


def _sample(rng: random.Random, pool: Iterable[int], k: int) -> list[int]:
    """A uniform ordered k-subset of sorted(pool), k = min(k, m) for the m
    items of pool.

    pool may be any iterable; the draw indexes its sorted copy, so the
    sample does not depend on the order pool iterates in.  One integer
    r < P = m(m-1)...(m-k+1) is drawn with getrandbits((P - 1).bit_length())
    and redrawn while r >= P (fewer than 2 draws expected); its mixed-radix
    digits pick the swaps of a partial Fisher-Yates shuffle on that copy.
    Digit tuples and ordered k-subsets are in bijection, so every ordered
    k-subset has probability 1/P.
    """
    out = sorted(pool)
    m = len(out)
    k = min(k, m)
    if not k:
        return []
    p = math.perm(m, k)
    bits = (p - 1).bit_length()
    r = rng.getrandbits(bits)
    while r >= p:
        r = rng.getrandbits(bits)
    for i in range(k):
        r, j = divmod(r, m - i)
        j += i
        out[i], out[j] = out[j], out[i]
    del out[k:]
    return out


def _draw_pseudo(t: Tour, rng: random.Random, exclude: int = 0) -> int:
    """A pseudo-arc vertex other than exclude, uniformly at random: one
    uniform index into the tour's sorted pseudo-arc keys that steps over
    exclude's own key, decoded into its arc's initial vertex (each
    pseudo-arc has one).  Raises ValueError when no such vertex exists.
    """
    size = len(t.pseudo_keys)
    skip = t.pseudo_index(exclude) if exclude else size
    i = rng.randrange(size - (skip < size))
    return t.pseudo_vertex(i + (i >= skip))


def _pick_rotation(
    t: Tour, adj: dict, rng: random.Random
) -> Optional[tuple[int, int]]:
    """A rotation (v, w) anchored at a pseudo-arc vertex v along an off-tour
    host edge [v, w]; such a rotation never increases |PSEUDO|.

    v is the first vertex with such an edge in a seeded Fisher-Yates order
    of the pseudo-arc keys, decoded one at a time, so v is uniform over the
    vertices that have one (None if none has).  w is uniform over v's
    off-tour host neighbours (adj holds the host's neighbour sets), one
    seeded pick from their sorted list.
    """
    size = len(t.pseudo_keys)
    perm = list(range(size))
    for i in range(size):
        j = rng.randrange(i, size)
        perm[i], perm[j] = perm[j], perm[i]
        v = t.pseudo_vertex(perm[i])
        ws = adj[v] - {v, t.succ(v), t.pred(v)}
        if ws:
            return v, rng.choice(sorted(ws))
    return None


def _solve_core(h: AnyGraph, p: SolveParams) -> SolveReport:
    n = h.n
    edge_cap, test_cap, budget = _schedule(n, p.thorough)
    rng = random.Random(p.seed)
    adj = h.out_adj if h.directed else h.adj
    inn = h.in_adj if h.directed else adj
    if h.directed:
        t = Tour(h, _factor_order(adj, rng))
    else:
        t = Tour(h, _start_order(adj, rng))
    # inverses of the applied moves, the last on top: digraph mode pops them
    # to backtrack; graph mode keeps only the last, the one candidates are
    # filtered against
    undo: list[Move] = []
    rep = SolveReport("timeout")
    # digraph mode has no rotations, so a bad start can oscillate; restart
    # from a new cycle factor (the rng has moved on, so its matching, cuts
    # and join order differ) when |PSEUDO| stops improving
    best_pseudo = n + 1
    since_improve = 0
    stall_limit = max(30, 2 * n)
    while rep.iterations < budget:
        if not t.pseudo_keys:
            break
        if h.directed and since_improve >= stall_limit:
            t = Tour(h, _factor_order(adj, rng))
            rep.restarts += 1
            undo.clear()
            best_pseudo = n + 1
            since_improve = 0
            continue
        rep.iterations += 1
        before = len(t.pseudo_keys)
        a = _draw_pseudo(t, rng)
        cands = _candidates(t, a, adj, inn, rng, edge_cap, test_cap)
        if undo:
            recent = undo[-1].canonical_key()
            cands = [cand for cand in cands if cand[0] != recent]
        if cands:
            jitter = [rng.random() for _ in cands]
            best = max(range(len(cands)), key=lambda i: (cands[i][2], jitter[i]))
            key, verts, _diff = cands[best]
            move = Move(key[0], verts)
            t.apply(move)
            if not h.directed:
                undo.clear()
            undo.append(move.inverse())
            rep.successes += 1
        else:
            rep.failures += 1
            if h.directed and undo:
                t.apply(undo.pop())
                rep.backtracks += 1
        if not h.directed:
            rot = _pick_rotation(t, adj, rng)
            if rot is not None:
                t.rotate(*rot)
            elif not cands:
                rep.detail = "stuck: no off-tour host edge at any pseudo-arc vertex"
                rep.pseudo_trajectory.append(len(t.pseudo_keys))
                break
            after = len(t.pseudo_keys)
            if after > before:
                raise AssertionError(
                    f"pseudo count increased in graph mode: {before} -> {after}"
                )
        cur = len(t.pseudo_keys)
        if cur < best_pseudo:
            best_pseudo = cur
            since_improve = 0
        else:
            since_improve += 1
        rep.pseudo_trajectory.append(cur)
    rep.final_pseudo = len(t.pseudo_keys)
    if rep.final_pseudo == 0:
        rep.outcome = "circuit"
        rep.circuit = t.sequence_from(1)
    return rep


def _start_order(adj: dict, rng: random.Random) -> list[int]:
    """A start tour that is a greedy randomized path cover of the graph on
    1..n whose neighbour sets are adj, in O(n + m).

    The tour is built as runs of host edges.  A run steps from its last
    vertex v to an unvisited neighbour with the fewest unvisited
    neighbours left (Warnsdorff's rule), ties broken by one seeded pick
    from the sorted list of the tied vertices.  When v has no unvisited
    neighbour, the next run starts at the next unvisited vertex of one
    seeded shuffle of 1..n; the shuffle's first vertex starts the first
    run.  Visiting v lowers the count of each of its neighbours.  The runs
    in turn are the tour, so its pseudo-arcs are at most the jumps between
    runs and the closing arc.
    """
    n = len(adj)
    jumps = list(range(1, n + 1))
    rng.shuffle(jumps)
    left = [0] + [len(adj[v]) for v in range(1, n + 1)]
    seen = bytearray(n + 1)
    order: list[int] = []
    for first in jumps:
        v = first
        while not seen[v]:
            seen[v] = 1
            order.append(v)
            for u in adj[v]:
                left[u] -= 1
            free = [w for w in adj[v] if not seen[w]]
            if not free:
                break
            if len(free) > 1:
                low = min([left[w] for w in free])
                free = [w for w in free if left[w] == low]
            v = free[0] if len(free) == 1 else rng.choice(sorted(free))
    return order


def _max_matching(adj: dict, rng: random.Random) -> list[int]:
    """A maximum matching of out-copies to in-copies of the digraph on 1..n
    whose out-neighbour sets are adj, as a successor list: succ[u] = v for
    each matched arc (u, v), 0 for an unmatched out-copy (succ[0] is 0).

    Hopcroft-Karp, iterative, in O(m sqrt(n)).  Each phase layers the
    out-copies by a breadth-first search from the free ones, up to the
    first layer with an arc to a free in-copy, then augments along
    alternating paths that climb those layers one at a time to a free
    in-copy, found by depth-first search with a saved next-arc index per
    out-copy; an out-copy whose arcs run out is dropped for the phase.  The
    search ends when a phase finds no free in-copy.  Each neighbour list is
    sorted, then shuffled by rng (in vertex order), so the matching is
    seeded and does not depend on the order a set iterates in.
    """
    n = len(adj)
    nbrs: list[list[int]] = [[]]
    for u in range(1, n + 1):
        lst = sorted(adj[u])
        rng.shuffle(lst)
        nbrs.append(lst)
    succ = [0] * (n + 1)
    pred = [0] * (n + 1)
    while True:
        free = [u for u in range(1, n + 1) if not succ[u]]
        dist = [-1] * (n + 1)
        for u in free:
            dist[u] = 0
        limit = n  # the layer whose out-copies reach a free in-copy
        queue = list(free)
        for u in queue:
            d = dist[u]
            if d >= limit:
                break
            for v in nbrs[u]:
                w = pred[v]
                if not w:
                    limit = d
                elif dist[w] < 0:
                    dist[w] = d + 1
                    queue.append(w)
        if limit == n:
            return succ
        nxt = [0] * (n + 1)
        for root in free:
            stack = [root]
            while stack:
                u = stack[-1]
                lst, i, d = nbrs[u], nxt[u], dist[u]
                step = 0
                while i < len(lst):
                    w = pred[lst[i]]
                    i += 1
                    if not w:
                        if d == limit:
                            step = -1
                            break
                    elif d < limit and dist[w] == d + 1:
                        step = w
                        break
                nxt[u] = i
                if step > 0:
                    stack.append(step)
                elif step < 0:
                    # each stack vertex matches the in-copy it left by
                    for x in stack:
                        v = nbrs[x][nxt[x] - 1]
                        succ[x] = v
                        pred[v] = x
                    break
                else:
                    dist[u] = -1
                    stack.pop()


def _factor_order(adj: dict, rng: random.Random) -> list[int]:
    """A start tour of the digraph on 1..n whose out-neighbour sets are
    adj, from a seeded maximum matching of out-copies to in-copies
    (_max_matching).

    The matched arcs form vertex-disjoint paths (an unmatched vertex is a
    path of one) and cycles.  Each path is kept as it is, from its vertex
    with no matched in-arc; each cycle is cut before a seeded vertex, one
    randrange per cycle in the order of their least vertices; then one
    seeded shuffle orders the pieces, and the pieces in turn are the tour.
    So its pseudo-arcs are at most the joins between pieces (none when the
    matching is a single cycle), in O(n + m) beyond the matching.
    """
    succ = _max_matching(adj, rng)
    n = len(adj)
    matched_in = bytearray(n + 1)
    for v in succ:
        matched_in[v] = 1
    seen = bytearray(n + 1)
    pieces: list[list[int]] = []
    for head in range(1, n + 1):
        if not matched_in[head]:
            piece = []
            v = head
            while v:
                seen[v] = 1
                piece.append(v)
                v = succ[v]
            pieces.append(piece)
    for head in range(1, n + 1):
        if not seen[head]:
            cycle = []
            v = head
            while not seen[v]:
                seen[v] = 1
                cycle.append(v)
                v = succ[v]
            i = rng.randrange(len(cycle))
            pieces.append(cycle[i:] + cycle[:i])
    rng.shuffle(pieces)
    return [v for piece in pieces for v in piece]


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

def _solve_common(g: AnyGraph, p: SolveParams) -> SolveReport:
    try:
        cg = contract(g)
    except ContractError as exc:
        return SolveReport(
            "infeasible-precondition", detail=f"contraction: {exc}"
        )
    forced = cg.forced_circuit
    if forced is not None:
        if verify_circuit(g, forced):
            return SolveReport("circuit", list(forced), final_pseudo=0)
        return SolveReport(
            "infeasible-precondition", detail="forced cycle fails verification"
        )
    rep = _solve_core(cg.reduced, p)
    if rep.outcome == "circuit" and not verify_circuit(g, rep.circuit):
        return SolveReport(
            "timeout",
            iterations=rep.iterations,
            detail="circuit failed host verification",
        )
    return rep


def solve_graph(g: Graph, p: Optional[SolveParams] = None) -> SolveReport:
    if g.directed:
        raise TypeError("solve_graph expects an undirected Graph")
    if g.n < 3:
        return SolveReport(
            "infeasible-precondition", detail="undirected circuits need n >= 3"
        )
    if not is_connected(g):
        return SolveReport(
            "infeasible-precondition", detail="host is not connected"
        )
    return _solve_common(g, p or SolveParams())


def solve_digraph(d: Digraph, p: Optional[SolveParams] = None) -> SolveReport:
    if not d.directed:
        raise TypeError("solve_digraph expects a Digraph")
    if not is_strongly_connected(d):
        return SolveReport(
            "infeasible-precondition", detail="host is not strongly connected"
        )
    return _solve_common(d, p or SolveParams())
