"""The solver loop and array Tour as they were before the fast paths.

Copied verbatim from the earlier implementation: the Tour that walked all n
successors in apply and re-tested the whole reversed segment in rotate, the
per-call sorted neighbour lists, the O(k^2) containment counts and the
Abbreviation mirror.  The search runs on the reduced host: the host minus
the edges the earlier chain reduction of tests/contract_reference.py
deletes, built through add_edge/add_arc (_reduced_host), under the host's
own labels.  tests/test_solver_reference.py checks the current Tour and
solver against these on seeded inputs; nothing in src/ imports this
module.

The departures from the earlier code are in how it draws, so the
reference follows the solver's draw order:

    * pseudo-arc vertices are drawn from _pseudo_keys, the sorted
      pseudo-arc key list built from t.pseudo with the solver's key
      encoding (unordered min*(n+1) + max on an undirected host with
      n >= 3, ordered u*(n+1) + v otherwise): the anchor and the POTDT
      partner by one index into it (_draw_pseudo), the rotation pick by a
      seeded Fisher-Yates order of it, decoded one key at a time, as
      hamperm.solver does with the tour's own list;
    * edge samples use _sample, a verbatim copy of hamperm.solver._sample;
    * _candidates stops drawing once test_cap moves have been tested;
    * the start tour comes from a start of the solver's, in place of a
      shuffle of 1..n: on a graph from _start_order, which makes the same
      greedy randomized path cover as hamperm.solver._start_order from
      sorted neighbour lists built once per solve from _host_neighbors
      (it still takes an out- and an in-list, both the graph's own lists
      here, where the solver's takes the graph's neighbour sets alone);
      on a digraph, and at each digraph restart, from
      _factor_order, a verbatim copy of hamperm.solver._factor_order (a
      seeded cycle factor) and of the _max_matching it calls;
    * digraph restarts are counted in the report's restarts.

Everything else, the Move objects, canonical keys, overlays and
diff_score included, is the earlier code.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from contract_reference import _reduce_digraph, _reduce_graph
from hamperm.contract import ContractError
from hamperm.graphs import AnyGraph, Digraph, Graph, is_connected, is_strongly_connected
from hamperm.oracle import verify_circuit
from hamperm.solver import SolveReport
from hamperm.tour import Abbreviation, InadmissibleMove, Move, UnsupportedOperation


class Tour:
    """A pseudo-Hamilton circuit over a host graph/digraph."""

    def __init__(self, host: AnyGraph, order: Sequence[int]):
        if sorted(order) != list(range(1, host.n + 1)):
            raise ValueError("order must be a permutation of 1..n")
        self.host = host
        self.order: list[int] = list(order)
        self.pos: dict[int, int] = {v: i for i, v in enumerate(self.order)}
        self.pseudo: set[int] = set()
        self._recount_pseudo()

    # ---------- basic accessors ----------

    @property
    def n(self) -> int:
        return len(self.order)

    def succ(self, v: int) -> int:
        i = self.pos[v] + 1
        return self.order[i if i < len(self.order) else 0]

    def pred(self, v: int) -> int:
        return self.order[self.pos[v] - 1]

    def ord(self, v: int) -> int:
        """1-based ordinal with ord(order[0]) = 1."""
        return self.pos[v] + 1

    def sequence(self) -> list[int]:
        return list(self.order)

    def sequence_from(self, v: int) -> list[int]:
        """The tour as a list starting at vertex v."""
        i = self.pos[v]
        return self.order[i:] + self.order[:i]

    def copy(self) -> "Tour":
        t = Tour.__new__(Tour)
        t.host = self.host
        t.order = list(self.order)
        t.pos = dict(self.pos)
        t.pseudo = set(self.pseudo)
        return t

    def same_cycle(self, other: "Tour") -> bool:
        """True if the two tours are the same cyclic order (same start or not)."""
        if self.n != other.n:
            return False
        return all(self.succ(v) == other.succ(v) for v in self.order)

    # ---------- pseudo registry ----------

    def _is_pseudo(self, v: int, w: int) -> bool:
        return not self.host.has_arc(v, w)

    def _recount_pseudo(self) -> None:
        self.pseudo = {v for v in self.order if self._is_pseudo(v, self.succ(v))}

    def _refresh_pseudo(self, vertices: Iterable[int]) -> None:
        for v in vertices:
            if self._is_pseudo(v, self.succ(v)):
                self.pseudo.add(v)
            else:
                self.pseudo.discard(v)

    def pseudo_vertices(self) -> set[int]:
        """Initial vertices of the current pseudo-arcs."""
        return self.pseudo

    def pseudo_arcs(self) -> set[tuple[int, int]]:
        return {(v, self.succ(v)) for v in self.pseudo}

    def is_circuit(self) -> bool:
        return not self.pseudo

    # ---------- cyclic order predicates ----------

    def clockwise(self, a: int, b: int, c: int) -> bool:
        """True iff a, b, c occur in clockwise cyclic order on the tour."""
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

    def overlay(self, m: Move) -> dict[int, int]:
        """New successors the move installs (old arcs read before rewiring)."""
        p = m.perm()
        return {v: self.succ(p[v]) for v in p}

    def new_arcs(self, m: Move) -> list[tuple[int, int]]:
        ov = self.overlay(m)
        return [(v, ov[v]) for v in m.perm()]

    def replaced_arcs(self, m: Move) -> list[tuple[int, int]]:
        return [(v, self.succ(v)) for v in m.perm()]

    def apply(self, m: Move) -> "Tour":
        """Apply an admissible move in place; returns self."""
        if not self.admissible(m):
            raise InadmissibleMove(f"move {m} is not admissible on this tour")
        overlay = self.overlay(m)
        order = self.order
        pos = self.pos
        n = len(order)
        start = order[0]
        new_order = []
        v = start
        for _ in range(n):
            new_order.append(v)
            nxt = overlay.get(v)
            if nxt is None:
                i = pos[v] + 1
                nxt = order[i if i < n else 0]
            v = nxt
        if v != start:  # pragma: no cover - guarded by admissibility
            raise InadmissibleMove(f"move {m} does not yield a single n-cycle")
        self.order = new_order
        self.pos = {u: i for i, u in enumerate(new_order)}
        self._refresh_pseudo(m.perm())
        return self

    # ---------- rotation (graph mode) ----------

    def rotate(self, v: int, w: int) -> "Tour":
        """Reverse the segment succ(v)..w so the tour reads v, w, ..., succ(v).

        Requires [v, w] to be a host edge not on the tour; graph mode only.
        """
        if self.host.directed:
            raise UnsupportedOperation("rotations are undefined for digraphs")
        if w == v or w == self.succ(v) or w == self.pred(v):
            raise ValueError("rotation endpoints must be nonadjacent on the tour")
        if not self.host.has_arc(v, w):
            raise ValueError(f"[{v},{w}] is not a host edge")
        i = self.pos[v]
        if i != 0:
            self.order = self.order[i:] + self.order[:i]
            self.pos = {u: k for k, u in enumerate(self.order)}
        j = self.pos[w]
        seg = self.order[1 : j + 1]
        seg.reverse()
        self.order[1 : j + 1] = seg
        for k, u in enumerate(seg, start=1):
            self.pos[u] = k
        self._refresh_pseudo([v] + seg)
        return self

    # ---------- integrity / serialization ----------

    def check_invariants(self) -> None:
        n = len(self.order)
        assert sorted(self.order) == list(range(1, n + 1))
        for i, v in enumerate(self.order):
            assert self.pos[v] == i
            assert self.ord(self.succ(v)) == self.ord(v) % n + 1
        assert self.pseudo == {
            v for v in self.order if not self.host.has_arc(v, self.succ(v))
        }

    def to_text(self) -> str:
        lines = [" ".join(str(v) for v in self.order)]
        if self.pseudo:
            lines.append(
                " ".join(
                    f"{v}~{self.succ(v)}" for v in sorted(self.pseudo)
                )
            )
        return "\n".join(lines)


def diff_score(t: Tour, m: Move) -> int:
    """DIFF = (host edges among the arcs m creates) - (arc vertices among m's
    vertices).  Higher is better."""
    e_s = sum(1 for u, w in t.new_arcs(m) if t.host.has_arc(u, w))
    a_s = sum(1 for v in m.perm() if v not in t.pseudo)
    return e_s - a_s


def passes_pseudo_filter(t: Tour, m: Move) -> bool:
    """Legality filter used by the solver: at most one of the arcs a move
    creates may be a pseudo-arc."""
    bad = sum(1 for u, w in t.new_arcs(m) if not t.host.has_arc(u, w))
    return bad <= 1


@dataclass
class SolveParams:
    """Caps default to the natural-log schedule when left unset:
    edge_cap ceil(ln n); test_cap 2*ceil(ln n)^2; two phase budgets of
    2*n*ceil(ln n) iterations each (thorough: 12*n^3*ceil(ln n) total);
    rebase cadence floor(sqrt(n))."""

    edge_cap: Optional[int] = None
    test_cap: Optional[int] = None
    phase1_budget: Optional[int] = None
    phase2_budget: Optional[int] = None
    thorough: bool = False
    rebase_cadence: Optional[int] = None
    backtrack_cap: Optional[int] = None
    seed: int = 0

    def resolve(self, n: int) -> "ResolvedParams":
        ln = max(1, math.ceil(math.log(max(2, n))))
        edge_cap = self.edge_cap if self.edge_cap is not None else ln
        test_cap = self.test_cap if self.test_cap is not None else 2 * ln * ln
        if self.thorough:
            budget = 12 * n**3 * ln
        else:
            p1 = self.phase1_budget if self.phase1_budget is not None else 2 * n * ln
            p2 = self.phase2_budget if self.phase2_budget is not None else 2 * n * ln
            budget = p1 + p2
        cadence = (
            self.rebase_cadence
            if self.rebase_cadence is not None
            else max(1, math.isqrt(n))
        )
        for val in (edge_cap, test_cap, budget, cadence):
            if val < 1:
                raise ValueError("all caps must be >= 1")
        return ResolvedParams(
            edge_cap, test_cap, budget, cadence, self.backtrack_cap, self.seed
        )


@dataclass
class ResolvedParams:
    edge_cap: int
    test_cap: int
    budget: int
    rebase_cadence: int
    backtrack_cap: Optional[int]
    seed: int


def _host_neighbors(h: AnyGraph, v: int, incoming: bool = False) -> list[int]:
    if h.directed:
        return sorted(h.in_adj[v] if incoming else h.out_adj[v])
    return sorted(h.adj[v])


def _pseudo_keys(t: Tour, exclude: int = 0) -> list[int]:
    """The sorted pseudo-arc keys of t other than exclude's, in the solver's
    key encoding."""
    base = len(t.order) + 1
    unordered = not t.host.directed and len(t.order) >= 3

    def key(u: int) -> int:
        w = t.succ(u)
        return min(u, w) * base + max(u, w) if unordered else u * base + w

    drop = key(exclude) if exclude in t.pseudo else None
    return sorted(key(u) for u in t.pseudo if key(u) != drop)


def _decode(t: Tour, k: int) -> int:
    """The initial vertex of the pseudo-arc keyed k."""
    u, w = divmod(k, len(t.order) + 1)
    unordered = not t.host.directed and len(t.order) >= 3
    return w if unordered and t.succ(u) != w else u


def _draw_pseudo(t: Tour, rng: random.Random, exclude: int = 0) -> int:
    """A pseudo-arc vertex other than exclude, uniformly at random: one
    index into the sorted remaining pseudo-arc keys.  At least one such
    vertex must exist."""
    others = _pseudo_keys(t, exclude)
    return _decode(t, others[rng.randrange(len(others))])


def _sample(rng: random.Random, pool: list[int], k: int) -> list[int]:
    """A uniform ordered k-subset of pool, k = min(k, len(pool)).

    One integer r < P = m(m-1)...(m-k+1) (m = len(pool)) is drawn with
    getrandbits((P - 1).bit_length()) and redrawn while r >= P (fewer than
    2 draws expected); its mixed-radix digits pick the swaps of a partial
    Fisher-Yates shuffle on a copy of pool.  Digit tuples and ordered
    k-subsets are in bijection, so every ordered k-subset has probability
    1/P.
    """
    m = len(pool)
    k = min(k, m)
    if not k:
        return []
    p = math.perm(m, k)
    bits = (p - 1).bit_length()
    r = rng.getrandbits(bits)
    while r >= p:
        r = rng.getrandbits(bits)
    out = list(pool)
    for i in range(k):
        r, j = divmod(r, m - i)
        j += i
        out[i], out[j] = out[j], out[i]
    del out[k:]
    return out


def _candidates(
    h: AnyGraph, t: Tour, a: int, rng: random.Random, rp: ResolvedParams
) -> list[Move]:
    """Admissible, filter-passing candidate moves anchored at pseudo-arc
    vertex a, built from sampled host edges; nothing more is drawn once
    test_cap moves have been tested."""
    ha = t.succ(a)
    tests = 0
    out: list[Move] = []
    seen_keys: set = set()

    def consider(m: Move) -> bool:
        """Test m; True once test_cap moves have been tested."""
        nonlocal tests
        tests += 1
        key = m.canonical_key()
        if key not in seen_keys and t.admissible(m) and passes_pseudo_filter(t, m):
            seen_keys.add(key)
            out.append(m)
        return tests >= rp.test_cap

    def sample(pool: list[int]) -> list[int]:
        return _sample(rng, pool, rp.edge_cap)

    # splice points b: the created arc (a, x) is a host arc by construction
    xs = [x for x in _host_neighbors(h, a) if x != ha and x != a]
    bs: list[tuple[int, int]] = []
    for x in sample(xs):
        b = t.pred(x)
        if b != a:
            bs.append((b, x))
    for b, _x in bs:
        # second edge at b: 3-cycle (a b c) also creates host arc (b, y)
        ys = [y for y in _host_neighbors(h, b) if y not in (a, b)]
        for y in sample(ys):
            c = t.pred(y)
            if c not in (a, b) and consider(Move.cycle3(a, b, c)):
                return out
        # second edge into succ(a): 3-cycle (a b y) creates host arc (y, ha)
        zs = [
            z
            for z in _host_neighbors(h, ha, incoming=True)
            if z not in (a, b, ha)
        ]
        for y in sample(zs):
            if consider(Move.cycle3(a, b, y)):
                return out
    # POTDTs seeded from a second pseudo-arc vertex
    if len(t.pseudo) > 1 and bs:
        v2 = _draw_pseudo(t, rng, a)
        ws = [w for w in _host_neighbors(h, v2) if w != t.succ(v2) and w != v2]
        for w in sample(ws):
            d = t.pred(w)
            for b, _x in bs:
                if len({a, b, v2, d}) == 4 and consider(Move.potdt(a, b, v2, d)):
                    return out
    return out


def _containment_counts(cands: list[Move]) -> list[int]:
    vert_sets = [set(m.verts) for m in cands]
    return [
        sum(1 for other in vert_sets if other is not vs and other & vs)
        for vs in vert_sets
    ]


def _pick_rotation(
    h: Graph, t: Tour, rng: random.Random, rp: ResolvedParams
) -> Optional[tuple[int, int]]:
    """A rotation (v, w) anchored at a pseudo-arc vertex v along an off-tour
    host edge [v, w]; such a rotation never increases |PSEUDO|."""
    keys = _pseudo_keys(t)
    for i in range(len(keys)):
        j = rng.randrange(i, len(keys))
        keys[i], keys[j] = keys[j], keys[i]
        v = _decode(t, keys[i])
        ws = [
            w
            for w in _host_neighbors(h, v)
            if w not in (v, t.succ(v), t.pred(v))
        ]
        if ws:
            return v, rng.choice(ws)
    return None


def _solve_core(h: AnyGraph, rp: ResolvedParams) -> SolveReport:
    n = h.n
    if n == 1:
        return SolveReport("circuit", [1])
    if n == 2:
        if h.directed and h.has_arc(1, 2) and h.has_arc(2, 1):
            return SolveReport("circuit", [1, 2])
        return SolveReport("timeout", detail="no circuit on 2 vertices")
    rng = random.Random(rp.seed)
    nbrs = (
        {v: _host_neighbors(h, v) for v in range(1, n + 1)},
        {v: _host_neighbors(h, v, incoming=True) for v in range(1, n + 1)},
    )
    if h.directed:
        t = Tour(h, _factor_order(h.out_adj, rng))
    else:
        t = Tour(h, _start_order(h, nbrs, rng))
    abb = Abbreviation(t)
    backtrack: deque[Move] = deque()
    rep = SolveReport("timeout")
    # digraph mode has no rotations, so a bad start can oscillate; restart
    # from a new cycle factor when |PSEUDO| stops improving
    best_pseudo = n + 1
    since_improve = 0
    stall_limit = max(30, 2 * n)
    while rep.iterations < rp.budget:
        pseudos = sorted(t.pseudo_vertices())
        if not pseudos:
            break
        if h.directed and since_improve >= stall_limit:
            t = Tour(h, _factor_order(h.out_adj, rng))
            rep.restarts += 1
            abb = Abbreviation(t)
            backtrack.clear()
            best_pseudo = n + 1
            since_improve = 0
            continue
        rep.iterations += 1
        before = len(pseudos)
        a = _draw_pseudo(t, rng)
        cands = _candidates(h, t, a, rng, rp)
        recent = backtrack[0] if backtrack else None
        applied: Optional[Move] = None
        if h.directed and recent is not None and len(cands) == 1 and (
            cands[0].canonical_key() == recent.canonical_key()
        ):
            # the only way forward undoes the last move: take it as an
            # explicit backtrack step
            backtrack.popleft()
            t.apply(cands[0])
            abb.apply_move(cands[0])
            rep.backtracks += 1
            applied = cands[0]
        else:
            if recent is not None:
                cands = [
                    m
                    for m in cands
                    if m.canonical_key() != recent.canonical_key()
                ]
            if cands:
                diffs = [diff_score(t, m) for m in cands]
                contain = _containment_counts(cands)
                jitter = [rng.random() for _ in cands]
                best = max(
                    range(len(cands)),
                    key=lambda i: (diffs[i], contain[i], jitter[i]),
                )
                applied = cands[best]
                t.apply(applied)
                abb.apply_move(applied)
                backtrack.appendleft(applied.inverse())
                if rp.backtrack_cap and len(backtrack) > rp.backtrack_cap:
                    backtrack.pop()
                rep.successes += 1
            else:
                rep.failures += 1
                if h.directed and backtrack:
                    m = backtrack.popleft()
                    t.apply(m)
                    abb.apply_move(m)
                    rep.backtracks += 1
        if not h.directed:
            rot = _pick_rotation(h, t, rng, rp)
            if rot is not None:
                t.rotate(*rot)
                abb.rotate(*rot)
            elif applied is None and not cands:
                rep.detail = "stuck: no off-tour host edge at any pseudo-arc vertex"
                rep.pseudo_trajectory.append(len(t.pseudo_vertices()))
                break
            after = len(t.pseudo_vertices())
            assert after <= before, "pseudo count increased in graph mode"
        if rep.iterations % rp.rebase_cadence == 0:
            abb = Abbreviation(t)
        cur = len(t.pseudo_vertices())
        if cur < best_pseudo:
            best_pseudo = cur
            since_improve = 0
        else:
            since_improve += 1
        rep.pseudo_trajectory.append(cur)
    rep.final_pseudo = len(t.pseudo_vertices())
    if rep.final_pseudo == 0:
        rep.outcome = "circuit"
        rep.circuit = t.sequence_from(1)
    return rep


def _start_order(
    h: AnyGraph, nbrs: tuple[dict, dict], rng: random.Random
) -> list[int]:
    """A start tour that is a greedy randomized path cover of h, in O(n + m).

    The tour is built as runs of host arcs.  A run steps from its last
    vertex v to an unvisited out-neighbour with the fewest unvisited
    out-neighbours left (Warnsdorff's rule), ties broken by one seeded pick
    among them in the order of the sorted list nbrs[0][v].  When v has no
    unvisited out-neighbour, the next run starts at the next unvisited
    vertex of one seeded shuffle of 1..n; the shuffle's first vertex starts
    the first run.  Visiting v lowers the count of each in-neighbour
    (nbrs[1][v]).  The runs in turn are the tour, so its pseudo-arcs are at
    most the jumps between runs and the closing arc.
    """
    out_nbrs, in_nbrs = nbrs
    n = h.n
    jumps = list(range(1, n + 1))
    rng.shuffle(jumps)
    left = [0] + [len(out_nbrs[v]) for v in range(1, n + 1)]
    seen = bytearray(n + 1)
    order: list[int] = []
    for first in jumps:
        v = first
        while not seen[v]:
            seen[v] = 1
            order.append(v)
            for u in in_nbrs[v]:
                left[u] -= 1
            free = [w for w in out_nbrs[v] if not seen[w]]
            if not free:
                break
            low = min([left[w] for w in free])
            ties = [w for w in free if left[w] == low]
            v = ties[0] if len(ties) == 1 else rng.choice(ties)
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


def _reduced_host(g: AnyGraph):
    """The host minus the edges the reduction deletes, on the host's
    vertices, built edge by edge in sorted order; or a forced circuit.

    Returns (reduced host, None) or (None, forced circuit).  Raises
    ContractError when the reduction proves non-Hamiltonicity.
    """
    if g.directed:
        (adj, _inn), _deleted, _chains, cyc = _reduce_digraph(g)
    else:
        adj, _deleted, _chains, cyc = _reduce_graph(g)
    if cyc is not None:
        return None, list(cyc)
    h: AnyGraph = Digraph(g.n) if g.directed else Graph(g.n)
    for u in sorted(adj):
        for v in sorted(adj[u]):
            if g.directed:
                h.add_arc(u, v)
            elif u < v:
                h.add_edge(u, v)
    return h, None


def _solve_common(g: AnyGraph, p: SolveParams) -> SolveReport:
    try:
        h, forced = _reduced_host(g)
    except ContractError as exc:
        return SolveReport(
            "infeasible-precondition", detail=f"contraction: {exc}"
        )
    if forced is not None:
        if verify_circuit(g, forced):
            return SolveReport("circuit", list(forced), final_pseudo=0)
        return SolveReport(
            "infeasible-precondition", detail="forced cycle fails verification"
        )
    rp = p.resolve(g.n)
    rep = _solve_core(h, rp)
    if rep.outcome != "circuit":
        return rep
    if not verify_circuit(g, rep.circuit):
        return SolveReport(
            "timeout",
            iterations=rep.iterations,
            detail="circuit failed host verification",
        )
    return rep


def solve_graph(g: Graph, p: Optional[SolveParams] = None) -> SolveReport:
    if g.directed:
        raise TypeError("solve_graph expects an undirected Graph")
    p = p or SolveParams()
    if g.n >= 3 and not is_connected(g):
        return SolveReport(
            "infeasible-precondition", detail="host is not connected"
        )
    if g.n >= 3 and g.min_degree() < 2:
        return SolveReport(
            "infeasible-precondition", detail="minimum degree below 2"
        )
    if g.n < 3:
        return SolveReport(
            "infeasible-precondition", detail="undirected circuits need n >= 3"
        )
    return _solve_common(g, p)


def solve_digraph(d: Digraph, p: Optional[SolveParams] = None) -> SolveReport:
    if not d.directed:
        raise TypeError("solve_digraph expects a Digraph")
    p = p or SolveParams()
    if not is_strongly_connected(d):
        return SolveReport(
            "infeasible-precondition", detail="host is not strongly connected"
        )
    if d.min_outdeg() < 1 or d.min_indeg() < 1:
        return SolveReport(
            "infeasible-precondition", detail="in- or out-degree below 1"
        )
    return _solve_common(d, p)
