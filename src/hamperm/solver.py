"""Randomized Hamilton-circuit search for graphs and digraphs.

The solver keeps a pseudo-Hamilton tour of the host and repeatedly tries to
convert pseudo-arcs (tour arcs absent from the host) into host arcs:

    * sample a few host edges at a pseudo-arc vertex and at its successor,
    * build candidate 3-cycle and pair-of-transposition moves from them,
    * keep only admissible candidates that create at most one new pseudo-arc
      (so |PSEUDO| never increases),
    * apply the best candidate by DIFF (host arcs created minus pseudo-arc
      vertices consumed), ties broken by seeded random choice,
    * graph mode ends every iteration with one pseudo-anchored rotation
      (also monotone in |PSEUDO|); digraph mode, where rotations are
      unavailable, escapes dead ends by undoing moves from a double-ended
      BACKTRACK queue of inverses.

An iteration sorts the pseudo-arc vertices and, in graph mode, shuffles
them to pick a rotation; its other Python-level work is bounded by the
sampled candidates.  The sorted neighbour lists are built once per solve,
and a move or rotation costs a few C-level list slices on the array Tour
plus O(1) host lookups.  The solver keeps no abbreviation of the tour
(tour.Abbreviation is the paper's run notation, for goldens and rendering).

Degree-2 chains are contracted away first (see contract); a circuit found
on the contracted graph is expanded back and re-verified on the original
host.  Everything is deterministic per (input, params, seed).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .contract import ContractError, _reduce_digraph, _reduce_graph
from .graphs import AnyGraph, Digraph, Graph, is_connected, is_strongly_connected
from .oracle import verify_circuit
from .tour import Move, Tour, diff_score, passes_pseudo_filter


@dataclass
class SolveParams:
    """Caps default to the natural-log schedule when left unset:
    edge_cap ceil(ln n); test_cap 2*ceil(ln n)^2; an iteration budget of
    4*n*ceil(ln n) (thorough: 12*n^3*ceil(ln n), which overrides budget)."""

    edge_cap: Optional[int] = None
    test_cap: Optional[int] = None
    budget: Optional[int] = None
    thorough: bool = False
    seed: int = 0

    def resolve(self, n: int) -> "ResolvedParams":
        ln = max(1, math.ceil(math.log(max(2, n))))
        edge_cap = self.edge_cap if self.edge_cap is not None else ln
        test_cap = self.test_cap if self.test_cap is not None else 2 * ln * ln
        if self.thorough:
            budget = 12 * n**3 * ln
        elif self.budget is not None:
            budget = self.budget
        else:
            budget = 4 * n * ln
        for val in (edge_cap, test_cap, budget):
            if val < 1:
                raise ValueError("all caps must be >= 1")
        return ResolvedParams(edge_cap, test_cap, budget, self.seed)


@dataclass
class ResolvedParams:
    edge_cap: int
    test_cap: int
    budget: int
    seed: int


@dataclass
class SolveReport:
    outcome: str  # "circuit" | "timeout" | "infeasible-precondition"
    circuit: Optional[list[int]] = None
    iterations: int = 0
    successes: int = 0
    failures: int = 0
    backtracks: int = 0
    final_pseudo: int = 0
    pseudo_trajectory: list[int] = field(default_factory=list)
    detail: str = ""


# --------------------------------------------------------------------------
# core loop
# --------------------------------------------------------------------------


def _sorted_neighbors(h: AnyGraph) -> tuple[dict, dict]:
    """(out-neighbours, in-neighbours) of every vertex as sorted lists; for
    a graph both are the same lists."""
    if h.directed:
        out = {v: sorted(ws) for v, ws in h.out_adj.items()}
        return out, {v: sorted(ws) for v, ws in h.in_adj.items()}
    out = {v: sorted(ws) for v, ws in h.adj.items()}
    return out, out


def _candidates(
    t: Tour,
    a: int,
    pseudos: list[int],
    nbrs: tuple[dict, dict],
    rng: random.Random,
    rp: ResolvedParams,
) -> list[Move]:
    """Admissible, filter-passing candidate moves anchored at pseudo-arc
    vertex a (an element of the sorted list pseudos), built from sampled
    host edges."""
    out_nbrs, in_nbrs = nbrs
    ha = t.succ(a)
    tests = 0
    out: list[Move] = []
    seen_keys: set = set()

    def consider(m: Move) -> None:
        nonlocal tests
        if tests >= rp.test_cap:
            return
        tests += 1
        key = m.canonical_key()
        if key in seen_keys:
            return
        if t.admissible(m) and passes_pseudo_filter(t, m):
            seen_keys.add(key)
            out.append(m)

    def sample(pool: list[int]) -> list[int]:
        k = min(rp.edge_cap, len(pool))
        return rng.sample(pool, k) if k else []

    # splice points b: the created arc (a, x) is a host arc by construction
    xs = [x for x in out_nbrs[a] if x != ha and x != a]
    bs: list[tuple[int, int]] = []
    for x in sample(xs):
        b = t.pred(x)
        if b != a:
            bs.append((b, x))
    for b, _x in bs:
        # second edge at b: 3-cycle (a b c) also creates host arc (b, y)
        ys = [y for y in out_nbrs[b] if y not in (a, b)]
        for y in sample(ys):
            c = t.pred(y)
            if c not in (a, b):
                consider(Move.cycle3(a, b, c))
        # second edge into succ(a): 3-cycle (a b y) creates host arc (y, ha)
        zs = [z for z in in_nbrs[ha] if z not in (a, b, ha)]
        for y in sample(zs):
            consider(Move.cycle3(a, b, y))
    # POTDTs seeded from a second pseudo-arc vertex, drawn uniformly from
    # pseudos without a (the same draw as rng.choice on that list)
    if len(pseudos) > 1 and bs:
        i = rng.choice(range(len(pseudos) - 1))
        v2 = pseudos[i if i < bisect_left(pseudos, a) else i + 1]
        ws = [w for w in out_nbrs[v2] if w != t.succ(v2) and w != v2]
        for w in sample(ws):
            d = t.pred(w)
            for b, _x in bs:
                if len({a, b, v2, d}) == 4:
                    consider(Move.potdt(a, b, v2, d))
    return out


def _pick_rotation(
    t: Tour, nbrs: dict, rng: random.Random
) -> Optional[tuple[int, int]]:
    """A rotation (v, w) anchored at a pseudo-arc vertex v along an off-tour
    host edge [v, w]; such a rotation never increases |PSEUDO|."""
    pseudos = sorted(t.pseudo_vertices())
    rng.shuffle(pseudos)
    for v in pseudos:
        ws = [w for w in nbrs[v] if w not in (v, t.succ(v), t.pred(v))]
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
    nbrs = _sorted_neighbors(h)
    t = Tour(h, _shuffled(n, rng))
    backtrack: deque[Move] = deque()
    rep = SolveReport("timeout")
    # digraph mode has no rotations, so a bad start can oscillate; restart
    # from a fresh shuffle when |PSEUDO| stops improving
    best_pseudo = n + 1
    since_improve = 0
    stall_limit = max(30, 2 * n)
    while rep.iterations < rp.budget:
        pseudos = sorted(t.pseudo_vertices())
        if not pseudos:
            break
        if h.directed and since_improve >= stall_limit:
            t = Tour(h, _shuffled(n, rng))
            backtrack.clear()
            best_pseudo = n + 1
            since_improve = 0
            continue
        rep.iterations += 1
        before = len(pseudos)
        a = rng.choice(pseudos)
        cands = _candidates(t, a, pseudos, nbrs, rng, rp)
        recent = backtrack[0] if backtrack else None
        applied: Optional[Move] = None
        if h.directed and recent is not None and len(cands) == 1 and (
            cands[0].canonical_key() == recent.canonical_key()
        ):
            # the only way forward undoes the last move: take it as an
            # explicit backtrack step
            backtrack.popleft()
            t.apply(cands[0])
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
                jitter = [rng.random() for _ in cands]
                best = max(range(len(cands)), key=lambda i: (diffs[i], jitter[i]))
                applied = cands[best]
                t.apply(applied)
                backtrack.appendleft(applied.inverse())
                rep.successes += 1
            else:
                rep.failures += 1
                if h.directed and backtrack:
                    m = backtrack.popleft()
                    t.apply(m)
                    rep.backtracks += 1
        if not h.directed:
            rot = _pick_rotation(t, nbrs[0], rng)
            if rot is not None:
                t.rotate(*rot)
            elif applied is None and not cands:
                rep.detail = "stuck: no off-tour host edge at any pseudo-arc vertex"
                rep.pseudo_trajectory.append(len(t.pseudo_vertices()))
                break
            after = len(t.pseudo_vertices())
            assert after <= before, "pseudo count increased in graph mode"
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


def _shuffled(n: int, rng: random.Random) -> list[int]:
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    return verts


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

def _condense(g: AnyGraph):
    """Contract forced chains side-faithfully: a chain [p, ..., q] with
    interior becomes p - dummy - q (directed: p -> dummy -> q), so every
    remaining edge keeps the exact endpoint it attaches to and mapping a
    circuit back to the host can never fail.

    Returns (condensed graph, new->host element map) or a forced circuit.
    Raises ContractError when the reduction proves non-Hamiltonicity.
    """
    if g.directed:
        (out, _inn), _deleted, chains, cyc = _reduce_digraph(g)
        remaining = [(u, v) for u in out for v in out[u]]
    else:
        adj, _deleted, chains, cyc = _reduce_graph(g)
        remaining = [(u, v) for u in adj for v in adj[u] if u < v]
    if cyc is not None:
        return None, None, list(cyc)
    interior: set[int] = set()
    for chain in chains:
        interior.update(chain[1:-1])
    keep = sorted(v for v in range(1, g.n + 1) if v not in interior)
    to_new = {v: i + 1 for i, v in enumerate(keep)}
    elements: dict[int, object] = {to_new[v]: v for v in keep}
    nid = len(keep)
    cond: AnyGraph = Digraph(1) if g.directed else Graph(1)  # placeholder
    dummies: list[tuple[int, list[int]]] = []
    for chain in chains:
        if len(chain) >= 3:
            nid += 1
            dummies.append((nid, chain))
            elements[nid] = tuple(chain)
    cond = Digraph(nid) if g.directed else Graph(nid)
    for u, v in remaining:
        if u in interior or v in interior:
            continue
        if g.directed:
            cond.add_arc(to_new[u], to_new[v])
        else:
            cond.add_edge(to_new[u], to_new[v])
    for dummy, chain in dummies:
        p, q = to_new[chain[0]], to_new[chain[-1]]
        if g.directed:
            cond.add_arc(p, dummy)
            cond.add_arc(dummy, q)
        else:
            cond.add_edge(p, dummy)
            cond.add_edge(dummy, q)
    return cond, elements, None


def _lift(circuit: list[int], elements: dict) -> list[int]:
    """Replace condensed vertices by host vertices; a chain dummy expands to
    its interior, oriented by the neighboring endpoint elements."""
    out: list[int] = []
    for i, x in enumerate(circuit):
        el = elements[x]
        if isinstance(el, tuple):
            prev_el = elements[circuit[i - 1]]
            inner = list(el[1:-1])
            if prev_el == el[0]:
                out.extend(inner)
            else:
                out.extend(reversed(inner))
        else:
            out.append(el)
    return out


def _solve_common(g: AnyGraph, p: SolveParams) -> SolveReport:
    try:
        cond, elements, forced = _condense(g)
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
    rp = p.resolve(cond.n)
    rep = _solve_core(cond, rp)
    if rep.outcome != "circuit":
        return rep
    host_circuit = _lift(rep.circuit, elements)
    if not verify_circuit(g, host_circuit):
        return SolveReport(
            "timeout",
            iterations=rep.iterations,
            detail="condensed circuit failed host verification",
        )
    rep.circuit = host_circuit
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
