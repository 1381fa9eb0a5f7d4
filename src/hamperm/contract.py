"""Degree-2 subpath contraction.

Any Hamilton circuit must traverse every vertex of degree 2 (digraphs:
in-degree or out-degree 1) through its incident edges, so maximal chains of
such vertices are forced onto every circuit.  contract() finds those chains
to a fixed point (forcing two edges at a vertex deletes its remaining
edges, which can force more) and deletes edges/arcs that join a chain's two
endpoints directly (they would skip the chain interior and can lie on no
circuit).  This is the package's only reduction pass.  It reads the host
in place and never mutates it: the working adjacency starts as the host's
own sets, and a vertex's set is copied only before the first deletion
there (copy-on-write), so a reduction that deletes little copies little.
Its ContractedGraph holds two views of the result:

    * the reduced host the solver searches: the host minus the deleted
      edges, under the host's own labels, sharing every set the reduction
      did not touch (the host itself when nothing was deleted); no circuit
      uses a deleted edge, so its Hamilton circuits are exactly the host's,
    * the paper's 2-vertex graph, built on first access: each chain becomes
      a single vertex whose two attachment sides are the chain's endpoints
      (digraphs: fixed initial/terminal sides); expand() maps a circuit of
      it back, orienting each chain by which side the circuit enters.

Infeasibility discovered during reduction (a vertex with three forced
edges, a vertex out of usable edges, or a forced cycle that does not span
the graph) proves the host non-Hamiltonian and raises ContractError.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .graphs import AnyGraph, Digraph, Graph


class ContractError(Exception):
    """The reduction proved the host non-Hamiltonian."""


class IsolatedCycleError(ContractError):
    """A forced cycle exists that does not span the vertex set."""


class ExpandError(ValueError):
    """The given circuit cannot be oriented through the 2-vertices."""


@dataclass(frozen=True)
class TwoPath:
    """A maximal forced chain [v_a, ..., v_a'] (endpoints included)."""

    vertices: tuple[int, ...]
    directed: bool

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


@dataclass
class ContractedGraph:
    """The host after contract(), in two views over the same reduction.

    reduced is the host minus deleted, on the host's vertices 1..n: its
    adjacency sets are the reduction's copy-on-write working sets, so the
    set at v is the host's own object exactly when nothing was deleted at
    v, and reduced is the host itself when nothing was deleted at all.

    graph and elements, the 2-vertex view, are built from reduced on first
    access, so a solve never pays for them: vertices on no chain in sorted
    order, then one vertex per chain by least chain vertex, every vertex of
    a chain merged into it (loops and repeated edges dropped).  A forced
    circuit gives the 1-vertex view of its first vertex.
    """

    host: AnyGraph
    reduced: AnyGraph
    two_paths: list[TwoPath]
    deleted: set[tuple]  # host edges/arcs removed by the reduction
    forced_circuit: Optional[list[int]] = None  # set when the host is one
    # forced cycle (the degenerate "whole graph is a chain" case)

    @property
    def is_identity(self) -> bool:
        return not self.two_paths and self.forced_circuit is None

    @cached_property
    def elements(self) -> dict[int, Union[int, TwoPath]]:
        """2-vertex id -> host vertex | chain."""
        if self.forced_circuit is not None:
            return {1: self.forced_circuit[0]}
        on_chain = {v for tp in self.two_paths for v in tp.vertices}
        ordinary = [v for v in range(1, self.host.n + 1) if v not in on_chain]
        chains = sorted(self.two_paths, key=lambda tp: min(tp.vertices))
        return dict(enumerate(ordinary + chains, 1))

    @cached_property
    def graph(self) -> AnyGraph:
        """The contracted graph over 2-vertex ids 1..n'."""
        h = self.reduced
        g: AnyGraph = (Digraph if h.directed else Graph)(len(self.elements))
        if self.forced_circuit is not None:
            return g
        new_id: dict[int, int] = {}  # host vertex -> 2-vertex id
        for nid, el in self.elements.items():
            for v in el.vertices if isinstance(el, TwoPath) else (el,):
                new_id[v] = nid
        add = g.add_arc if h.directed else g.add_edge
        for u, v in h.arcs if h.directed else h.edges:
            nu, nv = new_id[u], new_id[v]
            if nu != nv and not g.has_arc(nu, nv):
                add(nu, nv)
        return g

    def sides(self, new_id: int) -> tuple[int, int]:
        """The two attachment sides (endpoint host vertices) of a 2-vertex."""
        el = self.elements[new_id]
        if isinstance(el, TwoPath):
            return el.start, el.end
        raise ValueError(f"{new_id} is not a 2-vertex")


# --------------------------------------------------------------------------
# reduction
# --------------------------------------------------------------------------


def _reduce_graph(g: Graph):
    adj = dict(g.adj)  # the host's sets, copied on write by delete
    deleted: set[tuple[int, int]] = set()
    n = g.n

    def delete(u, v):
        for a, b in ((u, v), (v, u)):
            if adj[a] is g.adj[a]:
                adj[a] = set(adj[a])
            adj[a].discard(b)
        deleted.add((u, v) if u < v else (v, u))

    def walk(s, cur):
        """The vertices from cur on, leaving s, up to the first one of
        degree != 2, or up to s when they close a cycle through it."""
        path, prev = [cur], s
        while len(adj[cur]) == 2 and cur != s:
            a, b = adj[cur]
            prev, cur = cur, b if a == prev else a
            path.append(cur)
        return path

    while True:
        changed = False
        two: list[int] = []  # degree-2 vertices, ascending
        for v, ws in adj.items():
            if len(ws) < 3:
                if len(ws) < 2:
                    raise ContractError(f"vertex {v} has fewer than 2 usable edges")
                two.append(v)
        # edges incident to a degree-2 vertex are forced; only degree-2
        # vertices and their neighbours have forced edges
        forced: dict[int, set[int]] = {}
        for v in two:
            for w in adj[v]:
                forced.setdefault(v, set()).add(w)
                forced.setdefault(w, set()).add(v)
        for v in sorted(forced):
            if len(forced[v]) > 2:
                raise ContractError(f"vertex {v} has {len(forced[v])} forced edges")
        for v, fs in forced.items():
            if len(fs) == 2 and len(adj[v]) > 2:
                for w in list(adj[v]):
                    if w not in fs:
                        delete(v, w)
                        changed = True
        if changed:
            continue
        # stable, so a vertex of degree > 2 has at most one degree-2
        # neighbour (two would force both its edges and cut the rest): the
        # walks from a degree-2 vertex s both end at s (a forced cycle) or
        # at two distinct endpoints
        chains: list[list[int]] = []
        seen: set[int] = set()
        for s in two:
            if s in seen:
                continue
            a, b = adj[s]
            ahead = walk(s, a)
            if ahead[-1] == s:
                if len(ahead) == n:
                    return adj, deleted, [], [s] + ahead[:-1]
                raise IsolatedCycleError(
                    f"forced cycle on {len(ahead)} of {n} vertices"
                )
            chain = walk(s, b)[::-1] + [s] + ahead
            seen.update(chain)
            chains.append(chain)
        # delete direct endpoint-to-endpoint edges (they skip the interior)
        for chain in chains:
            p, q = chain[0], chain[-1]
            if q in adj[p]:
                delete(p, q)
                changed = True
        if not changed:
            return adj, deleted, chains, None


def _reduce_digraph(d: Digraph):
    out, inn = dict(d.out_adj), dict(d.in_adj)  # copied on write by delete
    deleted: set[tuple[int, int]] = set()
    n = d.n

    def delete(u, v):
        if out[u] is d.out_adj[u]:
            out[u] = set(out[u])
        out[u].discard(v)
        if inn[v] is d.in_adj[v]:
            inn[v] = set(inn[v])
        inn[v].discard(u)
        deleted.add((u, v))

    while True:
        changed = False
        for v in out:
            if not out[v] or not inn[v]:
                raise ContractError(f"vertex {v} has no usable in- or out-arc")
        for w in inn:
            if len(inn[w]) == 1:
                (u,) = inn[w]
                if len(out[u]) > 1:
                    for z in list(out[u]):
                        if z != w:
                            delete(u, z)
                    changed = True
        for u in out:
            if len(out[u]) == 1:
                (w,) = out[u]
                if len(inn[w]) > 1:
                    for z in list(inn[w]):
                        if z != u:
                            delete(z, w)
                    changed = True
        if changed:
            continue
        # stable: out[u] == {w} exactly when inn[w] == {u}, so the forced
        # arcs form disjoint paths, each starting at a forced tail whose
        # in-degree is not 1, and cycles
        succ = {u: next(iter(ws)) for u, ws in out.items() if len(ws) == 1}
        chains: list[list[int]] = []
        for u in succ:
            if len(inn[u]) != 1:
                chain = [u]
                while chain[-1] in succ:
                    chain.append(succ[chain[-1]])
                chains.append(chain)
        chains.sort(key=lambda c: min(c[:-1]))
        on_chain = {v for c in chains for v in c}
        for s in succ:
            if s not in on_chain:
                # s is the least vertex of a forced cycle; read it from succ(s)
                cycle = [succ[s]]
                while cycle[-1] != s:
                    cycle.append(succ[cycle[-1]])
                if len(cycle) == n:
                    return (out, inn), deleted, [], cycle
                raise IsolatedCycleError(
                    f"forced cycle on {len(cycle)} of {n} vertices"
                )
        for chain in chains:
            p, q = chain[0], chain[-1]
            if p in out[q]:
                delete(q, p)
                changed = True
            if len(chain) >= 3 and q in out[p]:
                delete(p, q)
                changed = True
        if not changed:
            return (out, inn), deleted, chains, None


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------


def find_two_paths(g: AnyGraph) -> list[TwoPath]:
    """Maximal forced chains of g, endpoints included.

    The degenerate case where the forced structure is a spanning cycle
    returns a single closed TwoPath (first vertex repeated last); an
    un-spanning forced cycle raises IsolatedCycleError.
    """
    cg = contract(g)
    cyc = cg.forced_circuit
    if cyc is not None:
        return [TwoPath(tuple(cyc + cyc[:1]), g.directed)]
    return cg.two_paths


def contract(g: AnyGraph) -> ContractedGraph:
    """Reduce g's forced chains; see ContractedGraph for the result."""
    reduce = _reduce_digraph if g.directed else _reduce_graph
    sets, deleted, chains, cyc = reduce(g)  # adj, or (out_adj, in_adj)
    reduced = g
    if deleted:
        reduced = copy.copy(g)
        if g.directed:
            reduced.out_adj, reduced.in_adj = sets
        else:
            reduced.adj = sets
        reduced.m = g.m - len(deleted)
    two_paths = [TwoPath(tuple(c), g.directed) for c in chains]
    return ContractedGraph(g, reduced, two_paths, deleted, cyc)


def _entry_exit_states(el: Union[int, TwoPath], directed: bool):
    if isinstance(el, TwoPath):
        if directed:
            return [(el.start, el.end)]
        return [(el.start, el.end), (el.end, el.start)]
    return [(el, el)]


def expand(circuit: list[int], cg: ContractedGraph) -> list[int]:
    """Map a Hamilton circuit of the contracted graph back to the host.

    Each 2-vertex is oriented by which side the circuit enters; if no
    consistent orientation of all 2-vertices exists (a circuit entering and
    leaving some 2-vertex on the same side), ExpandError is raised.
    """
    if cg.forced_circuit is not None:
        return list(cg.forced_circuit)
    host = cg.host
    k = len(circuit)
    if sorted(circuit) != sorted(cg.elements):
        raise ExpandError("input is not a permutation of the contracted vertices")
    states = [
        _entry_exit_states(cg.elements[x], host.directed) for x in circuit
    ]
    # DP around the cycle over (entry, exit) orientations of each element.
    best: Optional[list[tuple[int, int]]] = None
    for s0 in states[0]:
        feasible: list[dict[tuple[int, int], tuple[int, int]]] = [{s0: s0}]
        ok = True
        for i in range(1, k):
            layer: dict[tuple[int, int], tuple[int, int]] = {}
            for s in states[i]:
                for pstate in feasible[i - 1]:
                    if host.has_arc(pstate[1], s[0]):
                        layer[s] = pstate
                        break
            if not layer:
                ok = False
                break
            feasible.append(layer)
        if not ok:
            continue
        # close the cycle
        for last in feasible[-1]:
            if host.has_arc(last[1], s0[0]):
                chosen = [last]
                for i in range(k - 1, 0, -1):
                    chosen.append(feasible[i][chosen[-1]])
                chosen.reverse()
                best = chosen
                break
        if best:
            break
    if not best:
        raise ExpandError("no consistent 2-vertex orientation (one-side rule)")
    out: list[int] = []
    for x, (entry, _exit) in zip(circuit, best):
        el = cg.elements[x]
        if isinstance(el, TwoPath):
            seq = list(el.vertices)
            if entry != el.start:
                seq.reverse()
            out.extend(seq)
        else:
            out.append(el)
    return out
