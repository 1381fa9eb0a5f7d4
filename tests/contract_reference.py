"""The degree-2 reduction and condensed build as they were before the
reduction read the host in place and before the solver searched the
reduced host under its own labels, kept verbatim as the reference for
tests/test_contract_reference.py: _reduce_graph and _reduce_digraph worked
on a full copy of the host's adjacency sets with a forced set per vertex,
and contract() built a relabelled condensed graph edge by edge through
add_edge, with one dummy vertex per chain interior, into the
ContractedGraph class of that time, whose 2-vertex view was built from
the condensed graph.  hamperm.contract must give the same reduction
(deleted edges, chains, forced circuit), the same 2-vertex view and the
same ContractError type and message on every input.  Nothing in src/
imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from hamperm.contract import ContractError, IsolatedCycleError, TwoPath
from hamperm.graphs import AnyGraph, Digraph, Graph


@dataclass
class ContractedGraph:
    """The host after contract(), in two views over the same reduction.

    condensed numbers the non-interior host vertices in sorted order, then
    one dummy per chain with an interior, in chain order;
    condensed_elements maps each id to its host vertex or, for a dummy, its
    TwoPath.  With no chains it is the host itself.  lift() maps a Hamilton
    circuit of condensed to one of the host.

    graph and elements, the 2-vertex view, are built from condensed on
    first access, so a solve never pays for them: ordinary vertices in
    sorted order, then one vertex per chain by least chain vertex, with a
    chain's endpoints and dummy merged into it (loops and repeated edges
    dropped).
    """

    host: AnyGraph
    condensed: AnyGraph
    condensed_elements: dict[int, Union[int, TwoPath]]
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
        ends = {v for tp in self.two_paths for v in (tp.start, tp.end)}
        ordinary = [
            el
            for el in self.condensed_elements.values()
            if not isinstance(el, TwoPath) and el not in ends
        ]
        chains = sorted(self.two_paths, key=lambda tp: min(tp.vertices))
        return dict(enumerate(ordinary + chains, 1))

    @cached_property
    def graph(self) -> AnyGraph:
        """The contracted graph over 2-vertex ids 1..n'."""
        new_id: dict = {}  # host vertex | chain -> 2-vertex id
        for nid, el in self.elements.items():
            new_id[el] = nid
            if isinstance(el, TwoPath):
                new_id[el.start] = new_id[el.end] = nid
        to_new = {cid: new_id[el] for cid, el in self.condensed_elements.items()}
        h = self.condensed
        g: AnyGraph = (Digraph if h.directed else Graph)(len(self.elements))
        add = g.add_arc if h.directed else g.add_edge
        for u, v in h.arcs if h.directed else h.edges:
            nu, nv = to_new[u], to_new[v]
            if nu != nv and not g.has_arc(nu, nv):
                add(nu, nv)
        return g

    def sides(self, new_id: int) -> tuple[int, int]:
        """The two attachment sides (endpoint host vertices) of a 2-vertex."""
        el = self.elements[new_id]
        if isinstance(el, TwoPath):
            return el.start, el.end
        raise ValueError(f"{new_id} is not a 2-vertex")

    def lift(self, circuit: list[int]) -> list[int]:
        """Map a Hamilton circuit of condensed to the host: a dummy expands
        to its chain's interior, oriented by the element before it."""
        if self.forced_circuit is not None:
            return list(self.forced_circuit)
        els = self.condensed_elements
        out: list[int] = []
        for i, x in enumerate(circuit):
            el = els[x]
            if isinstance(el, TwoPath):
                inner = el.interior
                out.extend(inner if els[circuit[i - 1]] == el.start else inner[::-1])
            else:
                out.append(el)
        return out


def _reduce_graph(g: Graph):
    adj = {v: set(g.adj[v]) for v in g.adj}
    deleted: set[tuple[int, int]] = set()
    n = g.n

    def delete(u, v):
        adj[u].discard(v)
        adj[v].discard(u)
        deleted.add((u, v) if u < v else (v, u))

    while True:
        changed = False
        for v in adj:
            if len(adj[v]) < 2:
                raise ContractError(f"vertex {v} has fewer than 2 usable edges")
        # edges incident to a degree-2 vertex are forced
        forced: dict[int, set[int]] = {v: set() for v in adj}
        for v in adj:
            if len(adj[v]) == 2:
                for w in adj[v]:
                    forced[v].add(w)
                    forced[w].add(v)
        for v in adj:
            if len(forced[v]) > 2:
                raise ContractError(f"vertex {v} has {len(forced[v])} forced edges")
        for v in list(adj):
            if len(forced[v]) == 2 and len(adj[v]) > 2:
                for w in list(adj[v]):
                    if w not in forced[v]:
                        delete(v, w)
                        changed = True
        if changed:
            continue
        # stable: walk chains of degree-2 vertices
        chains: list[list[int]] = []
        forced_cycle: Optional[list[int]] = None
        seen: set[int] = set()
        for s in adj:
            if len(adj[s]) != 2 or s in seen:
                continue
            # walk in one direction to an endpoint or back to s
            path = [s]
            seen.add(s)
            prev, cur = s, next(iter(adj[s]))
            while len(adj[cur]) == 2 and cur != s:
                path.append(cur)
                seen.add(cur)
                nxts = [w for w in adj[cur] if w != prev]
                prev, cur = cur, nxts[0]
            if cur == s:  # closed cycle of degree-2 vertices
                if len(path) == n:
                    forced_cycle = path
                    chains = []
                    break
                raise IsolatedCycleError(
                    f"forced cycle on {len(path)} of {n} vertices"
                )
            path.append(cur)  # first endpoint
            # walk the other direction from s
            prev, cur = s, [w for w in adj[s] if w != path[1]][0]
            head = []
            while len(adj[cur]) == 2:
                head.append(cur)
                seen.add(cur)
                nxts = [w for w in adj[cur] if w != prev]
                prev, cur = cur, nxts[0]
            head.append(cur)
            chain = list(reversed(head)) + path
            if chain[0] == chain[-1]:
                # both walks reached the same endpoint: forced cycle through
                # one junction vertex; spanning iff it covers everything
                if len(chain) - 1 == n:
                    forced_cycle = chain[:-1]
                    chains = []
                    break
                raise IsolatedCycleError(
                    f"forced cycle on {len(chain) - 1} of {n} vertices"
                )
            chains.append(chain)
        if forced_cycle is not None:
            return adj, deleted, [], forced_cycle
        # delete direct endpoint-to-endpoint edges (they skip the interior)
        for chain in chains:
            p, q = chain[0], chain[-1]
            if len(chain) >= 3 and q in adj[p]:
                delete(p, q)
                changed = True
        if not changed:
            return adj, deleted, chains, None


def _reduce_digraph(d: Digraph):
    out = {v: set(d.out_adj[v]) for v in d.out_adj}
    inn = {v: set(d.in_adj[v]) for v in d.in_adj}
    deleted: set[tuple[int, int]] = set()
    n = d.n

    def delete(u, v):
        out[u].discard(v)
        inn[v].discard(u)
        deleted.add((u, v))

    while True:
        changed = False
        for v in out:
            if not out[v] or not inn[v]:
                raise ContractError(f"vertex {v} has no usable in- or out-arc")
        for w in list(inn):
            if len(inn[w]) == 1:
                (u,) = inn[w]
                if len(out[u]) > 1:
                    for z in list(out[u]):
                        if z != w:
                            delete(u, z)
                    changed = True
        for u in list(out):
            if len(out[u]) == 1:
                (w,) = out[u]
                if len(inn[w]) > 1:
                    for z in list(inn[w]):
                        if z != u:
                            delete(z, w)
                    changed = True
        if changed:
            continue
        # forced arcs now have unique out at the tail and unique in at the head
        forced_out = {u: next(iter(out[u])) for u in out if len(out[u]) == 1}
        forced_in = {w for w in inn if len(inn[w]) == 1}
        chains: list[list[int]] = []
        forced_cycle: Optional[list[int]] = None
        seen: set[int] = set()
        for s in forced_out:
            if s in seen:
                continue
            # rewind to the start of this forced path (or detect a cycle)
            start = s
            while start in forced_in:
                (u,) = inn[start]
                if u in forced_out and forced_out[u] == start:
                    if u == s:
                        break  # closed forced cycle
                    start = u
                else:
                    break
            # walk forward
            path = [start]
            seen.add(start)
            cur = start
            closed = False
            while cur in forced_out:
                nxt = forced_out[cur]
                if nxt == start:
                    closed = True
                    break
                if nxt in seen:
                    break
                path.append(nxt)
                seen.add(nxt)
                cur = nxt
            if closed:
                if len(path) == n:
                    forced_cycle = path
                    chains = []
                    break
                raise IsolatedCycleError(
                    f"forced cycle on {len(path)} of {n} vertices"
                )
            if len(path) >= 2:
                chains.append(path)
        if forced_cycle is not None:
            return (out, inn), deleted, [], forced_cycle
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


def contract(g: AnyGraph) -> ContractedGraph:
    """Reduce g's forced chains; see ContractedGraph for the result."""
    if g.directed:
        (adj, _inn), deleted, chains, cyc = _reduce_digraph(g)
    else:
        adj, deleted, chains, cyc = _reduce_graph(g)
    if cyc is not None:
        # whole host collapses to one forced circuit
        one = Digraph(1) if g.directed else Graph(1)
        return ContractedGraph(g, one, {1: cyc[0]}, [], deleted, list(cyc))
    two_paths = [TwoPath(tuple(c), g.directed) for c in chains]
    if not chains:
        # every deletion leaves a chain, so nothing was deleted either
        return ContractedGraph(g, g, {v: v for v in range(1, g.n + 1)}, [], deleted)
    interior: set[int] = set()
    for tp in two_paths:
        interior.update(tp.interior)
    keep = [v for v in range(1, g.n + 1) if v not in interior]
    to_new = {v: i for i, v in enumerate(keep, 1)}
    elements: dict[int, Union[int, TwoPath]] = dict(enumerate(keep, 1))
    dummies = [tp for tp in two_paths if tp.interior]
    for tp in dummies:
        elements[len(elements) + 1] = tp
    cond: AnyGraph = (Digraph if g.directed else Graph)(len(elements))
    add = cond.add_arc if g.directed else cond.add_edge
    # each reduced neighbour set is dropped once read, so the reduction's
    # working copy shrinks as cond grows and the two do not peak together
    for u in range(1, g.n + 1):
        for v in adj.pop(u):
            if (g.directed or u < v) and u not in interior and v not in interior:
                add(to_new[u], to_new[v])
    for dummy, tp in enumerate(dummies, len(keep) + 1):
        add(to_new[tp.start], dummy)
        add(dummy, to_new[tp.end])
    return ContractedGraph(g, cond, elements, two_paths, deleted)
