"""The enumeration oracle as it was before enumerate_all built children from
list slices and brute_force_circuits searched with an explicit stack, kept
verbatim as the reference for tests/test_oracle_reference.py: every child
tour is rebuilt by walking all n successors through the move's mapping
(_apply_mapping), and brute force recurses once per path vertex.  Both
current functions must return exactly these lists.  Nothing in src/ imports
this module.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from hamperm.graphs import AnyGraph
from hamperm.oracle import BRUTE_FORCE_CAP, ENUMERATE_CAP, OracleError, verify_circuit


def canonical_circuit(seq: Sequence[int], directed: bool) -> tuple[int, ...]:
    """Least rotation (and, undirected, reflection) starting at vertex 1."""
    seq = list(seq)
    i = seq.index(1)
    rot = tuple(seq[i:] + seq[:i])
    if directed:
        return rot
    rev = (rot[0],) + tuple(reversed(rot[1:]))
    return min(rot, rev)


def brute_force_circuits(g: AnyGraph) -> list[tuple[int, ...]]:
    """All Hamilton circuits of g, canonicalized and sorted.  n <= 12."""
    if g.n > BRUTE_FORCE_CAP:
        raise OracleError(
            f"brute force is capped at n <= {BRUTE_FORCE_CAP} (got n={g.n}); "
            "use the solver for larger hosts"
        )
    n = g.n
    if n == 1:
        return []
    succ_of = (lambda v: g.out_adj[v]) if g.directed else (lambda v: g.adj[v])
    pred_of = (lambda v: g.in_adj[v]) if g.directed else (lambda v: g.adj[v])
    found: set[tuple[int, ...]] = set()
    path = [1]
    used = {1}

    def extend() -> None:
        v = path[-1]
        if len(path) == n:
            if 1 in succ_of(v):
                found.add(canonical_circuit(path, g.directed))
            return
        for w in succ_of(v):
            if w not in used:
                used.add(w)
                path.append(w)
                extend()
                path.pop()
                used.discard(w)

    if n >= 3 or (n == 2 and g.directed):
        extend()
    if n == 2 and not g.directed:
        return []  # a single edge is not a circuit
    return sorted(found)


def _splice_pairs(g: AnyGraph, order: list[int], pos: dict[int, int]):
    """All (a, b) with b = pred(x) for a host arc (a, x): the move lead
    positions whose created arc (a, old-succ(b)) lands in the host."""
    n = len(order)
    out = []
    nbrs = (lambda v: g.out_adj[v]) if g.directed else (lambda v: g.adj[v])
    for a in order:
        for x in nbrs(a):
            b = order[pos[x] - 1]  # pred(x); pos is 0-based, -1 wraps
            if b != a:
                out.append((a, b))
    return out


def _apply_mapping(order: list[int], pos: dict[int, int], mapping: dict[int, int]):
    """New order after composing the tour with the given permutation:
    succ'(v) = succ(mapping[v]).  Returns None if the result splits."""
    n = len(order)
    new = [order[0]]
    v = order[0]
    for _ in range(n - 1):
        w = mapping.get(v, v)
        v = order[(pos[w] + 1) % n]
        new.append(v)
    w = mapping.get(v, v)
    if order[(pos[w] + 1) % n] != new[0] or len(set(new)) != n:
        return None
    return new


def enumerate_all(
    g: AnyGraph, depth_cap: Optional[int] = None
) -> list[tuple[int, ...]]:
    """All Hamilton circuits of g by breadth-wise branching.

    Start from the identity tour, treat every vertex as movable, branch on
    every admissible 3-cycle/POTDT whose lead created arcs are host arcs,
    and collect circuits within ceil(n/2) levels.  Must equal
    brute_force_circuits(g) as a set.
    """
    n = g.n
    if n > ENUMERATE_CAP:
        raise OracleError(
            f"enumerate_all is capped at n <= {ENUMERATE_CAP} (got n={g.n})"
        )
    if n < 3:
        return brute_force_circuits(g)
    if depth_cap is None:
        depth_cap = math.ceil(n / 2)
    start = tuple(range(1, n + 1))
    seen: set[tuple[int, ...]] = set()
    results: set[tuple[int, ...]] = set()
    frontier = [start]
    seen.add(canonical_circuit(start, g.directed))
    if verify_circuit(g, start):
        results.add(canonical_circuit(start, g.directed))
    for _depth in range(depth_cap):
        nxt: list[tuple[int, ...]] = []
        for state in frontier:
            order = list(state)
            pos = {v: i for i, v in enumerate(order)}

            def clockwise(a, b, c):
                pa = pos[a]
                return (pos[b] - pa) % n < (pos[c] - pa) % n

            def interlace(a, c, b, d):
                pa = pos[a]
                qb, qc, qd = (
                    (pos[b] - pa) % n,
                    (pos[c] - pa) % n,
                    (pos[d] - pa) % n,
                )
                return (qb < qc) != (qd < qc)

            leads = _splice_pairs(g, order, pos)
            mappings: list[dict[int, int]] = []
            nbrs = (
                (lambda v: g.out_adj[v]) if g.directed else (lambda v: g.adj[v])
            )
            for a, b in leads:
                # 3-cycles (a b c): lead arcs land at a and b
                for y in nbrs(b):
                    c = order[pos[y] - 1]
                    if c not in (a, b) and clockwise(a, b, c):
                        mappings.append({a: b, b: c, c: a})
            for i, (a, c) in enumerate(leads):
                for b, d in leads[i + 1 :]:
                    if len({a, b, c, d}) < 4:
                        continue
                    if interlace(a, c, b, d):
                        mappings.append({a: c, c: a, b: d, d: b})
            for mp in mappings:
                new = _apply_mapping(order, pos, mp)
                if new is None:
                    continue
                key = canonical_circuit(new, g.directed)
                if key in seen:
                    continue
                seen.add(key)
                if verify_circuit(g, new):
                    results.add(key)
                nxt.append(tuple(new))
        frontier = nxt
        if not frontier:
            break
    return sorted(results)
