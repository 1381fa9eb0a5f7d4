"""The random generators as they were written with one randrange pair per
draw and one validating add_edge/add_arc call per edge.

Test reference only: tests/test_graphs.py checks that hamperm.graphs gives
the same adjacency sets, in the same insertion order, and the same edge
counts for each seed.
"""

from __future__ import annotations

import random

from hamperm.graphs import Digraph, Graph


def _random_pair(rng: random.Random, labels: list[int]) -> tuple[int, int]:
    """A uniform ordered pair (u, v) of distinct vertices of 1..n, as the
    label ints of labels = list(range(n + 1))."""
    n = len(labels) - 1
    u = rng.randrange(1, n + 1)
    v = rng.randrange(1, n)
    return labels[u], labels[v if v < u else v + 1]


def _other(labels: list[int], v: int, j: int) -> int:
    """The j-th (0-based) vertex of 1..n other than v, as its label int."""
    return labels[j + 1 if j + 1 < v else j + 2]


def gen_boll_graph(n: int, seed: int) -> tuple[Graph, int]:
    """Random-permutation prefix of K_n's edges, stopped at min degree >= 2.

    The permutation is drawn edge by edge: uniform pairs, repeats rejected.
    Returns the graph and the stopping index m'' (number of edges kept).
    """
    if n < 3:
        raise ValueError("gen_boll_graph requires n >= 3")
    rng = random.Random(seed)
    g = Graph(n)
    adj = g.adj
    labels = list(range(n + 1))
    deficient = n  # vertices with degree < 2
    while deficient:
        u, v = _random_pair(rng, labels)
        if v in adj[u]:
            continue
        deficient -= (len(adj[u]) == 1) + (len(adj[v]) == 1)
        g.add_edge(u, v)
    return g, g.m


def gen_boll_digraph(
    n: int, seed: int, threshold: int = 1
) -> tuple[Digraph, int]:
    """Random-permutation prefix of all arcs, stopped when every vertex has
    in-degree and out-degree >= threshold (default 1).

    The permutation is drawn arc by arc: uniform ordered pairs, repeats
    rejected.  Returns the digraph and the number of arcs kept."""
    if n < 2:
        raise ValueError("gen_boll_digraph requires n >= 2")
    if threshold < 1 or threshold > n - 1:
        raise ValueError("threshold out of range")
    rng = random.Random(seed)
    d = Digraph(n)
    out_adj, in_adj = d.out_adj, d.in_adj
    labels = list(range(n + 1))
    below = threshold - 1
    deficient = 2 * n  # (vertex, side) pairs below threshold
    while deficient:
        u, v = _random_pair(rng, labels)
        if v in out_adj[u]:
            continue
        deficient -= (len(out_adj[u]) == below) + (len(in_adj[v]) == below)
        d.add_arc(u, v)
    return d, d.m


def gen_m_out(n: int, m: int, seed: int) -> Digraph:
    """Exactly m distinct random out-arcs per vertex."""
    if not (1 <= m <= n - 1):
        raise ValueError("gen_m_out requires 1 <= m <= n-1")
    rng = random.Random(seed)
    d = Digraph(n)
    labels = list(range(n + 1))
    others = range(n - 1)
    for v in labels[1:]:
        for j in rng.sample(others, m):
            d.add_arc(v, _other(labels, v, j))
    return d


def gen_in_out(n: int, i: int, o: int, seed: int) -> Digraph:
    """i random out-choices and o random in-choices per vertex, merged."""
    if not (1 <= i <= n - 1 and 1 <= o <= n - 1):
        raise ValueError("gen_in_out requires 1 <= i,o <= n-1")
    rng = random.Random(seed)
    d = Digraph(n)
    labels = list(range(n + 1))
    others = range(n - 1)
    for v in labels[1:]:
        for j in rng.sample(others, i):
            w = _other(labels, v, j)
            if not d.has_arc(v, w):
                d.add_arc(v, w)
        for j in rng.sample(others, o):
            u = _other(labels, v, j)
            if not d.has_arc(u, v):
                d.add_arc(u, v)
    return d


def to_undirected(d: Digraph) -> Graph:
    """Forget arc orientation; antiparallel arc pairs collapse to one edge."""
    g = Graph(d.n)
    for u, ws in d.out_adj.items():
        for v in ws:
            if not g.has_edge(u, v):
                g.add_edge(u, v)
    return g
