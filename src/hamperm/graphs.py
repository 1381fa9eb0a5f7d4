"""Graph and digraph types, random models, and edge-list file I/O.

Vertices are 1-based integers throughout (in memory and on disk).  A graph
stores each edge once, in its adjacency sets.

Random models:
    * gen_boll_graph    - uniformly shuffle the edges of K_n, keep the shortest
                          prefix in which every vertex has degree >= 2.
    * gen_boll_digraph  - same over all arcs, stopping when every vertex has
                          in- and out-degree >= threshold (default 1).
    * gen_m_out         - exactly m random distinct out-arcs per vertex.
    * gen_in_out        - i random out-choices plus o random in-choices per
                          vertex, merged.
    * to_undirected     - forget orientation.

Generation takes O(m) expected time and memory, never O(n^2).  The Boll
models draw uniform pairs and reject repeats: the prefix of a uniform
permutation is a sample without replacement, so this is exactly the
shuffled-prefix distribution, drawn with fewer random numbers (O(m) while
the stopped prefix is a small fraction of all pairs, as it is at the
default thresholds).  gen_m_out and gen_in_out sample target indices
instead of building a candidate list per vertex; their output is the same
as that of the list-based draws.  The Boll pairs are randrange's stream
read straight from getrandbits (_random_pairs).  The generators fill the
adjacency sets directly and set m once, since a drawn pair is valid by
construction; add_edge/add_arc validate only external input (callers and
read_graph).  The generators and read_graph name each vertex by one shared
int object, so the adjacency sets hold n label ints rather than one int per
edge end.

File format (see read_graph/write_graph):
    line 1: "g n m" (undirected) or "d n m" (directed)
    then m lines "u v", 1-based; lines starting with "#" are comments.
    Canonical write order is lexicographic.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Union


class ParseError(ValueError):
    """Malformed graph/weight file; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Graph:
    """Simple undirected graph on vertices 1..n.

    adj is the only edge store; m counts the edges added.  edges, the set of
    (u, v) with u < v, is built from adj on each access in O(m): it serves
    I/O and tests, not hot loops.
    """

    directed = False

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        self.m = 0
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop edge {u}-{v}")
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"vertex out of range in edge {u}-{v}")
        if v in self.adj[u]:
            raise ValueError(f"duplicate edge {u}-{v}")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.m += 1

    @property
    def edges(self) -> set[tuple[int, int]]:
        return {(u, v) for u, ws in self.adj.items() for v in ws if u < v}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min(len(self.adj[v]) for v in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    # Uniform membership interface shared with Digraph: an "arc" of an
    # undirected graph is either orientation of an edge.
    def has_arc(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def copy(self) -> "Graph":
        return Graph(self.n, self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Digraph:
    """Simple directed graph on vertices 1..n (no loops, no duplicate arcs).

    out_adj and in_adj are the only arc store; m counts the arcs added.
    arcs is built from out_adj on each access in O(m): it serves I/O and
    tests, not hot loops.
    """

    directed = True

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.out_adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        self.in_adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        self.m = 0
        for u, v in arcs:
            self.add_arc(u, v)

    def add_arc(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop arc ({u},{v})")
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"vertex out of range in arc ({u},{v})")
        if v in self.out_adj[u]:
            raise ValueError(f"duplicate arc ({u},{v})")
        self.out_adj[u].add(v)
        self.in_adj[v].add(u)
        self.m += 1

    @property
    def arcs(self) -> set[tuple[int, int]]:
        return {(u, v) for u, ws in self.out_adj.items() for v in ws}

    def outdeg(self, v: int) -> int:
        return len(self.out_adj[v])

    def indeg(self, v: int) -> int:
        return len(self.in_adj[v])

    def min_outdeg(self) -> int:
        return min(len(self.out_adj[v]) for v in self.out_adj)

    def min_indeg(self) -> int:
        return min(len(self.in_adj[v]) for v in self.in_adj)

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out_adj[u]

    def copy(self) -> "Digraph":
        return Digraph(self.n, self.arcs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Digraph) and self.out_adj == other.out_adj

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


AnyGraph = Union[Graph, Digraph]


def complete_graph(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def complete_digraph(n: int) -> Digraph:
    return Digraph(
        n, ((u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v)
    )


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def _random_pairs(
    rng: random.Random, labels: list[int]
) -> Iterator[tuple[int, int]]:
    """Uniform ordered pairs (u, v) of distinct vertices of 1..n, as the
    label ints of labels = list(range(n + 1)), without end.

    Each pair is the stream of randrange(1, n + 1) and randrange(1, n), read
    from getrandbits by randrange's own rejection loop (draw bit_length(w)
    bits, redraw while the value is >= the width w), so a seed gives the
    same pairs as those two calls, without their Python frames."""
    n = len(labels) - 1
    getrandbits = rng.getrandbits
    ku, kv = n.bit_length(), (n - 1).bit_length()
    while True:
        u = getrandbits(ku)
        while u >= n:
            u = getrandbits(ku)
        v = getrandbits(kv)
        while v >= n - 1:
            v = getrandbits(kv)
        yield labels[u + 1], labels[v + 1 if v < u else v + 2]


def gen_boll_graph(n: int, seed: int) -> tuple[Graph, int]:
    """Random-permutation prefix of K_n's edges, stopped at min degree >= 2.

    The permutation is drawn edge by edge: uniform pairs, repeats rejected.
    Returns the graph and the stopping index m'' (number of edges kept).
    """
    if n < 3:
        raise ValueError("gen_boll_graph requires n >= 3")
    g = Graph(n)
    adj = g.adj
    m = 0
    deficient = n  # vertices with degree < 2
    for u, v in _random_pairs(random.Random(seed), list(range(n + 1))):
        au = adj[u]
        if v in au:
            continue
        av = adj[v]
        deficient -= (len(au) == 1) + (len(av) == 1)
        au.add(v)
        av.add(u)
        m += 1
        if not deficient:
            break
    g.m = m
    return g, m


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
    d = Digraph(n)
    out_adj, in_adj = d.out_adj, d.in_adj
    m = 0
    below = threshold - 1
    deficient = 2 * n  # (vertex, side) pairs below threshold
    for u, v in _random_pairs(random.Random(seed), list(range(n + 1))):
        ou = out_adj[u]
        if v in ou:
            continue
        iv = in_adj[v]
        deficient -= (len(ou) == below) + (len(iv) == below)
        ou.add(v)
        iv.add(u)
        m += 1
        if not deficient:
            break
    d.m = m
    return d, m


def gen_m_out(n: int, m: int, seed: int) -> Digraph:
    """Exactly m distinct random out-arcs per vertex."""
    if not (1 <= m <= n - 1):
        raise ValueError("gen_m_out requires 1 <= m <= n-1")
    rng = random.Random(seed)
    d = Digraph(n)
    out_adj, in_adj = d.out_adj, d.in_adj
    labels = list(range(n + 1))
    others = range(n - 1)
    for v in labels[1:]:
        ov = out_adj[v]
        # the j-th vertex other than v is j + 1 below v and j + 2 from v on
        for j in rng.sample(others, m):
            w = labels[j + 1 if j + 1 < v else j + 2]
            ov.add(w)
            in_adj[w].add(v)
    d.m = n * m
    return d


def gen_in_out(n: int, i: int, o: int, seed: int) -> Digraph:
    """i random out-choices and o random in-choices per vertex, merged."""
    if not (1 <= i <= n - 1 and 1 <= o <= n - 1):
        raise ValueError("gen_in_out requires 1 <= i,o <= n-1")
    rng = random.Random(seed)
    d = Digraph(n)
    out_adj, in_adj = d.out_adj, d.in_adj
    labels = list(range(n + 1))
    others = range(n - 1)
    m = 0
    for v in labels[1:]:
        ov, iv = out_adj[v], in_adj[v]
        # the j-th vertex other than v is j + 1 below v and j + 2 from v on
        for j in rng.sample(others, i):
            w = labels[j + 1 if j + 1 < v else j + 2]
            if w not in ov:
                ov.add(w)
                in_adj[w].add(v)
                m += 1
        for j in rng.sample(others, o):
            u = labels[j + 1 if j + 1 < v else j + 2]
            if u not in iv:
                out_adj[u].add(v)
                iv.add(u)
                m += 1
    d.m = m
    return d


def to_undirected(d: Digraph) -> Graph:
    """Forget arc orientation; antiparallel arc pairs collapse to one edge."""
    g = Graph(d.n)
    adj = g.adj
    m = 0
    for u, ws in d.out_adj.items():
        au = adj[u]
        for v in ws:
            if v not in au:
                au.add(v)
                adj[v].add(u)
                m += 1
    g.m = m
    return g


def _reaches_all(adj, n: int) -> bool:
    """True iff every vertex 1..n is reachable from vertex 1 along adj."""
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_connected(g: Graph) -> bool:
    return _reaches_all(g.adj, g.n)


def is_strongly_connected(d: Digraph) -> bool:
    return _reaches_all(d.out_adj, d.n) and _reaches_all(d.in_adj, d.n)


def write_graph(g: AnyGraph, path: str) -> None:
    adj = g.out_adj if g.directed else g.adj
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{'d' if g.directed else 'g'} {g.n} {g.m}\n")
        for u in range(1, g.n + 1):
            for v in sorted(adj[u]):
                if g.directed or v > u:
                    fh.write(f"{u} {v}\n")


def read_graph(path: str) -> AnyGraph:
    header = None
    header_line = 0
    g: AnyGraph | None = None
    expected = 0
    # one int object per vertex label, shared by every edge that names it
    labels: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # split() and strip() both cut at str.isspace, so parts[0] starts
            # where the stripped line does
            parts = raw.split()
            if not parts or parts[0][0] == "#":
                continue
            if header is None:
                if len(parts) != 3 or parts[0] not in ("g", "d"):
                    raise ParseError("expected header 'g n m' or 'd n m'", lineno)
                try:
                    n, expected = int(parts[1]), int(parts[2])
                except ValueError:
                    raise ParseError("non-integer header fields", lineno) from None
                if n < 1 or expected < 0:
                    raise ParseError("header values out of range", lineno)
                header = parts[0]
                header_line = lineno
                g = Digraph(n) if header == "d" else Graph(n)
                add = g.add_arc if header == "d" else g.add_edge
                continue
            if len(parts) != 2:
                raise ParseError("expected 'u v'", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("non-integer vertex", lineno) from None
            try:
                add(labels.setdefault(u, u), labels.setdefault(v, v))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    if header is None:
        raise ParseError("empty file", 1)
    if g.m != expected:
        raise ParseError(
            f"header declares {expected} lines but found {g.m}", header_line
        )
    return g
