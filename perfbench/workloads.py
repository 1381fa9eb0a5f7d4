"""The benchmark's four workloads and their independent output checks.

Each workload builds its inputs from the workload seed, warms up, and then
serves an endless deterministic stream of instances: instance i depends
only on (workload, seed, i).  run() times the calls into hamperm; check()
verifies the outputs with the benchmark's own code (it never calls
hamperm's verify_circuit) and raises WrongAnswer on any mismatch.

Calls go through module attributes (hp.solver.solve_graph, not a name
imported once), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from pathlib import Path


class WrongAnswer(Exception):
    """An output failed an independent check."""


SOLVED, CERTIFIED, FAILED = "solved", "certified", "failed"


def _stream_rng(name: str, seed: int, i: int) -> random.Random:
    # str seeds hash with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the Python build
    return random.Random(f"{name}/{seed}/{i}")


def _canon_pairs(pairs, directed: bool) -> frozenset:
    if directed:
        return frozenset(pairs)
    return frozenset((u, v) if u < v else (v, u) for u, v in pairs)


def check_circuit(n: int, pairs: frozenset, directed: bool, circuit) -> None:
    """circuit must be a permutation of 1..n whose cyclic consecutive pairs
    are all in the edge/arc set."""
    if circuit is None or len(circuit) != n or set(circuit) != set(range(1, n + 1)):
        raise WrongAnswer("circuit is not a permutation of 1..n")
    for k in range(n):
        u, v = circuit[k], circuit[(k + 1) % n]
        if not directed and u > v:
            u, v = v, u
        if (u, v) not in pairs:
            raise WrongAnswer(f"circuit uses non-edge ({u}, {v})")


def _solve_outcome(outcome: str) -> str:
    if outcome == "circuit":
        return SOLVED
    if outcome == "infeasible-precondition":
        return CERTIFIED
    return FAILED


def _reach(adj: dict) -> int:
    """Number of vertices reachable from vertex 1 along adj."""
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def _forced_paths(f_out: dict, f_in: dict, directed: bool):
    """Components of the forced edges, which form paths and cycles.
    Returns (shortest cycle length or None, component of each vertex,
    component sizes)."""
    comp: dict[int, int] = {}
    sizes: list[int] = []
    cycle = None
    for s in f_out:
        if s in comp:
            continue
        comp[s] = len(sizes)
        stack, verts, arcs = [s], 0, 0
        while stack:
            v = stack.pop()
            verts += 1
            arcs += len(f_out[v])
            for w in f_out[v] | f_in[v]:
                if w not in comp:
                    comp[w] = comp[s]
                    stack.append(w)
        sizes.append(verts)
        edges = arcs if directed else arcs // 2
        if edges == verts:
            cycle = verts if cycle is None else min(cycle, verts)
    return cycle, comp, sizes


def _forcing_refutes(n: int, out: dict, inn: dict, directed: bool) -> bool:
    """Forced-edge propagation to a fixed point, on copies of the adjacency
    (for a graph, out and inn both hold the neighbours).

    A Hamilton circuit uses two edges at each vertex (digraphs: one in-arc
    and one out-arc), so a vertex left with exactly that many forces them,
    and a vertex whose quota is forced loses its other edges, as does an
    unforced edge inside one forced path shorter than n (it would close a
    short cycle or give a vertex one edge too many).  Returns True when this
    proves there is no Hamilton circuit: a vertex runs short of edges, gets
    more forced edges than it can use, or the forced edges close a cycle
    shorter than n.
    """
    out = {v: set(ws) for v, ws in out.items()}
    inn = {v: set(ws) for v, ws in inn.items()}
    need = 1 if directed else 2
    while True:
        if any(len(out[v]) < need or len(inn[v]) < need for v in out):
            return True
        f_out = {v: set() for v in out}
        f_in = {v: set() for v in out}
        for v in out:
            if len(out[v]) == need:
                for w in out[v]:
                    f_out[v].add(w)
                    f_in[w].add(v)
            if len(inn[v]) == need:
                for u in inn[v]:
                    f_in[v].add(u)
                    f_out[u].add(v)
        if any(len(f_out[v]) > need or len(f_in[v]) > need for v in out):
            return True
        cycle, comp, sizes = _forced_paths(f_out, f_in, directed)
        if cycle is not None:
            return cycle < n
        dropped = False
        for v in out:
            for w in list(out[v]):
                if w in f_out[v]:
                    continue
                if (len(f_out[v]) == need or len(f_in[w]) == need
                        or (comp[v] == comp[w] and sizes[comp[v]] < n)):
                    out[v].discard(w)
                    inn[w].discard(v)
                    dropped = True
        if not dropped:
            return False


def check_certificate(n: int, pairs: frozenset, directed: bool) -> None:
    """An "infeasible-precondition" outcome must be provable with the
    benchmark's own reasoning: the graph is too small, not (strongly)
    connected, or forced-edge propagation refutes every circuit."""
    out = {v: set() for v in range(1, n + 1)}
    inn = {v: set() for v in range(1, n + 1)}
    for u, v in pairs:
        out[u].add(v)
        inn[v].add(u)
        if not directed:
            out[v].add(u)
            inn[u].add(v)
    if n < 3 and not directed:
        return
    if _reach(out) < n or (directed and _reach(inn) < n):
        return
    if _forcing_refutes(n, out, inn, directed):
        return
    raise WrongAnswer("infeasibility claimed for a graph the benchmark "
                      "cannot refute")


class Workload:
    name = ""
    prefix = 1  # instances every run completes; counts and fingerprint use them

    def setup(self, hp, seed: int, scratch: Path) -> None:
        self.hp, self.seed, self.scratch = hp, seed, scratch

    def make(self, i: int):
        raise NotImplementedError

    def run(self, x, pause=None):
        """Time the program on input x; returns (seconds, output).  A
        workload whose instance has long steps calls pause() between them,
        outside the timed regions."""
        raise NotImplementedError

    def check(self, x, out):
        """Returns (status, fingerprint material, quality or None)."""
        raise NotImplementedError

    def warm_up(self, x) -> None:
        self.check(x, self.run(x)[1])


# --------------------------------------------------------------------------
# graph-large: Boll graphs at n=2000 through the CLI and a graph file
# --------------------------------------------------------------------------


def read_edge_file(path: Path):
    """The benchmark's own parser for 'g n m' / 'd n m' edge-list files."""
    lines = [ln.split() for ln in path.read_text().splitlines()]
    lines = [p for p in lines if p and not p[0].startswith("#")]
    kind, n, m = lines[0][0], int(lines[0][1]), int(lines[0][2])
    pairs = [(int(u), int(v)) for u, v in lines[1:]]
    if len(pairs) != m:
        raise WrongAnswer(f"graph file declares {m} pairs, holds {len(pairs)}")
    return kind == "d", n, pairs


class GraphLarge(Workload):
    name = "graph-large"
    prefix = 1
    n = 2000

    def setup(self, hp, seed, scratch):
        super().setup(hp, seed, scratch)
        self.path = scratch / "graph-large.txt"
        self.warm_up((200, 1, 1))

    def make(self, i):
        rng = _stream_rng(self.name, self.seed, i)
        return self.n, rng.randrange(2**31), rng.randrange(2**31)

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.hp.cli.main(argv)
        return code, out.getvalue()

    def run(self, x, pause=None):
        n, gen_seed, solve_seed = x
        path = str(self.path)
        t0 = time.perf_counter()
        gen = self._cli(["gen", "--model", "boll", "--n", str(n), "--seed",
                         str(gen_seed), "--out", path, "--format", "json"])
        t1 = time.perf_counter()
        if pause is not None:
            pause()
        t2 = time.perf_counter()
        solve = self._cli(["solve", path, "--seed", str(solve_seed),
                           "--format", "json"])
        return (t1 - t0) + (time.perf_counter() - t2), (gen, solve)

    def check(self, x, out):
        n = x[0]
        (gcode, gout), (scode, sout) = out
        if gcode != 0:
            return FAILED, ["gen", gcode], None
        directed, fn, pairs = read_edge_file(self.path)
        edges = _canon_pairs(pairs, False)
        if directed or fn != n or len(edges) != len(pairs):
            raise WrongAnswer("generated file is not a simple graph on n vertices")
        deg = [0] * (n + 1)
        for u, v in pairs:
            if u == v or not (1 <= u <= n and 1 <= v <= n):
                raise WrongAnswer(f"bad edge ({u}, {v}) in generated file")
            deg[u] += 1
            deg[v] += 1
        if min(deg[1:]) < 2:
            raise WrongAnswer("Boll graph stopped before minimum degree 2")
        gen_rec = json.loads(gout)
        if gen_rec["metrics"]["edges"] != len(pairs):
            raise WrongAnswer("gen record disagrees with the file's edge count")
        rec = json.loads(sout)
        status = _solve_outcome(rec["outcome"])
        if status == SOLVED:
            check_circuit(n, edges, False, rec["metrics"]["circuit"])
        elif status == CERTIFIED:
            check_certificate(n, edges, False)
        if (scode == 0) != (status == SOLVED):
            raise WrongAnswer(f"exit code {scode} for outcome {rec['outcome']}")
        material = [sorted(edges), rec["outcome"], rec["metrics"]]
        return status, material, None


# --------------------------------------------------------------------------
# batch-small: four random models at n=200 through library calls
# --------------------------------------------------------------------------


class BatchSmall(Workload):
    name = "batch-small"
    prefix = 40
    n = 200
    models = ("boll", "r3", "bolld", "inout")  # the a08 acceptance mix

    def setup(self, hp, seed, scratch):
        super().setup(hp, seed, scratch)
        for k, model in enumerate(self.models):
            self.warm_up((model, 60, k + 1, k + 1))

    def make(self, i):
        # models cycle, so every run holds the same share of each
        rng = _stream_rng(self.name, self.seed, i)
        model = self.models[i % len(self.models)]
        return model, self.n, rng.randrange(2**31), rng.randrange(2**31)

    def _generate(self, model, n, s):
        graphs = self.hp.graphs
        if model == "boll":
            return graphs.gen_boll_graph(n, s)[0]
        if model == "r3":
            return graphs.to_undirected(graphs.gen_m_out(n, 3, s))
        if model == "bolld":
            return graphs.gen_boll_digraph(n, s)[0]
        return graphs.gen_in_out(n, 2, 2, s)

    def run(self, x, pause=None):
        model, n, gen_seed, solve_seed = x
        solver = self.hp.solver
        t0 = time.perf_counter()
        g = self._generate(model, n, gen_seed)
        t1 = time.perf_counter()
        # snapshot the input outside the timed region, before the solver
        # could touch it
        directed = g.directed
        pairs = _canon_pairs(g.arcs if directed else g.edges, directed)
        params = solver.SolveParams(seed=solve_seed)
        t2 = time.perf_counter()
        solve = solver.solve_digraph if directed else solver.solve_graph
        rep = solve(g, params)
        t3 = time.perf_counter()
        return (t1 - t0) + (t3 - t2), (g.n, directed, pairs, rep)

    def check(self, x, out):
        n, directed, pairs, rep = out
        status = _solve_outcome(rep.outcome)
        if status == SOLVED:
            check_circuit(n, pairs, directed, rep.circuit)
        elif status == CERTIFIED:
            check_certificate(n, pairs, directed)
        material = [
            x[0], sorted(pairs), rep.outcome, rep.circuit, rep.iterations,
            rep.successes, rep.failures, rep.backtracks, rep.detail,
        ]
        return status, material, None


# --------------------------------------------------------------------------
# tsp: random symmetric integer weights at n=30
# --------------------------------------------------------------------------


def one_tree_bound(rows) -> int:
    """Best minimum 1-tree bound over every choice of special vertex, in
    exact integers (Held and Karp's bound without penalties)."""
    n = len(rows)
    best = 0
    for s in range(n):
        rest = [v for v in range(n) if v != s]
        # Prim's algorithm on the other vertices
        dist = {v: rows[rest[0]][v] for v in rest[1:]}
        tree = 0
        while dist:
            v = min(dist, key=dist.__getitem__)
            tree += dist.pop(v)
            for u in dist:
                if rows[v][u] < dist[u]:
                    dist[u] = rows[v][u]
        a, b = sorted(rows[s][v] for v in rest)[:2]
        best = max(best, tree + a + b)
    return best


def _random_rows(rng: random.Random, n: int) -> list[list[int]]:
    """A symmetric n x n matrix of integer weights in 1..1000."""
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = rng.randint(1, 1000)
    return rows


class Tsp(Workload):
    name = "tsp"
    prefix = 4
    n = 30
    pool = 64

    def setup(self, hp, seed, scratch):
        super().setup(hp, seed, scratch)
        self.rows = [
            _random_rows(random.Random(f"{self.name}/{seed}/matrix/{j}"), self.n)
            for j in range(self.pool)
        ]
        self.wms = [hp.tsp.WeightMatrix(rows) for rows in self.rows]
        self.bounds: dict[int, int] = {}
        rows = _random_rows(random.Random(f"{self.name}/{seed}/warm-up"), 10)
        self.warm_up((hp.tsp.WeightMatrix(rows), rows, -1, 1))

    def make(self, i):
        rng = _stream_rng(self.name, self.seed, i)
        j = i % self.pool
        return self.wms[j], self.rows[j], j, rng.randrange(2**31)

    def run(self, x, pause=None):
        wm, _rows, _j, solve_seed = x
        t0 = time.perf_counter()
        out = self.hp.tsp.tsp_solve(wm, solve_seed)
        return time.perf_counter() - t0, out

    def check(self, x, out):
        _wm, rows, j, solve_seed = x
        n = len(rows)
        tour, weight, trace = out
        if sorted(tour) != list(range(1, n + 1)):
            raise WrongAnswer("tour is not a permutation of 1..n")
        exact = sum(rows[tour[k] - 1][tour[(k + 1) % n] - 1] for k in range(n))
        if weight != exact:
            raise WrongAnswer(f"reported weight {weight}, recomputed {exact}")
        weights = [step[2] for step in trace]
        if any(b >= a for a, b in zip(weights, weights[1:])):
            raise WrongAnswer("trace weights do not strictly decrease")
        if weight != weights[-1]:
            raise WrongAnswer("returned weight is not the trace's last weight")
        if j not in self.bounds:
            self.bounds[j] = one_tree_bound(rows)
        lb = self.bounds[j]
        if weight < lb:
            raise WrongAnswer(f"weight {weight} below the 1-tree bound {lb}")
        material = [rows, solve_seed, tour, weight, weights]
        return SOLVED, material, weight / lb - 1


# --------------------------------------------------------------------------
# oracle-enum: breadth enumeration against brute force at n=8
# --------------------------------------------------------------------------


def count_circuits(n: int, pairs: frozenset) -> int:
    """Undirected Hamilton circuits of a small graph, by depth-first search
    over paths from vertex 1 (each circuit is found once per direction)."""
    adj = {v: [] for v in range(1, n + 1)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    found = 0
    used = [False] * (n + 1)
    used[1] = True

    def extend(v: int, depth: int) -> None:
        nonlocal found
        if depth == n:
            found += 1 in adj[v]
            return
        for w in adj[v]:
            if not used[w]:
                used[w] = True
                extend(w, depth + 1)
                used[w] = False

    extend(1, 1)
    return found // 2 if n >= 3 else 0


class OracleEnum(Workload):
    name = "oracle-enum"
    prefix = 4
    n = 8
    pool = 64
    # edge counts 13..19 of 28 pairs (density 0.46-0.68), in an order whose
    # every prefix is balanced about the middle: enumeration cost grows
    # steeply with the edge count, so this keeps a run's mix the same
    edge_counts = (16, 13, 19, 14, 18, 15, 17)

    def setup(self, hp, seed, scratch):
        super().setup(hp, seed, scratch)
        pairs = [(u, v) for u in range(1, self.n + 1)
                 for v in range(u + 1, self.n + 1)]
        self.graphs = []
        for j in range(self.pool):
            m = self.edge_counts[j % len(self.edge_counts)]
            rng = random.Random(f"{self.name}/{seed}/graph/{j}")
            edges = sorted(rng.sample(pairs, m))
            self.graphs.append((hp.graphs.Graph(self.n, edges), edges))
        k6 = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
        self.warm_up((hp.graphs.Graph(6, k6), k6))

    def make(self, i):
        return self.graphs[i % self.pool]

    def run(self, x, pause=None):
        g, _edges = x
        oracle = self.hp.oracle
        t0 = time.perf_counter()
        enumerated = oracle.enumerate_all(g)
        brute = oracle.brute_force_circuits(g)
        return time.perf_counter() - t0, (enumerated, brute)

    def check(self, x, out):
        g, edges = x
        enumerated, brute = out
        if list(enumerated) != list(brute):
            raise WrongAnswer(
                f"enumerate_all found {len(enumerated)} circuits, "
                f"brute force {len(brute)}"
            )
        pairs = _canon_pairs(edges, False)
        canon = set()
        for c in brute:
            check_circuit(g.n, pairs, False, list(c))
            k = c.index(1)
            rot = tuple(c[k:]) + tuple(c[:k])
            canon.add(min(rot, rot[:1] + rot[:0:-1]))
        if len(canon) != len(brute):
            raise WrongAnswer("a circuit is listed twice")
        if len(brute) != count_circuits(g.n, pairs):
            raise WrongAnswer("brute force missed circuits")
        return SOLVED, [edges, [list(c) for c in brute]], None


WORKLOADS = {w.name: w for w in (GraphLarge, BatchSmall, Tsp, OracleEnum)}
