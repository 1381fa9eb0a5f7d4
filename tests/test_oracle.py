import math
import random
import sys

import pytest

from hamperm.graphs import (
    Digraph,
    Graph,
    complete_digraph,
    complete_graph,
    cycle_graph,
)
from hamperm.oracle import (
    OracleError,
    RegimeError,
    brute_force_circuits,
    canonical_circuit,
    complement_start_tour,
    constructive_step,
    converge,
    enumerate_all,
    sigma,
    verify_circuit,
)
from hamperm.tour import Move, Tour


def petersen_graph():
    g = Graph(10)
    for i in range(5):
        g.add_edge(i + 1, (i + 1) % 5 + 1)  # outer 5-cycle
        g.add_edge(i + 6, (i + 2) % 5 + 6)  # inner 5-cycle (pentagram)
        g.add_edge(i + 1, i + 6)  # spokes
    return g


def prism_graph(k):
    """C_k x K2: two k-cycles 1..k and k+1..2k joined by spokes i - k+i."""
    g = Graph(2 * k)
    for i in range(1, k + 1):
        g.add_edge(i, i % k + 1)
        g.add_edge(k + i, k + i % k + 1)
        g.add_edge(i, k + i)
    return g


# --------------------------------------------------------------------------
# canonicalization and brute force
# --------------------------------------------------------------------------


def test_canonical_circuit_rotation_and_reflection():
    assert canonical_circuit([3, 4, 1, 2], directed=True) == (1, 2, 3, 4)
    assert canonical_circuit([1, 4, 3, 2], directed=False) == (1, 2, 3, 4)
    assert canonical_circuit([1, 4, 3, 2], directed=True) == (1, 4, 3, 2)


def test_verify_circuit():
    g = cycle_graph(5)
    assert verify_circuit(g, [2, 3, 4, 5, 1])
    assert not verify_circuit(g, [1, 3, 2, 4, 5])
    assert not verify_circuit(g, [1, 2, 3, 4])
    assert not verify_circuit(g, [1, 2, 3, 4, 4])
    # a single edge is no circuit, as brute force and enumeration agree; a
    # 2-cycle of arcs is one
    single = Graph(2, [(1, 2)])
    assert not verify_circuit(single, [1, 2])
    assert brute_force_circuits(single) == enumerate_all(single) == []
    assert verify_circuit(complete_digraph(2), [1, 2])


def test_brute_force_counts():
    assert len(brute_force_circuits(complete_graph(4))) == 3
    assert len(brute_force_circuits(complete_graph(5))) == 12
    assert len(brute_force_circuits(cycle_graph(5))) == 1
    assert len(brute_force_circuits(complete_digraph(4))) == 6
    assert brute_force_circuits(petersen_graph()) == []
    assert enumerate_all(petersen_graph()) == []


def test_enumerate_prism_at_the_cap():
    # n = 10 = ENUMERATE_CAP: the 5-prism has 5 Hamilton circuits
    g = prism_graph(5)
    circuits = enumerate_all(g)
    assert circuits == brute_force_circuits(g)
    assert len(circuits) == 5


def test_brute_force_cap():
    with pytest.raises(OracleError):
        brute_force_circuits(complete_graph(13))


# --------------------------------------------------------------------------
# sigma and constructive convergence
# --------------------------------------------------------------------------


def test_sigma_identity_on_target():
    g = cycle_graph(6)
    t = Tour(g, [1, 2, 3, 4, 5, 6])
    sd = sigma(t, [1, 2, 3, 4, 5, 6])
    assert sd.size == 0 and sd.cycles == []


def test_sigma_composition_property():
    # t . sigma = target pointwise: succ_target(v) = succ_t(sigma(v))
    rng = random.Random(11)
    g = complete_graph(9)
    target = [1] + rng.sample(range(2, 10), 8)
    assert verify_circuit(g, target)
    order = [1] + rng.sample(range(2, 10), 8)
    t = Tour(g, order)
    sd = sigma(t, target)
    for v in range(1, 10):
        assert t.succ(sd.sigma_of(v)) == sd.target_succ[v]


def test_sigma_rejects_non_circuit_target():
    g = cycle_graph(6)
    t = Tour(g, [1, 2, 3, 4, 5, 6])
    with pytest.raises(OracleError):
        sigma(t, [1, 3, 5, 2, 4, 6])


def test_constructive_step_drops_sigma_by_two():
    rng = random.Random(13)
    g = complete_graph(10)
    for _ in range(20):
        target = [1] + rng.sample(range(2, 11), 9)
        order = [1] + rng.sample(range(2, 11), 9)
        t = Tour(g, order)
        sd = sigma(t, target)
        while sd.size:
            m = constructive_step(sd)
            before = sd.size
            t.apply(m)
            sd = sigma(t, target)
            assert sd.size <= before - 2


def test_converge_small_golden():
    g = cycle_graph(6)
    g.add_edge(1, 4)
    target = [1, 2, 3, 4, 5, 6]
    start = complement_start_tour(g, 0)
    moves = converge(g, target, seed=0, start=start.sequence())
    assert 1 <= len(moves) <= 3
    t = Tour(g, start.sequence())
    for m in moves:
        t.apply(m)
    assert canonical_circuit(t.sequence(), False) == canonical_circuit(target, False)


def test_converge_respects_step_bound_and_regime():
    rng = random.Random(17)
    done = 0
    for seed in range(40):
        n = rng.randint(6, 10)
        g = Graph(n)
        circ = [1] + rng.sample(range(2, n + 1), n - 1)
        for i in range(n):
            g.add_edge(circ[i], circ[(i + 1) % n])
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(range(1, n + 1), 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v)
        start = complement_start_tour(g, seed)
        if start is None:
            continue
        moves = converge(g, circ, seed=seed)
        assert len(moves) <= (n + 1) // 2 - 1
        done += 1
    assert done >= 20


def _lead_arcs(t, m):
    """The two created arcs a move is branched on: (a, succ b) and
    (b, succ c) of a 3-cycle (a b c), (a, succ c) and (b, succ d) of a
    POTDT (a c)(b d)."""
    if m.kind == "cycle3":
        a, b, c = m.verts
        return [(a, t.succ(b)), (b, t.succ(c))]
    a, c, b, d = m.verts
    return [(a, t.succ(c)), (b, t.succ(d))]


def _depth_hosts():
    """(n, host): 8 seeded hosts for each n in 3-8, graphs and digraphs in
    turn, at densities from 0.3 up to 1.0."""
    rng = random.Random(29)
    hosts = []
    for n in range(3, 9):
        for k in range(8):
            density = 0.3 + 0.7 * k / 7
            pairs = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(1 if k % 2 else u + 1, n + 1)
                if u != v and rng.random() < density
            ]
            hosts.append((n, Digraph(n, pairs) if k % 2 else Graph(n, pairs)))
    return hosts


def test_constructive_paths_fit_the_enumeration_depth():
    """From the identity tour, constructive steps reach every circuit (in
    both readings, undirected) in at most ceil(n/2) - 1 moves, and each move
    has its two lead arcs in the host, so enumerate_all branches on it: its
    ceil(n/2) - 1 levels find every circuit.  The bound is met at every n,
    and from n = 5 one level fewer misses circuits."""
    longest = {}
    short = set()
    for n, g in _depth_hosts():
        bound = math.ceil(n / 2) - 1
        circuits = brute_force_circuits(g)
        for circ in circuits:
            readings = [circ] if g.directed else [circ, circ[:1] + circ[:0:-1]]
            for target in readings:
                t = Tour(g, list(range(1, n + 1)))
                sd = sigma(t, target)
                steps = 0
                while sd.size:
                    m = constructive_step(sd)
                    assert all(g.has_arc(u, v) for u, v in _lead_arcs(t, m))
                    t.apply(m)
                    steps += 1
                    assert steps <= bound, (n, target)
                    sd = sigma(t, target)
                longest[n] = max(longest.get(n, 0), steps)
        if n >= 5 and enumerate_all(g, bound - 1) != circuits:
            short.add(n)
    assert longest == {n: math.ceil(n / 2) - 1 for n in range(3, 9)}
    assert short == set(range(5, 9))


def test_converge_rejects_regime_violation():
    g = cycle_graph(6)
    g.add_edge(1, 4)
    with pytest.raises(RegimeError):
        converge(g, [1, 2, 3, 4, 5, 6], seed=0, start=[1, 2, 6, 4, 3, 5])


def test_complement_start_tour_avoids_host():
    g = cycle_graph(8)
    t = complement_start_tour(g, 3)
    assert t is not None
    assert all(not g.has_edge(v, t.succ(v)) for v in range(1, 9))


def test_complement_start_tour_dense_host_returns_none():
    assert complement_start_tour(complete_graph(6), 0) is None


# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------


def test_enumerate_matches_brute_force_on_classics():
    for g in (complete_graph(4), cycle_graph(5), complete_graph(6)):
        assert enumerate_all(g) == brute_force_circuits(g)
    # unbalanced complete bipartite: non-Hamiltonian, enumeration agrees
    k34 = Graph(7, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6, 7)])
    assert enumerate_all(k34) == brute_force_circuits(k34) == []


def test_enumerate_matches_brute_force_directed():
    d = complete_digraph(5)
    assert enumerate_all(d) == brute_force_circuits(d)


def test_enumerate_cap():
    with pytest.raises(OracleError):
        enumerate_all(complete_graph(11))


def test_enumerate_random_graphs():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(5, 8)
        g = Graph(n)
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < rng.uniform(0.3, 0.8):
                    g.add_edge(u, v)
        assert enumerate_all(g) == brute_force_circuits(g)


def test_complement_start_tour_is_not_recursive():
    # the complement of C_300 has exactly one Hamilton circuit, C_300
    # itself; the backtracking reaches depth 300, past the lowered limit
    n = 300
    cycle = cycle_graph(n)
    host = Graph(
        n,
        [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if not cycle.has_edge(u, v)
        ],
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        t = complement_start_tour(host, 7)
    finally:
        sys.setrecursionlimit(limit)
    assert t is not None
    seq = t.sequence_from(1)
    assert seq in (list(range(1, n + 1)), [1] + list(range(n, 1, -1)))


def _complement_start_tour_recursive(g, seed, tries=64):
    """complement_start_tour as it was written with a recursive search."""
    rng = random.Random(seed)
    n = g.n
    verts = list(range(1, n + 1))

    def anti_succ(v):
        return [w for w in verts if w != v and not g.has_arc(v, w)]

    for _ in range(tries):
        rng.shuffle(verts)
        if all(not g.has_arc(verts[i], verts[(i + 1) % n]) for i in range(n)):
            return list(verts)
    verts.sort()
    order = [1]
    used = {1}

    def extend():
        v = order[-1]
        cands = [w for w in anti_succ(v) if w not in used]
        rng.shuffle(cands)
        for w in cands:
            order.append(w)
            used.add(w)
            if len(order) == n:
                if not g.has_arc(w, 1):
                    return list(order)
            else:
                got = extend()
                if got:
                    return got
            order.pop()
            used.discard(w)
        return None

    return extend()


def test_complement_start_tour_matches_recursive_search():
    rng = random.Random(11)
    for seed in range(150):
        n = rng.randint(1, 9)
        density = rng.random()
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < density
        ]
        g = Graph(n, edges)
        for tries in (0, 2):
            t = complement_start_tour(g, seed, tries=tries)
            want = _complement_start_tour_recursive(g, seed, tries)
            assert (t.order if t else None) == want
