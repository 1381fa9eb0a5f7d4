"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test freezes one externally meaningful guarantee of the package; the
aXX prefixes keep the cheap checks first and the statistical batches last.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from goldens import STRIP_MOVES, STRIP_PSEUDO, STRIP_TOURS, strip_complement_host
from hamperm.cli import main as cli_main
from hamperm.contract import ContractError, ExpandError, contract, expand
from hamperm.graphs import (
    Digraph,
    Graph,
    complete_graph,
    cycle_graph,
    gen_boll_digraph,
    gen_boll_graph,
    gen_in_out,
    gen_m_out,
    to_undirected,
    write_graph,
)
from hamperm.oracle import (
    brute_force_circuits,
    canonical_circuit,
    complement_start_tour,
    converge,
    enumerate_all,
    sigma,
    verify_circuit,
)
from hamperm.problab import (
    estimate_admissible_3cycle,
    estimate_chords_intersect,
    exhaustive_admissible_3cycle,
    exhaustive_chords_intersect,
    lemma1_probs,
    lemma2_probs,
    p_admissible_3cycle,
    p_chords_intersect,
    p_two_admissible_pair,
)
from hamperm.solver import SolveParams, solve_digraph, solve_graph
from hamperm.tour import Abbreviation, Move, Tour
from hamperm.tsp import WeightMatrix, tour_weight, tsp_solve


# ==========================================================================
# a01: worked-example goldens (exact)
# ==========================================================================


def test_a01_golden_compositions():
    t = Tour(complete_graph(12), list(range(1, 13)))
    t.apply(Move.cycle3(1, 4, 8))
    assert t.sequence() == [1, 5, 6, 7, 8, 2, 3, 4, 9, 10, 11, 12]

    t = Tour(complete_graph(12), list(range(1, 13)))
    t.apply(Move.potdt(2, 6, 4, 8))
    assert t.sequence() == [1, 2, 7, 8, 5, 6, 3, 4, 9, 10, 11, 12]

    t = Tour(complete_graph(10), list(range(1, 11)))
    t.apply(Move.potdt(3, 7, 4, 9))
    assert t.sequence() == [1, 2, 3, 8, 9, 5, 6, 7, 4, 10]


def test_a01_golden_abbreviation_sequence():
    base = Tour(
        complete_graph(15),
        [1, 14, 8, 4, 3, 12, 7, 13, 10, 6, 11, 5, 15, 9, 2],
    )
    abb = Abbreviation(base)
    abb.apply_move(Move.cycle3(1, 4, 7))
    assert abb.ordinal_sequence() == [
        1, 5, 6, 7, 2, 3, 4, 8, 9, 10, 11, 12, 13, 14, 15]
    abb.rotate(7, 10)
    assert abb.ordinal_sequence() == [
        1, 5, 6, 7, 9, 8, 4, 3, 2, 10, 11, 12, 13, 14, 15]
    abb.apply_move(Move.cycle3(14, 9, 12))
    assert abb.ordinal_sequence() == [
        1, 5, 6, 10, 11, 12, 13, 14, 7, 9, 8, 4, 3, 2, 15]
    abb.apply_move(Move.potdt(3, 15, 12, 14))
    assert abb.ordinal_sequence() == [
        1, 5, 14, 7, 9, 8, 4, 3, 2, 10, 11, 12, 13, 6, 15]


def test_a01_golden_stripping_replay():
    host = strip_complement_host()
    t = Tour(host, STRIP_TOURS[0])
    assert t.pseudo_vertices() == STRIP_PSEUDO[0]
    for i, m in enumerate(STRIP_MOVES):
        t.apply(m)
        assert t.sequence_from(1) == STRIP_TOURS[i + 1]
        if i + 1 in STRIP_PSEUDO:
            assert t.pseudo_vertices() == STRIP_PSEUDO[i + 1]


# ==========================================================================
# a02: exact rational identities
# ==========================================================================


def test_a02_probability_identities():
    for n in range(4, 1001):
        assert sum(lemma1_probs(n)) == 1
        assert sum(lemma2_probs(n)) == 1
        p, pp = p_two_admissible_pair(n)
        assert p + pp == 1


# ==========================================================================
# a03: exhaustive counting models equal the closed forms
# ==========================================================================


def test_a03_exhaustive_models():
    for n in (5, 6, 7, 8):
        assert exhaustive_admissible_3cycle(n) == Fraction(n - 3, 2 * (n - 2))
        assert exhaustive_chords_intersect(n) == Fraction(n - 3, 3 * (n - 2))


# ==========================================================================
# a04: Monte Carlo convergence at n=50, 10^6 trials
# ==========================================================================


def test_a04_monte_carlo_convergence():
    st = estimate_admissible_3cycle(50, 1_000_000, seed=1)
    assert st.target == Fraction(47, 96)
    assert st.abs_error < 0.005
    st2 = estimate_chords_intersect(50, 1_000_000, seed=1)
    assert st2.target == Fraction(47, 144)
    assert st2.abs_error < 0.005


# ==========================================================================
# a05: admissibility triple-equivalence
# ==========================================================================


def _product_is_ncycle(order, pos, succ, perm):
    """succ'(v) = succ(perm(v)): does the product close a single n-cycle?"""
    n = len(order)
    start = order[0]
    v = succ[perm.get(start, start)]
    steps = 1
    while v != start:
        v = succ[perm.get(v, v)]
        steps += 1
        if steps > n:
            return False
    return steps == n


def _tour_tables(order):
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}
    succ = {v: order[(i + 1) % n] for i, v in enumerate(order)}
    return pos, succ


def test_a05_triple_equivalence_exhaustive_small_n():
    for n in range(3, 9):
        verts = list(range(1, n + 1))
        triples = list(itertools.combinations(verts, 3))
        quads = list(itertools.combinations(verts, 4))
        pairs = list(itertools.combinations(verts, 2))
        for rest in itertools.permutations(verts[1:]):
            order = [1, *rest]
            pos, succ = _tour_tables(order)

            def cw(a, b, c):
                pa = pos[a]
                return (pos[b] - pa) % n < (pos[c] - pa) % n

            def il(a, c, b, d):
                pa = pos[a]
                qc = (pos[c] - pa) % n
                return ((pos[b] - pa) % n < qc) != ((pos[d] - pa) % n < qc)

            for x, y, z in triples:
                for a, b, c in ((x, y, z), (x, z, y)):
                    ok = _product_is_ncycle(order, pos, succ, {a: b, b: c, c: a})
                    assert cw(a, b, c) == ok
            for w, x, y, z in quads:
                for (a, c), (b, d) in (
                    ((w, x), (y, z)),
                    ((w, y), (x, z)),
                    ((w, z), (x, y)),
                ):
                    ok = _product_is_ncycle(
                        order, pos, succ, {a: c, c: a, b: d, d: b}
                    )
                    assert il(a, c, b, d) == ok
            if n >= 4:
                for x, y in pairs:
                    assert not _product_is_ncycle(
                        order, pos, succ, {x: y, y: x}
                    )


def test_a05_triple_equivalence_random_large_n():
    rng = random.Random(2024)
    sizes = [4, 6, 10, 25, 50, 100, 200]
    hosts = {n: complete_graph(n) for n in sizes}
    cases = 0
    while cases < 100_000:
        n = rng.choice(sizes)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        t = Tour(hosts[n], order)
        pos, succ = _tour_tables(order)
        for _ in range(200):
            if cases >= 100_000:
                break
            if rng.random() < 0.5 or n < 4:
                a, b, c = rng.sample(range(1, n + 1), 3)
                m = Move.cycle3(a, b, c)
                geo = t.clockwise(a, b, c)
                perm = {a: b, b: c, c: a}
            else:
                a, c, b, d = rng.sample(range(1, n + 1), 4)
                m = Move.potdt(a, c, b, d)
                geo = t.interlace(a, c, b, d)
                perm = {a: c, c: a, b: d, d: b}
            ok = _product_is_ncycle(order, pos, succ, perm)
            assert geo == ok == t.admissible(m)
            cases += 1


# ==========================================================================
# a06: constructive convergence on seeded Hamiltonian hosts
# ==========================================================================


def _random_hamiltonian_host(rng):
    n = rng.randint(6, 10)
    circ = [1] + rng.sample(range(2, n + 1), n - 1)
    g = Graph(n)
    for i in range(n):
        g.add_edge(circ[i], circ[(i + 1) % n])
    for _ in range(rng.randint(0, 3)):
        u, v = rng.sample(range(1, n + 1), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v)
    return g, circ


def test_a06_constructive_convergence():
    rng = random.Random(99)
    done = 0
    seed = 0
    while done < 200:
        seed += 1
        g, circ = _random_hamiltonian_host(rng)
        start = complement_start_tour(g, seed)
        if start is None:
            continue
        bf = brute_force_circuits(g)
        assert canonical_circuit(circ, False) in bf
        moves = converge(g, circ, seed=seed, start=start.sequence())
        n = g.n
        assert len(moves) <= math.ceil(n / 2)
        # replay, checking the sigma/PSEUDO invariants at every step
        t = Tour(g, start.sequence())
        sd = sigma(t, circ)
        for m in moves:
            assert sd.moved == t.pseudo_vertices()
            before = sd.size
            t.apply(m)
            sd = sigma(t, circ)
            assert sd.size <= before - 2
        assert sd.size == 0 and t.is_circuit()
        done += 1


# ==========================================================================
# a07: breadth enumeration equals brute force
# ==========================================================================


def test_a07_enumeration_equals_brute_force():
    assert enumerate_all(complete_graph(4)) == brute_force_circuits(
        complete_graph(4)
    )
    assert enumerate_all(cycle_graph(5)) == brute_force_circuits(cycle_graph(5))
    rng = random.Random(77)
    sizes = [5] * 70 + [6] * 60 + [7] * 45 + [8] * 18 + [9] * 7
    for i, n in enumerate(sizes):
        density = rng.uniform(0.3, 0.8) if n < 8 else rng.uniform(0.3, 0.45)
        g = Graph(n)
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < density:
                    g.add_edge(u, v)
        assert enumerate_all(g) == brute_force_circuits(g), f"instance {i}"


# ==========================================================================
# a09: contraction pipeline soundness (before the slow statistical batches)
# ==========================================================================


def _chain_host(seed):
    """A random small host with 1-2 subdivided edges (injected chains)."""
    rng = random.Random(seed)
    directed = seed % 2 == 1
    n0 = rng.randint(4, 6)
    if directed:
        g = Digraph(n0)
        for u in range(1, n0 + 1):
            for v in range(1, n0 + 1):
                if u != v and rng.random() < rng.uniform(0.5, 0.9):
                    g.add_arc(u, v)
        pairs = sorted(g.arcs)
    else:
        g = Graph(n0)
        for u in range(1, n0 + 1):
            for v in range(u + 1, n0 + 1):
                if rng.random() < rng.uniform(0.5, 0.9):
                    g.add_edge(u, v)
        pairs = sorted(g.edges)
    if not pairs:
        return None
    extra = rng.randint(1, min(2, len(pairs)))
    chosen = rng.sample(pairs, extra)
    interior_budget = 3
    n = n0
    rebuilt = set(pairs)
    chain_edges = []
    for u, v in chosen:
        k = rng.randint(1, min(2, interior_budget))
        interior_budget -= k
        rebuilt.discard((u, v))
        prev = u
        for _ in range(k):
            n += 1
            chain_edges.append((prev, n))
            prev = n
        chain_edges.append((prev, v))
    if directed:
        h = Digraph(n)
        for u, v in sorted(rebuilt) + chain_edges:
            if not h.has_arc(u, v):
                h.add_arc(u, v)
    else:
        h = Graph(n)
        for u, v in sorted(rebuilt) + chain_edges:
            if not h.has_edge(u, v):
                h.add_edge(u, v)
    return h


def _circuit_pairs(circuit, directed):
    n = len(circuit)
    out = set()
    for i in range(n):
        u, v = circuit[i], circuit[(i + 1) % n]
        if directed:
            out.add((u, v))
        else:
            out.add((u, v) if u < v else (v, u))
    return out


def _solve_with_retries(g, seed):
    for attempt in range(5):
        p = SolveParams(seed=seed + 1000 * attempt, thorough=attempt > 0)
        rep = solve_digraph(g, p) if g.directed else solve_graph(g, p)
        if rep.outcome != "timeout":
            return rep
    return rep


def test_a09_contraction_soundness():
    hosts = 0
    hamiltonian = 0
    seed = 0
    while hosts < 500:
        seed += 1
        g = _chain_host(seed)
        if g is None:
            continue
        hosts += 1
        bf = brute_force_circuits(g)
        try:
            cg = contract(g)
        except ContractError:
            assert bf == []
            continue
        assert cg.deleted.isdisjoint(
            pr for c in bf for pr in _circuit_pairs(c, g.directed)
        )
        if cg.forced_circuit is not None:
            assert verify_circuit(g, cg.forced_circuit)
            assert canonical_circuit(cg.forced_circuit, g.directed) in bf
            continue
        expanded_any = False
        for circ in brute_force_circuits(cg.graph):
            try:
                hc = expand(list(circ), cg)
            except ExpandError:
                continue
            assert verify_circuit(g, hc)
            assert cg.deleted.isdisjoint(_circuit_pairs(hc, g.directed))
            expanded_any = True
        if expanded_any:
            assert bf
        if cg.graph.n >= 3:
            # with >= 3 contracted vertices a host circuit always induces a
            # circuit of the contracted graph, so expansion is complete; on
            # exactly two 2-vertices the simple contracted graph cannot hold
            # the two parallel connections and only the solver's search of
            # the reduced host (checked below) can witness the circuit
            assert expanded_any == bool(bf)
        if bf:
            hamiltonian += 1
            rep = _solve_with_retries(g, seed)
            assert rep.outcome == "circuit", f"seed {seed}: {rep.detail}"
            assert verify_circuit(g, rep.circuit)
            assert cg.deleted.isdisjoint(
                _circuit_pairs(rep.circuit, g.directed)
            )
    assert hamiltonian >= 100  # the batch must actually exercise the pipeline


# ==========================================================================
# a10: weighted local search
# ==========================================================================


def _tsp_brute_optimum(wm):
    best = None
    for perm in itertools.permutations(range(2, wm.n + 1)):
        w = tour_weight(wm, [1, *perm])
        if best is None or w < best:
            best = w
    return best


def test_a10_tsp_batch():
    golden = WeightMatrix(
        [[0, 1, 2, 5], [1, 0, 5, 2], [2, 5, 0, 1], [5, 2, 1, 0]]
    )
    tour, weight, _ = tsp_solve(golden, seed=0)
    assert weight == 6 == _tsp_brute_optimum(golden)

    rng = random.Random(55)
    ratios = []
    for trial in range(50):
        rows = [[0] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                w = rng.randint(1, 30)
                rows[i][j] = rows[j][i] = w
        wm = WeightMatrix(rows)
        tour, weight, trace = tsp_solve(wm, seed=trial)
        weights = [w for _, _, w in trace]
        assert all(b < a for a, b in zip(weights, weights[1:]))
        assert sorted(tour) == list(range(1, 9))
        assert weight == tour_weight(wm, tour)
        assert weight <= weights[0]
        opt = _tsp_brute_optimum(wm)
        assert weight >= opt
        ratios.append(weight / opt)
    # report the optimum comparison: the heuristic stays near the optimum
    assert sum(ratios) / len(ratios) < 1.15


# ==========================================================================
# a11: determinism of the CLI surface
# ==========================================================================


def _cli(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_a11_cli_determinism(tmp_path, capsys):
    path = tmp_path / "g.txt"
    g, _ = gen_boll_graph(60, 4)
    write_graph(g, str(path))
    runs = [
        _cli(capsys, ["solve", str(path), "--seed", "3", "--format", "json"])
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    json.loads(runs[0][1])  # structured record parses
    probs = [
        _cli(
            capsys,
            ["prob", "--which", "theoremD", "--n", "50", "--trials", "50000",
             "--seed", "7", "--format", "json"],
        )
        for _ in range(2)
    ]
    assert probs[0] == probs[1]


# ==========================================================================
# a12: scaling smoke on Boll graphs
# ==========================================================================


def test_a12_scaling_subquadratic():
    sizes = [100, 200, 400, 800]
    medians = []
    for n in sizes:
        walls = []
        for seed in range(5):
            g, _ = gen_boll_graph(n, seed)
            t0 = time.perf_counter()
            rep = solve_graph(g, SolveParams(seed=seed))
            walls.append(time.perf_counter() - t0)
            if rep.outcome == "circuit":
                assert verify_circuit(g, rep.circuit)
        medians.append(sorted(walls)[len(walls) // 2])
    xs = [math.log(n) for n in sizes]
    ys = [math.log(w) for w in medians]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    assert slope < 2.0, f"medians {medians}"


# ==========================================================================
# a13: solver success rates at desk scale (slowest batch last)
# ==========================================================================


def _success_rate(instances, solve):
    """(solved, attempted, certified): rate among instances not proven
    non-Hamiltonian by the reduction/connectivity certificates."""
    solved = attempted = certified = 0
    for g, seed in instances:
        rep = solve(g, SolveParams(seed=seed))
        if rep.outcome == "infeasible-precondition":
            certified += 1
            continue
        attempted += 1
        if rep.outcome == "circuit":
            assert verify_circuit(g, rep.circuit)
            solved += 1
    return solved, attempted, certified


def test_a08_certificates_are_sound_at_small_n():
    # every infeasibility certificate at n=8 agrees with brute force
    checked = 0
    for seed in range(120):
        d, _ = gen_boll_digraph(8, seed)
        rep = solve_digraph(d, SolveParams(seed=seed))
        if rep.outcome == "infeasible-precondition":
            assert brute_force_circuits(d) == []
            checked += 1
        g, _ = gen_boll_graph(8, seed)
        repg = solve_graph(g, SolveParams(seed=seed))
        if repg.outcome == "infeasible-precondition":
            assert brute_force_circuits(g) == []
            checked += 1
    assert checked >= 10


def test_a08_solver_success_rates():
    batches = [
        (
            "boll-graph-n100",
            [(gen_boll_graph(100, s)[0], s) for s in range(100)],
            solve_graph,
            0.95,
        ),
        (
            "boll-graph-n500",
            [(gen_boll_graph(500, s)[0], s) for s in range(100)],
            solve_graph,
            0.90,
        ),
        (
            "boll-digraph-n100",
            [(gen_boll_digraph(100, s)[0], s) for s in range(100)],
            solve_digraph,
            0.90,
        ),
        (
            "r3-n200",
            [(to_undirected(gen_m_out(200, 3, s)), s) for s in range(100)],
            solve_graph,
            0.85,
        ),
        (
            "d-2in-2out-n200",
            [(gen_in_out(200, 2, 2, s), s) for s in range(100)],
            solve_digraph,
            0.85,
        ),
    ]
    for name, instances, solve, threshold in batches:
        solved, attempted, certified = _success_rate(instances, solve)
        assert attempted > 0, name
        rate = solved / attempted
        assert rate >= threshold, (
            f"{name}: {solved}/{attempted} solved "
            f"({certified} proven non-Hamiltonian)"
        )
