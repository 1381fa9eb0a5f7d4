import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from hamperm.graphs import (
    Digraph,
    Graph,
    complete_digraph,
    complete_graph,
    cycle_graph,
    gen_boll_digraph,
    gen_boll_graph,
    gen_in_out,
    gen_m_out,
    to_undirected,
)
from hamperm.solver import (
    SolveParams,
    solve_digraph,
    solve_graph,
    verify_circuit,
)
from hamperm.contract import contract
from hamperm.oracle import verify_circuit as oracle_verify_circuit
from solver_schedule import SCHEDULE, set_schedule


def test_solve_complete_graph():
    rep = solve_graph(complete_graph(12), SolveParams(seed=1))
    assert rep.outcome == "circuit"
    assert verify_circuit(complete_graph(12), rep.circuit)


def test_solve_cycle_graph_via_forced_circuit():
    rep = solve_graph(cycle_graph(9), SolveParams(seed=1))
    assert rep.outcome == "circuit"
    assert verify_circuit(cycle_graph(9), rep.circuit)


def test_solve_boll_graphs_small_batch():
    solved = 0
    for seed in range(20):
        g, _ = gen_boll_graph(60, seed)
        rep = solve_graph(g, SolveParams(seed=seed))
        if rep.outcome == "circuit":
            assert verify_circuit(g, rep.circuit)
            solved += 1
        assert rep.outcome in ("circuit", "timeout", "infeasible-precondition")
    assert solved >= 15


def test_solve_digraph_complete():
    rep = solve_digraph(complete_digraph(10), SolveParams(seed=2))
    assert rep.outcome == "circuit"
    assert verify_circuit(complete_digraph(10), rep.circuit)


def test_solve_boll_digraphs_small_batch():
    solved = attempted = 0
    for seed in range(20):
        d, _ = gen_boll_digraph(50, seed)
        rep = solve_digraph(d, SolveParams(seed=seed))
        if rep.outcome == "infeasible-precondition":
            continue
        attempted += 1
        if rep.outcome == "circuit":
            assert verify_circuit(d, rep.circuit)
            solved += 1
    assert attempted and solved >= attempted * 0.7


def test_preconditions_graph():
    disconnected = Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
    assert solve_graph(disconnected).outcome == "infeasible-precondition"
    pendant = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 2)])
    assert solve_graph(pendant).outcome == "infeasible-precondition"
    tiny = Graph(2, [(1, 2)])
    assert solve_graph(tiny).outcome == "infeasible-precondition"
    with pytest.raises(TypeError):
        solve_graph(complete_digraph(4))


def test_preconditions_digraph():
    # two 2-cycles joined by the one arc 2 -> 3: nothing leads back to 1
    not_strong = Digraph(4, [(1, 2), (2, 1), (3, 4), (4, 3), (2, 3)])
    rep = solve_digraph(not_strong)
    assert rep.outcome == "infeasible-precondition"
    assert rep.detail == "host is not strongly connected"
    with pytest.raises(TypeError):
        solve_digraph(complete_graph(4))


def test_degree_certificates_come_from_contract():
    # K3 plus the pendant vertex 4, and the 1-vertex digraph: the reduction
    # names the vertex that cannot lie on a circuit
    pendant = Graph(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
    rep = solve_graph(pendant)
    assert rep.outcome == "infeasible-precondition"
    assert rep.detail == "contraction: vertex 4 has fewer than 2 usable edges"
    rep = solve_digraph(Digraph(1))
    assert rep.outcome == "infeasible-precondition"
    assert rep.detail == "contraction: vertex 1 has no usable in- or out-arc"
    rep = solve_digraph(Digraph(2, [(1, 2), (2, 1)]))
    assert rep.outcome == "circuit" and sorted(rep.circuit) == [1, 2]


def test_solver_is_deterministic():
    g, _ = gen_boll_graph(80, 5)
    r1 = solve_graph(g, SolveParams(seed=9))
    r2 = solve_graph(g, SolveParams(seed=9))
    assert r1.outcome == r2.outcome
    assert r1.circuit == r2.circuit
    assert r1.pseudo_trajectory == r2.pseudo_trajectory


def test_pseudo_trajectory_monotone_graph_mode():
    g, _ = gen_boll_graph(70, 11)
    rep = solve_graph(g, SolveParams(seed=11))
    traj = rep.pseudo_trajectory
    assert traj == sorted(traj, reverse=True)
    if rep.outcome == "circuit":
        assert traj == [] or traj[-1] == 0


def test_report_counters_consistent():
    g, _ = gen_boll_graph(60, 13)
    rep = solve_graph(g, SolveParams(seed=13))
    assert rep.iterations == rep.successes + rep.failures
    assert rep.final_pseudo >= 0


# (model, n, seed) digraph hosts where some iteration's only candidate
# undoes the last move, so a failure pops it: for each (model, n), the
# first seeds of 0, 1, 2, ... whose solve (SolveParams(seed=seed)) has such
# an iteration, two for in/out(2,2) at n=30 and n=60 and one otherwise;
# they depend on the solver's draws
UNDO_CASES = [
    ("inout", 30, 14), ("inout", 30, 51), ("inout", 60, 13), ("inout", 60, 18),
    ("inout", 200, 13), ("bolld", 20, 60), ("bolld", 100, 50),
]
COUNT_CASES = [
    (model, n, seed)
    for model in ("boll", "r3", "bolld", "inout")
    for n, seed in ((30, 1), (60, 2), (200, 3))
]
COUNT_CASES += [case for case in UNDO_CASES if case not in COUNT_CASES]


def _model(model, n, seed):
    if model == "boll":
        return gen_boll_graph(n, seed)[0]
    if model == "r3":
        return to_undirected(gen_m_out(n, 3, seed))
    if model == "bolld":
        return gen_boll_digraph(n, seed)[0]
    return gen_in_out(n, 2, 2, seed)


@pytest.mark.parametrize(
    "model,n,seed", COUNT_CASES, ids=[f"{m}-n{n}-s{s}" for m, n, s in COUNT_CASES]
)
def test_counts_add_up(model, n, seed):
    # every iteration applies a move (a success) or applies none (a
    # failure); only a digraph failure may pop the undo stack
    g = _model(model, n, seed)
    solve = solve_digraph if g.directed else solve_graph
    rep = solve(g, SolveParams(seed=seed))
    assert rep.iterations == rep.successes + rep.failures
    if g.directed:
        assert rep.backtracks <= rep.failures
        assert rep.backtracks or (model, n, seed) not in UNDO_CASES
    else:
        assert rep.backtracks == 0


def _bipartite(left, right, k, seed):
    """A seeded random bipartite graph on parts 1..left and the next right
    vertices in which every vertex has degree >= k."""
    rng = random.Random(seed)
    g = Graph(left + right)
    parts = (range(1, left + 1), range(left + 1, left + right + 1))
    for v in range(1, left + right + 1):
        other = parts[v <= left]
        while g.degree(v) < k:
            w = rng.choice(other)
            if not g.has_edge(v, w):
                g.add_edge(v, w)
    return g


def test_restarts_only_on_digraphs():
    # a graph solve never restarts, not even one that runs its whole budget
    # (unequal parts: no circuit); a digraph that stalls restarts from a
    # new start, and the report counts each restart
    rep = solve_graph(_bipartite(20, 21, 3, 1), SolveParams(seed=1))
    assert rep.outcome == "timeout" and rep.restarts == 0
    rep = solve_digraph(gen_boll_digraph(16, 49)[0], SolveParams(seed=49))
    assert rep.restarts > 1


def test_graph_mode_memory_does_not_grow_with_budget(monkeypatch):
    # unequal parts: no circuit, and the reduction certifies nothing, so
    # every solve runs its whole budget; the undo state must not grow with
    # it (only pseudo_trajectory does, one entry per iteration)
    g = _bipartite(100, 101, 3, 1)
    peaks = {}
    for budget in (1000, 4000):
        set_schedule(monkeypatch, budget=budget)
        tracemalloc.start()
        try:
            rep = solve_graph(g, SolveParams(seed=1))
            peaks[budget] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.outcome == "timeout" and rep.iterations == budget
    assert (peaks[4000] - peaks[1000]) / 3000 < 32


def test_chain_host_solved_through_condensation():
    # K5 with edges (1,2) and (3,4) subdivided through 6 and 7: the interior
    # degree-2 vertices force the chains 1-6-2 and 3-7-4
    g2 = Graph(
        7,
        [
            (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5),
            (1, 6), (6, 2), (3, 7), (7, 4),
        ],
    )
    rep = solve_graph(g2, SolveParams(seed=3))
    assert rep.outcome == "circuit"
    assert verify_circuit(g2, rep.circuit)
    cg = contract(g2)
    circuit_arcs = set()
    for i in range(len(rep.circuit)):
        u, v = rep.circuit[i], rep.circuit[(i + 1) % len(rep.circuit)]
        circuit_arcs.add((u, v) if u < v else (v, u))
    assert not (cg.deleted & circuit_arcs)


def _subdivide(g, edges, rng):
    """g with each of edges (arcs u -> v on a digraph) replaced by a path
    through 3-6 new vertices n+1, n+2, ...; returns the host and the new
    vertices."""
    n = g.n
    pairs = sorted(g.arcs if g.directed else g.edges)
    paths = []
    for u, v in edges:
        pairs.remove((u, v))
        inner = list(range(n + 1, n + 1 + rng.randint(3, 6)))
        n += len(inner)
        path = [u, *inner, v]
        paths.extend(zip(path, path[1:]))
    h = (Digraph if g.directed else Graph)(n, pairs + paths)
    return h, range(g.n + 1, n + 1)


@pytest.mark.parametrize("directed", [False, True])
def test_long_chains_solved_on_the_reduced_host(directed):
    # the search walks chain interiors itself: seeded Boll n=300 hosts with
    # 2-3 edges of a Hamilton circuit subdivided by 3-6 vertices each (so
    # the new host is Hamiltonian) solve to a circuit of the new host
    solve = solve_digraph if directed else solve_graph
    checked = 0
    for seed in range(1, 9):
        g = (gen_boll_digraph if directed else gen_boll_graph)(300, seed)[0]
        base = solve(g, SolveParams(seed=seed))
        if base.outcome != "circuit":
            continue
        rng = random.Random(seed)
        c = base.circuit
        picks = rng.sample(range(len(c)), rng.randint(2, 3))
        edges = [(c[i - 1], c[i]) for i in picks]
        if not directed:
            edges = [(min(e), max(e)) for e in edges]
        h, inner = _subdivide(g, edges, rng)
        cg = contract(h)
        interior = {v for tp in cg.two_paths for v in tp.interior}
        assert set(inner) <= interior
        rep = solve(h, SolveParams(seed=seed))
        assert rep.outcome == "circuit", (seed, rep.detail)
        assert verify_circuit(h, rep.circuit)
        checked += 1
    assert checked >= 6


def test_thorough_budget_expands_iterations():
    # K_{3,4} has no Hamilton circuit, and the reduction certifies nothing,
    # so a solve runs its whole budget: 4*7*2 iterations, 12*7^3*2 thorough
    g = Graph(7, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6, 7)])
    for thorough, budget in ((False, 56), (True, 8232)):
        rep = solve_graph(g, SolveParams(thorough=thorough, seed=1))
        assert (rep.outcome, rep.iterations) == ("timeout", budget)


@pytest.mark.parametrize(
    "knob",
    [{"budget": 0}, {"edge_cap": 0}, {"test_cap": -3}],
    ids=["budget", "edge_cap", "test_cap"],
)
def test_invalid_params_raise_on_every_host(knob):
    # the caps and the budget are no settings: passing one raises rather
    # than being ignored, and with no params given each host reaches the
    # outcome and detail it is here for: a searched circuit, forced
    # circuits, reduction certificates, hosts that are not (strongly)
    # connected, n < 3
    with pytest.raises(TypeError):
        SolveParams(**knob)
    hosts = [
        (solve_graph, complete_graph(6), "circuit", ""),
        (solve_graph, cycle_graph(5), "circuit", ""),
        (
            solve_graph,
            Graph(4, [(1, 2), (2, 3), (3, 1), (3, 4)]),
            "infeasible-precondition",
            "contraction: vertex 4 has fewer than 2 usable edges",
        ),
        (
            solve_graph,
            Graph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]),
            "infeasible-precondition",
            "host is not connected",
        ),
        (
            solve_graph,
            Graph(2, [(1, 2)]),
            "infeasible-precondition",
            "undirected circuits need n >= 3",
        ),
        (
            solve_digraph,
            Digraph(5, [(v, v % 5 + 1) for v in range(1, 6)]),
            "circuit",
            "",
        ),
        (
            solve_digraph,
            Digraph(1),
            "infeasible-precondition",
            "contraction: vertex 1 has no usable in- or out-arc",
        ),
        (
            solve_digraph,
            Digraph(4, [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]),
            "infeasible-precondition",
            "host is not strongly connected",
        ),
    ]
    for solve, g, outcome, detail in hosts:
        rep = solve(g)
        assert (rep.outcome, rep.detail) == (outcome, detail), g


def _refilled(g, rng):
    """A host equal to g whose sets were filled in a shuffled edge order."""
    pairs = sorted(g.arcs if g.directed else g.edges)
    rng.shuffle(pairs)
    return (Digraph if g.directed else Graph)(g.n, pairs)


def _set_orders(g):
    sets = (g.out_adj, g.in_adj) if g.directed else (g.adj,)
    return [list(adj[v]) for adj in sets for v in range(1, g.n + 1)]


@pytest.mark.parametrize(
    "model,seed,deletes",
    [("boll", 2, False), ("inout", 1, False), ("boll", 1, True), ("bolld", 1, True)],
)
def test_reports_do_not_depend_on_set_iteration_order(
    monkeypatch, model, seed, deletes
):
    # the search reads the host's sets and sorts only what it draws from, so
    # an equal host whose sets iterate in another order solves the same, also
    # where contract deletes edges and the reduced host copies those sets
    g = _model(model, 300, seed)
    h = _refilled(g, random.Random(seed))
    assert h == g and _set_orders(h) != _set_orders(g)
    assert bool(contract(g).deleted) == deletes
    solve = solve_digraph if g.directed else solve_graph
    p = SolveParams(seed=seed)
    for caps in ({}, {"edge_cap": 2, "test_cap": 5}, {"budget": 40}):
        set_schedule(monkeypatch, **caps)
        assert solve(h, p) == solve(g, p)


def test_single_budget_knob(monkeypatch):
    # a solve is set by its seed and the thorough flag alone; the caps and
    # the budget follow from n
    assert [f.name for f in fields(SolveParams)] == ["thorough", "seed"]
    # ceil(ln 50) = 4: samples of 4, 2*4^2 tests, 4*50*4 iterations or,
    # thorough, 12*50^3*4
    assert SCHEDULE(50, False) == (4, 32, 800)
    assert SCHEDULE(50, True) == (4, 32, 6_000_000)
    # the seed-1 solve's iteration count as the solver draws it; a budget of
    # 2 must stop it early
    g, _ = gen_boll_graph(200, 1)
    assert solve_graph(g, SolveParams(seed=1)).iterations == 13
    set_schedule(monkeypatch, budget=2)
    rep = solve_graph(g, SolveParams(seed=1))
    assert rep.outcome == "timeout" and rep.iterations == 2


def test_verify_circuit_is_the_oracle_one():
    assert verify_circuit is oracle_verify_circuit


def test_pseudo_count_check_runs_under_optimize():
    # a rotation picker that also inflates the pseudo registry breaks the
    # graph-mode invariant; the check must fire under python -O too.  It
    # runs only in an iteration, so the host is the first Boll n=60 graph
    # (seeds 1, 2, ...) whose unpatched solve takes one
    seed = 1
    while solve_graph(gen_boll_graph(60, seed)[0], SolveParams(seed=1)).iterations < 1:
        seed += 1
        assert seed < 50, "no Boll n=60 host of seeds 1-49 takes an iteration"
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from hamperm import solver\n"
        "from hamperm.graphs import gen_boll_graph\n"
        "orig = solver._pick_rotation\n"
        "def inflating(t, adj, rng):\n"
        "    rot = orig(t, adj, rng)\n"
        "    t.pseudo_keys[:0] = range(-t.n - 5, 0)\n"
        "    return rot\n"
        "solver._pick_rotation = inflating\n"
        f"g, _ = gen_boll_graph(60, {seed})\n"
        "try:\n"
        "    solver.solve_graph(g, solver.SolveParams(seed=1))\n"
        "except AssertionError as exc:\n"
        "    raise SystemExit(0 if 'pseudo count increased' in str(exc) else 2)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0
