"""The reduced host and the 2-vertex view against their reference.

tests/contract_reference.py holds _reduce_graph, _reduce_digraph, the
condensed build and the ContractedGraph class as they were before: a full
working copy of the host, a forced set per vertex, a relabelled condensed
graph built through add_edge, and a 2-vertex view built from it.  On seeded
random hosts and on the random models, hamperm.contract must give a reduced
host whose adjacency and m are the reference reduction's, that is the host
itself exactly when nothing was deleted, the same deleted edges, chains
(orientation included) and forced circuit, and the same 2-vertex elements
and graph, or raise the same ContractError with the same message.
"""

import random

import pytest

import contract_reference as ref
from hamperm import contract as cur
from hamperm.contract import ContractError
from hamperm.graphs import Digraph, Graph, gen_boll_digraph, gen_boll_graph, gen_in_out


def random_host(rng, directed):
    """n in 3..12, edge (arc) density in 0.15..0.7, and half of the hosts
    with a planted spanning cycle, so every outcome of the reduction
    (errors, forced circuits, chains with and without deletions) occurs."""
    n = rng.randint(3, 12)
    density = rng.uniform(0.15, 0.7)
    g = Digraph(n) if directed else Graph(n)
    add = g.add_arc if directed else g.add_edge
    if rng.random() < 0.5:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for i, v in enumerate(order):
            add(order[i - 1], v)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if u == v or g.has_arc(u, v) or (not directed and v < u):
                continue
            if rng.random() < density:
                add(u, v)
    return g


def _two_vertex(cg):
    h = cg.graph
    return cg.elements, h.n, h.m, h.arcs if h.directed else h.edges


def _current(g):
    try:
        cg = cur.contract(g)
    except ContractError as exc:
        return type(exc), str(exc)
    h = cg.reduced
    return (
        (h.n, h.m, (h.out_adj, h.in_adj) if h.directed else (h.adj,)),
        h is g,
        cg.deleted,
        [tp.vertices for tp in cg.two_paths],
        cg.forced_circuit,
        _two_vertex(cg),
    )


def _reference(g):
    try:
        cg = ref.contract(g)
    except ContractError as exc:
        return type(exc), str(exc)
    # ref.contract empties its working adjacency, so read it from a fresh
    # run of the reduction
    if g.directed:
        sets = ref._reduce_digraph(g)[0]
        m = sum(map(len, sets[0].values()))
    else:
        sets = (ref._reduce_graph(g)[0],)
        m = sum(map(len, sets[0].values())) // 2
    return (
        (g.n, m, sets),
        not cg.deleted,
        cg.deleted,
        [tp.vertices for tp in cg.two_paths],
        cg.forced_circuit,
        _two_vertex(cg),
    )


@pytest.mark.parametrize("directed", [False, True])
def test_random_hosts_match_reference(directed):
    rng = random.Random(17 + directed)
    kinds = set()
    for _ in range(8000):
        g = random_host(rng, directed)
        got = _current(g)
        assert got == _reference(g), (g.n, sorted(g.arcs if directed else g.edges))
        if len(got) == 2:
            kinds.add(got[0].__name__)
        else:
            kinds.add("forced" if got[4] else "deleted" if got[2] else "plain")
    assert kinds == {
        "ContractError", "IsolatedCycleError", "forced", "deleted", "plain"
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: gen_boll_graph(300, seed)[0],
        lambda seed: gen_boll_graph(2000, seed)[0],
        lambda seed: gen_boll_digraph(300, seed)[0],
        lambda seed: gen_boll_digraph(2000, seed)[0],
        lambda seed: gen_in_out(2000, 2, 2, seed),
    ],
    ids=["boll300", "boll2000", "bolld300", "bolld2000", "inout2000"],
)
def test_random_models_match_reference(make):
    for seed in range(1, 4):
        g = make(seed)
        assert _current(g) == _reference(g), seed
