"""The copy-on-write reduction against its reference.

tests/contract_reference.py holds _reduce_graph, _reduce_digraph and the
condensed build as they were before: a full working copy of the host, a
forced set per vertex, and add_edge for every condensed edge.  On seeded
random hosts and on the random models, hamperm.contract must give the same
condensed edges, element map, deleted edges, chains (orientation included)
and forced circuit, or raise the same ContractError with the same message.
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


def _outcome(mod, g):
    try:
        cg = mod.contract(g)
    except ContractError as exc:
        return type(exc), str(exc)
    h = cg.condensed
    return (
        h.n,
        h.m,
        h.arcs if h.directed else h.edges,
        h is g,
        cg.condensed_elements,
        cg.deleted,
        [tp.vertices for tp in cg.two_paths],
        cg.forced_circuit,
    )


@pytest.mark.parametrize("directed", [False, True])
def test_random_hosts_match_reference(directed):
    rng = random.Random(17 + directed)
    kinds = set()
    for _ in range(8000):
        g = random_host(rng, directed)
        got = _outcome(cur, g)
        assert got == _outcome(ref, g), (g.n, sorted(g.arcs if directed else g.edges))
        if len(got) == 2:
            kinds.add(got[0].__name__)
        else:
            kinds.add("forced" if got[-1] else "deleted" if got[5] else "plain")
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
        assert _outcome(cur, g) == _outcome(ref, g), seed
