import random

import pytest

from hamperm.contract import (
    ContractError,
    ExpandError,
    IsolatedCycleError,
    TwoPath,
    contract,
    expand,
    find_two_paths,
)
from hamperm.graphs import (
    Digraph,
    Graph,
    complete_digraph,
    complete_graph,
    cycle_graph,
)
from hamperm.oracle import brute_force_circuits, verify_circuit
from hamperm.solver import SolveParams, solve_digraph, solve_graph
from test_acceptance import _chain_host
from test_contract_reference import random_host


def k4_with_pendant_path():
    # K4 on {1,2,3,4} with the edge (1,2) subdivided through 5: the chain
    # 1-5-2 is forced and the direct edge (1,2) must be deleted.
    g = Graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5), (5, 2)])
    return g


def test_contract_chain_and_deleted_edge():
    g = k4_with_pendant_path()
    cg = contract(g)
    assert cg.deleted == {(1, 2)}
    assert len(cg.two_paths) == 1
    tp = cg.two_paths[0]
    assert tp.vertices in ((1, 5, 2), (2, 5, 1))
    assert tp.interior == (5,)
    assert cg.graph.n == 3
    assert not cg.is_identity


def test_sides_of_two_vertex():
    cg = contract(k4_with_pendant_path())
    (two_id,) = [x for x, el in cg.elements.items() if isinstance(el, TwoPath)]
    assert set(cg.sides(two_id)) == {1, 2}
    plain = next(x for x, el in cg.elements.items() if not isinstance(el, TwoPath))
    with pytest.raises(ValueError):
        cg.sides(plain)


def test_expand_roundtrip_on_chain_host():
    g = k4_with_pendant_path()
    cg = contract(g)
    for circ in brute_force_circuits(cg.graph):
        host_circ = expand(list(circ), cg)
        assert verify_circuit(g, host_circ)


def test_contract_identity_on_dense_graph():
    g = complete_graph(6)
    cg = contract(g)
    assert cg.is_identity
    assert cg.graph.n == 6 and cg.deleted == set()


def test_forced_cycle_spans():
    g = cycle_graph(6)
    cg = contract(g)
    assert cg.forced_circuit is not None
    assert verify_circuit(g, cg.forced_circuit)
    assert expand([1], cg) == cg.forced_circuit


def test_isolated_forced_cycle_is_infeasible():
    # C3 plus C4, disjoint: forced cycles that cannot span
    g = Graph(7, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 4)])
    with pytest.raises(IsolatedCycleError):
        contract(g)


def test_degree_deficit_is_infeasible():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 2)])  # vertex 1 has degree 1
    with pytest.raises(ContractError):
        contract(g)


def test_three_forced_edges_is_infeasible():
    # three chains all forced through vertex 1
    g = Graph(
        7,
        [
            (1, 2), (2, 3),
            (1, 4), (4, 5),
            (1, 6), (6, 7),
            (3, 5), (5, 7), (3, 7),
        ],
    )
    with pytest.raises(ContractError):
        contract(g)


def test_find_two_paths_digraph_cascade_to_spanning_cycle():
    d = Digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (3, 1), (4, 2)])
    # unique out- and in-arcs cascade until only the ring remains
    tps = find_two_paths(d)
    assert len(tps) == 1
    tp = tps[0]
    assert tp.vertices[0] == tp.vertices[-1]  # closed, spanning
    assert set(tp.vertices) == {1, 2, 3, 4}


def test_digraph_contract_and_expand():
    # only vertex 1 has a unique out-arc and only 2 a unique in-arc, so the
    # forced chain is exactly [1, 2]
    d = Digraph(
        5,
        [
            (1, 2),
            (2, 3), (2, 4),
            (3, 4), (3, 5),
            (4, 5), (4, 1),
            (5, 1), (5, 3),
        ],
    )
    cg = contract(d)
    assert [tp.vertices for tp in cg.two_paths] == [(1, 2)]
    circuits = brute_force_circuits(cg.graph)
    assert circuits
    for circ in circuits:
        host_circ = expand(list(circ), cg)
        assert verify_circuit(d, host_circ)


def test_digraph_forced_cycle():
    d = Digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    cg = contract(d)
    from hamperm.oracle import canonical_circuit

    assert canonical_circuit(cg.forced_circuit, True) == (1, 2, 3, 4)


def test_digraph_isolated_forced_cycle():
    # arcs (1,2),(2,1) close a forced 2-cycle that misses {3,4,5}
    d = Digraph(
        5,
        [(1, 2), (2, 1), (3, 4), (4, 5), (5, 3), (3, 5), (4, 3), (5, 4)],
    )
    with pytest.raises(IsolatedCycleError):
        contract(d)


def test_expand_rejects_bad_input():
    cg = contract(k4_with_pendant_path())
    with pytest.raises(ExpandError):
        expand([1, 2], cg)  # not a permutation of the contracted ids


def test_three_chains_at_shared_endpoints_infeasible():
    # chains 1-3-2, 1-4-2, 1-5-2 would force three edges at vertex 1
    g = Graph(5, [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2)])
    with pytest.raises(ContractError):
        contract(g)


def test_contraction_iterates_to_fixed_point():
    # subdividing two adjacent K4 edges forces deletions that cascade
    g = Graph(
        6,
        [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (1, 5), (5, 2),  # chain 1-5-2, deletes (1,2)
            (3, 6), (6, 4),  # chain 3-6-4, deletes (3,4)
        ],
    )
    cg = contract(g)
    assert cg.deleted == {(1, 2), (3, 4)}
    assert len(cg.two_paths) == 2
    for circ in brute_force_circuits(cg.graph):
        assert verify_circuit(g, expand(list(circ), cg))


def test_contracted_circuits_cover_host_circuits():
    # every host circuit must appear among expansions of contracted circuits
    rng = random.Random(9)
    checked = 0
    for seed in range(40):
        n = rng.randint(5, 8)
        g = Graph(n)
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.55:
                    g.add_edge(u, v)
        if g.n >= 3 and g.min_degree() < 2:
            continue
        try:
            cg = contract(g)
        except ContractError:
            assert brute_force_circuits(g) == []
            continue
        host = {tuple(c) for c in brute_force_circuits(g)}
        if cg.forced_circuit is not None:
            assert len(host) <= 1
            continue
        expanded = set()
        from hamperm.oracle import canonical_circuit

        for circ in brute_force_circuits(cg.graph):
            try:
                hc = expand(list(circ), cg)
            except ExpandError:
                continue
            assert verify_circuit(g, hc)
            expanded.add(canonical_circuit(hc, False))
        # expand picks one orientation per contracted circuit, so it may
        # return fewer circuits than the host has, never more; with >= 3
        # contracted vertices it finds one exactly when the host is
        # Hamiltonian (two 2-vertices can need parallel connections that a
        # simple contracted graph cannot hold)
        assert expanded <= host
        if cg.graph.n >= 3:
            assert bool(expanded) == bool(host)
        checked += 1
    assert checked >= 10


def test_reduced_host_has_exactly_the_host_circuits():
    # a09's chain hosts: the reduced host the solver searches has each host
    # circuit and nothing else (the 2-vertex graph cannot, see a09's
    # comment on two 2-vertices)
    checked = 0
    for seed in range(1, 700):
        g = _chain_host(seed)
        if g is None:
            continue
        try:
            cg = contract(g)
        except ContractError:
            continue
        if cg.forced_circuit is not None:
            continue
        assert brute_force_circuits(cg.reduced) == brute_force_circuits(g), seed
        checked += 1
    assert checked >= 200


@pytest.mark.parametrize("g", [complete_graph(6), complete_digraph(4)])
def test_chainless_host_is_its_own_condensation(g):
    cg = contract(g)
    assert cg.reduced is g and not cg.two_paths and not cg.deleted


@pytest.mark.parametrize("directed", [False, True])
def test_contract_leaves_the_host_untouched(directed):
    # the reduction reads the host's own adjacency sets and copies one only
    # to delete from it: the reduced host's set at v is the host's own
    # object exactly when nothing was deleted at v; neither contract nor a
    # whole solve changes the host
    rng = random.Random(5 + directed)
    solve = solve_digraph if directed else solve_graph
    deleting = 0
    for _ in range(600):
        g = random_host(rng, directed)
        before = g.copy()
        try:
            cg = contract(g)
        except ContractError:
            assert g == before
            continue
        assert g == before and g.m == before.m
        h = cg.reduced
        assert (h is g) == (not cg.deleted)
        if directed:
            assert h.m == len(h.arcs) == g.m - len(cg.deleted)
            assert h.arcs == g.arcs - cg.deleted
            assert h.in_adj == {
                v: {u for u in h.out_adj if v in h.out_adj[u]} for v in h.in_adj
            }
            tails = {u for u, _ in cg.deleted}
            heads = {v for _, v in cg.deleted}
            for v in range(1, g.n + 1):
                assert (h.out_adj[v] is g.out_adj[v]) == (v not in tails)
                assert (h.in_adj[v] is g.in_adj[v]) == (v not in heads)
        else:
            assert h.m == len(h.edges) == g.m - len(cg.deleted)
            assert h.edges == g.edges - cg.deleted
            touched = {v for e in cg.deleted for v in e}
            for v in range(1, g.n + 1):
                assert (h.adj[v] is g.adj[v]) == (v not in touched)
        deleting += bool(cg.deleted)
        solve(g, SolveParams(seed=1))
        assert g == before and g.m == before.m
    assert deleting >= 50
