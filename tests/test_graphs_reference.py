"""The generators against tests/graphs_reference.py, their form with one
randrange pair per draw and one validating add_edge/add_arc per edge.

For each seed both must build the same adjacency sets with the same
insertion order (so every later iteration over them, and every draw that
reads one, is the same), and the same edge count m and stopping index."""

import random

import pytest

import graphs_reference as ref
from hamperm.graphs import (
    _random_pairs,
    gen_boll_digraph,
    gen_boll_graph,
    gen_in_out,
    gen_m_out,
    to_undirected,
)


def _assert_same(new, old):
    assert (new.n, new.m, new.directed) == (old.n, old.m, old.directed)
    if new.directed:
        sides = [(new.out_adj, old.out_adj), (new.in_adj, old.in_adj)]
    else:
        sides = [(new.adj, old.adj)]
    for a, b in sides:
        assert list(a) == list(b)
        for v in a:
            assert list(a[v]) == list(b[v]), v


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 200, 2000])
def test_random_pairs_match_randrange(n):
    # widths n and n - 1 at and next to powers of two take randrange's
    # rejection loop at its edges
    labels = list(range(n + 1))
    for seed in range(1, 41):
        pairs = _random_pairs(random.Random(seed), labels)
        rng = random.Random(seed)
        assert [next(pairs) for _ in range(300)] == [
            ref._random_pair(rng, labels) for _ in range(300)
        ]


@pytest.mark.parametrize("n", [3, 4, 5, 16, 200, 2000])
def test_boll_graph_matches_reference(n):
    for seed in range(1, 41 if n < 2000 else 6):
        g, m_stop = gen_boll_graph(n, seed)
        h, h_stop = ref.gen_boll_graph(n, seed)
        assert m_stop == h_stop
        _assert_same(g, h)


@pytest.mark.parametrize("n", [2, 3, 9, 200])
def test_boll_digraph_matches_reference(n):
    for threshold in [1, 2][: n - 1]:
        for seed in range(1, 41):
            d, m_stop = gen_boll_digraph(n, seed, threshold)
            e, e_stop = ref.gen_boll_digraph(n, seed, threshold)
            assert m_stop == e_stop
            _assert_same(d, e)
            _assert_same(to_undirected(d), ref.to_undirected(d))


@pytest.mark.parametrize("n", [2, 3, 9, 200])
def test_m_out_and_in_out_match_reference(n):
    ks = sorted({1, min(2, n - 1), min(3, n - 1), n - 1})
    for seed in range(1, 41 if n < 200 else 11):
        for k in ks:
            d = gen_m_out(n, k, seed)
            _assert_same(d, ref.gen_m_out(n, k, seed))
            _assert_same(to_undirected(d), ref.to_undirected(d))
            for i, o in [(k, 1), (1, k), (k, k)]:
                d = gen_in_out(n, i, o, seed)
                _assert_same(d, ref.gen_in_out(n, i, o, seed))
                _assert_same(to_undirected(d), ref.to_undirected(d))
