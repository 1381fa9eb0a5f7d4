import itertools
import math
import random

import pytest

from hamperm.graphs import (
    Digraph,
    Graph,
    ParseError,
    complete_digraph,
    complete_graph,
    cycle_graph,
    gen_boll_digraph,
    gen_boll_graph,
    gen_in_out,
    gen_m_out,
    is_connected,
    is_strongly_connected,
    read_graph,
    to_undirected,
    write_graph,
)


def test_graph_basics():
    g = Graph(4, [(1, 2), (2, 3)])
    g.add_edge(3, 4)
    assert g.m == 3
    assert g.has_edge(2, 1) and g.has_arc(2, 1)
    assert not g.has_edge(1, 3)
    assert g.degree(2) == 2 and g.min_degree() == 1
    assert g.neighbors(2) == {1, 3}
    assert not g.directed


def test_graph_rejects_bad_edges():
    g = Graph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 2)
    with pytest.raises(ValueError):
        g.add_edge(1, 4)
    g.add_edge(1, 2)
    with pytest.raises(ValueError):
        g.add_edge(2, 1)  # duplicate


def test_digraph_basics():
    d = Digraph(3, [(1, 2), (2, 1), (2, 3)])
    assert d.m == 3
    assert d.has_arc(1, 2) and d.has_arc(2, 1) and not d.has_arc(3, 2)
    assert d.outdeg(2) == 2 and d.indeg(1) == 1
    assert d.min_outdeg() == 0 and d.min_indeg() == 1
    assert d.directed
    with pytest.raises(ValueError):
        d.add_arc(1, 2)  # duplicate
    with pytest.raises(ValueError):
        d.add_arc(2, 2)  # loop


def test_complete_and_cycle_builders():
    k5 = complete_graph(5)
    assert k5.m == 10 and k5.min_degree() == 4
    kd4 = complete_digraph(4)
    assert kd4.m == 12 and kd4.min_outdeg() == 3 and kd4.min_indeg() == 3
    c6 = cycle_graph(6)
    assert c6.m == 6 and c6.min_degree() == 2
    assert c6.has_edge(6, 1)


def test_gen_boll_graph_stops_at_min_degree_two():
    for seed in range(20):
        g, m_stop = gen_boll_graph(30, seed)
        assert g.m == m_stop
        assert g.min_degree() >= 2
        # the stop is tight: some vertex reached degree 2 on the last edge
        degs = sorted(g.degree(v) for v in range(1, 31))
        assert degs[0] == 2


def test_gen_boll_graph_deterministic():
    g1, m1 = gen_boll_graph(40, 7)
    g2, m2 = gen_boll_graph(40, 7)
    assert m1 == m2 and g1.edges == g2.edges


def test_gen_boll_digraph_threshold():
    for seed in range(10):
        d, m_stop = gen_boll_digraph(25, seed)
        assert d.m == m_stop
        assert d.min_outdeg() >= 1 and d.min_indeg() >= 1
    d2, _ = gen_boll_digraph(25, 3, threshold=2)
    assert d2.min_outdeg() >= 2 and d2.min_indeg() >= 2


def test_gen_m_out_and_in_out():
    d = gen_m_out(20, 3, 1)
    assert all(d.outdeg(v) == 3 for v in range(1, 21))
    d2 = gen_in_out(20, 2, 2, 1)
    assert d2.min_outdeg() >= 2 and d2.min_indeg() >= 2
    g = to_undirected(d)
    # three distinct out-neighbors give each vertex undirected degree >= 3
    assert not g.directed and g.min_degree() >= 3


def test_generator_argument_guards():
    with pytest.raises(ValueError):
        gen_boll_graph(2, 0)
    with pytest.raises(ValueError):
        gen_boll_digraph(5, 0, threshold=0)
    with pytest.raises(ValueError):
        gen_m_out(5, 5, 0)
    with pytest.raises(ValueError):
        gen_in_out(5, 0, 1, 0)


def test_connectivity_checks():
    g = Graph(4, [(1, 2), (3, 4)])
    assert not is_connected(g)
    g.add_edge(2, 3)
    assert is_connected(g)
    d = Digraph(3, [(1, 2), (2, 3)])
    assert not is_strongly_connected(d)
    d.add_arc(3, 1)
    assert is_strongly_connected(d)


def test_graph_roundtrip(tmp_path):
    g, _ = gen_boll_graph(15, 3)
    path = tmp_path / "g.txt"
    write_graph(g, str(path))
    g2 = read_graph(str(path))
    assert not g2.directed and g2 == g


def test_digraph_roundtrip(tmp_path):
    d, _ = gen_boll_digraph(15, 3)
    path = tmp_path / "d.txt"
    write_graph(d, str(path))
    d2 = read_graph(str(path))
    assert d2.directed and d2 == d


@pytest.mark.parametrize(
    "g,text",
    [
        (Graph(4, [(3, 4), (2, 1), (4, 1), (1, 3)]), "g 4 4\n1 2\n1 3\n1 4\n3 4\n"),
        (
            Digraph(3, [(3, 1), (2, 3), (1, 3), (2, 1), (1, 2)]),
            "d 3 5\n1 2\n1 3\n2 1\n2 3\n3 1\n",
        ),
    ],
)
def test_write_graph_is_lexicographic(tmp_path, g, text):
    path = tmp_path / "g.txt"
    write_graph(g, str(path))
    assert path.read_bytes() == text.encode()
    assert read_graph(str(path)) == g


def test_graph_equality():
    assert Graph(3, [(1, 2)]) == Graph(3, [(2, 1)])
    assert Graph(3, [(1, 2)]) != Graph(3, [(2, 3)])
    assert Graph(3, [(1, 2)]) != Graph(4, [(1, 2)])
    assert Digraph(3, [(1, 2)]) != Digraph(3, [(2, 1)])
    # a Graph never equals a Digraph, even on the same pairs
    assert Graph(2, [(1, 2)]) != Digraph(2, [(1, 2)])
    assert Digraph(2, [(1, 2), (2, 1)]) != Graph(2, [(1, 2)])


def test_read_graph_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n\ng 3 2\n1 2\n\n# mid\n2 3\n")
    g = read_graph(str(path))
    assert g.n == 3 and g.m == 2


def test_read_graph_accepts_indented_comments_and_any_whitespace(tmp_path):
    # a comment is a line whose first non-whitespace character is "#", and
    # fields split at any str.isspace character
    path = tmp_path / "g.txt"
    path.write_text(
        "  # x\ng 4 3\n\t# tabbed\n1\t2\n\u00a0# nbsp\n2\u00a03\n \x0c3 4 \n",
        encoding="utf-8",
    )
    assert read_graph(str(path)) == Graph(4, [(1, 2), (2, 3), (3, 4)])


# file text -> (line, message) of the ParseError it raises
_BAD_FILES = {
    "x 3 2\n1 2\n2 3\n": (1, "expected header 'g n m' or 'd n m'"),
    "g 3\n1 2\n": (1, "expected header 'g n m' or 'd n m'"),
    "g 3 2\n1 2 3\n": (2, "expected 'u v'"),
    "g 3 2\n1 q\n": (2, "non-integer vertex"),
    "g 3 2\n1 4\n2 3\n": (2, "vertex out of range in edge 1-4"),
    "g 3 3\n1 2\n2 3\n": (1, "header declares 3 lines but found 2"),
    "": (1, "empty file"),
    "g 3 2\n1 2\n2 1\n": (3, "duplicate edge 2-1"),
    "d 3 2\n1 2\n1 2\n": (3, "duplicate arc (1,2)"),
    "g 3 1\n1 1\n": (2, "loop edge 1-1"),
    "g 3 1\n0 1\n": (2, "vertex out of range in edge 0-1"),
    "d 3 1\n3 4\n": (2, "vertex out of range in arc (3,4)"),
    "g 0 0\n": (1, "header values out of range"),
    "g 3 -1\n": (1, "header values out of range"),
    "g a 2\n": (1, "non-integer header fields"),
}


@pytest.mark.parametrize(
    "text,badline", [(text, line) for text, (line, _) in _BAD_FILES.items()]
)
def test_read_graph_errors_carry_line_numbers(tmp_path, text, badline):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as ei:
        read_graph(str(path))
    assert ei.value.line == badline
    assert str(ei.value) == f"line {badline}: {_BAD_FILES[text][1]}"


def test_to_undirected_collapses_antiparallel():
    d = Digraph(3, [(1, 2), (2, 1), (2, 3)])
    g = to_undirected(d)
    assert g.m == 2 and g.has_edge(1, 2) and g.has_edge(2, 3)


def test_copies_are_independent():
    g = Graph(3, [(1, 2)])
    h = g.copy()
    h.add_edge(2, 3)
    assert g.m == 1 and h.m == 2
    d = Digraph(3, [(1, 2)])
    e = d.copy()
    e.add_arc(2, 3)
    assert d.m == 1 and e.m == 2
    for seed in range(1, 4):
        g, _ = gen_boll_graph(60, seed)
        d = gen_in_out(60, 2, 2, seed)
        assert g.m == len(g.edges) and d.m == len(d.arcs)
        assert g.copy() == g and d.copy() == d


def test_random_model_sanity():
    rng = random.Random(0)
    for _ in range(5):
        n = rng.randint(10, 40)
        g, _ = gen_boll_graph(n, rng.randint(0, 10**6))
        assert sum(g.degree(v) for v in range(1, n + 1)) == 2 * g.m


# --------------------------------------------------------------------------
# generators: identical output to the list-based draws, exact Boll laws
# --------------------------------------------------------------------------


def _m_out_by_lists(n, m, seed):
    """gen_m_out as it was written with an O(n) candidate list per vertex."""
    rng = random.Random(seed)
    d = Digraph(n)
    for v in range(1, n + 1):
        targets = [w for w in range(1, n + 1) if w != v]
        for w in rng.sample(targets, m):
            d.add_arc(v, w)
    return d


def _in_out_by_lists(n, i, o, seed):
    """gen_in_out as it was written with an O(n) candidate list per vertex."""
    rng = random.Random(seed)
    arcs = set()
    for v in range(1, n + 1):
        others = [w for w in range(1, n + 1) if w != v]
        for w in rng.sample(others, i):
            arcs.add((v, w))
        for w in rng.sample(others, o):
            arcs.add((w, v))
    return Digraph(n, arcs)


@pytest.mark.parametrize("n", [2, 4, 20, 200])
def test_m_out_and_in_out_match_list_based_draws(n):
    # random.sample draws from a pool for large k and from a set for small
    # k; n=200 with k=3 and k=199 takes both paths
    ks = sorted({1, min(2, n - 1), min(3, n - 1), n - 1})
    for seed in range(12 if n < 200 else 3):
        for k in ks:
            assert sorted(gen_m_out(n, k, seed).arcs) == sorted(
                _m_out_by_lists(n, k, seed).arcs
            )
            assert sorted(gen_in_out(n, k, 1, seed).arcs) == sorted(
                _in_out_by_lists(n, k, 1, seed).arcs
            )
            assert sorted(gen_in_out(n, 1, k, seed).arcs) == sorted(
                _in_out_by_lists(n, 1, k, seed).arcs
            )


def _stopped_law(pairs, stopped):
    """Exact law of the stopped prefix of a uniform order of pairs:
    {frozenset of kept pairs: probability}, over all len(pairs)! orders."""
    counts = {}
    for perm in itertools.permutations(pairs):
        for k in range(1, len(perm) + 1):
            if stopped(perm[:k]):
                key = frozenset(perm[:k])
                counts[key] = counts.get(key, 0) + 1
                break
    total = math.factorial(len(pairs))
    return {key: c / total for key, c in counts.items()}


def _assert_matches_law(law, sample, trials):
    """Every observed set has positive probability and every count lies
    within 5 standard deviations of its binomial mean."""
    observed = {}
    for key in sample:
        observed[key] = observed.get(key, 0) + 1
    assert set(observed) <= set(law)
    for key, p in law.items():
        sd = math.sqrt(trials * p * (1 - p))
        assert abs(observed.get(key, 0) - trials * p) <= 5 * sd, (sorted(key), p)


def _min_degree_two(edges):
    deg = {v: 0 for v in range(1, 5)}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return min(deg.values()) >= 2


def _in_and_out(arcs):
    return {u for u, _ in arcs} == {1, 2, 3} == {v for _, v in arcs}


def test_boll_graph_law_is_exact_on_k4():
    law = _stopped_law(sorted(complete_graph(4).edges), _min_degree_two)
    trials = 20_000
    sample = []
    for seed in range(trials):
        g, m_stop = gen_boll_graph(4, seed)
        assert m_stop == g.m
        sample.append(frozenset(g.edges))
    _assert_matches_law(law, sample, trials)


def test_boll_digraph_law_is_exact_on_three_vertices():
    law = _stopped_law(sorted(complete_digraph(3).arcs), _in_and_out)
    trials = 20_000
    sample = []
    for seed in range(trials):
        d, m_stop = gen_boll_digraph(3, seed)
        assert m_stop == d.m
        sample.append(frozenset(d.arcs))
    _assert_matches_law(law, sample, trials)


def test_boll_digraph_full_threshold_gives_complete_digraph():
    for seed in range(5):
        d, m_stop = gen_boll_digraph(6, seed, threshold=5)
        assert d == complete_digraph(6) and m_stop == 30
