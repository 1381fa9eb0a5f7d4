"""The Tour's pseudo-arc registry against a recount from scratch.

The registry holds one int key per pseudo-arc (unordered pairs on an
undirected host with n >= 3, ordered arcs otherwise), and apply and rotate
update only the keys of the arcs they remove and create.  Seeded random
apply/rotate sequences check it after every step against the pseudo-arc
vertices read off the tour, and check each rotation against the reversal it
should perform, including segments that wrap past the end of the order
array and endpoints at its first and last slots.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hamperm.graphs import (
    Graph,
    complete_digraph,
    complete_graph,
    cycle_graph,
    gen_boll_digraph,
    gen_boll_graph,
    gen_m_out,
    to_undirected,
)
from hamperm.tour import InadmissibleMove, Move, Tour, UnsupportedOperation


def _expected_pseudo(t):
    """Pseudo-arc vertices read off the tour's sequence and the host."""
    seq = t.sequence()
    return {
        u for u, v in zip(seq, seq[1:] + seq[:1]) if not t.host.has_arc(u, v)
    }


def _check(t):
    t.check_invariants()
    want = _expected_pseudo(t)
    assert t.pseudo_vertices() == want
    assert len(t.pseudo_keys) == len(want)
    # the i-th key decodes to a pseudo-arc vertex whose key index is i
    size = len(t.pseudo_keys)
    by_index = {t.pseudo_vertex(i): i for i in range(size)}
    assert by_index == {v: t.pseudo_index(v) for v in want}
    assert all(t.pseudo_index(v) == size for v in t.order if v not in want)
    assert t.is_circuit() == (not want)
    assert t.pseudo_arcs() == {(v, t.succ(v)) for v in want}


def _host(kind, n, seed):
    if kind == "boll":
        return gen_boll_graph(n, seed)[0]
    if kind == "complete":
        return complete_graph(n)
    if kind == "sparse":
        return to_undirected(gen_m_out(n, 2, seed))
    if kind == "cycle":
        # a cycle plus a few chords: long runs of host edges
        g = cycle_graph(n)
        rng = random.Random(seed)
        for _ in range(n // 4):
            u, w = rng.sample(range(1, n + 1), 2)
            if not g.has_arc(u, w):
                g.add_edge(u, w)
        return g
    if kind == "bolld":
        return gen_boll_digraph(n, seed)[0]
    return complete_digraph(n)


def _random_move(t, rng):
    n = t.n
    verts = rng.sample(range(1, n + 1), 3 if n < 4 or rng.random() < 0.5 else 4)
    return Move.cycle3(*verts) if len(verts) == 3 else Move.potdt(*verts)


def _rotation_target(t, rng):
    """(v, w) with [v, w] an off-tour host edge, or None.  v or w is often
    put at order[-1] or order[0] so those slots and wrapping segments come
    up on every host."""
    order = t.order
    pick = rng.random()
    if pick < 0.2:
        v = order[-1]
    elif pick < 0.4:
        v = None  # w goes to order[0]
    else:
        v = rng.choice(order)
    if v is None:
        w = order[0]
        vs = [u for u in t.host.adj[w] if w not in (u, t.succ(u), t.pred(u))]
        return (rng.choice(sorted(vs)), w) if vs else None
    ws = [w for w in t.host.adj[v] if w not in (v, t.succ(v), t.pred(v))]
    return (v, rng.choice(sorted(ws))) if ws else None


def _rotate_checked(t, v, w, seen):
    """Rotate and check the result is the reversal of succ(v)..w, read in
    the same direction as before."""
    n = t.n
    i, j = t.pos[v], t.pos[w]
    # the segment runs from v to w along order, or against it when rev is
    # set, and wraps past an end of order when that passes from i to j
    seen["wrap"] += (i > j) != t.rev
    seen["v_last"] += i == n - 1
    seen["w_first"] += j == 0
    before = t.sequence_from(v)
    k = before.index(w)
    t.rotate(v, w)
    assert t.sequence_from(v) == [v] + before[k:0:-1] + before[k + 1 :]
    assert t.succ(v) == w


SEQ_CASES = [
    (kind, n, seed)
    for kind, sizes in (
        ("boll", (5, 9, 24, 80)),
        ("complete", (3, 4, 5, 11, 40)),
        ("sparse", (3, 6, 17, 60)),
        ("cycle", (8, 30, 80)),
        ("bolld", (3, 7, 25, 80)),
        ("completed", (3, 4, 12)),
    )
    for n in sizes
    for seed in (1, 2)
]


@pytest.mark.parametrize(
    "kind,n,seed", SEQ_CASES, ids=[f"{k}-n{n}-s{s}" for k, n, s in SEQ_CASES]
)
def test_registry_matches_recount_after_every_step(kind, n, seed):
    rng = random.Random(1000 * n + seed)
    h = _host(kind, n, seed)
    start = list(range(1, n + 1))
    rng.shuffle(start)
    t = Tour(h, start)
    _check(t)
    seen = {"wrap": 0, "v_last": 0, "w_first": 0, "moves": 0}
    for _ in range(200):
        if not h.directed and rng.random() < 0.5:
            target = _rotation_target(t, rng)
            if target is not None:
                _rotate_checked(t, *target, seen)
                _check(t)
                continue
        m = _random_move(t, rng)
        if t.admissible(m):
            t.apply(m)
            seen["moves"] += 1
        else:
            keys = list(t.pseudo_keys)
            with pytest.raises(InadmissibleMove):
                t.apply(m)
            assert t.pseudo_keys == keys
        _check(t)
        if rng.random() < 0.05:
            c = t.copy()
            _check(c)
            t = c
    assert seen["moves"]
    if not h.directed and n >= 8:
        # every undirected host here with n >= 8 has room for rotations
        assert seen["wrap"] and seen["v_last"] and seen["w_first"], seen


def test_copy_has_its_own_registry():
    t = Tour(cycle_graph(8), [1, 3, 2, 4, 5, 6, 7, 8])
    c = t.copy()
    c.apply(Move.cycle3(1, 3, 2))
    assert c.is_circuit()
    assert t.pseudo_vertices() == {1, 2}
    _check(t)
    _check(c)


def test_rotation_wrapping_past_the_end_of_order():
    t = Tour(complete_graph(8), [3, 4, 5, 6, 7, 8, 1, 2])
    t.rotate(8, 4)  # the segment 1, 2, 3, 4 wraps from slot 6 to slot 1
    assert t.sequence_from(8) == [8, 4, 3, 2, 1, 5, 6, 7]
    _check(t)
    t = Tour(complete_graph(8), [1, 2, 3, 4, 5, 6, 7, 8])
    t.rotate(8, 3)  # v at the last slot: the segment starts at slot 0
    assert t.sequence_from(8) == [8, 3, 2, 1, 4, 5, 6, 7]
    _check(t)
    t = Tour(complete_graph(8), [1, 2, 3, 4, 5, 6, 7, 8])
    t.rotate(6, 1)  # w at slot 0: the segment is 7, 8, 1
    assert t.sequence_from(6) == [6, 1, 8, 7, 2, 3, 4, 5]
    _check(t)


def test_rotation_guards_leave_the_tour_unchanged():
    t = Tour(cycle_graph(6), [1, 3, 2, 4, 5, 6])
    keys, order = list(t.pseudo_keys), list(t.order)
    for v, w in ((1, 1), (1, 3), (1, 6), (6, 1), (1, 4)):
        with pytest.raises(ValueError):
            t.rotate(v, w)  # equal, adjacent, or (1, 4) off the host
    assert t.pseudo_keys == keys and t.order == order
    with pytest.raises(UnsupportedOperation):
        Tour(complete_digraph(5), [1, 2, 3, 4, 5]).rotate(1, 3)


# --------------------------------------------------------------------------
# tiny hosts: ordered keys for n <= 2
# --------------------------------------------------------------------------


def test_two_vertices_keep_both_pseudo_arcs():
    # one unordered key would count the pair {1, 2} once
    t = Tour(Graph(2), [1, 2])
    assert t.pseudo_vertices() == {1, 2}
    assert len(t.pseudo_keys) == 2
    assert t.pseudo_arcs() == {(1, 2), (2, 1)}
    t.check_invariants()
    t = Tour(Graph(2, [(1, 2)]), [2, 1])
    assert t.is_circuit() and t.pseudo_vertices() == set()
    t.check_invariants()


def test_one_vertex():
    t = Tour(Graph(1), [1])
    assert t.pseudo_vertices() == {1}  # the loop 1 -> 1 is no host edge
    assert len(t.pseudo_keys) == 1
    t.check_invariants()


def test_three_vertices():
    g = Graph(3, [(1, 2), (2, 3)])
    t = Tour(g, [1, 2, 3])
    assert t.pseudo_vertices() == {3}
    assert len(t.pseudo_keys) == 1
    t.check_invariants()
    t.apply(Move.cycle3(1, 2, 3))  # 1 -> 3 -> 2 -> 1
    assert t.sequence_from(1) == [1, 3, 2]
    assert t.pseudo_vertices() == {1}
    t.check_invariants()
    t = Tour(complete_graph(3), [3, 1, 2])
    assert t.is_circuit()
    t.check_invariants()


# --------------------------------------------------------------------------
# check_invariants raises without assert statements
# --------------------------------------------------------------------------


def test_check_invariants_catches_a_stale_registry():
    t = Tour(cycle_graph(6), [1, 3, 2, 4, 5, 6])
    del t.pseudo_keys[0]
    with pytest.raises(AssertionError, match="recount"):
        t.check_invariants()
    t = Tour(cycle_graph(6), [1, 3, 2, 4, 5, 6])
    t.pos[1], t.pos[3] = t.pos[3], t.pos[1]
    with pytest.raises(AssertionError, match="pos"):
        t.check_invariants()


def test_check_invariants_catches_an_unsorted_registry():
    t = Tour(cycle_graph(6), [1, 3, 2, 4, 5, 6])
    assert len(t.pseudo_keys) == 2
    t.pseudo_keys.reverse()
    with pytest.raises(AssertionError, match="strictly increasing"):
        t.check_invariants()
    t = Tour(cycle_graph(6), [1, 3, 2, 4, 5, 6])
    t.pseudo_keys.insert(0, t.pseudo_keys[0])
    with pytest.raises(AssertionError, match="strictly increasing"):
        t.check_invariants()


def test_check_invariants_runs_under_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from hamperm.graphs import cycle_graph\n"
        "from hamperm.tour import Tour\n"
        "t = Tour(cycle_graph(6), [1, 3, 2, 4, 5, 6])\n"
        "t.pseudo_keys.clear()\n"
        "try:\n"
        "    t.check_invariants()\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0
