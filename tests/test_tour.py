import random

import pytest

import solver_reference
from hamperm import tour
from hamperm.graphs import Graph, complete_graph, cycle_graph, gen_boll_graph
from hamperm.tour import (
    Abbreviation,
    InadmissibleMove,
    Move,
    Tour,
    UnsupportedOperation,
)


def identity_tour(n):
    return Tour(complete_graph(n), list(range(1, n + 1)))


# --------------------------------------------------------------------------
# golden compositions
# --------------------------------------------------------------------------


def test_golden_cycle3_on_12():
    t = identity_tour(12)
    t.apply(Move.cycle3(1, 4, 8))
    assert t.sequence() == [1, 5, 6, 7, 8, 2, 3, 4, 9, 10, 11, 12]


def test_golden_potdt_on_12():
    t = identity_tour(12)
    t.apply(Move.potdt(2, 6, 4, 8))
    assert t.sequence() == [1, 2, 7, 8, 5, 6, 3, 4, 9, 10, 11, 12]


def test_potdt_2_6_3_7_on_12():
    # the nearby pairing (2 6)(3 7) gives a different, also valid, 12-cycle
    t = identity_tour(12)
    t.apply(Move.potdt(2, 6, 3, 7))
    assert t.sequence() == [1, 2, 7, 4, 5, 6, 3, 8, 9, 10, 11, 12]


def test_golden_potdt_on_10():
    t = identity_tour(10)
    t.apply(Move.potdt(3, 7, 4, 9))
    assert t.sequence() == [1, 2, 3, 8, 9, 5, 6, 7, 4, 10]


# --------------------------------------------------------------------------
# move mechanics
# --------------------------------------------------------------------------


def test_move_constructors_require_distinct_vertices():
    with pytest.raises(ValueError):
        Move.cycle3(1, 1, 2)
    with pytest.raises(ValueError):
        Move.potdt(1, 2, 2, 3)


@pytest.mark.parametrize(
    "kind, verts",
    [
        ("potdt", (6, 4, 3, 6)),  # Tour.apply never returned on this one
        ("potdt", (1, 2, 1, 3)),
        ("potdt", (2, 2, 3, 4)),
        ("cycle3", (1, 1, 2)),
        ("cycle3", (3, 2, 3)),
        ("cycle3", (1, 2, 3, 4)),  # wrong arity
        ("potdt", (1, 2, 3)),
        ("cycle3", ()),
        ("swap", (1, 2)),  # unknown kind
        ("2opt", (1, 2, 3, 4)),
    ],
)
def test_move_constructor_rejects_malformed_moves(kind, verts):
    # construction alone must fail, so no malformed move reaches Tour.apply
    with pytest.raises(ValueError):
        Move(kind, verts)


def test_move_perm_and_inverse():
    m = Move.cycle3(1, 4, 8)
    assert m.perm() == {1: 4, 4: 8, 8: 1}
    assert m.inverse().perm() == {4: 1, 8: 4, 1: 8}
    p = Move.potdt(2, 6, 4, 8)
    assert p.perm() == {2: 6, 6: 2, 4: 8, 8: 4}
    assert p.inverse() is p


def test_canonical_key_identifies_rewritings():
    assert Move.cycle3(1, 4, 8).canonical_key() == Move.cycle3(4, 8, 1).canonical_key()
    assert Move.cycle3(1, 4, 8).canonical_key() != Move.cycle3(1, 8, 4).canonical_key()
    assert (
        Move.potdt(2, 6, 4, 8).canonical_key()
        == Move.potdt(8, 4, 6, 2).canonical_key()
    )


def test_apply_then_inverse_restores_tour():
    rng = random.Random(1)
    t = identity_tour(15)
    for _ in range(50):
        a, b, c = rng.sample(range(1, 16), 3)
        m = Move.cycle3(a, b, c)
        if not t.admissible(m):
            continue
        before = t.sequence()
        t.apply(m)
        t.apply(m.inverse())
        assert t.sequence_from(before[0]) == before


def test_inadmissible_move_raises():
    t = identity_tour(8)
    m = Move.cycle3(1, 5, 3)  # counterclockwise on the identity
    assert not t.admissible(m)
    with pytest.raises(InadmissibleMove):
        t.apply(m)


def test_admissible_matches_clockwise_and_interlace():
    rng = random.Random(2)
    t = identity_tour(20)
    revs = set()
    for step in range(200):
        revs.add(t.rev)
        a, b, c = rng.sample(range(1, 21), 3)
        assert t.admissible(Move.cycle3(a, b, c)) == t.clockwise(a, b, c)
        a, c, b, d = rng.sample(range(1, 21), 4)
        assert t.admissible(Move.potdt(a, c, b, d)) == t.interlace(a, c, b, d)
        if step % 20 == 0:
            # read the tour both ways round: rotations flip rev
            v = rng.randint(1, 20)
            t.rotate(v, t.sequence_from(v)[rng.randint(2, 18)])
    assert revs == {False, True}


# --------------------------------------------------------------------------
# pseudo registry
# --------------------------------------------------------------------------


def test_pseudo_registry_exact_under_moves_and_rotations():
    rng = random.Random(3)
    g, _ = gen_boll_graph(30, 5)
    order = list(range(1, 31))
    rng.shuffle(order)
    t = Tour(g, order)
    t.check_invariants()
    for _ in range(100):
        if rng.random() < 0.5:
            a, b, c = rng.sample(range(1, 31), 3)
            m = Move.cycle3(a, b, c)
            if t.admissible(m):
                t.apply(m)
        else:
            v = rng.randint(1, 30)
            ws = [
                w
                for w in g.adj[v]
                if w not in (v, t.succ(v), t.pred(v))
            ]
            if ws:
                t.rotate(v, rng.choice(ws))
        t.check_invariants()  # includes recomputing PSEUDO from scratch


def test_circuit_iff_no_pseudo():
    g = cycle_graph(6)
    t = Tour(g, [1, 2, 3, 4, 5, 6])
    assert t.is_circuit() and t.pseudo_vertices() == set()
    t2 = Tour(g, [1, 3, 2, 4, 5, 6])
    assert not t2.is_circuit()
    assert t2.pseudo_arcs() == {(1, 3), (2, 4)}  # (3,2) is a host edge


def test_rotation_semantics_and_guards():
    g = complete_graph(6)
    t = Tour(g, [1, 2, 3, 4, 5, 6])
    t.rotate(1, 4)  # reverse the segment 2..4
    assert t.sequence_from(1) == [1, 4, 3, 2, 5, 6]
    with pytest.raises(ValueError):
        t.rotate(1, 4)  # now adjacent on the tour
    g2 = cycle_graph(6)
    t2 = Tour(g2, [1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        t2.rotate(1, 4)  # [1,4] is not a host edge


def test_rotation_rejected_on_digraphs():
    from hamperm.graphs import complete_digraph

    t = Tour(complete_digraph(5), [1, 2, 3, 4, 5])
    with pytest.raises(UnsupportedOperation):
        t.rotate(1, 3)


def test_pseudo_anchored_rotation_never_increases_pseudo():
    rng = random.Random(4)
    for seed in range(20):
        g, _ = gen_boll_graph(25, seed)
        order = list(range(1, 26))
        rng.shuffle(order)
        t = Tour(g, order)
        for _ in range(30):
            pseudos = sorted(t.pseudo_vertices())
            if not pseudos:
                break
            v = rng.choice(pseudos)
            ws = [
                w
                for w in g.adj[v]
                if w not in (v, t.succ(v), t.pred(v))
            ]
            if not ws:
                break
            before = len(t.pseudo_vertices())
            t.rotate(v, rng.choice(ws))
            assert len(t.pseudo_vertices()) <= before


def test_diff_score_and_filter():
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)])
    t = Tour(g, [1, 2, 3, 4, 5])
    m = Move.cycle3(1, 3, 5)  # admissible on the identity order
    assert t.admissible(m)
    rt = solver_reference.Tour(t.host, t.sequence())
    # new arcs: (1,4),(3,1),(5,2); only (3,1) is a host edge
    assert solver_reference.diff_score(rt, m) == 1 - 3
    # creates two pseudo-arcs
    assert not solver_reference.passes_pseudo_filter(rt, m)


def test_apply_then_rotate_keeps_invariants():
    t = identity_tour(6)
    t.apply(Move.cycle3(1, 3, 5))
    t.rotate(1, 5)
    t.check_invariants()


def test_tour_matches_reference_under_random_steps(monkeypatch):
    # the array Tour reverses the shorter side of a rotation and flips rev;
    # solver_reference.Tour reverses the segment itself and never flips, so
    # every logical read must agree after every step
    real = tour._reverse
    branches = set()

    def reverse(order, pos, i, j):
        n = len(order)
        flip = real(order, pos, i, j)
        branches.add("complement" if flip else "segment")
        lo, hi = ((j + 1) % n, (i - 1) % n) if flip else (i, j)
        if lo > hi:
            branches.add("wrapping")
        if 2 * ((j - i) % n + 1) == n:
            branches.add("tie")
        return flip

    monkeypatch.setattr(tour, "_reverse", reverse)
    rng = random.Random(8)
    for trial in range(60):
        n = rng.randint(5, 40)
        g = complete_graph(n) if trial % 3 == 0 else gen_boll_graph(n, trial)[0]
        order = rng.sample(range(1, n + 1), n)
        t, ref = Tour(g, order), solver_reference.Tour(g, order)
        for _ in range(40):
            if rng.random() < 0.5:
                verts = rng.sample(range(1, n + 1), rng.choice((3, 4)))
                m = Move.cycle3(*verts) if len(verts) == 3 else Move.potdt(*verts)
                assert t.admissible(m) == ref.admissible(m)
                if not t.admissible(m):
                    continue
                t.apply(m)
                ref.apply(m)
            else:
                v = rng.randint(1, n)
                near = (v, ref.succ(v), ref.pred(v))
                ws = sorted(w for w in g.adj[v] if w not in near)
                if not ws:
                    continue
                w = rng.choice(ws)
                before = list(t.order)
                t.rotate(v, w)
                ref.rotate(v, w)
                rewritten = sum(x != y for x, y in zip(before, t.order))
                assert rewritten <= (n + 1) // 2
            t.check_invariants()
            assert [t.succ(v) for v in range(1, n + 1)] == [
                ref.succ(v) for v in range(1, n + 1)
            ]
            assert [t.pred(v) for v in range(1, n + 1)] == [
                ref.pred(v) for v in range(1, n + 1)
            ]
            for v in range(1, n + 1):
                assert t.sequence_from(v) == ref.sequence_from(v)
            for _ in range(20):
                a, b, c, d = rng.sample(range(1, n + 1), 4)
                assert t.clockwise(a, b, c) == ref.clockwise(a, b, c)
                assert t.interlace(a, c, b, d) == ref.interlace(a, c, b, d)
            assert t.pseudo_vertices() == ref.pseudo_vertices()
    assert branches == {"segment", "complement", "wrapping", "tie"}


# --------------------------------------------------------------------------
# abbreviations
# --------------------------------------------------------------------------


def test_abbreviation_golden_sequence():
    base = Tour(complete_graph(15), [1, 14, 8, 4, 3, 12, 7, 13, 10, 6, 11, 5, 15, 9, 2])
    abb = Abbreviation(base)
    t = base.copy()

    def step_move(m):
        t.apply(m)
        abb.apply_move(m)

    step_move(Move.cycle3(1, 4, 7))
    assert abb.ordinal_sequence() == [1, 5, 6, 7, 2, 3, 4, 8, 9, 10, 11, 12, 13, 14, 15]
    t.rotate(7, 10)
    abb.rotate(7, 10)
    assert abb.ordinal_sequence() == [1, 5, 6, 7, 9, 8, 4, 3, 2, 10, 11, 12, 13, 14, 15]
    step_move(Move.cycle3(14, 9, 12))
    assert abb.ordinal_sequence() == [1, 5, 6, 10, 11, 12, 13, 14, 7, 9, 8, 4, 3, 2, 15]
    step_move(Move.potdt(3, 15, 12, 14))
    assert abb.ordinal_sequence() == [1, 5, 14, 7, 9, 8, 4, 3, 2, 10, 11, 12, 13, 6, 15]
    assert abb.materialize().sequence_from(1) == t.sequence_from(1)


def test_abbreviation_matches_direct_updates():
    rng = random.Random(6)
    g = complete_graph(50)
    for trial in range(5):
        order = list(range(1, 51))
        rng.shuffle(order)
        t = Tour(g, order)
        abb = Abbreviation(t)
        for _ in range(20):
            if rng.random() < 0.6:
                a, b, c = rng.sample(range(1, 51), 3)
                m = Move.cycle3(a, b, c)
                if not t.admissible(m):
                    continue
                t.apply(m)
                abb.apply_move(m)
            else:
                v = rng.randint(1, 50)
                ws = [w for w in range(1, 51) if w not in (v, t.succ(v), t.pred(v))]
                w = rng.choice(ws)
                t.rotate(v, w)
                abb.rotate(v, w)
            assert abb.materialize().sequence_from(1) == t.sequence_from(1)


def test_abbreviation_render_is_sparse():
    base = identity_tour(100)
    abb = Abbreviation(base)
    assert abb.render() == "1 … 100"
    abb.apply_move(Move.cycle3(1, 40, 80))
    # one move touches O(1) runs, so the rendering stays short
    assert len(abb.render().split()) <= 12
    assert "…" in abb.render()


def test_abbreviation_render_marks_descending_runs():
    base = identity_tour(30)
    abb = Abbreviation(base)
    abb.rotate(1, 20)
    assert "---" in abb.render()


def test_rebase_resets_runs():
    t = identity_tour(20)
    abb = Abbreviation(t)
    abb.apply_move(Move.cycle3(1, 5, 9))
    t.apply(Move.cycle3(1, 5, 9))
    fresh = Abbreviation(t)
    assert fresh.runs == [(1, 20)]
    assert fresh.materialize().sequence_from(1) == t.sequence_from(1)
    # a base read against its array: the segment 2..15 is the longer side,
    # so the rotation reverses the other one and sets rev
    t = identity_tour(20)
    t.rotate(1, 15)
    assert t.rev
    fresh = Abbreviation(t)
    assert fresh.runs == [(1, 20)]
    assert fresh.materialize().sequence_from(1) == t.sequence_from(1)


def test_stripping_replay_golden():
    from goldens import (
        STRIP_MOVES,
        STRIP_PSEUDO,
        STRIP_TOURS,
        strip_complement_host,
    )

    host = strip_complement_host()
    t = Tour(host, STRIP_TOURS[0])
    assert t.pseudo_vertices() == STRIP_PSEUDO[0]
    for i, m in enumerate(STRIP_MOVES):
        t.apply(m)
        assert t.sequence_from(1) == STRIP_TOURS[i + 1]
        if i + 1 in STRIP_PSEUDO:
            assert t.pseudo_vertices() == STRIP_PSEUDO[i + 1]


def test_tour_requires_permutation():
    with pytest.raises(ValueError):
        Tour(complete_graph(4), [1, 2, 2, 4])
    with pytest.raises(ValueError):
        Tour(complete_graph(4), [1, 2, 3])
