"""The Abbreviation view against the run-surgery Abbreviation it replaced.

tests/abbreviation_reference.py keeps the earlier class, which spliced its
own run list on every move and rotation.  The view reads the same notation
off a Tour, so after every step of seeded admissible move and rotation
sequences both must give the same ordinal sequence and materialized tour,
and the view's runs must be maximal (no two neighbours join into one run)
and so never more than the reference's.
"""

import random

import pytest

import abbreviation_reference as ref
from hamperm.graphs import complete_digraph, complete_graph, cycle_graph
from hamperm.tour import (
    Abbreviation,
    InadmissibleMove,
    Move,
    Tour,
    UnsupportedOperation,
)


def _expand(runs):
    out = []
    for a, b in runs:
        step = 1 if b >= a else -1
        out.extend(range(a, b + step, step))
    return out


def _is_run(seq):
    steps = {b - a for a, b in zip(seq, seq[1:])}
    return len(seq) == 1 or steps in ({1}, {-1})


def _random_step(rng, t):
    """A random admissible move, or (v, w) for a rotation, on tour t over a
    complete host."""
    n = t.n
    if rng.random() < 0.35:
        v = rng.randint(1, n)
        ws = [w for w in range(1, n + 1) if w not in (v, t.succ(v), t.pred(v))]
        return v, rng.choice(ws)
    # sorted in the order the tour reads them, which is against t.order
    # when t.rev is set
    rank = {v: i for i, v in enumerate(t.sequence())}
    verts = sorted(rng.sample(range(1, n + 1), rng.choice((3, 4))), key=rank.get)
    if len(verts) == 3:
        a, b, c = verts
        return Move.cycle3(*rng.choice(((a, b, c), (b, c, a), (c, a, b))))
    # positions p0 < p1 < p2 < p3: the chords [p0, p2] and [p1, p3] interlace
    a, b, c, d = verts
    return Move.potdt(a, c, b, d)


def _check(abb, old):
    seq = abb.ordinal_sequence()
    assert seq == old.ordinal_sequence()
    assert abb.materialize().sequence() == old.materialize().sequence()
    runs = abb.runs
    assert _expand(runs) == seq
    for left, right in zip(runs, runs[1:]):
        assert not _is_run(_expand([left, right]))
    assert len(runs) <= len(old.runs)


HOSTS = {n: complete_graph(n) for n in range(5, 61)}


@pytest.mark.parametrize("k", range(240))
def test_view_matches_run_surgery(k):
    rng = random.Random(k)
    n = rng.randint(5, 60)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    t = Tour(HOSTS[n], order)
    abb, old = Abbreviation(t), ref.Abbreviation(t)
    _check(abb, old)
    for _ in range(rng.randint(5, 25)):
        step = _random_step(rng, abb.tour)
        if isinstance(step, Move):
            abb.apply_move(step)
            old.apply_move(step)
        else:
            abb.rotate(*step)
            old.rotate(*step)
        assert abb.move_count == old.move_count > 0
        _check(abb, old)
        if rng.random() < 0.05:
            t = abb.materialize()
            abb, old = Abbreviation(t), ref.rebase(t)
            assert abb.runs == old.runs == [(1, n)]


def test_runs_are_the_maximal_form():
    base = Tour(complete_graph(15), [1, 14, 8, 4, 3, 12, 7, 13, 10, 6, 11, 5, 15, 9, 2])
    abb = Abbreviation(base)
    abb.apply_move(Move.cycle3(1, 4, 7))
    assert abb.runs == [(1, 1), (5, 7), (2, 4), (8, 15)]
    abb.rotate(7, 10)
    assert abb.runs == [(1, 1), (5, 7), (9, 8), (4, 2), (10, 15)]
    assert abb.render() == "1 5 … 7 9 8 4 --- 2 10 … 15"


def _unchanged(abb, seq):
    assert abb.ordinal_sequence() == seq and abb.move_count == 0


def test_inadmissible_move_raises():
    abb = Abbreviation(Tour(complete_graph(8), list(range(1, 9))))
    with pytest.raises(InadmissibleMove):
        abb.apply_move(Move.cycle3(1, 5, 3))  # counterclockwise
    with pytest.raises(InadmissibleMove):
        abb.apply_move(Move.potdt(1, 2, 3, 4))  # chords do not interlace
    _unchanged(abb, list(range(1, 9)))


def test_rotation_on_digraph_raises():
    abb = Abbreviation(Tour(complete_digraph(5), [1, 2, 3, 4, 5]))
    with pytest.raises(UnsupportedOperation):
        abb.rotate(1, 3)
    _unchanged(abb, [1, 2, 3, 4, 5])


def test_rotation_off_the_host_raises():
    abb = Abbreviation(Tour(cycle_graph(6), [1, 2, 3, 4, 5, 6]))
    with pytest.raises(ValueError):
        abb.rotate(1, 4)  # [1,4] is not a host edge
    with pytest.raises(ValueError):
        abb.rotate(1, 2)  # adjacent on the tour
    _unchanged(abb, [1, 2, 3, 4, 5, 6])
