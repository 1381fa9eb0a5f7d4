"""The solver's inline candidate scoring and its pseudo-vertex draws.

_cycle3/_potdt must agree with the Move/Tour path they replace
(Tour.admissible, Move.canonical_key, and the passes_pseudo_filter and
diff_score kept in solver_reference) on every sampled triple and
quadruple; _draw_pseudo and _pick_rotation must draw uniformly from the
sets the paper's search draws from.
"""

import math
import random

import pytest

import solver_reference
from hamperm.graphs import (
    Graph,
    complete_graph,
    gen_boll_digraph,
    gen_boll_graph,
    gen_m_out,
    to_undirected,
)
from hamperm.solver import _cycle3, _draw_pseudo, _pick_rotation, _potdt
from hamperm.tour import Move, Tour


def _host(model, n, seed):
    if model == "boll":
        return gen_boll_graph(n, seed)[0]
    if model == "r3":
        return to_undirected(gen_m_out(n, 3, seed))
    if model == "bolld":
        return gen_boll_digraph(n, seed)[0]
    return complete_graph(n)


def _expected(t, m):
    """(accepted, key, DIFF) by the Move/Tour path."""
    rt = solver_reference.Tour(t.host, t.order)
    ok = t.admissible(m) and solver_reference.passes_pseudo_filter(rt, m)
    return ok, m.canonical_key(), solver_reference.diff_score(rt, m)


FAST_CASES = [
    (model, n, seed)
    for model in ("boll", "r3", "bolld", "complete")
    for n, seed in ((5, 1), (9, 2), (30, 3), (80, 4), (200, 5))
]


@pytest.mark.parametrize(
    "model,n,seed", FAST_CASES, ids=[f"{m}-n{n}-s{s}" for m, n, s in FAST_CASES]
)
def test_inline_scoring_matches_move_path(model, n, seed):
    rng = random.Random(seed)
    h = _host(model, n, seed)
    adj = h.out_adj if h.directed else h.adj
    order = list(range(1, n + 1))
    rng.shuffle(order)
    t = Tour(h, order)
    outcomes = {"accepted": 0, "inadmissible": 0, "filtered": 0}
    for step in range(60):
        for _ in range(40):
            if rng.random() < 0.5:
                # uniform triples and quadruples
                k = 3 if rng.random() < 0.5 else 4
                verts = rng.sample(range(1, n + 1), k)
            else:
                # solver-shaped: b, c, d precede host neighbours, so the
                # filter passes more often on sparse hosts
                a = rng.randint(1, n)
                b = t.pred(rng.choice(sorted(adj[a])))
                c = t.pred(rng.choice(sorted(adj[b])))
                verts = [a, b, c]
                if rng.random() < 0.5:
                    v2 = rng.randint(1, n)
                    verts = [a, b, v2, t.pred(rng.choice(sorted(adj[v2])))]
                if len(set(verts)) != len(verts):
                    continue
            if len(verts) == 3:
                m = Move.cycle3(*verts)
                got = _cycle3(t.order, t.pos, adj, *verts)
            else:
                m = Move.potdt(*verts)
                got = _potdt(t.order, t.pos, adj, *verts)
            ok, key, diff = _expected(t, m)
            if ok:
                assert got == (key, m.verts, diff)
                outcomes["accepted"] += 1
            else:
                assert got is None
                reason = "filtered" if t.admissible(m) else "inadmissible"
                outcomes[reason] += 1
        # move the tour on: an admissible random 3-cycle or POTDT
        while True:
            verts = rng.sample(range(1, n + 1), 3 if step % 2 else 4)
            m = Move.cycle3(*verts) if len(verts) == 3 else Move.potdt(*verts)
            if t.admissible(m):
                t.apply(m)
                break
    assert outcomes["accepted"] and outcomes["inadmissible"]
    if model != "complete" and n >= 30:
        # small r3/Boll hosts can be too dense for the filter to bite
        assert outcomes["filtered"]


# --------------------------------------------------------------------------
# draw laws
# --------------------------------------------------------------------------

TRIALS = 20_000


class _CountingRandom(random.Random):
    """random.Random that counts randrange calls (9 in one _draw_pseudo
    mean it fell back to the sorted pool) and shuffles (one in
    _pick_rotation means its membership draws all missed)."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0
        self.shuffles = 0

    def randrange(self, *args):
        self.calls += 1
        return super().randrange(*args)

    def shuffle(self, x):
        self.shuffles += 1
        return super().shuffle(x)


def _assert_uniform(counts, support, trials):
    assert set(counts) <= set(support)
    p = 1 / len(support)
    sd = math.sqrt(trials * p * (1 - p))
    for v in support:
        assert abs(counts.get(v, 0) - trials * p) <= 5 * sd, (v, counts)


def _assert_binomial(count, trials, p):
    sd = math.sqrt(trials * p * (1 - p))
    assert abs(count - trials * p) <= 5 * sd, (count, trials * p)


def _path_tour(n, pseudo, chords=()):
    """The tour 1, 2, ..., n on a host holding every tour edge except those
    leaving the vertices in pseudo, plus the given chords."""
    g = Graph(n)
    for v in range(1, n + 1):
        if v not in pseudo:
            g.add_edge(v, v % n + 1)
    for u, w in chords:
        g.add_edge(u, w)
    t = Tour(g, range(1, n + 1))
    assert t.pseudo_vertices() == set(pseudo)
    return t


@pytest.mark.parametrize(
    "pseudo,exclude",
    [
        (range(1, 61, 3), 0),  # 20 of 60: nearly always a rejection draw
        (range(1, 61, 3), 31),
        ((5, 17, 40, 52), 17),  # 4 of 60: both paths often
        ((44,), 0),  # one of 60: mostly the sorted fallback
    ],
)
def test_draw_pseudo_is_uniform_on_both_paths(pseudo, exclude):
    t = _path_tour(60, set(pseudo))
    support = sorted(set(pseudo) - {exclude})
    by_path = {"rejection": {}, "fallback": {}}
    for seed in range(TRIALS):
        rng = _CountingRandom(seed)
        v = _draw_pseudo(t, t.host.adj, rng, exclude)
        path = by_path["fallback" if rng.calls == 9 else "rejection"]
        path[v] = path.get(v, 0) + 1
    for counts in by_path.values():
        _assert_uniform(counts, support, sum(counts.values()))
    total = {v: sum(c.get(v, 0) for c in by_path.values()) for v in support}
    _assert_uniform(total, support, TRIALS)
    # each of the 8 uniform draws over 60 vertices misses the support with
    # probability 1 - k/60
    _assert_binomial(
        sum(by_path["fallback"].values()), TRIALS, (1 - len(support) / 60) ** 8
    )


def test_draw_pseudo_with_one_candidate_left():
    t = _path_tour(60, {9, 33})
    for seed in range(200):
        assert _draw_pseudo(t, t.host.adj, random.Random(seed), 33) == 9


def test_pick_rotation_is_uniform_over_eligible_vertices():
    # 30 pseudo-arc vertices of 60; only 7, 20 and 45 have an off-tour host
    # edge (20 has two), so the 8 membership draws all miss with
    # probability 0.9^8 (about 43%) and the shuffled scan decides those
    pseudo = set(range(1, 61, 2)) | {20}
    pseudo.discard(21)
    chords = [(7, 30), (20, 50), (20, 10), (45, 12)]
    t = _path_tour(60, pseudo, chords)
    offtour = {7: [30], 20: [10, 50], 45: [12]}
    nbrs = {v: sorted(ws) for v, ws in t.host.adj.items()}
    law = {
        (v, w): 1 / (len(offtour) * len(ws)) for v, ws in offtour.items() for w in ws
    }
    observed = {}
    fallback = 0
    for seed in range(TRIALS):
        rng = _CountingRandom(seed)
        rot = _pick_rotation(t, t.host.adj, nbrs, rng)
        observed[rot] = observed.get(rot, 0) + 1
        fallback += rng.shuffles
    assert set(observed) <= set(law)
    for rot, p in law.items():
        sd = math.sqrt(TRIALS * p * (1 - p))
        assert abs(observed.get(rot, 0) - TRIALS * p) <= 5 * sd, (rot, observed)
    _assert_binomial(fallback, TRIALS, 0.9**8)


def test_pick_rotation_without_eligible_vertex():
    t = _path_tour(12, {3, 8})
    nbrs = {v: sorted(ws) for v, ws in t.host.adj.items()}
    for seed in range(50):
        assert _pick_rotation(t, t.host.adj, nbrs, random.Random(seed)) is None
