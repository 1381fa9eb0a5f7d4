"""The solver's inline candidate scoring, its draws and its test cap.

_cycle3/_potdt must agree with the Move/Tour path they replace
(Tour.admissible, Move.canonical_key, and the passes_pseudo_filter and
diff_score kept in solver_reference) on every sampled triple and
quadruple; _sample must give every ordered k-subset of its pool exactly
once over its draw range; _draw_pseudo and _pick_rotation must draw
uniformly from the sets the paper's search draws from; and _candidates
must score at most test_cap candidates and draw nothing after the last.
"""

import itertools
import math
import random

import pytest

import solver_reference
from hamperm import solver
from hamperm.contract import contract
from hamperm.graphs import (
    Digraph,
    Graph,
    complete_graph,
    gen_boll_digraph,
    gen_boll_graph,
    gen_in_out,
    gen_m_out,
    to_undirected,
)
from hamperm.solver import (
    SolveParams,
    _cycle3,
    _draw_pseudo,
    _factor_order,
    _max_matching,
    _pick_rotation,
    _potdt,
    _sample,
    _start_order,
    solve_digraph,
    solve_graph,
)
from hamperm.tour import Move, Tour
from solver_schedule import set_schedule


def _host(model, n, seed):
    if model == "boll":
        return gen_boll_graph(n, seed)[0]
    if model == "r3":
        return to_undirected(gen_m_out(n, 3, seed))
    if model == "bolld":
        return gen_boll_digraph(n, seed)[0]
    if model == "inout":
        return gen_in_out(n, 2, 2, seed)
    if model == "hidden":
        return _hidden_cycle(n, seed)
    if model == "mout1":
        # one random out-arc per vertex: rarely a perfect matching
        return gen_m_out(n, 1, seed)
    return complete_graph(n)


def _expected(t, m):
    """(accepted, key, DIFF) by the Move/Tour path."""
    rt = solver_reference.Tour(t.host, t.sequence())
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
    revs = set()
    for step in range(60):
        revs.add(t.rev)
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
                got = _cycle3(t.order, t.pos, t.rev, adj, *verts)
            else:
                m = Move.potdt(*verts)
                got = _potdt(t.order, t.pos, t.rev, adj, *verts)
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
        # and on a graph a rotation, so the tour is read both ways round
        if not h.directed and n > 5:
            v = rng.randint(1, n)
            ws = sorted(w for w in adj[v] if w not in (v, t.succ(v), t.pred(v)))
            if ws:
                t.rotate(v, rng.choice(ws))
    assert outcomes["accepted"] and outcomes["inadmissible"]
    if not h.directed and n > 5:
        assert revs == {False, True}
    if model != "complete" and n >= 30:
        # small r3/Boll hosts can be too dense for the filter to bite
        assert outcomes["filtered"]


# --------------------------------------------------------------------------
# draw laws
# --------------------------------------------------------------------------

TRIALS = 20_000


class _ScriptedBits:
    """Stands in for random.Random in _sample: getrandbits returns the
    scripted values in turn, each checked against the requested width."""

    def __init__(self, values):
        self.values = list(values)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        r = self.values.pop(0)
        assert 0 <= r < 2**k, (r, k)
        return r


@pytest.mark.parametrize(
    "m,k",
    [(0, 3), (1, 1), (1, 4), (2, 1), (2, 2), (3, 2), (4, 4), (5, 3), (6, 9), (7, 2)],
)
def test_sample_is_a_bijection_onto_ordered_subsets(m, k):
    pool = [10 * v + 3 for v in range(m)]
    kk = min(k, m)
    p = math.perm(m, kk)
    width = (p - 1).bit_length()
    seen = []
    for r in range(p if kk else 1):
        rng = _ScriptedBits([r])
        got = _sample(rng, pool, k)
        assert rng.widths == ([width] if kk else [])
        assert pool == [10 * v + 3 for v in range(m)]  # the pool is not shuffled
        # the draw indexes the sorted pool, so neither the pool's order nor
        # its type changes the sample
        assert _sample(_ScriptedBits([r]), pool[::-1], k) == got
        assert _sample(_ScriptedBits([r]), set(pool), k) == got
        seen.append(tuple(got))
    assert sorted(seen) == sorted(itertools.permutations(pool, kk))


@pytest.mark.parametrize("m,k", [(3, 2), (5, 3), (7, 2), (2, 2)])
def test_sample_redraws_values_past_the_range(m, k):
    pool = list(range(1, m + 1))
    p = math.perm(m, k)
    width = (p - 1).bit_length()
    over = list(range(p, 2**width))
    assert over or p == 2**width
    want = _sample(_ScriptedBits([p - 1]), pool, k)
    rng = _ScriptedBits(over + [p - 1])
    assert _sample(rng, pool, k) == want
    assert rng.widths == [width] * (len(over) + 1) and not rng.values


class _ScriptedRange:
    """Stands in for random.Random in _draw_pseudo: randrange returns the
    scripted values in turn and records the ranges asked for."""

    def __init__(self, values):
        self.values = list(values)
        self.ranges = []

    def randrange(self, k):
        self.ranges.append(k)
        return self.values.pop(0)


class _CountingRandom(random.Random):
    """random.Random that counts its randrange calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def _assert_uniform(counts, support, trials):
    assert set(counts) <= set(support)
    p = 1 / len(support)
    sd = math.sqrt(trials * p * (1 - p))
    for v in support:
        assert abs(counts.get(v, 0) - trials * p) <= 5 * sd, (v, counts)


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
        (range(1, 61, 3), 0),  # 20 of 60, no key to step over
        (range(1, 61, 3), 31),  # ... stepping over the key of 31
        ((5, 17, 40, 52), 17),
        ((44,), 0),
    ],
)
def test_draw_pseudo_is_uniform_on_both_paths(pseudo, exclude):
    # both paths of the index: with exclude 0 it is taken as drawn, with a
    # pseudo-arc vertex excluded it steps over that vertex's key
    t = _path_tour(60, set(pseudo))
    support = sorted(set(pseudo) - {exclude})
    counts = {}
    for seed in range(TRIALS):
        v = _draw_pseudo(t, random.Random(seed), exclude)
        counts[v] = counts.get(v, 0) + 1
    _assert_uniform(counts, support, TRIALS)


def test_draw_pseudo_with_one_candidate_left():
    t = _path_tour(60, {9, 33})
    for seed in range(200):
        assert _draw_pseudo(t, random.Random(seed), 33) == 9


def test_draw_pseudo_without_a_candidate_raises():
    # excluding the only pseudo-arc vertex leaves nothing to draw
    t = _path_tour(60, {44})
    for seed in range(20):
        with pytest.raises(ValueError):
            _draw_pseudo(t, random.Random(seed), 44)


@pytest.mark.parametrize("directed", [False, True])
def test_draw_pseudo_fallback_decodes_the_drawn_key(directed):
    # every index into the pseudo-arc keys maps to a distinct pseudo-arc
    # vertex other than exclude, on tours moved away from their start so
    # that unordered keys have their initial vertex on either side
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(5, 40)
        h = gen_boll_digraph(n, trial)[0] if directed else gen_boll_graph(n, trial)[0]
        order = list(range(1, n + 1))
        rng.shuffle(order)
        t = Tour(h, order)
        pseudo = t.pseudo_vertices()
        for exclude in [0] + sorted(pseudo):
            others = pseudo - {exclude}
            if not others:
                continue
            got = set()
            for i in range(len(others)):
                stub = _ScriptedRange([i])
                got.add(_draw_pseudo(t, stub, exclude))
                assert stub.ranges == [len(others)] and not stub.values
            assert got == others


def test_pick_rotation_is_uniform_over_eligible_vertices():
    # 30 pseudo-arc vertices of 60; only 7, 20 and 45 have an off-tour host
    # edge (20 has two), so v is uniform over those three and w over v's
    # off-tour neighbours
    pseudo = set(range(1, 61, 2)) | {20}
    pseudo.discard(21)
    chords = [(7, 30), (20, 50), (20, 10), (45, 12)]
    t = _path_tour(60, pseudo, chords)
    offtour = {7: [30], 20: [10, 50], 45: [12]}
    law = {
        (v, w): 1 / (len(offtour) * len(ws)) for v, ws in offtour.items() for w in ws
    }
    observed = {}
    for seed in range(TRIALS):
        rot = _pick_rotation(t, t.host.adj, random.Random(seed))
        observed[rot] = observed.get(rot, 0) + 1
    assert set(observed) <= set(law)
    for rot, p in law.items():
        sd = math.sqrt(TRIALS * p * (1 - p))
        assert abs(observed.get(rot, 0) - TRIALS * p) <= 5 * sd, (rot, observed)
    # without the chords no vertex is eligible: every pseudo-arc vertex is
    # drawn at most once before None
    t = _path_tour(60, pseudo)
    for seed in range(50):
        rng = _CountingRandom(seed)
        assert _pick_rotation(t, t.host.adj, rng) is None
        assert rng.draws <= len(pseudo)


def test_pick_rotation_without_eligible_vertex():
    t = _path_tour(12, {3, 8})
    for seed in range(50):
        assert _pick_rotation(t, t.host.adj, random.Random(seed)) is None


# --------------------------------------------------------------------------
# the test cap
# --------------------------------------------------------------------------

CAP_CASES = [
    ("boll", 60, 1, {}),
    ("boll", 150, 2, {}),
    ("boll", 300, 3, {}),
    ("r3", 60, 4, {}),
    ("r3", 300, 5, {}),
    ("bolld", 120, 6, {}),
    ("inout", 120, 7, {}),
    ("boll", 200, 8, {"edge_cap": 4, "test_cap": 7}),
    ("bolld", 100, 9, {"edge_cap": 6, "test_cap": 20}),
]


@pytest.mark.parametrize(
    "model,n,seed,caps",
    CAP_CASES,
    ids=[f"{m}-n{n}-s{s}-{len(c)}" for m, n, s, c in CAP_CASES],
)
def test_candidates_stop_at_the_test_cap(monkeypatch, model, n, seed, caps):
    """No _candidates call scores more than test_cap candidates, and once it
    has scored test_cap it draws nothing more; POTDTs are still scored."""
    if model == "inout":
        g = gen_in_out(n, 2, 2, seed)
    else:
        g = _host(model, n, seed)
    call = {}
    totals = {"calls": 0, "capped": 0, "cycle3": 0, "potdt": 0}

    def counted(name, score):
        def wrapper(*args):
            call[name] += 1
            if call["cycle3"] + call["potdt"] == call["cap"]:
                call["state"] = call["rng"].getstate()
            return score(*args)

        return wrapper

    def candidates(t, a, adj, inn, rng, k, cap):
        call.update(cycle3=0, potdt=0, cap=cap, rng=rng, state=None)
        out = real(t, a, adj, inn, rng, k, cap)
        scored = call["cycle3"] + call["potdt"]
        assert scored <= cap
        if scored == cap:
            # the cap-th score was the last thing that touched the rng
            assert rng.getstate() == call["state"]
            totals["capped"] += 1
        totals["calls"] += 1
        totals["cycle3"] += call["cycle3"]
        totals["potdt"] += call["potdt"]
        return out

    real = solver._candidates
    # a uniformly random start has about n pseudo-arcs, so every case runs
    # enough iterations to reach the cap; the greedy and cycle-factor starts
    # leave too few
    monkeypatch.setattr(
        solver,
        "_start_order",
        lambda adj, rng: rng.sample(range(1, len(adj) + 1), len(adj)),
    )
    monkeypatch.setattr(
        solver,
        "_factor_order",
        lambda adj, rng: rng.sample(range(1, len(adj) + 1), len(adj)),
    )
    monkeypatch.setattr(solver, "_cycle3", counted("cycle3", solver._cycle3))
    monkeypatch.setattr(solver, "_potdt", counted("potdt", solver._potdt))
    monkeypatch.setattr(solver, "_candidates", candidates)
    set_schedule(monkeypatch, **caps)
    solve = solve_digraph if g.directed else solve_graph
    rep = solve(g, SolveParams(seed=seed))
    assert rep.iterations and totals["calls"] == rep.iterations, (rep, totals)
    # every case reaches the cap in some iteration; with the default caps
    # POTDTs are scored as well (a cap of 7 is spent on 3-cycles)
    assert totals["capped"] > 0, totals
    if not caps:
        assert totals["potdt"] > 0, totals


# --------------------------------------------------------------------------
# the greedy start
# --------------------------------------------------------------------------

# the check below is O(n^3) on a complete host, so it stops at n=120 there
START_CASES = [
    (model, n, seed)
    for model in ("boll", "r3", "complete")
    for n, seed in ((4, 1), (8, 2), (30, 3), (120, 4), (400, 5))
    if model != "complete" or n <= 120
]


@pytest.mark.parametrize(
    "model,n,seed", START_CASES, ids=[f"{m}-n{n}-s{s}" for m, n, s in START_CASES]
)
def test_start_order_is_a_warnsdorff_path_cover(model, n, seed):
    h = _host(model, n, seed)
    order = _start_order(h.adj, random.Random(seed))
    assert sorted(order) == list(range(1, n + 1))
    seen = set()
    jumps = 0
    for v, nxt in zip(order, order[1:]):
        seen.add(v)
        free = [w for w in h.adj[v] if w not in seen]
        if not free:
            # a run ends only where it cannot go on
            jumps += 1
            continue
        # inside a run every step is a host edge to an unvisited
        # neighbour with the fewest unvisited neighbours left
        left = {w: sum(x not in seen for x in h.adj[w]) for w in free}
        assert nxt in left and left[nxt] == min(left.values())
    t = Tour(h, order)
    assert len(t.pseudo_keys) <= jumps + 1


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 1), (9, 2), (50, 3), (500, 4)])
def test_start_order_follows_a_hidden_cycle(n, seed):
    rng = random.Random(seed)
    label = rng.sample(range(1, n + 1), n)
    ring = list(zip(label, label[1:] + label[:1]))
    h = Graph(n, ring)
    for s in range(5):
        t = Tour(h, _start_order(h.adj, random.Random(s)))
        assert len(t.pseudo_keys) <= 1


def test_start_order_is_seeded():
    for h in (gen_boll_graph(300, 1)[0], _host("r3", 300, 1)):
        runs = [_start_order(h.adj, random.Random(s)) for s in (7, 7, 8)]
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]
    # on a complete host every step is a tie, broken by the seeded pick
    k = complete_graph(12)
    seconds = {_start_order(k.adj, random.Random(s))[1] for s in range(40)}
    assert len(seconds) > 2


# --------------------------------------------------------------------------
# the digraph start: a seeded cycle factor
# --------------------------------------------------------------------------


def _hidden_cycle(n, seed):
    """A directed n-cycle on seeded labels plus about n/2 seeded random
    arcs (none when seed is even, so the host is the cycle alone)."""
    rng = random.Random(seed)
    label = rng.sample(range(1, n + 1), n)
    d = Digraph(n, list(zip(label, label[1:] + label[:1])))
    for _ in range(n // 2 if seed % 2 else 0):
        u, v = rng.sample(range(1, n + 1), 2)
        if not d.has_arc(u, v):
            d.add_arc(u, v)
    return d


FACTOR_CASES = [
    (model, n, seed)
    for model in ("bolld", "inout", "hidden", "mout1")
    for n, seed in ((3, 1), (4, 2), (7, 3), (12, 4), (25, 5), (40, 6), (60, 7))
]


def _matching_size(out, n):
    """The maximum matching size of out-copies to in-copies by one
    augmenting-path search per out-copy (Kuhn's algorithm)."""
    mate = {}

    def augment(u, seen):
        for v in sorted(out[u]):
            if v not in seen:
                seen.add(v)
                if v not in mate or augment(mate[v], seen):
                    mate[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in range(1, n + 1))


@pytest.mark.parametrize(
    "model,n,seed", FACTOR_CASES, ids=[f"{m}-n{n}-s{s}" for m, n, s in FACTOR_CASES]
)
def test_max_matching_is_maximum(model, n, seed):
    d = _host(model, n, seed)
    for s in range(4):
        succ = _max_matching(d.out_adj, random.Random(s))
        assert len(succ) == n + 1 and succ[0] == 0
        arcs = [(u, succ[u]) for u in range(1, n + 1) if succ[u]]
        # a matching of host arcs: no in-copy is matched twice
        assert all(d.has_arc(u, v) for u, v in arcs)
        assert len({v for _, v in arcs}) == len(arcs)
        assert len(arcs) == _matching_size(d.out_adj, n)


@pytest.mark.parametrize(
    "model,n,seed", FACTOR_CASES, ids=[f"{m}-n{n}-s{s}" for m, n, s in FACTOR_CASES]
)
def test_factor_order_joins_the_matched_pieces(model, n, seed):
    d = _host(model, n, seed)
    for s in range(4):
        succ = _max_matching(d.out_adj, random.Random(s))
        order = _factor_order(d.out_adj, random.Random(s))
        assert sorted(order) == list(range(1, n + 1))
        # every tour arc but the joins is a matched arc, and only a join
        # can be a pseudo-arc
        joins = sum(succ[u] != v for u, v in zip(order, order[1:] + order[:1]))
        assert len(Tour(d, order).pseudo_keys) <= joins
        if model == "hidden" and seed % 2 == 0:
            # the host is one directed cycle: its only matching, cut once
            assert joins == 0


def test_factor_order_is_seeded():
    for d in (gen_in_out(300, 2, 2, 1), gen_boll_digraph(300, 1)[0]):
        runs = [_factor_order(d.out_adj, random.Random(s)) for s in (7, 7, 8)]
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]
    # the same arcs added in another order give the same start
    d = gen_in_out(100, 2, 2, 3)
    arcs = sorted(d.arcs)
    random.Random(3).shuffle(arcs)
    e = Digraph(100, arcs)
    for s in range(5):
        assert _factor_order(d.out_adj, random.Random(s)) == _factor_order(
            e.out_adj, random.Random(s)
        )
    # a host that is one directed cycle has one matching, and the seed
    # picks where the tour cuts it
    ring = _hidden_cycle(12, 2)
    firsts = {_factor_order(ring.out_adj, random.Random(s))[0] for s in range(20)}
    assert len(firsts) > 2


@pytest.mark.parametrize("model", ["boll", "r3", "bolld", "inout"])
def test_first_start_by_host_kind(monkeypatch, model):
    # a graph starts from the greedy path cover, a digraph from the cycle
    # factor; each is the first draw of the solve's rng
    g = _host(model, 80, 5)
    h = contract(g).reduced
    starts = []
    monkeypatch.setattr(
        solver, "Tour", lambda host, order: starts.append(list(order)) or Tour(host, order)
    )
    solve = solve_digraph if g.directed else solve_graph
    solve(g, SolveParams(seed=5))
    if g.directed:
        want = _factor_order(h.out_adj, random.Random(5))
    else:
        want = _start_order(h.adj, random.Random(5))
    assert starts[0] == want
