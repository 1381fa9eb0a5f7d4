"""Arc-set keys of enumerate_all against the simple references they replace.

enumerate_all keys each state by its arc set in one int and derives a
child's key from its parent's by toggling the arcs a move removes and
creates.  Checked here on seeded random tours, n 3-10, graphs and digraphs:

    * the toggled key of every child equals the key computed from scratch;
    * the children one state branches to are exactly, up to rotation and
      reflection, those the verbatim old enumerator (tests/oracle_reference.py)
      builds through each move's mapping;
    * with a non-host mask and a cap, _branch keeps exactly the unpruned
      children whose keys are unseen and miss at most cap host arcs, in
      the same order;
    * _close, which enumerate_all calls on its last level, keeps the same
      children as _branch at cap 0 and adds the same keys to seen;
    * key equality is canonical_circuit equality.
"""

import random

import pytest

import oracle_reference as ref
from hamperm.graphs import Digraph, Graph, complete_digraph, complete_graph
from hamperm.oracle import _arc_bits, _arc_key, _branch, _close, canonical_circuit


def _random_host(rng, n, directed):
    density = rng.choice((0.3, 0.5, 0.7, 1.0))
    if directed:
        if density == 1.0:
            return complete_digraph(n)
        arcs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        return Digraph(n, [a for a in arcs if rng.random() < density])
    if density == 1.0:
        return complete_graph(n)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph(n, [p for p in pairs if rng.random() < density])


def _reference_children(g, order):
    """Canonical forms of every child the old enumerator builds from order:
    admissible 3-cycles and interlaced POTDTs whose lead arcs are host arcs."""
    n = len(order)
    order = list(order)
    pos = {v: i for i, v in enumerate(order)}
    nbrs = g.out_adj if g.directed else g.adj
    leads = ref._splice_pairs(g, order, pos)
    mappings = []
    for a, b in leads:
        for y in nbrs[b]:
            c = order[pos[y] - 1]
            pa = pos[a]
            if c not in (a, b) and (pos[b] - pa) % n < (pos[c] - pa) % n:
                mappings.append({a: b, b: c, c: a})
    for i, (a, c) in enumerate(leads):
        for b, d in leads[i + 1 :]:
            if len({a, b, c, d}) < 4:
                continue
            pa = pos[a]
            qc = (pos[c] - pa) % n
            if ((pos[b] - pa) % n < qc) != ((pos[d] - pa) % n < qc):
                mappings.append({a: c, c: a, b: d, d: b})
    out = set()
    for mp in mappings:
        new = ref._apply_mapping(order, pos, mp)
        if new is not None:
            out.add(canonical_circuit(new, g.directed))
    return out


@pytest.mark.parametrize("directed", (False, True))
def test_toggled_child_keys_match_scratch_keys(directed):
    rng = random.Random(11 + directed)
    branched = 0
    for trial in range(240):
        n = 3 + trial % 8
        g = _random_host(rng, n, directed)
        adj = g.out_adj if directed else g.adj
        nbrs = [()] + [tuple(adj[v]) for v in range(1, n + 1)]
        bit = _arc_bits(n, directed)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        order = tuple(order)
        key = _arc_key(bit, order)
        seen = {key}
        # nh=0: every key misses 0 non-host arcs, so nothing is pruned
        children = _branch(order, key, nbrs, adj, bit, seen, 0, 0)
        for child, k in children:
            assert sorted(child) == list(range(1, n + 1)), (trial, child)
            assert k == _arc_key(bit, child), (trial, order, child)
        got = [canonical_circuit(child, directed) for child, _k in children]
        assert len(set(got)) == len(got), trial
        want = _reference_children(g, order) - {canonical_circuit(order, directed)}
        assert set(got) == want, (trial, order)
        assert seen == {key} | {k for _child, k in children}
        branched += len(children)
    assert branched > 5000


@pytest.mark.parametrize("directed", (False, True))
def test_pruned_children_are_the_unpruned_within_the_cap(directed):
    """_branch with the host's non-host mask and a cap keeps exactly the
    unpruned children whose keys are unseen and miss at most cap host
    arcs, with the same tours and keys in the same order."""
    rng = random.Random(31 + directed)
    kept = dropped = 0
    for trial in range(360):
        n = 3 + trial % 8
        cap = (0, 4, 8)[trial // 8 % 3]
        g = _random_host(rng, n, directed)
        adj = g.out_adj if directed else g.adj
        nbrs = [()] + [tuple(adj[v]) for v in range(1, n + 1)]
        bit = _arc_bits(n, directed)
        host = 0
        for u in range(1, n + 1):
            for v in adj[u]:
                host |= bit[u][v]
        nh = ~host
        order = list(range(1, n + 1))
        rng.shuffle(order)
        order = tuple(order)
        key = _arc_key(bit, order)
        unpruned = _branch(order, key, nbrs, adj, bit, {key}, 0, 0)
        # some children already seen, as at a later enumeration level
        seen = {key} | {k for _child, k in unpruned if rng.random() < 0.2}
        want = [
            (child, k) for child, k in unpruned
            if k not in seen and (k & nh).bit_count() <= cap
        ]
        before = set(seen)
        got = _branch(order, key, nbrs, adj, bit, seen, nh, cap)
        assert got == want, (trial, order, cap)
        assert seen == before | {k for _child, k in want}
        kept += len(want)
        dropped += len(unpruned) - len(want)
    assert kept > 5000 and dropped > 5000, (kept, dropped)


@pytest.mark.parametrize("directed", (False, True))
def test_close_matches_branch_at_cap_zero(directed):
    """_close keeps the same children as _branch at cap 0: the same keys and
    circuits, each key once, and the same keys added to a partly seeded
    seen.  Tours miss the host in 0 to 6 arcs; with more than 4 no move
    closes.  The order of the list is not compared: the last level's
    children are never branched on."""
    rng = random.Random(41 + directed)
    kept = closing = beyond = 0
    for trial in range(640):
        n = 3 + trial % 8
        miss = min(n, trial // 8 % 7)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        order = tuple(order)
        tour = list(zip(order, order[1:] + order[:1]))
        density = rng.choice((0.3, 0.5, 0.7, 1.0))
        if directed:
            pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
        else:
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            tour = [(min(u, v), max(u, v)) for u, v in tour]
        # the tour's arcs, all but miss of them, and others at the density
        left_out = set(rng.sample(tour, miss))
        arcs = [
            p for p in pairs
            if p not in left_out and (p in tour or rng.random() < density)
        ]
        g = Digraph(n, arcs) if directed else Graph(n, arcs)
        adj = g.out_adj if directed else g.adj
        nbrs = [()] + [tuple(adj[v]) for v in range(1, n + 1)]
        bit = _arc_bits(n, directed)
        host = 0
        for u, v in arcs:
            host |= bit[u][v]
        nh = ~host
        key = _arc_key(bit, order)
        assert (key & nh).bit_count() == miss
        unpruned = _branch(order, key, nbrs, adj, bit, {key}, 0, 0)
        seen = {key} | {k for _child, k in unpruned if rng.random() < 0.3}
        seen_branch = set(seen)
        want = _branch(order, key, nbrs, adj, bit, seen_branch, nh, 0)
        got = _close(order, key, bit, seen, nh)
        keys = [k for _child, k in got]
        assert len(set(keys)) == len(keys), (trial, order)
        assert sorted((k, canonical_circuit(c, directed)) for c, k in got) == sorted(
            (k, canonical_circuit(c, directed)) for c, k in want
        ), (trial, order, miss)
        assert seen == seen_branch, (trial, order)
        if miss > 4:
            assert got == [], (trial, order)
            beyond += 1
        kept += len(got)
        closing += miss > 0 and bool(got)
    assert kept > 2000 and closing > 100 and beyond > 100, (kept, closing, beyond)


@pytest.mark.parametrize("directed", (False, True))
def test_arc_bits_are_one_per_pair(directed):
    for n in range(3, 11):
        bit = _arc_bits(n, directed)
        cells = [
            bit[u][v] for u in range(1, n + 1) for v in range(1, n + 1) if u != v
        ]
        assert all(b and not b & (b - 1) for b in cells)
        pairs = n * (n - 1) if directed else n * (n - 1) // 2
        assert len(set(cells)) == pairs
        if not directed:
            assert all(bit[u][v] == bit[v][u] for u in range(1, n + 1)
                       for v in range(1, n + 1))


@pytest.mark.parametrize("directed", (False, True))
def test_key_equality_is_canonical_equality(directed):
    rng = random.Random(23 + directed)
    equal = 0
    for trial in range(3000):
        n = 3 + trial % 8
        bit = _arc_bits(n, directed)
        s = list(range(1, n + 1))
        rng.shuffle(s)
        pick = trial % 4
        i = rng.randrange(n)
        if pick == 0:  # a rotation
            t = s[i:] + s[:i]
        elif pick == 1:  # a rotated reflection
            r = s[::-1]
            t = r[i:] + r[:i]
        elif pick == 2:  # two vertices swapped
            t = list(s)
            j = rng.randrange(n)
            t[i], t[j] = t[j], t[i]
        else:
            t = list(s)
            rng.shuffle(t)
        same_key = _arc_key(bit, s) == _arc_key(bit, t)
        assert same_key == (
            canonical_circuit(s, directed) == canonical_circuit(t, directed)
        ), (trial, s, t)
        equal += same_key
    # rotations (and, undirected, reflections) are among the pairs
    assert equal >= (1500 if not directed else 750)
