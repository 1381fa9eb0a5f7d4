"""The slice-built enumeration and the stack-based brute force against their
references.

tests/oracle_reference.py holds enumerate_all, canonical_circuit and
brute_force_circuits as they were before: children rebuilt by walking the
tour through each move's mapping, and a recursive brute force.  The current
functions must return exactly the same lists.  enumerate_all is compared at
every depth cap from 0 to 2 as well as in full, on its circuits and on the
states it keeps: the reference's states, each with its level, that are
within enumerate_all's bound of 4 non-host arcs per level left.  So the
level sets are pinned, the last level's (built by _close) too, and not only
the final circuit set.  In full, enumerate_all runs ceil(n/2) - 1 levels and
the reference its own ceil(n/2), so the shallower search must find every
circuit the deeper one finds, and both must equal brute force.
"""

import math
import random

import pytest

import oracle_reference as ref
from hamperm import oracle
from hamperm.graphs import (
    Digraph,
    Graph,
    complete_digraph,
    complete_graph,
    cycle_graph,
)
from hamperm.oracle import brute_force_circuits, canonical_circuit, enumerate_all

DEPTH_CAPS = (None, 0, 1, 2)


def _random_graph(rng, n, density):
    return Graph(
        n,
        [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < density
        ],
    )


def _random_digraph(rng, n, density):
    return Digraph(
        n,
        [
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if u != v and rng.random() < density
        ],
    )


def _enumeration_hosts():
    """(name, host): 140 undirected graphs with n 3-8 and densities spread
    from 0.2 up to 0.9 (the reference needs seconds per graph at n=8 above
    density 0.5, so those stay sparser) and three at n=9 with 9-11 edges,
    60 digraphs with n 3-7, and complete, cycle and K3,4 hosts."""
    rng = random.Random(2024)
    hosts = []
    for n, count, top in ((3, 15, 0.9), (4, 20, 0.9), (5, 30, 0.9), (6, 30, 0.9),
                          (7, 25, 0.8), (8, 20, 0.5)):
        for k in range(count):
            density = 0.2 + (top - 0.2) * k / (count - 1)
            hosts.append((f"g{n}-{k}", _random_graph(rng, n, density)))
    pairs9 = [(u, v) for u in range(1, 10) for v in range(u + 1, 10)]
    for m in (9, 10, 11):
        hosts.append((f"g9-{m}", Graph(9, rng.sample(pairs9, m))))
    for n, count in ((3, 10), (4, 12), (5, 14), (6, 14), (7, 10)):
        for k in range(count):
            density = 0.25 + 0.6 * k / (count - 1)
            hosts.append((f"d{n}-{k}", _random_digraph(rng, n, density)))
    for n in range(3, 8):
        hosts.append((f"K{n}", complete_graph(n)))
    for n in range(3, 10):
        hosts.append((f"C{n}", cycle_graph(n)))
    hosts.append(("K3,4", Graph(7, [(u, v) for u in range(1, 4) for v in range(4, 8)])))
    return hosts


HOSTS = _enumeration_hosts()


def _miss(g, state):
    """How many arcs of the cyclic sequence state are not host arcs."""
    return sum(
        not g.has_arc(u, v) for u, v in zip(state, state[1:] + state[:1])
    )


def _reference_levels(g, depth_cap, monkeypatch):
    """ref.enumerate_all(g, depth_cap) and the (level, canonical form) of
    every state it visits.  It calls _splice_pairs once per frontier state
    before building that state's children, and verify_circuit once per newly
    seen state, so the last frontier state seen by _splice_pairs is the new
    state's parent."""
    directed = g.directed
    level = {}
    states = []
    parent = [None]
    splice, verify = ref._splice_pairs, ref.verify_circuit

    def recording_splice(host, order, pos):
        parent[0] = ref.canonical_circuit(order, directed)
        return splice(host, order, pos)

    def recording_verify(host, seq):
        state = ref.canonical_circuit(seq, directed)
        level[state] = 0 if parent[0] is None else level[parent[0]] + 1
        states.append((level[state], state))
        return verify(host, seq)

    with monkeypatch.context() as m:
        m.setattr(ref, "_splice_pairs", recording_splice)
        m.setattr(ref, "verify_circuit", recording_verify)
        got = ref.enumerate_all(g, depth_cap)
    return got, sorted(states)


def _kept_levels(g, depth_cap, monkeypatch):
    """oracle.enumerate_all(g, depth_cap) and the (level, canonical form) of
    the start and of every child _branch or, on the last level, _close
    keeps."""
    directed = g.directed
    start = tuple(range(1, g.n + 1))
    level = {canonical_circuit(start, directed): 0}
    states = [(0, canonical_circuit(start, directed))]

    def recording(children_of):
        def children(order, *args):
            found = children_of(order, *args)
            lv = level[canonical_circuit(order, directed)] + 1
            for child, _k in found:
                state = canonical_circuit(child, directed)
                level[state] = lv
                states.append((lv, state))
            return found

        return children

    with monkeypatch.context() as m:
        m.setattr(oracle, "_branch", recording(oracle._branch))
        m.setattr(oracle, "_close", recording(oracle._close))
        got = oracle.enumerate_all(g, depth_cap)
    return got, sorted(states)


@pytest.mark.parametrize("depth_cap", DEPTH_CAPS)
def test_enumerate_all_matches_reference(depth_cap, monkeypatch):
    """The same circuits as the reference, and the kept states are exactly
    the start and the reference's states, at the reference's levels, that
    miss at most 4 host arcs per level left: the bound enumerate_all prunes
    by."""
    for name, g in HOSTS:
        got, kept = _kept_levels(g, depth_cap, monkeypatch)
        want, visited = _reference_levels(g, depth_cap, monkeypatch)
        assert got == want, (name, depth_cap)
        cap = math.ceil(g.n / 2) - 1 if depth_cap is None else depth_cap
        bounded = [
            (lv, s) for lv, s in visited
            if lv == 0 or _miss(g, s) <= 4 * (cap - lv)
        ]
        assert kept == bounded, (name, depth_cap)
        if depth_cap is None:
            assert got == brute_force_circuits(g), name


def test_canonical_circuit_matches_reference():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 12)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        for directed in (True, False):
            assert canonical_circuit(seq, directed) == ref.canonical_circuit(
                seq, directed
            )
            assert canonical_circuit(tuple(seq), directed) == ref.canonical_circuit(
                seq, directed
            )


def test_brute_force_matches_reference():
    rng = random.Random(9)
    for seed in range(240):
        n = 1 + seed % 10
        density = rng.uniform(0.2, 0.95 if n <= 8 else 0.5)
        if seed % 2:
            g = _random_digraph(rng, n, density * (0.6 if n >= 9 else 1))
        else:
            g = _random_graph(rng, n, density)
        assert brute_force_circuits(g) == ref.brute_force_circuits(g), seed


def test_brute_force_tiny_hosts():
    for n in (1, 2):
        for g in (complete_graph(n), complete_digraph(n)):
            assert brute_force_circuits(g) == ref.brute_force_circuits(g)
    assert brute_force_circuits(complete_digraph(2)) == [(1, 2)]
    assert brute_force_circuits(Digraph(2, [(1, 2)])) == []
