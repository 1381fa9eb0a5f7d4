"""The lower bound that lets tsp's composite search skip 3-cycles.

tsp_solve scores a 3-cycle only when _cycle3_open lets it through, on the
weights scaled to ints by _scaled.  Skipping is exact only if this is a
true lower bound: on seeded random tours (int, Fraction and tied weights,
n = 5..40, both shuffled and 2-opt optimal), every skipped 3-cycle must
have an exact composite delta >= 0.  The rotation table is checked against
a brute-force minimum, and _score's rotation scans on the scaled weights
against scans on the exact ones.
"""

import math
import random
from fractions import Fraction

import pytest

from hamperm import tsp


def _table(n, rng, kind):
    """A padded weight table w[u][v] (row and column 0 unused)."""
    w = [[0] * (n + 1) for _ in range(n + 1)]
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if kind == "int":
                x = rng.randint(1, 1000)
            elif kind == "fraction":
                x = Fraction(rng.randint(1, 60), rng.randint(1, 7))
            else:
                x = rng.randint(1, 3)
            w[u][v] = w[v][u] = x
    return w


def _tours(seed):
    """(w, succ, pred): per weight kind and n, a shuffled tour and the same
    tour after a full 2-opt sweep (where most candidates are hopeless)."""
    rng = random.Random(seed)
    for kind in ("int", "fraction", "ties"):
        for n in (5, 8, 13, 21):
            w = _table(n, rng, kind)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            succ, pred = tsp._links(order)
            yield w, succ, pred
            yield (w, *tsp._rotation_sweep(w, succ, pred, 0, [])[:2])


def _positions(succ):
    """pos[v]: the place of v on the tour read from vertex 1."""
    pos = [0] * len(succ)
    for i, v in enumerate(tsp._walk(succ)):
        pos[v] = i
    return pos


def _brute_table(w, nxt, n):
    verts = range(1, n + 1)
    return [[]] + [
        [0]
        + [min(w[x][y] + w[h][nxt[y]] - w[y][nxt[y]] for y in verts) for h in verts]
        for x in verts
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_rotation_table_is_the_brute_force_minimum(seed):
    for w, succ, pred in _tours(seed):
        n = len(succ) - 1
        for nxt in (succ, pred):
            assert tsp._rotation_table(w, nxt) == _brute_table(w, nxt, n)


def test_scaled_weights_are_ints_in_proportion():
    for w, _, _ in _tours(1):
        scale = math.lcm(*(x.denominator for row in w for x in row))
        wi = tsp._scaled(w)
        assert all(type(x) is int for row in wi for x in row)
        assert all(x * scale == y for r, q in zip(w, wi) for x, y in zip(r, q))
        if all(type(x) is int for row in w for x in row):
            assert (wi, scale) == (w, 1)
        else:
            assert 1 < scale <= 420  # denominators 1..7


def _moved(succ, pred, ov):
    """Successor and predecessor arrays after the move with overlay ov."""
    s, p = succ[:], pred[:]
    for v, h in ov.items():
        s[v], p[h] = h, v
    return s, p


def _rotations(w, s, p, xs):
    """The delta of every rotation (x, y) with x in xs on the tour s/p."""
    for x in xs:
        for y in range(1, len(s)):
            if y not in (x, s[x], p[x]):
                yield tsp._rotation_delta(w, x, s[x], y, s[y])


def _check_cycle3(w, succ, pred, tally):
    n = len(succ) - 1
    pos = _positions(succ)
    wi = tsp._scaled(w)
    arc = [wi[v][succ[v]] for v in range(n + 1)]
    M = tsp._rotation_table(wi, succ)
    for a in range(1, n + 1):
        pa = pos[a]
        rel = [(i - pa) % n for i in pos]
        for b in range(1, n + 1):
            if b == a:
                continue
            admissible = [c for c in range(1, n + 1) if rel[c] > rel[b]]
            kept = list(tsp._cycle3_open(wi, succ, arc, M, rel, a, b))
            assert set(kept) <= set(admissible)
            assert kept == sorted(kept)
            for c in admissible:
                ov = {a: succ[b], b: succ[c], c: succ[a]}
                delta, _ = tsp._score(w, wi, succ, pred, ov, {a, b, c}, 1)
                if c in kept:
                    tally["kept"] += 1
                else:
                    tally["skipped"] += 1
                    assert delta >= 0, (a, b, c, delta)
                    # the bound covers every rotation, not only the first
                    # good one
                    d0 = tsp._move_delta(w, ov, succ)
                    s, p = _moved(succ, pred, ov)
                    assert d0 + min(_rotations(w, s, p, ov)) >= 0, (a, b, c)
                tally["improving"] += delta < 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_skipped_3cycles_cannot_improve(seed):
    tally = {"kept": 0, "skipped": 0, "improving": 0}
    for w, succ, pred in _tours(seed):
        _check_cycle3(w, succ, pred, tally)
    # the bound is neither vacuous nor a filter that keeps everything
    assert tally["skipped"] > 0 and tally["improving"] > 0


def test_skipped_3cycles_cannot_improve_at_n40():
    rng = random.Random(40)
    w = _table(40, rng, "int")
    order = list(range(1, 41))
    rng.shuffle(order)
    succ, pred, _ = tsp._rotation_sweep(w, *tsp._links(order), 0, [])
    tally = {"kept": 0, "skipped": 0, "improving": 0}
    _check_cycle3(w, succ, pred, tally)
    assert tally["skipped"] > tally["kept"]


@pytest.mark.parametrize("seed", [1, 2])
def test_scans_on_scaled_weights_are_exact(seed):
    # _score finds its rotations on the int table; scanning w itself finds
    # the same ones, and the delta is the same exact value of the same type
    rng = random.Random(seed)
    found = 0
    for w, succ, pred in _tours(seed):
        wi = tsp._scaled(w)
        n = len(succ) - 1
        pos = _positions(succ)
        for _ in range(20 * n):
            a, b, c, d = rng.sample(range(1, n + 1), 4)
            rel = [(i - pos[a]) % n for i in pos]
            cases = []
            if rel[b] < rel[c]:
                cases.append(({a: succ[b], b: succ[c], c: succ[a]}, 1))
            if (rel[b] < rel[c]) != (rel[d] < rel[c]):
                cases.append(({a: succ[c], c: succ[a], b: succ[d], d: succ[b]}, 2))
            for ov, k in cases:
                got = tsp._score(w, wi, succ, pred, ov, set(ov), k)
                exact = tsp._score(w, w, succ, pred, ov, set(ov), k)
                assert got == exact and type(got[0]) is type(exact[0])
                found += wi is not w and len(got[1]) == k
    # some Fraction-weighted composites took every rotation they may take
    assert found > 0
