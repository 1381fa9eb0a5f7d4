import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tsp_reference
from hamperm import tsp
from hamperm.graphs import ParseError, complete_graph
from hamperm.tour import Move, Tour
from hamperm.tsp import (
    WeightMatrix,
    read_weights,
    tour_weight,
    tsp_solve,
    write_weights,
)

FOUR_CITY = [
    [0, 1, 2, 5],
    [1, 0, 5, 2],
    [2, 5, 0, 1],
    [5, 2, 1, 0],
]


def brute_force_optimum(wm):
    n = wm.n
    best = None
    for perm in itertools.permutations(range(2, n + 1)):
        seq = [1] + list(perm)
        w = tour_weight(wm, seq)
        if best is None or w < best:
            best = w
    return best


def random_matrix(rng, n, lo=1, hi=20):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(lo, hi)
            rows[i][j] = rows[j][i] = w
    return WeightMatrix(rows)


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        WeightMatrix([[0, 1], [1, 0], [0, 0]])  # not square
    with pytest.raises(ValueError):
        WeightMatrix([[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        WeightMatrix([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        WeightMatrix([[0, -1], [-1, 0]])  # negative


def test_weights_roundtrip(tmp_path):
    wm = WeightMatrix(FOUR_CITY)
    path = tmp_path / "w.txt"
    write_weights(wm, str(path))
    wm2 = read_weights(str(path))
    assert wm2.rows == wm.rows


def test_read_weights_fractions(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("w 3\n0 1/2 2\n1/2 0 1\n2 1 0\n")
    wm = read_weights(str(path))
    assert wm.w(1, 2) == Fraction(1, 2)


@pytest.mark.parametrize(
    "text",
    [
        "q 3\n",
        "w 3\n0 1\n",
        "w 3\n0 1 2\n1 0 1\n",
        "w 2\n0 x\nx 0\n",
        "w 2\n0 1/0\n1/0 0\n",
        "",
    ],
)
def test_read_weights_errors(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_weights(str(path))


def test_tour_weight():
    wm = WeightMatrix(FOUR_CITY)
    assert tour_weight(wm, [1, 2, 3, 4]) == 12
    assert tour_weight(wm, [1, 2, 4, 3]) == 6
    with pytest.raises(ValueError):
        tour_weight(wm, [1, 2, 3])


def test_good_rotation_matches_weight_delta():
    rng = random.Random(3)
    wm = random_matrix(rng, 10)
    host = complete_graph(10)
    for _ in range(100):
        order = list(range(1, 11))
        rng.shuffle(order)
        t = Tour(host, order)
        x = rng.randint(1, 10)
        ys = [y for y in range(1, 11) if y not in (x, t.succ(x), t.pred(x))]
        y = rng.choice(ys)
        good = tsp_reference.is_good_rotation(wm, t, x, y)
        before = tour_weight(wm, t)
        t2 = t.copy()
        t2.rotate(x, y)
        after = tour_weight(wm, t2)
        assert good == (after < before)
        # the delta is exactly the pair-sum difference
        hx, hy = t.succ(x), t.succ(y)
        assert before - after == (
            wm.w(x, hx) + wm.w(y, hy) - wm.w(x, y) - wm.w(hx, hy)
        )


def test_good_rotation_rejects_adjacent():
    wm = WeightMatrix(FOUR_CITY)
    t = Tour(complete_graph(4), [1, 2, 3, 4])
    with pytest.raises(ValueError):
        tsp_reference.is_good_rotation(wm, t, 1, 2)


def _padded(wm):
    """wm's weights as a table indexed by vertex labels."""
    return [[0] * (wm.n + 1)] + [[0, *row] for row in wm.rows]


def test_good_set_matches_weight_delta():
    rng = random.Random(4)
    wm = random_matrix(rng, 9)
    w = _padded(wm)
    host = complete_graph(9)
    for _ in range(200):
        order = list(range(1, 10))
        rng.shuffle(order)
        t = Tour(host, order)
        if rng.random() < 0.5:
            a, b, c = rng.sample(range(1, 10), 3)
            m = Move.cycle3(a, b, c)
        else:
            a, c, b, d = rng.sample(range(1, 10), 4)
            m = Move.potdt(a, c, b, d)
        if not t.admissible(m):
            continue
        succ, _ = tsp._links(t.order)
        ov = {v: succ[u] for v, u in m.perm().items()}
        before = tour_weight(wm, t)
        t2 = t.copy()
        t2.apply(m)
        assert tsp._move_delta(w, ov, succ) == tour_weight(wm, t2) - before


def test_four_city_golden():
    wm = WeightMatrix(FOUR_CITY)
    tour, weight, trace = tsp_solve(wm, seed=0)
    assert weight == 6
    assert tour_weight(wm, tour) == 6
    assert brute_force_optimum(wm) == 6


def test_tsp_trace_strictly_decreasing_and_valid():
    rng = random.Random(7)
    for trial in range(10):
        wm = random_matrix(rng, 8)
        tour, weight, trace = tsp_solve(wm, seed=trial)
        weights = [w for _, _, w in trace]
        assert all(b < a for a, b in zip(weights, weights[1:]))
        assert sorted(tour) == list(range(1, 9))
        assert weight == tour_weight(wm, tour)
        assert weight <= weights[0]
        assert weight >= brute_force_optimum(wm)


def test_tsp_deterministic():
    rng = random.Random(8)
    wm = random_matrix(rng, 9)
    assert tsp_solve(wm, seed=5) == tsp_solve(wm, seed=5)


def test_tsp_exact_fraction_weights():
    rows = [
        [0, Fraction(1, 3), 1, 1],
        [Fraction(1, 3), 0, 1, Fraction(1, 2)],
        [1, 1, 0, Fraction(1, 4)],
        [1, Fraction(1, 2), Fraction(1, 4), 0],
    ]
    wm = WeightMatrix(rows)
    tour, weight, _ = tsp_solve(wm, seed=1)
    assert weight == brute_force_optimum(wm)


def test_tsp_requires_four_cities():
    with pytest.raises(ValueError):
        tsp_solve(WeightMatrix([[0, 1], [1, 0]]), seed=0)


def test_tsp_negative_budget_rejected():
    wm = WeightMatrix(FOUR_CITY)
    with pytest.raises(ValueError):
        tsp_solve(wm, seed=0, budget=-1)


def test_tsp_rejects_inexact_weights():
    rows = [[float(x) for x in row] for row in FOUR_CITY]
    with pytest.raises(ValueError):
        tsp_solve(WeightMatrix(rows), seed=0)


def _reference_cases():
    """(name, matrix) pairs covering integer weights at n = 4..24, Fraction
    weights, many tied weights, and integer/Fraction mixes."""
    rng = random.Random(2024)
    cases = [(f"int-n{n}", random_matrix(rng, n)) for n in range(4, 25)]
    for n in range(5, 13):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = Fraction(rng.randint(1, 30), rng.randint(1, 7))
                rows[i][j] = rows[j][i] = w
        cases.append((f"fraction-n{n}", WeightMatrix(rows)))
    for n in range(6, 22, 2):
        cases.append((f"ties-n{n}", random_matrix(rng, n, lo=1, hi=3)))
    for n in (7, 10, 13, 16):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = rng.randint(1, 9)
                if rng.random() < 0.3:
                    w = Fraction(2 * w + 1, 2)
                rows[i][j] = rows[j][i] = w
        cases.append((f"mixed-n{n}", WeightMatrix(rows)))
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize(
    "wm", [wm for _, wm in REFERENCE_CASES], ids=[k for k, _ in REFERENCE_CASES]
)
def test_tsp_matches_reference(wm):
    for seed, budget in ((11, None), (12, 0), (13, 3)):
        got = tsp_solve(wm, seed, budget)
        want = tsp_reference.tsp_solve(wm, seed, budget)
        assert got == want
        # the reported weight has the reference's type too (int vs Fraction)
        assert type(got[1]) is type(want[1])


def _perfbench_style_cases():
    """Symmetric integer weights in 1..1000 at n = 30, 36 and 40: larger,
    better-optimized tours than REFERENCE_CASES, where most composite
    candidates are skipped by their lower bound."""
    cases = []
    for n in (30, 36, 40):
        for k in range(2):
            rng = random.Random(f"tsp-bound/{n}/{k}")
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.randint(1, 1000)
            cases.append((f"int1000-n{n}-{k}", WeightMatrix(rows), 100 + k))
    return cases


PERFBENCH_STYLE_CASES = _perfbench_style_cases()


@pytest.mark.parametrize(
    "wm,seed",
    [(wm, seed) for _, wm, seed in PERFBENCH_STYLE_CASES],
    ids=[k for k, _, _ in PERFBENCH_STYLE_CASES],
)
def test_tsp_matches_reference_at_perfbench_sizes(wm, seed):
    assert tsp_solve(wm, seed) == tsp_reference.tsp_solve(wm, seed)


def test_weight_drift_check_runs_under_optimize():
    # a rotation sweep that misreports its weight must be caught by the
    # final recount, under python -O too
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from hamperm import tsp\n"
        "orig = tsp._rotation_sweep\n"
        "def sweep(*args):\n"
        "    succ, pred, weight = orig(*args)\n"
        "    return succ, pred, weight + 1\n"
        "tsp._rotation_sweep = sweep\n"
        f"wm = tsp.WeightMatrix({FOUR_CITY!r})\n"
        "try:\n"
        "    tsp.tsp_solve(wm, seed=0)\n"
        "except AssertionError as exc:\n"
        "    raise SystemExit(0 if 'running weight drifted' in str(exc) else 2)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0


def _commit_cases(seed):
    """(w, wm) per weight kind (int, Fraction, tied) and n, with w the
    table tsp_solve builds from wm."""
    rng = random.Random(seed)
    for kind in ("int", "fraction", "ties"):
        for n in (5, 8, 13, 21, 40):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if kind == "int":
                        x = rng.randint(1, 1000)
                    elif kind == "fraction":
                        x = Fraction(rng.randint(1, 60), rng.randint(1, 7))
                    else:
                        x = rng.randint(1, 3)
                    rows[i][j] = rows[j][i] = x
            wm = WeightMatrix(rows)
            yield _padded(wm), wm


@pytest.mark.parametrize("seed", [1, 2])
def test_commit_matches_tour_apply_and_rotate(seed):
    # the arrays tsp_solve commits are those of Tour.apply then Tour.rotate
    rng = random.Random(seed)
    tally = {"cycle3": 0, "potdt": 0, "rotations": 0}
    for w, wm in _commit_cases(seed):
        n = wm.n
        host = complete_graph(n)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        t = Tour(host, order)
        for _ in range(30):
            k = 3 if rng.random() < 0.5 else 4
            verts = rng.sample(range(1, n + 1), k)
            m = Move.cycle3(*verts) if k == 3 else Move.potdt(*verts)
            if not t.admissible(m):
                continue
            succ, pred = tsp._links(t.order)
            ov = {v: succ[u] for v, u in m.perm().items()}
            _, rots = tsp._score(w, tsp._scaled(w), succ, pred, ov, set(verts), k - 1)
            t2 = t.copy().apply(m)
            for x, y in rots:
                t2.rotate(x, y)
            # one more rotation, good or not, between nonadjacent vertices
            x = rng.choice(verts)
            near = (x, t2.succ(x), t2.pred(x))
            ys = [y for y in range(1, n + 1) if y not in near]
            if ys:
                rots = [*rots, (x, rng.choice(ys))]
                t2.rotate(*rots[-1])
            got = tsp._commit(succ, pred, ov, rots)
            assert got == tsp._links(t2.order)
            assert tsp._walk(got[0]) == t2.sequence_from(1)
            # the current tour's arrays are left as they were
            assert (succ, pred) == tsp._links(t.order)
            tally[m.kind] += 1
            tally["rotations"] += len(rots)
            t = t2
    assert min(tally.values()) > 0


def test_solved_tours_are_one_n_cycle():
    for seed, (_, wm) in enumerate(_commit_cases(3)):
        tour, weight, _ = tsp_solve(wm, seed)
        assert sorted(tour) == list(range(1, wm.n + 1))
        assert tour[0] == 1
        assert weight == tour_weight(wm, tour)
