"""Closed-form probabilities, their exact enumerations, and Monte Carlo
estimators for admissibility events on a pseudo-Hamilton tour.

All closed forms are exact Fractions in m = n - 2.  The estimators sample
the exact counting models behind the formulas (ranges of j, r, s with tour
arcs and loops excluded), not generic "uniform random chords": the formulas
are properties of those specific models.

    * p_admissible_3cycle      (n-3)/(2(n-2)): a random pseudo-3-cycle
                               anchored at a pseudo-arc vertex is admissible.
    * p_chords_intersect       (n-3)/(3(n-2)): two random chords with no
                               common endpoint properly intersect.
    * lemma1_probs             both/first-only/second-only/neither
                               intersection pattern of two companion edges.
    * lemma2_probs             3/2/1/0 of three companion edges intersect.
    * p_two_admissible         at least two admissible moves exist at a
                               pseudo-arc vertex when delta(G) >= 3; with
                               its complement p' = p0*q0 + p0*q1 + p1*q0.
    * degree2_census /         empirical fractions of degree-2 (unique
      unique_arc_census        out-arc) vertices in the random models,
                               against the corresponding log-scale bounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import gen_boll_digraph, gen_boll_graph


@dataclass
class TrialStats:
    trials: int
    successes: int
    target: Fraction

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def abs_error(self) -> float:
        return abs(self.estimate - float(self.target))


def _require(n: int) -> int:
    if n < 4:
        raise ValueError("n must be >= 4")
    return n - 2


# --------------------------------------------------------------------------
# single admissible 3-cycle
# --------------------------------------------------------------------------


def p_admissible_3cycle(n: int) -> Fraction:
    _require(n)
    return Fraction(n - 3, 2 * (n - 2))


def _3cycle_model(n: int):
    """The (j, k) space: first chord (1, H(j)) with 2 < j <= n; second
    chord (j, H(k)) over the n-2 choices of k that avoid the loop at j and
    the tour arc into j; the pair is admissible iff k > j."""
    for j in range(3, n + 1):
        for k in range(1, n + 1):
            if k in (j, j - 1):
                continue
            yield j, k, k > j


def exhaustive_admissible_3cycle(n: int) -> Fraction:
    _require(n)
    hits = total = 0
    for _j, _k, ok in _3cycle_model(n):
        total += 1
        hits += ok
    return Fraction(hits, total)


def estimate_admissible_3cycle(n: int, trials: int, seed: int) -> TrialStats:
    _require(n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        j = rng.randint(3, n)
        k = rng.randint(1, n - 2)  # index into the n-2 allowed values
        # the allowed k values above j number n - j
        if k <= n - j:
            hits += 1
    return TrialStats(trials, hits, p_admissible_3cycle(n))


# --------------------------------------------------------------------------
# two disjoint chords properly intersecting
# --------------------------------------------------------------------------


def p_chords_intersect(n: int) -> Fraction:
    _require(n)
    return Fraction(n - 3, 3 * (n - 2))


def _chord_model(n: int):
    """The (j, r, s) space: e1 = (1, j) with 3 <= j <= n, second chord
    (r, s) with 2 <= r <= j - 1 and s ranging over the n - 2 vertices
    outside {1, j}; proper intersection iff s > j."""
    for j in range(3, n + 1):
        for r in range(2, j):
            for s in range(2, n + 1):
                if s == j:
                    continue
                yield j, r, s, s > j


def exhaustive_chords_intersect(n: int) -> Fraction:
    _require(n)
    hits = total = 0
    for _j, _r, _s, ok in _chord_model(n):
        total += 1
        hits += ok
    return Fraction(hits, total)


def estimate_chords_intersect(n: int, trials: int, seed: int) -> TrialStats:
    _require(n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        # (r, j) uniform over pairs 2 <= r < j <= n
        j = rng.randint(2, n)
        r = rng.randint(2, n)
        while r == j:
            r = rng.randint(2, n)
        if r > j:
            r, j = j, r
        s = rng.randint(1, n - 2)  # index into the allowed s values
        if s <= n - j:  # the values above j
            hits += 1
    return TrialStats(trials, hits, p_chords_intersect(n))


# --------------------------------------------------------------------------
# companion-edge intersection patterns
# --------------------------------------------------------------------------


def lemma1_probs(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    m = _require(n)
    den = 6 * m * m
    return (
        Fraction(2 * m * m - 3 * m + 1, den),
        Fraction(m * m - 1, den),
        Fraction(m * m - 1, den),
        Fraction(2 * m * m + 3 * m + 1, den),
    )


def lemma2_probs(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    m = _require(n)
    den = 4 * m * m
    return (
        Fraction(m * m - 2 * m + 1, den),  # P3
        Fraction(m * m - 1, den),  # P2
        Fraction(m * m - 1, den),  # P1
        Fraction(m * m + 2 * m + 1, den),  # P0
    )


def estimate_lemma1_probs(
    n: int, trials: int, seed: int
) -> tuple[TrialStats, TrialStats, TrialStats, TrialStats]:
    """Simulate the (j, H(c), d) model: j' uniform in 1..m, each companion
    edge independently intersects with probability (m - j')/m given j."""
    m = _require(n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    counts = [0, 0, 0, 0]  # both, first only, second only, neither
    for _ in range(trials):
        jp = rng.randint(1, m)
        first = rng.randint(1, m) <= m - jp
        second = rng.randint(1, m) <= m - jp
        if first and second:
            counts[0] += 1
        elif first:
            counts[1] += 1
        elif second:
            counts[2] += 1
        else:
            counts[3] += 1
    targets = lemma1_probs(n)
    return tuple(
        TrialStats(trials, c, t) for c, t in zip(counts, targets)
    )  # type: ignore[return-value]


def p_two_admissible(n: int) -> Fraction:
    m = _require(n)
    return Fraction(13 * m**4 - 8 * m**3 - 6 * m**2 + 1, 16 * m**4)


def p_two_admissible_pair(n: int) -> tuple[Fraction, Fraction]:
    """(p, p') with p' = 1 - p = p0*q0 + p0*q1 + p1*q0 from lemma2_probs."""
    m = _require(n)
    p = p_two_admissible(n)
    pp = Fraction(3 * m**4 + 8 * m**3 + 6 * m**2 - 1, 16 * m**4)
    return p, pp


# --------------------------------------------------------------------------
# censuses for the degree-based bounds
# --------------------------------------------------------------------------


DEGREE2_C = math.e
UNIQUE_ARC_FACTOR = 2.0


def degree2_bound(n: int) -> float:
    return math.log(DEGREE2_C * n * math.log(n) ** 2) / (2 * n)


def unique_arc_bound(n: int) -> float:
    return UNIQUE_ARC_FACTOR * math.log(n) / n


def degree2_census(n_values: Sequence[int], seeds: Iterable[int]) -> list[dict]:
    """Empirical fraction of degree-2 vertices in Boll graphs vs the
    log(DEGREE2_C*n*(log n)^2)/(2n) bound.  The bound is an upper bound, so
    PASS means empirical <= bound."""
    seeds = list(seeds)
    rows = []
    for n in n_values:
        if n < 10:
            raise ValueError("census n values must be >= 10")
        deg2 = total = 0
        for s in seeds:
            g, _ = gen_boll_graph(n, s)
            deg2 += sum(1 for v in range(1, n + 1) if g.degree(v) == 2)
            total += n
        emp = deg2 / total
        bound = degree2_bound(n)
        rows.append(
            {"n": n, "empirical": emp, "bound": bound, "pass": emp <= bound}
        )
    return rows


def unique_arc_census(n_values: Sequence[int], seeds: Iterable[int]) -> list[dict]:
    """Empirical fraction of unique-out-arc vertices in Boll digraphs vs
    UNIQUE_ARC_FACTOR * log(n)/n (the bound is asymptotic, so its factor is
    a chosen margin)."""
    seeds = list(seeds)
    rows = []
    for n in n_values:
        if n < 10:
            raise ValueError("census n values must be >= 10")
        uniq = total = 0
        for s in seeds:
            d, _ = gen_boll_digraph(n, s)
            uniq += sum(1 for v in range(1, n + 1) if d.outdeg(v) == 1)
            total += n
        emp = uniq / total
        bound = unique_arc_bound(n)
        rows.append(
            {"n": n, "empirical": emp, "bound": bound, "pass": emp <= bound}
        )
    return rows
