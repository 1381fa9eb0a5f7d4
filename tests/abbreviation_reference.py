"""The run-surgery Abbreviation as it was before it became a view of a Tour,
kept verbatim as the reference for tests/test_abbreviation_reference.py:
the view must give the same ordinal sequence and materialized tour after
every move and rotation, and a run list no longer than this one's.  Nothing
in src/ imports this module.
"""

from __future__ import annotations

from hamperm.tour import Move, Tour


class AbbreviationError(ValueError):
    pass


class Abbreviation:
    """A tour represented as runs of ordinals over a frozen base tour.

    A run (a, b) denotes the base ordinals a..b traversed ascending when
    a <= b and descending (the "---" / minus-sign convention) when a > b.
    Moves and rotations splice O(1) runs each, so as long as the number of
    moves since the base is bounded the structure stays sparse; rebasing
    materializes and starts a fresh base.
    """

    def __init__(self, base: Tour):
        self.base_order = list(base.order)
        self.base_pos = {v: i for i, v in enumerate(self.base_order)}
        self.host = base.host
        self.runs: list[tuple[int, int]] = [(1, len(self.base_order))]
        self.move_count = 0

    # base ordinals are 1-based positions in base_order
    def _ord(self, v: int) -> int:
        return self.base_pos[v] + 1

    def _vertex(self, o: int) -> int:
        return self.base_order[o - 1]

    @staticmethod
    def _run_len(run: tuple[int, int]) -> int:
        return abs(run[1] - run[0]) + 1

    def _expand(self) -> list[int]:
        out: list[int] = []
        for a, b in self.runs:
            step = 1 if b >= a else -1
            out.extend(range(a, b + step, step))
        return out

    def _check(self) -> None:
        seq = self._expand()
        n = len(self.base_order)
        if sorted(seq) != list(range(1, n + 1)):
            raise AbbreviationError("corrupt run list")

    def ordinal_sequence(self) -> list[int]:
        return self._expand()

    def materialize(self) -> Tour:
        seq = [self._vertex(o) for o in self._expand()]
        return Tour(self.host, seq)

    # ---- run surgery ----

    def _locate(self, o: int) -> tuple[int, int]:
        """(run index, offset within run) for base ordinal o."""
        for i, (a, b) in enumerate(self.runs):
            if a <= b:
                if a <= o <= b:
                    return i, o - a
            else:
                if b <= o <= a:
                    return i, a - o
        raise AbbreviationError(f"ordinal {o} missing from runs")

    def _split_after(self, o: int) -> int:
        """Ensure a boundary right after ordinal o; return index of the run
        that ends with o."""
        i, off = self._locate(o)
        a, b = self.runs[i]
        step = 1 if b >= a else -1
        length = abs(b - a) + 1
        if off == length - 1:
            return i
        self.runs[i : i + 1] = [(a, o), (o + step, b)]
        return i

    def _cut_cyclic(self, o: int) -> None:
        """Rotate the run list so it begins right after ordinal o."""
        i = self._split_after(o)
        self.runs = self.runs[i + 1 :] + self.runs[: i + 1]

    def _normalize(self) -> None:
        """Rotate so the base's first vertex (ordinal 1) is first."""
        i, off = self._locate(1)
        a, b = self.runs[i]
        step = 1 if b >= a else -1
        if off > 0:
            self.runs[i : i + 1] = [(a, 1 - step), (1, b)]
            i += 1
        self.runs = self.runs[i:] + self.runs[:i]

    # ---- operations ----

    def apply_move(self, m: Move) -> None:
        perm = m.perm()
        cuts = {self._ord(v) for v in perm}
        for o in cuts:
            self._split_after(o)
        # Group the run list into chunks, each ending at a cut ordinal.
        boundaries = [i for i, (_, b) in enumerate(self.runs) if b in cuts]
        if len(boundaries) != len(cuts):
            raise AbbreviationError("cut vertices not at run boundaries")
        chunks: dict[int, list[tuple[int, int]]] = {}  # end ordinal -> runs
        order_of_cuts: list[int] = []  # cut ordinals in current cyclic order
        prev = boundaries[-1]
        nrun = len(self.runs)
        for idx in boundaries:
            start = (prev + 1) % nrun
            runs = []
            k = start
            while True:
                runs.append(self.runs[k])
                if k == idx:
                    break
                k = (k + 1) % nrun
            end = self.runs[idx][1]
            chunks[end] = runs
            order_of_cuts.append(end)
            prev = idx
        pos_in_cycle = {o: k for k, o in enumerate(order_of_cuts)}
        k_cuts = len(order_of_cuts)
        ord_of = {self._ord(v): v for v in perm}
        # Re-link: in h' = h . s the chunk after cut vertex u is the chunk
        # that used to begin at succ(s(u)), i.e. the chunk ending at the next
        # cut (in old cyclic order) after s(u).
        start_cut = order_of_cuts[0]
        seq_runs: list[tuple[int, int]] = list(chunks[start_cut])
        cur_end = start_cut
        for _ in range(k_cuts - 1):
            s_of_end = self._ord(perm[ord_of[cur_end]])
            cur_end = order_of_cuts[(pos_in_cycle[s_of_end] + 1) % k_cuts]
            seq_runs.extend(chunks[cur_end])
        self.runs = seq_runs
        self.move_count += 1
        self._normalize()

    def rotate(self, v: int, w: int) -> None:
        ov, ow = self._ord(v), self._ord(w)
        self._cut_cyclic(ov)  # list now begins at succ(v), ends at v
        i = self._split_after(ow)
        head = self.runs[: i + 1]
        tail = self.runs[i + 1 :]
        head = [(b, a) for (a, b) in reversed(head)]
        self.runs = head + tail
        self.move_count += 1
        self._normalize()

    # ---- rendering ----

    def render(self) -> str:
        """Sparse printed form: ascending runs as 'a … b', descending runs as
        'a --- b' (2-element runs printed in full)."""
        parts: list[str] = []
        for a, b in self.runs:
            if a == b:
                parts.append(str(a))
            elif abs(b - a) == 1:
                parts.extend([str(a), str(b)])
            elif b > a:
                parts.extend([str(a), "…", str(b)])
            else:
                parts.extend([str(a), "---", str(b)])
        return " ".join(parts)


def rebase(t: Tour) -> Abbreviation:
    return Abbreviation(t)


def materialize(a: Abbreviation) -> Tour:
    a._check()
    return a.materialize()
