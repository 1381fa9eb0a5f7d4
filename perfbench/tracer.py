"""Spans and counters for the traced benchmark run.

The tracer wraps hamperm functions at the names their callers look up
(module globals and class attributes), so no program code changes.  A span
wrapper records (name, start, end, parent, instance) and adds its self
time, the span minus the time its child spans cover, to a layer metric.
Hot predicates get count-only wrappers.  A name that no longer exists is
reported as absent instead of failing the run, so the benchmark keeps
working when a later change deletes or merges a wrapped function.

Only the traced run imports this module.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

# (module, class or None, attribute, self-time metric, call-count metric,
#  result hook).  The module is a key of the namespace run.py imports.
SPECS = [
    ("cli", None, "main", "cli.self_s", None, None),
    ("cli", None, "solve_graph", "solver.self_s", None, "report"),
    ("cli", None, "solve_digraph", "solver.self_s", None, "report"),
    ("graphs", None, "gen_boll_graph", "graphs.gen_s", None, "edges"),
    ("graphs", None, "gen_boll_digraph", "graphs.gen_s", None, "edges"),
    ("graphs", None, "gen_m_out", "graphs.gen_s", None, "edges"),
    ("graphs", None, "gen_in_out", "graphs.gen_s", None, "edges"),
    ("graphs", None, "to_undirected", "graphs.gen_s", None, None),
    ("graphs", None, "write_graph", "graphs.io_s", None, None),
    ("graphs", None, "read_graph", "graphs.io_s", None, None),
    ("solver", None, "_reduce_graph", "contract.s", None, "chains"),
    ("solver", None, "_reduce_digraph", "contract.s", None, "chains"),
    ("solver", None, "solve_graph", "solver.self_s", None, "report"),
    ("solver", None, "solve_digraph", "solver.self_s", None, "report"),
    ("solver", None, "verify_circuit", "solver.verify_s", None, None),
    ("solver", None, "rebase", "tour.abbrev_s", None, None),
    ("solver", None, "diff_score", None, "tour.score_calls", None),
    ("solver", None, "passes_pseudo_filter", None, "tour.filter_calls", None),
    ("tour", "Tour", "apply", "tour.apply_s", "tour.apply_calls", None),
    ("tour", "Tour", "rotate", "tour.rotate_s", "tour.rotate_calls", None),
    ("tour", "Tour", "copy", None, "tour.copy_calls", None),
    ("tour", "Tour", "admissible", None, "tour.admissible_calls", None),
    ("tour", "Abbreviation", "__init__", "tour.abbrev_s", None, None),
    ("tour", "Abbreviation", "apply_move", "tour.abbrev_s", None, None),
    ("tour", "Abbreviation", "rotate", "tour.abbrev_s", None, None),
    ("tsp", None, "tsp_solve", "tsp.self_s", None, "tsp"),
    ("tsp", None, "tour_weight", None, "tsp.weight_evals", None),
    ("tsp", None, "is_good_rotation", None, "tsp.rotation_tests", None),
    ("oracle", None, "enumerate_all", "oracle.enumerate_s", None, "circuits"),
    ("oracle", None, "brute_force_circuits", "oracle.brute_s", None, None),
    ("oracle", None, "verify_circuit", None, "oracle.states", None),
]

# Inclusive time of the solve spans, used for solver.s_per_iter.
SOLVE_INCLUSIVE = "solver.inclusive_s"


def _is_contract_error(exc: BaseException) -> bool:
    return any(c.__name__ == "ContractError" for c in type(exc).__mro__)


def _hook_report(values, rep):
    for attr, key in (
        ("iterations", "solver.iterations"),
        ("successes", "solver.successes"),
        ("backtracks", "solver.backtracks"),
    ):
        values[key] += getattr(rep, attr, 0) or 0


def _hook_edges(values, result):
    g = result[0] if isinstance(result, tuple) else result
    values["graphs.edges"] += getattr(g, "m", 0)


def _hook_chains(values, result):
    # _reduce_* return (adjacency, deleted, chains, forced cycle)
    if isinstance(result, tuple) and len(result) == 4:
        values["contract.chains"] += len(result[2])


def _hook_tsp(values, result):
    # tsp_solve returns (tour, weight, trace); trace[0] is the start
    if isinstance(result, tuple) and len(result) == 3:
        values["tsp.steps"] += len(result[2]) - 1


def _hook_circuits(values, result):
    values["oracle.circuits"] += len(result)


# hook name -> (function, the metrics it adds to)
HOOKS = {
    "report": (
        _hook_report,
        ("solver.iterations", "solver.successes", "solver.backtracks"),
    ),
    "edges": (_hook_edges, ("graphs.edges",)),
    "chains": (_hook_chains, ("contract.chains", "contract.certified")),
    "tsp": (_hook_tsp, ("tsp.steps",)),
    "circuits": (_hook_circuits, ("oracle.circuits",)),
}

# Spans recorded per run; later spans are counted in Tracer.dropped, and the
# metrics stay exact regardless.
SPAN_CAP = 300_000


class Tracer:
    """Records spans in memory (up to SPAN_CAP) and per-metric totals."""

    def __init__(self):
        self.values: defaultdict = defaultdict(float)
        self.names: list[str] = []
        self.rec_name = array("i")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.rec_parent = array("i")
        self.rec_inst = array("i")
        self.dropped = 0
        self.instance = -1
        self._stack: list[list] = []  # [span index or -1, child time]
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # ---- installation ----

    def install(self, modules: dict) -> None:
        for mod, cls, attr, time_key, count_key, hook in SPECS:
            label = f"hamperm.{mod}." + (f"{cls}.{attr}" if cls else attr)
            owner = modules.get(mod)
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            if owner is None:
                self.absent.append(label)
                continue
            if cls is not None:
                fn = owner.__dict__.get(attr)
            else:
                fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(label)
                continue
            if time_key is None:
                wrapper = self._counter(fn, count_key)
            else:
                incl = SOLVE_INCLUSIVE if hook == "report" else None
                wrapper = self._span(
                    fn, label, time_key, count_key, incl,
                    HOOKS[hook][0] if hook else None, chains=hook == "chains",
                )
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def absent_metrics(self) -> set[str]:
        """Metrics every one of whose wrapped names is missing."""
        present, missing = set(), set()
        for mod, cls, attr, time_key, count_key, hook in SPECS:
            label = f"hamperm.{mod}." + (f"{cls}.{attr}" if cls else attr)
            keys = {k for k in (time_key, count_key) if k}
            if hook:
                keys.update(HOOKS[hook][1])
            (missing if label in self.absent else present).update(keys)
        return missing - present

    # ---- wrappers ----

    def _counter(self, fn, count_key):
        values = self.values

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            values[count_key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, label, time_key, count_key, incl_key, hook, chains):
        tracer = self
        values = self.values
        stack = self._stack
        perf = time.perf_counter
        self.names.append(label)
        name_id = len(self.names) - 1

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = tracer._open(name_id)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if chains and _is_contract_error(exc):
                    values["contract.certified"] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                values[time_key] += dur - frame[1]
                if incl_key:
                    values[incl_key] += dur
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    tracer.rec_start[idx] = t0
                    tracer.rec_end[idx] = t1
            if count_key:
                values[count_key] += 1
            if hook is not None:
                hook(values, result)
            return result

        return spanned

    def _open(self, name_id: int) -> int:
        if len(self.rec_name) >= SPAN_CAP:
            self.dropped += 1
            return -1
        parent = self._stack[-1][0] if self._stack else -1
        self.rec_name.append(name_id)
        self.rec_start.append(0.0)
        self.rec_end.append(0.0)
        self.rec_parent.append(parent)
        self.rec_inst.append(self.instance)
        return len(self.rec_name) - 1

    # ---- per-instance totals and output ----

    def snapshot(self) -> dict:
        return dict(self.values)

    def write_spans(self, path) -> int:
        """Write recorded spans as CSV; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,instance\n")
            for i in range(len(self.rec_name)):
                fh.write(
                    f"{i},{self.names[self.rec_name[i]]},"
                    f"{self.rec_start[i]:.9f},{self.rec_end[i]:.9f},"
                    f"{self.rec_parent[i]},{self.rec_inst[i]}\n"
                )
        return len(self.rec_name)
