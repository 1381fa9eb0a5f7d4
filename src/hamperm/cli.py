"""Command-line interface.

Subcommands:
    gen     write a random graph/digraph (models: boll, bolld, mout, inout)
    solve   find a Hamilton circuit in an edge-list file
    prob    closed forms, estimators, and censuses from problab
    oracle  brute-force or breadth enumeration of all circuits (small n)
    tsp     weighted-tour iterated local search on a weight-matrix file

Structured output: --format json emits one JSON record per line with stable,
sorted field names; the same values appear in the default table output.
Wall-clock time is printed to stderr only, so records are byte-reproducible
per seed.  The seed comes from --seed, else the HAMPERM_SEED environment
variable, else 0; a HAMPERM_SEED that is not an integer is a usage error.

Exit codes: 0 success/circuit, 2 no circuit (timeout or proven infeasible),
1 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import graphs, oracle, problab, tsp
from .graphs import ParseError
from .solver import SolveParams, solve_digraph, solve_graph


@dataclass
class RunRecord:
    command: str
    params: dict
    seed: int
    outcome: str
    metrics: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)

    def to_json(self) -> str:
        def default(x):
            if isinstance(x, Fraction):
                return str(x)
            raise TypeError(type(x))

        return json.dumps(
            {
                "command": self.command,
                "params": self.params,
                "seed": self.seed,
                "outcome": self.outcome,
                "metrics": self.metrics,
                "artifacts": self.artifacts,
            },
            sort_keys=True,
            default=default,
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1; 2 means "no circuit"
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _default_seed(parser: _Parser) -> int:
    env = os.environ.get("HAMPERM_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        parser.error(f"HAMPERM_SEED must be an integer, got {env!r}")


def _emit(rec: RunRecord, fmt: str) -> None:
    if fmt == "json":
        print(rec.to_json())
        return
    print(f"command: {rec.command}")
    for k in sorted(rec.params):
        print(f"  {k}: {rec.params[k]}")
    print(f"  seed: {rec.seed}")
    print(f"outcome: {rec.outcome}")
    for k in sorted(rec.metrics):
        print(f"  {k}: {rec.metrics[k]}")
    for a in rec.artifacts:
        print(f"artifact: {a}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_gen(args) -> int:
    seed = args.seed
    model = args.model
    try:
        if model == "boll":
            g, m_stop = graphs.gen_boll_graph(args.n, seed)
        elif model == "bolld":
            g, m_stop = graphs.gen_boll_digraph(args.n, seed)
        elif model == "mout":
            if args.m is None:
                raise ValueError("--m is required for model mout")
            g = graphs.gen_m_out(args.n, args.m, seed)
            m_stop = g.m
        else:  # inout: --model admits only the four models
            if args.i is None or args.o is None:
                raise ValueError("--i and --o are required for model inout")
            g = graphs.gen_in_out(args.n, args.i, args.o, seed)
            m_stop = g.m
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        graphs.write_graph(g, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if g.directed:
        degs = f"min outdeg {g.min_outdeg()}, min indeg {g.min_indeg()}"
    else:
        degs = f"min degree {g.min_degree()}"
    rec = RunRecord(
        "gen",
        {"model": model, "n": args.n, "m": args.m, "i": args.i, "o": args.o},
        seed,
        "written",
        {"edges": g.m, "m_stop": m_stop, "degrees": degs},
        [args.out],
    )
    _emit(rec, args.format)
    return 0


def cmd_solve(args) -> int:
    try:
        g = graphs.read_graph(args.path)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    params = SolveParams(seed=args.seed, thorough=args.budget == "thorough")
    t0 = time.perf_counter()
    rep = solve_digraph(g, params) if g.directed else solve_graph(g, params)
    wall = time.perf_counter() - t0
    rec = RunRecord(
        "solve",
        {"path": args.path, "budget": args.budget},
        args.seed,
        rep.outcome,
        {
            "iterations": rep.iterations,
            "successes": rep.successes,
            "failures": rep.failures,
            "backtracks": rep.backtracks,
            "restarts": rep.restarts,
            "final_pseudo": rep.final_pseudo,
            "pseudo_trajectory": rep.pseudo_trajectory,
            "circuit": rep.circuit,
            "detail": rep.detail,
        },
    )
    _emit(rec, args.format)
    print(f"wall time: {wall:.3f}s", file=sys.stderr)
    return 0 if rep.outcome == "circuit" else 2


def cmd_prob(args) -> int:
    n, trials, seed = args.n, args.trials, args.seed
    metrics: dict = {}
    try:
        if args.which in ("theoremA", "theoremD"):
            closed, estimate = {
                "theoremA": (problab.p_admissible_3cycle,
                             problab.estimate_admissible_3cycle),
                "theoremD": (problab.p_chords_intersect,
                             problab.estimate_chords_intersect),
            }[args.which]
            target = closed(n)
            st = estimate(n, trials, seed)
            metrics = {
                "closed_form": target,
                "estimate": st.estimate,
                "abs_error": st.abs_error,
                "trials": trials,
            }
        elif args.which == "lemma1":
            metrics = {"four_tuple": [str(x) for x in problab.lemma1_probs(n)]}
        elif args.which == "lemma2":
            metrics = {"four_tuple": [str(x) for x in problab.lemma2_probs(n)]}
        elif args.which == "theoremE":
            p, pp = problab.p_two_admissible_pair(n)
            metrics = {"p": p, "p_prime": pp}
        elif args.which == "census2":
            rows = problab.degree2_census([n], range(seed, seed + 100))
            metrics = {"rows": rows}
        elif args.which == "censusArc":
            rows = problab.unique_arc_census([n], range(seed, seed + 100))
            metrics = {"rows": rows}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rec = RunRecord(
        "prob",
        {"which": args.which, "n": n, "trials": trials},
        seed,
        "ok",
        metrics,
    )
    _emit(rec, args.format)
    return 0


def cmd_oracle(args) -> int:
    try:
        g = graphs.read_graph(args.path)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.mode == "brute":
            circuits = oracle.brute_force_circuits(g)
        else:
            circuits = oracle.enumerate_all(g)
    except oracle.OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rec = RunRecord(
        "oracle",
        {"path": args.path, "mode": args.mode},
        args.seed,
        "ok",
        {
            "count": len(circuits),
            "circuits": [list(c) for c in circuits],
        },
    )
    _emit(rec, args.format)
    return 0


def cmd_tsp(args) -> int:
    try:
        wm = tsp.read_weights(args.path)
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        tour, weight, trace = tsp.tsp_solve(wm, args.seed, args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rec = RunRecord(
        "tsp",
        {"path": args.path, "budget": args.budget},
        args.seed,
        "ok",
        {
            "tour": tour,
            "weight": weight,
            "accepted_steps": len(trace) - 1,
        },
    )
    _emit(rec, args.format)
    return 0


# --------------------------------------------------------------------------
# wiring
# --------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="hamperm", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", choices=["table", "json"], default="table")

    g = sub.add_parser("gen", help="generate a random graph/digraph")
    g.add_argument("--model", required=True,
                   choices=["boll", "bolld", "mout", "inout"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--i", type=int, default=None)
    g.add_argument("--o", type=int, default=None)
    g.add_argument("--out", required=True)
    common(g)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="search for a Hamilton circuit")
    s.add_argument("path")
    s.add_argument("--budget", choices=["default", "thorough"],
                   default="default")
    common(s)
    s.set_defaults(func=cmd_solve)

    pr = sub.add_parser("prob", help="probability lab")
    pr.add_argument("--which", required=True,
                    choices=["theoremA", "theoremD", "lemma1", "lemma2",
                             "theoremE", "census2", "censusArc"])
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--trials", type=int, default=100000)
    common(pr)
    pr.set_defaults(func=cmd_prob)

    o = sub.add_parser("oracle", help="exhaustive circuit enumeration")
    o.add_argument("path")
    o.add_argument("--mode", choices=["brute", "enumerate"], default="brute")
    common(o)
    o.set_defaults(func=cmd_oracle)

    t = sub.add_parser("tsp", help="weighted-tour iterated local search")
    t.add_argument("path")
    t.add_argument("--budget", type=int, default=None,
                   help="number of double-bridge kicks "
                        "(default n*ceil(ln n))")
    common(t)
    t.set_defaults(func=cmd_tsp)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed(parser)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return exc.code or 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
