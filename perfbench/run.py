"""hamperm benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

Run from anywhere; the program is imported from the checkout's src/:

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # each workload in a fresh process

Workloads are defined in workloads.py and described in README.md.  One run
times instances of the workload's deterministic stream for --seconds, and
sets up (import, inputs, warm-up) once before them and several times
between them.  A fixed reference loop (reference.py) also runs between
instances; instance_cost and setup_s are measured against it, so that the
host's speed drift cancels.  Every output is checked independently; a
wrong answer prints "correct": false and exits 1.  With --trace 1 the run
spends half its time untraced and half traced (see tracer.py) and reports
the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it are a
readable report and an "info" record (environment, fingerprint, median
and tail instance time, fail_frac, tsp_excess).  Traced runs write their
spans to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import time

# Start of this script, before its other imports: the cold set-up reported
# in the info record runs from here to the end of the first set-up.
SCRIPT_START = time.perf_counter()

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
MODULES = ("graphs", "tour", "contract", "solver", "oracle", "tsp", "cli")
SETUPS = 7  # set-ups per untraced run; setup_s is their median
TAIL_MIN_BEYOND = 10

PER_LAYER = [
    ("cli.self_s", "s"),
    ("graphs.gen_s", "s"),
    ("graphs.io_s", "s"),
    ("graphs.edges", "count"),
    ("contract.s", "s"),
    ("contract.chains", "count"),
    ("contract.certified", "count"),
    ("solver.self_s", "s"),
    ("solver.s_per_iter", "s"),
    ("solver.verify_s", "s"),
    ("solver.iterations", "count"),
    ("solver.move_yield", "ratio"),
    ("solver.backtracks", "count"),
    ("tour.apply_s", "s"),
    ("tour.apply_calls", "count"),
    ("tour.rotate_s", "s"),
    ("tour.rotate_calls", "count"),
    ("tour.abbrev_s", "s"),
    ("tour.admissible_calls", "count"),
    ("tour.score_calls", "count"),
    ("tour.filter_calls", "count"),
    ("tour.copy_calls", "count"),
    ("tsp.self_s", "s"),
    ("tsp.steps", "count"),
    ("tsp.weight_evals", "count"),
    ("tsp.rotation_tests", "count"),
    ("oracle.enumerate_s", "s"),
    ("oracle.brute_s", "s"),
    ("oracle.states", "count"),
    ("oracle.circuits", "count"),
    ("trace.overhead", "ratio"),
]


def load_hamperm() -> SimpleNamespace:
    """A fresh import of the program's modules."""
    for name in [m for m in sys.modules if m.split(".")[0] == "hamperm"]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"hamperm.{m}") for m in MODULES}
    )


class Tally:
    """Outcomes, timings and the work fingerprint of one phase."""

    def __init__(self, prefix: int):
        self.prefix = prefix
        self.times: list[float] = []
        self.attempted = self.failed = self.certified = 0
        self.quality: list[float] = []
        self.digest = hashlib.sha256()
        self.deltas: list[dict] = []  # per-instance tracer totals

    def fingerprint(self) -> str:
        return self.digest.hexdigest()


def measure(wl, seconds: float, tracer=None, set_up=None, ref=None) -> Tally:
    """Run instances 0, 1, ... until the first `prefix` are done and the
    next instance would, at the mean pace so far, end more than half an
    instance after `seconds`, so a run measures `seconds` on average.
    Raises WrongAnswer on a failed check.

    With set_up, the other SETUPS - 1 set-ups run between instances, spread
    evenly over the run (any left over run at its end), and the run goes on
    with the newest workload object, which serves the same instances; the
    old one is released first, so peak memory holds one set of inputs.
    Host speed drifts over seconds, so set-ups spread out sample it the way
    the instances do.

    With ref (a reference.Reference), its loop runs between instances and
    between the steps of a long instance, outside the timed regions."""
    tally = Tally(wl.prefix)
    start = time.perf_counter()
    done = 1 if set_up is not None else SETUPS
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= wl.prefix and elapsed * (i + 0.5) / i > seconds:
            break
        while done < SETUPS and elapsed >= seconds * done / SETUPS:
            wl = None
            wl = set_up()
            done += 1
        if ref is not None:
            ref.catch_up()
        x = wl.make(i)
        gc.collect()
        before = None
        if tracer is not None:
            tracer.instance = i
            before = tracer.snapshot()
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            dt, out = wl.run(x, ref and ref.catch_up)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            status, material, quality = "failed", ["exception"], None
        else:
            status, material, quality = wl.check(x, out)
        if tracer is not None:
            after = tracer.snapshot()
            tally.deltas.append(
                {k: v - before.get(k, 0.0) for k, v in after.items()}
            )
        tally.times.append(dt)
        tally.failed += status == "failed"
        tally.certified += status == "certified"
        if quality is not None:
            tally.quality.append(quality)
        if i < wl.prefix:
            tally.digest.update(
                json.dumps([i, status, material], sort_keys=True,
                           default=str).encode()
            )
        i += 1
    if ref is not None:
        ref.catch_up()  # the share for the last instance
    wl = None
    for _ in range(done, SETUPS):
        set_up()
    return tally


def tail(times: list[float]):
    """(percentile, value) for the highest whole percentile with at least
    TAIL_MIN_BEYOND samples beyond it, or None."""
    s = sorted(times)
    n = len(s)
    for p in range(99, 49, -1):
        k = math.ceil(p / 100 * n)  # nearest rank
        if n - k >= TAIL_MIN_BEYOND:
            return p, s[k - 1]
    return None


def layer_metrics(tally: Tally, untraced: Tally) -> dict:
    """Per-layer metrics: times are means per traced instance, counts are
    means over the first `prefix` instances (so they repeat per seed)."""
    every = tally.deltas
    first = every[: tally.prefix]

    def mean(rows, key):
        return sum(r.get(key, 0.0) for r in rows) / len(rows)

    def total(rows, key):
        return sum(r.get(key, 0.0) for r in rows)

    out = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            out[name] = mean(every, name)
        elif unit == "count":
            out[name] = mean(first, name)
    iters = total(every, "solver.iterations")
    search = (
        total(every, "solver.inclusive_s")
        - total(every, "contract.s")
        - total(every, "solver.verify_s")
    )
    out["solver.s_per_iter"] = search / iters if iters else 0.0
    first_iters = total(first, "solver.iterations")
    out["solver.move_yield"] = (
        total(first, "solver.successes") / first_iters if first_iters else 0.0
    )
    common = min(len(untraced.times), len(tally.times))
    out["trace.overhead"] = sum(untraced.times[:common]) / sum(
        tally.times[:common]
    )
    return out


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    loc = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "hamperm").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg": loadavg(),
        "src_loc": loc,
    }


def run_one(args) -> int:
    if not (SRC / "hamperm" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'hamperm'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from reference import Reference
    from workloads import WORKLOADS, WrongAnswer

    SCRATCH.mkdir(parents=True, exist_ok=True)
    env_start = environment()
    cls = WORKLOADS[args.workload]

    setup_times = []
    setup_cold = None

    def set_up():
        nonlocal setup_cold
        gc.collect()
        t0 = time.perf_counter()
        wl = cls()
        wl.setup(load_hamperm(), args.seed, SCRATCH)
        setup_times.append(time.perf_counter() - t0)
        if setup_cold is None:
            setup_cold = time.perf_counter() - SCRIPT_START
        return wl

    tracer = untraced = None
    ref = None if args.trace else Reference()
    try:
        if args.trace:
            wl = set_up()
            untraced = measure(wl, args.seconds / 2)
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(vars(wl.hp))
            try:
                tally = measure(wl, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        else:
            # no reference kept here: measure() releases each workload
            # object before the next set-up
            tally = measure(set_up(), args.seconds, set_up=set_up, ref=ref)
        correct, problem = True, None
    except WrongAnswer as exc:
        correct, problem = False, str(exc)
        print(f"error: wrong answer on {args.workload}: {exc}", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env_start": env_start,
        "loadavg_end": loadavg(),
        "setup_s_samples": setup_times,
        "setup_s_cold": setup_cold,
    }
    if not correct:
        info["wrong_answer"] = problem
        print(json.dumps({"info": info}, sort_keys=True))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    phases = [tally] if untraced is None else [untraced, tally]
    attempted = sum(t.attempted for t in phases)
    failed = sum(t.failed for t in phases)
    info.update({
        "instances": len(tally.times),
        "certified": tally.certified,
        "fail_frac": failed / attempted,
        "fail_frac_of": attempted,
        "fingerprint": tally.fingerprint(),
        "fingerprint_instances": tally.prefix,
        "instance_s_p50": statistics.median(tally.times),
        "instances_per_s": len(tally.times) / sum(tally.times),
    })
    if tally.quality:
        info["tsp_excess"] = statistics.fmean(tally.quality)
    got_tail = tail(tally.times)
    if got_tail is not None:
        info["instance_s_tail"] = {
            "percentile": got_tail[0], "value": got_tail[1],
            "unit": "s", "samples": len(tally.times),
        }

    if tracer is None:
        info.update({
            "ref_slice_s": ref.slice_s(),
            "ref_slices": ref.slices,
            "setup_s_raw": statistics.median(setup_times),
        })
        metrics = {
            "setup_s": (ref.nominal_s(statistics.median(setup_times)), "s"),
            "instance_cost": (
                statistics.fmean(tally.times) / ref.slice_s(), "ref"
            ),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
        }
    else:
        values = layer_metrics(tally, untraced)
        units = dict(PER_LAYER)
        metrics = {k: (values[k], units[k]) for k, _u in PER_LAYER}
        absent = tracer.absent_metrics()
        if "solver.iterations" in absent:
            absent |= {"solver.s_per_iter", "solver.move_yield"}
        spans = SCRATCH / f"spans-{args.workload}-seed{args.seed}.csv"
        info.update({
            "untraced_instances": len(untraced.times),
            "absent_names": tracer.absent,
            "absent_metrics": sorted(absent),
            "spans_file": str(spans.relative_to(ROOT)),
            "spans_written": tracer.write_spans(spans),
            "spans_dropped": tracer.dropped,
        })

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"  instances {len(tally.times)}  failed {failed} of {attempted} "
          f"(fail_frac {failed / attempted:.4f})  certified {tally.certified}")
    print(f"  instances_per_s {info['instances_per_s']:.6g} 1/s")
    print(f"  instance_s_p50 {info['instance_s_p50']:.6g} s "
          f"({len(tally.times)} samples)")
    if got_tail is not None:
        print(f"  instance_s_tail p{got_tail[0]} {got_tail[1]:.6g} s "
              f"({len(tally.times)} samples)")
    if tally.quality:
        print(f"  tsp_excess {info['tsp_excess']:.6g} (mean weight/LB - 1)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:.6g} {unit}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    from workloads import WORKLOADS

    code = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode != 0 or not lines:
            merged["correct"] = False
            continue
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
