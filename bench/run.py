"""Benchmark of catmouse's reduce-solve-verify pipeline.

    python3 bench/run.py --workload deep|sweep|queries --seed N --seconds S --trace 0|1

Run from the repository root; catmouse is imported from ``src/``.  Each
workload process is single-threaded and runs a closed loop with one caller:
each operation starts when the previous one and its check have finished.
A loop attempts whole rounds of operations until its time is up.

``--trace 0`` reports the end-to-end metrics.  The speed of the same work
differs by several percent from one process to the next on a shared host,
so the run is split over ``WORKERS`` fresh processes, one after another,
each with ``--seconds / WORKERS`` of operations on its own share of the
rounds.  Operation timings are pooled over the workers.  Set-up time is
each worker's time from its start to the end of its set-up, and the median
is reported; peak memory is the largest worker's.

``--trace 1`` is the traced run, in this one process: it records spans
around every call into catmouse's public functions, runs each round twice
(once traced, once not, alternating which goes first) to measure the
tracing overhead, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are the same figures for a reader, with the sample count beside each timing.
Full results and span dumps are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("deep", "sweep", "queries")
WORKERS = 5  # worker processes of an untraced run
TAIL_SAMPLES = 10  # a tail percentile needs at least this many samples beyond it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, default=None,
                        help="internal: run as worker K of an untraced run")
    return parser.parse_args(argv)


def load_workload(name: str, seed: int):
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.WORKLOADS[name](seed)


def execute(run, check, tracer):
    """Run one operation; return its duration and the problems found."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = run()
        else:
            tracer.recording = True
            out = tracer.span("op", run)
    except Exception as exc:  # a raising operation counts as failed
        return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.recording = False
    elapsed = time.perf_counter() - start
    try:
        return elapsed, check(out)
    except Exception as exc:  # so does output the checker cannot read
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


class Loop:
    """Rounds ``first``, ``first + step``, ... for ``seconds``; in a traced
    run each round runs once untraced and once traced."""

    def __init__(self):
        self.durations = array("d")  # untraced operations
        self.traced = array("d")  # the same operations, traced
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, workload, seconds, tracer=None, first=0, step=1):
        start = time.perf_counter()
        k = first
        while k == first or time.perf_counter() - start < seconds:
            ops = workload.round(k)
            passes = (False,) if tracer is None else ((False, True) if k % 2 == 0 else (True, False))
            for traced in passes:
                if traced:
                    tracer.install()
                elif tracer is not None:
                    tracer.uninstall()
                for run, check in ops:
                    elapsed, problems = execute(run, check, tracer if traced else None)
                    (self.traced if traced else self.durations).append(elapsed)
                    self.attempted += 1
                    if problems:
                        self.failed += 1
                        self.problems.extend(problems[:3])
            k += step
        if tracer is not None:
            tracer.uninstall()


def run_worker(args) -> int:
    """Set up, say 'ready', run this worker's rounds and print the timings
    as one JSON line."""
    workload = load_workload(args.workload, args.seed)
    workload.setup()
    print("ready", flush=True)
    workload.prepare_checks()
    loop = Loop()
    loop.run(workload, args.seconds, first=args.worker, step=WORKERS)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"durations": loop.durations.tolist(), "attempted": loop.attempted,
                      "failed": loop.failed, "problems": loop.problems,
                      "peak_rss_mib": peak}))
    return 0


def spawn_worker(args, k: int) -> tuple[float, dict]:
    """Run worker ``k`` to its end; return its set-up time, from process
    start to 'ready', and its results."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS),
           "--worker", str(k)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {k} exited with code {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def percentile_ms(samples, q: int):
    """The q-th percentile in ms, or None with fewer than TAIL_SAMPLES beyond it."""
    if q == 50:
        return statistics.median(samples) * 1000
    if len(samples) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(samples, n=100)[q - 1] * 1000


def end_to_end(args) -> tuple[list[tuple], dict]:
    """(name, value, unit, note) rows of the untraced run, and the operation
    counts; a value of None is not reported."""
    runs = [spawn_worker(args, k) for k in range(WORKERS)]
    results = [r for _setup, r in runs]
    durations = [d for r in results for d in r["durations"]]
    n = len(durations)
    busy = sum(durations)
    p99 = percentile_ms(durations, 99)
    rows = [
        ("setup_s", statistics.median(s for s, _r in runs), "s",
         f"median of {WORKERS} worker set-ups"),
        ("ops_per_s", n / busy, "1/s", f"n={n} ops in {busy:.2f} s of operations"),
        ("op_ms.p50", percentile_ms(durations, 50), "ms", f"n={n}"),
        ("op_ms.p99", p99, "ms",
         f"n={n}" if p99 is not None else
         f"n={n}: fewer than {TAIL_SAMPLES} samples beyond p99, not reported"),
        ("peak_rss_mib", max(r["peak_rss_mib"] for r in results), "MiB",
         f"largest of {WORKERS} worker processes"),
    ]
    counts = {"attempted": sum(r["attempted"] for r in results),
              "failed": sum(r["failed"] for r in results),
              "problems": [p for r in results for p in r["problems"]]}
    return rows, counts


def traced_run(args) -> tuple[list[tuple], dict, object]:
    import trace

    workload = load_workload(args.workload, args.seed)
    tracer = trace.Tracer()
    tracer.install()
    tracer.recording = True
    workload.setup()
    tracer.recording = False
    tracer.uninstall()
    tracer.phase = "timed"
    workload.prepare_checks()
    loop = Loop()
    loop.run(workload, args.seconds, tracer)
    rows = layer_metrics(tracer, workload, loop, solve_peak_mib(tracer))
    counts = {"attempted": loop.attempted, "failed": loop.failed, "problems": loop.problems}
    return rows, counts, tracer


def layer_metrics(tracer, workload, loop: Loop, peak_mib: float) -> list[tuple]:
    """(name, value, unit, note) rows from the traced spans; value None when
    the workload makes no such call."""

    def agg(prefix, phases=("setup", "timed")):
        calls = total = self_time = 0
        for (phase, name), s in tracer.stats.items():
            if phase in phases and (name == prefix or name.startswith(prefix + ".")):
                calls += s.calls
                total += s.total
                self_time += s.self_time
        return calls, total, self_time

    def counter(name):
        return sum(v for (_p, n), v in tracer.counters.items() if n == name)

    def per(x, y):
        return x / y if y else None

    ops = len(loop.traced)
    instances = workload.setup_instances + workload.instances_per_op * ops
    solve_calls, solve_s, _ = agg("solver.solve")
    timed_solve = agg("solver.solve", ("timed",))[1]
    timed_ops = agg("op", ("timed",))[1]
    match_calls, _, match_self = agg("solver.play_match")
    build_calls, build_s, _ = agg("reduction.build")
    export_calls, export_s, _ = agg("reduction.export")
    import_calls, import_s, _ = agg("reduction.import")
    policy_calls, policy_s, _ = agg("strategies.policy")
    optimal_calls, optimal_s, _ = agg("solver.policy")
    cs_calls, cs_s, _ = agg("verify.check_structure")
    verify_calls, _, verify_self = agg("verify")
    circuit_calls, circuit_s, _ = agg("circuits")
    c = lambda n: f"calls={n}"  # noqa: E731
    return [
        ("solver.solve.calls", solve_calls, "count", f"{instances} instances"),
        ("solver.solve.s", per(solve_s, solve_calls), "s", c(solve_calls) + ", mean per call"),
        ("solver.states_per_s", per(counter("solver.solve.states"), solve_s), "1/s",
         "sum of 2n^2 over solves / solve time"),
        ("solver.solve.peak_mib", peak_mib, "MiB",
         f"tracemalloc peak in one solve of the largest board ({tracer.largest_solve[0]} nodes)"),
        ("solver.solve.share", per(timed_solve, timed_ops), "ratio",
         f"solve time / operation time, {ops} traced ops"),
        ("solver.solves_per_instance", per(solve_calls, instances), "ratio", c(solve_calls)),
        ("solver.play_match.calls", match_calls, "count", ""),
        ("solver.play_match.plies", per(counter("solver.play_match.plies"), match_calls),
         "count", c(match_calls) + ", mean per match"),
        ("solver.play_match.self_s", per(match_self, match_calls), "s",
         c(match_calls) + ", mean per match, policy time excluded"),
        ("solver.policy.s", per(optimal_s, optimal_calls), "s", c(optimal_calls) + ", mean per move"),
        ("reduction.build.calls", build_calls, "count", ""),
        ("reduction.build.s", per(build_s, build_calls), "s", c(build_calls) + ", mean per call"),
        ("reduction.board_nodes", per(counter("reduction.board_nodes"), build_calls), "count",
         c(build_calls) + ", mean per build"),
        ("reduction.builds_per_instance", per(build_calls, instances), "ratio", c(build_calls)),
        ("reduction.export.s", per(export_s, export_calls), "s", c(export_calls) + ", mean per call"),
        ("reduction.import.s", per(import_s, import_calls), "s", c(import_calls) + ", mean per call"),
        ("strategies.policy.calls", policy_calls, "count", ""),
        ("strategies.policy.s", per(policy_s, policy_calls), "s", c(policy_calls) + ", mean per move"),
        ("verify.check_structure.s", per(cs_s, cs_calls), "s", c(cs_calls) + ", mean per call"),
        ("verify.self_s", per(verify_self, verify_calls), "s",
         c(verify_calls) + ", mean per call, child spans excluded"),
        ("circuits.calls", circuit_calls, "count", ""),
        ("circuits.s", per(circuit_s, circuit_calls), "s", c(circuit_calls) + ", mean per call"),
        ("trace.overhead", sum(loop.traced) / sum(loop.durations) - 1, "ratio",
         f"traced / untraced time of the same {ops} ops, minus 1"),
    ]


def solve_peak_mib(tracer) -> float:
    import catmouse

    _n, instance = tracer.largest_solve
    tracemalloc.start()
    try:
        catmouse.solve(instance)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "catmouse" / "__init__.py").is_file():
        print(f"error: no catmouse sources under {SRC}", file=sys.stderr)
        return 2
    # One thread per workload: keep numerical libraries from starting pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.worker is not None:
        return run_worker(args)

    tracer = None
    if args.trace:
        rows, counts, tracer = traced_run(args)
    else:
        rows, counts = end_to_end(args)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"operations attempted {counts['attempted']}  failed {counts['failed']}")
    for problem in counts["problems"][:10]:
        print(f"  problem: {problem}")
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<30} {shown:>14} {unit:<6} {note}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = {name: value for name, value, _unit, _note in rows}
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared["per_layer" if args.trace else "end_to_end"]},
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"args": vars(args), "rows": rows, **counts}
    stem.with_suffix(".result.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
