"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/repeat.py [--workloads deep,sweep,queries] [--seeds 1-10]
                            [--sets 2] [--seconds 30]

For every workload, each set runs ``bench/run.py --trace 0`` once per seed,
one process at a time.  Per end-to-end metric and set it prints the median,
the first and third quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median beside the metric's bound from BENCHMARK.json, and for a
later set how far its median moved from the first set's, in the direction
the bound guards.  The summary is also written to
``.bench_out/repeat.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_range(args.seeds)

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                result = run_once(w, seed, seconds)
                runs[w][s].append(result)
                print(f"set {s + 1} {w} seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)

    summary = {}
    for w in workloads:
        print(f"\n{w}: {len(seeds)} seeds x {args.sets} sets, {seconds} s per run")
        print(f"  {'metric':<14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'shift':>8}  failed/attempted")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, results in enumerate(runs[w]):
                values = [r["metrics"][name]["value"] for r in results]
                q1, median, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                if first_median is None:
                    first_median, shift = median, 0.0
                else:
                    change = (median - first_median) / first_median
                    shift = change if m["better"] == "lower" else -change
                share = {r["failed"] / r["attempted"] for r in results}
                summary.setdefault(w, {}).setdefault(name, []).append(
                    {"median": median, "q1": q1, "q3": q3, "spread": spread,
                     "shift": shift, "values": values})
                print(f"  {name:<14} {s + 1:>3} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {bound:>6} {shift:>+8.4f}  {sorted(share)}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
