"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steady.py --workloads verdict ext --seeds 0 1 2 3 4 --out bench/out/steady.json
    python3 bench/steady.py --sets 2 --out bench/out/two-sets.json

For every end-to-end metric of every workload this prints the median of
the per-seed values, the quartiles from ``statistics.quantiles(n=4)`` and
the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json; a spread of a third of the bound or more is flagged.
It also prints the spread of the wall figures of each run's ``report``
line, which are not paced (see pace.py), for comparison.
With ``--sets 2`` two sets of the same runs are made, interleaved (for
each seed and workload, set 1 then set 2), so that a slow or fast spell
of the machine reaches both sets alike; it then prints how much worse
each metric's set-2 median is than its set-1 median, flagged beyond the
bound.  Runs are sequential, one fresh process each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCH, ROOT, parse_output

WALL_KEYS = ("setup_wall_s", "goodput_per_s", "item_p50_ms")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report, result = parse_output(proc.stdout)
    return {"result": result, "report": report, "wall_s": wall}


def spread(values: list) -> tuple:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(wl: str, runs: dict, seeds: list, bounds: dict, label: str) -> dict:
    stats = {}
    for metric in bounds:
        vals = [runs[s]["result"]["metrics"][metric]["value"] for s in seeds]
        med, q1, q3, sp = spread(vals)
        stats[metric] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "bound": bounds[metric], "values": vals}
        flag = "" if sp < bounds[metric] / 3 else "  <-- a third of the bound or more"
        flag = "  <-- BEYOND THE BOUND" if sp > bounds[metric] else flag
        print(f"  {label} {wl:9s} {metric:19s} median {med:12.6g}  spread {sp:7.4f}  bound {bounds[metric]}{flag}", flush=True)
    wall = {}
    for key in WALL_KEYS:  # the unpaced figures of the report line, for comparison
        med, q1, q3, sp = spread([runs[s]["report"][key] for s in seeds])
        wall[key] = {"median": med, "q1": q1, "q3": q3, "spread": sp}
        print(f"  {label} {wl:9s} {key + ' (wall)':26s} median {med:12.6g}  spread {sp:7.4f}", flush=True)
    return {
        "wall": wall,
        "pace_call_ms": [runs[s]["report"]["pace_call_ms"] for s in seeds],
        "seeds": seeds,
        "metrics": stats,
        "wall_s": [runs[s]["wall_s"] for s in seeds],
        "attempted": [runs[s]["result"]["attempted"] for s in seeds],
        "failed": [runs[s]["result"]["failed"] for s in seeds],
        "correct": all(runs[s]["result"]["correct"] for s in seeds),
        "failures": {k: v for s in seeds for k, v in runs[s]["report"]["failures"].items()},
        "digests_checked": [runs[s]["report"]["digests_checked"] for s in seeds],
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--sets", type=int, default=1, help="interleaved sets of the same runs")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = [{wl: {} for wl in args.workloads} for _ in range(args.sets)]
    for seed in args.seeds:
        for wl in args.workloads:
            for k in range(args.sets):
                run = runs[k][wl][seed] = run_once(wl, seed, args.seconds, 0)
                res = run["result"]
                print(f"set {k + 1} {wl} seed {seed} ({run['wall_s']:.1f} s): attempted {res['attempted']} failed {res['failed']} "
                      f"correct {res['correct']} " + " ".join(f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()), flush=True)
    sets = [{wl: summarize(wl, runs[k][wl], args.seeds, bounds, f"set {k + 1}") for wl in args.workloads} for k in range(args.sets)]
    change = {}
    for wl in args.workloads if args.sets > 1 else []:
        change[wl] = {}
        for metric in bounds:
            m1, m2 = (sets[k][wl]["metrics"][metric]["median"] for k in (0, 1))
            worse = (m2 - m1) / m1 if better[metric] == "lower" else (m1 - m2) / m1
            change[wl][metric] = worse
            flag = "  <-- BEYOND THE BOUND" if worse > bounds[metric] else ""
            print(f"  set 2 vs set 1 {wl:9s} {metric:19s} worse by {worse:+7.4f}  bound {bounds[metric]}{flag}", flush=True)
    if args.out:
        summary = {"machine": _machine(), "seconds": args.seconds, "sets": sets, "set2_worse_by": change}
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")


def _machine() -> dict:
    rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, check=False)
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "git_rev": rev.stdout.strip() or None,
    }


if __name__ == "__main__":
    main()
