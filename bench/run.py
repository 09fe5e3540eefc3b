"""stokeslib benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 bench/run.py --workload verdict --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --all --seed 3 --seconds 15     # every workload, one table

With ``--trace 0`` the loop runs whole rounds of items, as many as bring
the item time nearest to ``--seconds``, and checks each round's outputs after the
round, outside the timed region.  After each item a reference kernel runs
untimed for a share of the item's time (pace.py), and times are reported
at the kernel's nominal pace, with the wall figures in the ``report`` line.
With ``--trace 1`` a fixed number of rounds runs once untraced
and once under the tracer, which gives per-layer counts that repeat
exactly for a seed, self times, and the tracing overhead.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/NOTES.md for the definitions.
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
from pathlib import Path

from pace import NOMINAL_CALL_S, Pace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
HASH_SEED = "0"
SETUP_PROBES = 10
PROBE_PACE_S = 0.15  # kernel time after each set-up probe
WORKLOAD_NAMES = ("circle", "verdict", "roundtrip", "ext")
TRACE_ROUNDS = {"circle": 1, "verdict": 2, "roundtrip": 2, "ext": 1}


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_stokeslib():
    src = ROOT / "src"
    if not (src / "stokeslib" / "__init__.py").is_file():
        fail(f"no stokeslib sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import stokeslib
    import stokeslib.cli  # noqa: F401  (bound as stokeslib.cli for the verdict workload)

    if Path(stokeslib.__file__).resolve().parent != (src / "stokeslib").resolve():
        fail(f"imported stokeslib from {stokeslib.__file__}, not from {src}")
    return stokeslib


def make_workload(name: str, sl):
    from workloads import WORKLOADS

    digests_path = BENCH / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](sl, workdir, digests)


def setup_probe(name: str) -> None:
    """One fresh-process set-up: import stokeslib and build the fixed
    structures.  The benchmark's own preparation is not timed."""
    t0 = time.perf_counter()
    sl = import_stokeslib()
    imported = time.perf_counter() - t0
    wl = make_workload(name, sl)
    t1 = time.perf_counter()
    wl.setup()
    seconds = imported + time.perf_counter() - t1
    pace = Pace()
    pace.run(PROBE_PACE_S)
    print(json.dumps({"setup_s": seconds, "pace_call_s": pace.call_s}))
    _cleanup(wl)


def measure_setup(name: str, probes: int) -> list:
    """(wall seconds, kernel seconds per call) of ``probes`` fresh set-ups."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], probe["pace_call_s"]))
    return times


def run_items(wl, items: list, tracer=None, round_no: int = 0, pace=None) -> list:
    """Time each item; an exception is recorded and the loop goes on.
    With ``pace``, the reference kernel runs after each item, untimed."""
    records = []
    for item in items:
        if tracer is not None:
            tracer.item = len(records)
            tracer.items += 1
        t0 = time.perf_counter()
        try:
            out, error = wl.run(item), None
        except Exception as exc:  # every item failure is counted, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        records.append({"item": item, "round": round_no, "seconds": seconds, "out": out, "error": error})
        if pace is not None:
            records[-1]["pace_call_s"] = pace.follow(seconds)
    return records


def check_records(wl, records: list) -> None:
    for rec in records:
        rec["wrong"] = None
        if rec["error"] is None:
            try:
                rec["wrong"] = wl.check(rec["item"], rec["out"])
            except Exception as exc:  # a check that cannot read the output marks it wrong
                rec["wrong"] = f"check raised {type(exc).__name__}: {exc}"
        rec["ok"] = rec["error"] is None and rec["wrong"] is None


def ranked_ms(records: list, q: float) -> float:
    """Nearest-rank percentile of item time in ms.  A failed or wrong item
    ranks after every finished one, at the time of its whole round (never
    less than the slowest finished item), so the figure does not depend on
    how many rounds a run fits."""
    finished = sorted(r["seconds"] for r in records if r["ok"])
    round_s = {}
    for r in records:
        round_s[r["round"]] = round_s.get(r["round"], 0.0) + r["seconds"]
    slowest = finished[-1] if finished else 0.0
    values = finished + sorted(max(round_s[r["round"]], slowest) for r in records if not r["ok"])
    k = -(-len(values) * q // 1)  # ceil(n * q)
    return values[max(1, int(k)) - 1] * 1000.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def base_report(wl, seed: int, records: list) -> dict:
    """Counts and per-item failures (type and message) common to both modes."""
    n = len(records)
    passed = sum(r["ok"] for r in records)
    failures = {
        r["item"].ident: {"label": r["item"].label, "error": r["error"], "wrong": r["wrong"]}
        for r in records
        if not r["ok"]
    }
    return {"workload": wl.name, "seed": seed, "items": n, "passed": passed,
            "fail_ratio": (n - passed) / n, "fail_base": n, "failures": failures}


def parse_output(stdout: str) -> tuple:
    """The ``report`` line and the final JSON result of one run."""
    lines = stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    return report, json.loads(lines[-1])


def write_items(path: Path, records: list) -> None:
    rows = [
        {
            "id": r["item"].ident,
            "label": r["item"].label,
            "seconds": r["seconds"],
            "pace_call_s": r.get("pace_call_s"),
            "ok": r["ok"],
            "error": r["error"],
            "wrong": r["wrong"],
        }
        for r in records
    ]
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def _cleanup(wl) -> None:
    for p in wl.workdir.glob("*"):
        p.unlink()
    wl.workdir.rmdir()


def run_untraced(args, wl) -> tuple:
    for item in wl.warmup():
        wl.run(item)
    pace = Pace.warmed()
    records, timed, last, r = [], 0.0, 0.0, 0
    # whole rounds, as many as bring the item time nearest to --seconds
    while r == 0 or timed + last / 2 < args.seconds:
        items = wl.round(args.seed, r)[: args.items or None]
        batch = run_items(wl, items, round_no=r, pace=pace)
        last = sum(rec["seconds"] for rec in batch)
        timed += last
        check_records(wl, batch)
        for rec in batch:  # keep only the verdict, so memory does not grow with rounds
            rec["out"] = None
            rec["item"].data = {}
        records.extend(batch)
        r += 1
        if args.items:
            break
    scale = pace.scale()
    p90 = ranked_ms(records, 0.9) if len(records) >= 100 else None
    report = base_report(wl, args.seed, records)
    report.update(
        rounds=r,
        timed_s=timed,
        pace_call_ms=pace.call_s * 1000.0,
        pace_calls=pace.calls,
        pace_scale=scale,
        goodput_per_s=report["passed"] / timed,
        item_p50_ms=ranked_ms(records, 0.5),
        item_p90_ms=p90,
        item_p90_paced_ms=None if p90 is None else p90 * scale,
        digests_checked=wl.digests_checked,
    )
    write_items(OUT / f"items-{wl.name}-seed{args.seed}.json", records)
    metrics = {
        "goodput_paced_per_s": (report["passed"] / (timed * scale), "1/s"),
        "item_p50_paced_ms": (report["item_p50_ms"] * scale, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return report, records, metrics


def run_traced(args, wl) -> tuple:
    from tracing import Tracer

    tracer = Tracer()
    # set-up once under the tracer, so set-up work shows per layer too
    tracer.install()
    tracer.active = True
    wl.setup()
    tracer.active = False
    tracer.remove()
    for item in wl.warmup():
        wl.run(item)
    items = []
    for r in range(TRACE_ROUNDS[wl.name]):
        items.extend(wl.round(args.seed, r))
    items = items[: args.items or None]
    pace_plain, pace_traced = Pace.warmed(), Pace.warmed()
    plain = run_items(wl, items, pace=pace_plain)
    tracer.install()
    tracer.active = True
    traced = run_items(wl, items, tracer, pace=pace_traced)
    tracer.active = False
    tracer.remove()
    check_records(wl, plain)
    check_records(wl, traced)
    for a, b in zip(plain, traced):
        if a["ok"] != b["ok"]:
            b["ok"] = False
            b["wrong"] = b["wrong"] or "traced and untraced runs disagree"
    # paced, so that a slow spell of the host during one half does not read as overhead
    t_plain = sum(r["seconds"] for r in plain) * pace_plain.scale()
    t_traced = sum(r["seconds"] for r in traced) * pace_traced.scale()
    good_plain = sum(r["ok"] for r in plain) / t_plain
    good_traced = sum(r["ok"] for r in traced) / t_traced
    metrics = tracer.metrics()
    metrics["trace.goodput_untraced_paced_per_s"] = (good_plain, "1/s")
    metrics["trace.goodput_traced_paced_per_s"] = (good_traced, "1/s")
    metrics["trace.goodput_ratio"] = (good_traced / good_plain if good_plain else 0.0, "ratio")
    tracer.dump(OUT / f"trace-{wl.name}-seed{args.seed}.json")
    report = base_report(wl, args.seed, traced)
    report.update(spans=len(tracer.spans), spans_dropped=tracer.dropped, counters=tracer.counters())
    write_items(OUT / f"items-{wl.name}-seed{args.seed}-traced.json", traced)
    return report, traced, metrics


def run_workload(args) -> None:
    sl = import_stokeslib()
    wl = make_workload(args.workload, sl)
    try:
        if args.trace:
            report, records, metrics = run_traced(args, wl)
        else:
            # half the set-up probes before the loop and half after it, so
            # their median sees the same machine speed as the loop
            setup_times = measure_setup(args.workload, SETUP_PROBES // 2)
            wl.setup()
            report, records, metrics = run_untraced(args, wl)
            setup_times += measure_setup(args.workload, SETUP_PROBES - len(setup_times))
            paced = [s * NOMINAL_CALL_S / call_s for s, call_s in setup_times]
            metrics = {"setup_s": (statistics.median(paced), "s"), **metrics}
            report["setup_wall_s"] = statistics.median(s for s, _ in setup_times)
            report["setup_samples"] = setup_times
    finally:
        _cleanup(wl)
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    print("report " + json.dumps(report, default=str))
    for name, (value, unit) in metrics.items():
        print(f"  {wl.name:9s} {name:45s} {value:14.6g} {unit}")
    result = {
        "correct": all(r["wrong"] is None for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args) -> None:
    """Every workload in its own fresh process; prints one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900, check=False)
        if proc.returncode != 0:
            fail(f"{name} failed: {proc.stderr.strip()[-2000:]}")
        rows.append((name, *parse_output(proc.stdout)))
    print(f"seed {args.seed}, {args.seconds} s per workload, trace {args.trace}")
    for name, report, result in rows:
        print(f"{name}: {result['attempted']} items, {result['failed']} failed, correct={result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:45s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'fail_ratio':45s} {report['fail_ratio']:14.6g} of {report['fail_base']} items")
        if report.get("item_p90_paced_ms") is not None:
            print(f"  {'item_p90_paced_ms':45s} {report['item_p90_paced_ms']:14.6g} ms over {report['items']} items")
        elif not args.trace:
            print(f"  {'item_p90_paced_ms':45s} {'-':>14s} (fewer than 100 items)")
        if not args.trace:
            for key, unit in (("goodput_per_s", "1/s"), ("item_p50_ms", "ms"), ("setup_wall_s", "s")):
                print(f"  {key + ' (wall)':45s} {report[key]:14.6g} {unit}")
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({name: {"report": rep, "result": res} for name, rep, res in rows}, indent=1) + "\n"
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, each in a fresh process")
    ap.add_argument("--items", type=int, default=0, help="stop after this many items (smoke runs)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # set iteration order feeds FinPoset.from_relation: pin it, in a fresh process
        os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    OUT.mkdir(exist_ok=True)
    if args.all:
        run_all(args)
        return
    if args.workload not in WORKLOAD_NAMES:
        fail(f"--workload must be one of {', '.join(WORKLOAD_NAMES)}")
    if args.setup_probe:
        setup_probe(args.workload)
        return
    run_workload(args)


if __name__ == "__main__":
    main()
