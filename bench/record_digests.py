"""Record output digests of the verdict, ext and circle workloads.

    python3 bench/record_digests.py --seeds 0 1 2

Run this only on a commit whose outputs are the reference: the benchmark
then checks later outputs against bench/digests.json byte for byte.  An
item is recorded only when it finishes and passes its other checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent

if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, "PYTHONHASHSEED": "0"})

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

# rounds per seed: more than a 20-second run reaches at the reference commit
ROUNDS = {"verdict": 10, "ext": 5, "circle": 1}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(ROUNDS))
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(12)))
    args = ap.parse_args()
    path = BENCH / "digests.json"
    sl = run.import_stokeslib()
    from workloads import digest

    run.OUT.mkdir(exist_ok=True)
    table = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workloads:
        wl = run.make_workload(name, sl)
        wl.digests = {}  # record, do not compare
        wl.setup()
        seeds = args.seeds if name != "circle" else [0]  # the circle corpus does not depend on the seed
        rounds = ROUNDS[name]
        recorded = table.setdefault(name, {})
        for seed in seeds:
            for r in range(rounds):
                records = run.run_items(wl, wl.round(seed, r))
                run.check_records(wl, records)
                for rec in records:
                    if rec["ok"]:
                        recorded[rec["item"].ident] = digest(wl.digest_text(rec["out"]))
            print(f"{name} seed {seed}: {len(recorded)} digests", flush=True)
            path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        run._cleanup(wl)


if __name__ == "__main__":
    main()
