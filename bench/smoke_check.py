"""Fast smoke test of the benchmark harness: one item per workload.

    python3 bench/smoke_check.py            # or: python3 -m pytest bench/smoke_check.py

Checks that an untraced run prints every end-to-end metric of
BENCHMARK.json with its unit, that a traced run prints every per-layer
metric with its unit, and that two traced runs count exactly the same.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import BENCH, ROOT, parse_output  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def _run(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--items", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return parse_output(proc.stdout)


def _assert_metrics(result: dict, wanted: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 1 and result["failed"] in (0, 1)
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"missing metric {m['name']}"
        assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}, expected {m['unit']}"
        assert isinstance(got["value"], (int, float))
    assert len(result["metrics"]) == len(wanted)


def test_end_to_end_metrics():
    for w in SPEC["workloads"]:
        _, result = _run(w["name"], 0)
        _assert_metrics(result, SPEC["end_to_end"])


def test_traced_counters_repeat():
    for w in SPEC["workloads"]:
        first, result = _run(w["name"], 1)
        _assert_metrics(result, SPEC["per_layer"])
        second, _ = _run(w["name"], 1)
        assert first["counters"] == second["counters"], f"{w['name']}: traced counts differ between runs"


if __name__ == "__main__":
    test_end_to_end_metrics()
    test_traced_counters_repeat()
    print("smoke check passed")
