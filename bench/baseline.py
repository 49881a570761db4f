#!/usr/bin/env python3
"""Run bench/run.py over several seeds and record the figures as JSON.

    python3 bench/baseline.py --out FILE

For each workload: one end-to-end run per seed in SEEDS, then one traced run at
seed 42, each as long as BENCHMARK.json's run_seconds.  FILE gets every
run's metrics plus, per end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median:
the spread that each metric's bound in BENCHMARK.json is compared with.
Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
TRACE_SEED = 42  # the pinned protocol seed, where the digests are checked too


def commit() -> str:
    """The checked-out commit, or "" outside a git repository."""
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip()


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False}
    if out.returncode != 0 or not result["correct"]:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    print(f"{workload} seed {seed} trace {trace}: attempted {result['attempted']} "
          f"failed {result['failed']}", flush=True)
    result["machine"] = json.loads(lines[0].split(":", 1)[1])
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    doc: dict = {"commit": commit(), "seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for name in (w["name"] for w in declared["workloads"]):
        runs = {s: bench(name, s, seconds, 0) for s in SEEDS}
        doc["machine"] = runs[SEEDS[0]]["machine"]
        metrics = sorted(runs[SEEDS[0]]["metrics"])
        doc["workloads"][name] = {
            "end_to_end": {
                m: {**spread([runs[s]["metrics"][m]["value"] for s in SEEDS]),
                    "unit": runs[SEEDS[0]]["metrics"][m]["unit"],
                    "values": [runs[s]["metrics"][m]["value"] for s in SEEDS]}
                for m in metrics},
            "error_share": sum(r["failed"] for r in runs.values())
            / sum(r["attempted"] for r in runs.values()),
            "per_layer": {"seed": TRACE_SEED, "metrics": {
                k: v["value"] for k, v in
                bench(name, TRACE_SEED, seconds, 1)["metrics"].items()}},
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
