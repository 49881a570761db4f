"""Time `harness.run` of acceptance protocols in two source trees, alternately.

Each run is a fresh process that imports formlab from one tree's `src/`
and times one `harness.run` of the protocol at workers 1 or 2:
the imports are outside the timed span, the run's state build (sieve,
draw scan, profiles) and its writing are inside.  The trees alternate
which runs first in each of 10 pairs per protocol and worker count.
Prints one JSON object: per protocol, worker count and tree the run
times, their median and quartiles, and the results.jsonl digest, which
must agree between the trees.

    python tools/time_protocols.py --before OLD/src --after NEW/src --protocol c11
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

# the C10, C11 and C13 settings of tests/test_acceptance.py::_PROTOCOLS,
# and the whole verify battery (one process at any worker count)
PROTOCOLS = {
    "c10": ("chowla", {}),
    "c11": ("bh", {}),
    "c13": ("hasse", {}),
    "verify": ("verify", {}),
}
PAIRS = 10
WORKERS = (1, 2)

_CHILD = """
import json, sys, time
from formlab import harness
kind, settings = json.loads(sys.argv[1])
cfg = harness.make_config(kind, settings)
t0 = time.perf_counter()
man = harness.run(cfg)
print(json.dumps({"run_s": time.perf_counter() - t0, "sha256": man.files["results.jsonl"]}))
"""


def _one(src: str, protocol: str, workers: int, out: str) -> dict:
    kind, settings = PROTOCOLS[protocol]
    arg = json.dumps([kind, {**settings, "workers": workers, "out": out}])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _CHILD, arg], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(runs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True, help="src/ directory of the earlier tree")
    ap.add_argument("--after", required=True, help="src/ directory of the later tree")
    ap.add_argument("--protocol", nargs="+", default=["c11"], choices=sorted(PROTOCOLS))
    args = ap.parse_args(argv)
    trees = {"before": os.path.abspath(args.before), "after": os.path.abspath(args.after)}
    report: dict = {"pairs": PAIRS, "python": sys.version.split()[0],
                    "nproc": os.cpu_count(), "results": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for protocol in args.protocol:
            for w in WORKERS:
                times: dict = {"before": [], "after": []}
                digests = set()
                order = []
                for pair in range(PAIRS):
                    sides = ("before", "after") if pair % 2 == 0 else ("after", "before")
                    order.append(sides[0])
                    for side in sides:
                        res = _one(trees[side], protocol, w, os.path.join(tmp, f"{side}{pair}"))
                        times[side].append(res["run_s"])
                        digests.add(res["sha256"])
                lower = sum(a < b for a, b in zip(times["after"], times["before"]))
                report["results"][f"{protocol}_w{w}"] = {
                    "first_in_pair": order,
                    "before": _stats(times["before"]),
                    "after": _stats(times["after"]),
                    "after_lower_in_pairs": f"{lower}/{PAIRS}",
                    "results_sha256": sorted(digests),
                }
                print(f"{protocol} w{w}: before {_stats(times['before'])['median']} s, "
                      f"after {_stats(times['after'])['median']} s, after lower in "
                      f"{lower}/{PAIRS}", file=sys.stderr)
    print(json.dumps(report, indent=1))
    return 0 if all(len(r["results_sha256"]) == 1 for r in report["results"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
