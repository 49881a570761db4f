#!/usr/bin/env python3
"""formlab benchmark: timed runs of the public CLI, one workload at a time.

    python3 bench/run.py --workload {bh,hasse,chowla,verify,all}
                         [--seed 42] [--seconds 32] [--trace 0|1]

Run from the root of a formlab checkout; the program is imported from its
`src/` directory.  Every CLI command runs in a fresh process, one at a
time (a closed loop with one caller), with BLAS/OpenMP threads pinned to
1; the only parallelism is the program's own pool at `--workers 2`.

--trace 0 measures the end-to-end metrics in rounds of three set-ups, one
`--workers 1` and one `--workers 2` run, while another round fits in
`--seconds`.  Round i runs its pair at seed `--seed` + 1000 i, so that a
run's median covers several inputs and not one draw of forms.
--trace 1 measures the per-layer metrics: one untraced and two traced runs
at `--workers 1`, then more pairs while one fits (bench/tracer.py wraps
each layer's public functions).

Every run is checked: exit code 0, `results.jsonl` equal to the pinned
SHA-256 where one is pinned, byte-identical across worker counts and
between traced and untraced runs, and traced counts identical between
traced runs.  Human-readable lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The exit code is 1 when a check fails and 2 when the run
cannot start (no `src/formlab` next to the benchmark, bad arguments, or
FORMLAB_THREADS capping workers below 2).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 42
# set-ups per round; spread over the run, they sample the machine's slow and fast spells
SETUPS_PER_ROUND = 3
# pair i of an end-to-end run uses seed + PAIR_SEED_STEP * i
PAIR_SEED_STEP = 1000
# one CLI command may take this long before the run is abandoned
COMMAND_LIMIT_S = 150.0
# The CLI entry of an untraced command, run as `python -c ENTRY RSS_FILE <CLI args>`.
# RSS_FILE gets the command's peak RSS in KiB: the larger of the process's own
# high-water mark (VmHWM, reset by exec) and that of its reaped pool workers.
# wait4 on the command would not do: a forked child inherits the forking
# process's high-water mark, so it would count the benchmark's own memory.
ENTRY = """import resource, sys
from formlab.cli import main
code = main(sys.argv[2:])
with open('/proc/self/status') as fh:
    hwm = next(int(ln.split()[1]) for ln in fh if ln.startswith('VmHWM:'))
with open(sys.argv[1], 'w') as fh:
    fh.write(str(max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)))
sys.exit(code)
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    # SHA-256 of results.jsonl at DEFAULT_SEED (at every seed when seed_free)
    digest: str
    # records a run must write; None when the battery decides (verify)
    records: Optional[int]
    seed_free: bool = False


WORKLOADS = {
    # C11 protocol (d=2, H=500, c=0.05, x=300, r=1) cut to 10 of its 50 samples, so
    # that several pairs fit in a run; at seed 42 these are the protocol's first 10 records
    "bh": Workload(("bh", "--samples", "10"),
                   "55bdbc84bcd2e6d70fb0a12177152568fad52c7a8bf63290605abb6a5eab643d", 10),
    # C13 protocol (gaussian, d=2, H=20, height=200, primes=50) cut to 100 of its 400
    # samples; at seed 42 these are the protocol's first 100 records
    "hasse": Workload(("hasse", "--samples", "100"),
                      "137e1703298b4cb443ff53b7c95aa19db1d0084ca124a324734f2487f3c3d966", 100),
    # C10 config (d=3, H=1000, c=0.08) scaled to 10,000 samples
    "chowla": Workload(("chowla", "--samples", "10000"),
                       "9acbeba805b129eb83a7d638c004a86b7a32665d166205b1efaf229bbed21aec", 10000),
    # the self-check battery; its checks use fixed internal seeds
    "verify": Workload(("verify", "--suite", "all"),
                       "1eab62ffc8265987ff5c9dd5390f390f867432de39ca94593f512c68d411daf2", None,
                       seed_free=True),
}


class CheckFailed(Exception):
    """A program output that is wrong; the run reports correct=false."""


@dataclass
class Run:
    wall_s: float
    rss_mb: Optional[float]  # untraced runs only
    digest: str
    size: int
    records: int
    errors: int
    trace: Optional[dict] = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def timed(cmd: list[str], err_path: Path) -> tuple[float, int]:
    """Wall seconds and exit code."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        # own session, so a kill reaches the pool workers too
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # already gone
                pass

        guard = threading.Timer(COMMAND_LIMIT_S, kill)
        guard.start()
        try:
            code = proc.wait()
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            guard.cancel()
        wall = time.perf_counter() - t0
    return wall, code


class Bench:
    def __init__(self, name: str, seed: int, scratch: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.scratch = scratch
        self.count = 0
        self.attempted = 0
        self.failed = 0
        # results.jsonl digest of the first run at each seed
        self.reference: dict[int, str] = {}

    def _dir(self) -> Path:
        self.count += 1
        path = self.scratch / f"{self.name}-{self.count}"
        path.mkdir()
        return path

    def cli_args(self, workers: int, seed: int) -> list[str]:
        return [*self.wl.args, "--seed", str(seed), "--workers", str(workers)]

    def setup(self) -> float:
        """Fresh-process import plus the same command with no samples."""
        if self.name == "verify":  # no shared state: set-up is the import
            cmd = [sys.executable, "-c", "import formlab.cli"]
        else:
            cmd = [sys.executable, "-c", ENTRY, str(self.scratch / "setup.rss"),
                   *self.cli_args(1, self.seed), "--samples", "0",
                   "--out", str(self._dir())]
        wall, code = timed(cmd, self.scratch / "setup.err")
        if code != 0:
            raise CheckFailed(f"set-up command exited {code}: {self._stderr('setup.err')}")
        return wall

    def _stderr(self, name: str) -> str:
        return (self.scratch / name).read_text(errors="replace").strip()[-2000:]

    def run(self, workers: int, seed: int, traced: bool = False) -> Run:
        out = self._dir()
        args = [*self.cli_args(workers, seed), "--out", str(out)]
        trace_path = out.parent / f"{out.name}.trace.json"
        rss_path = out.parent / f"{out.name}.rss"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--", *args]
        else:
            cmd = [sys.executable, "-c", ENTRY, str(rss_path), *args]
        err = f"{out.name}.err"
        wall, code = timed(cmd, self.scratch / err)
        rss = int(rss_path.read_text()) / 1024.0 if rss_path.exists() else None
        what = f"{' '.join(args[:-2])}{' (traced)' if traced else ''}"
        data = (out / "results.jsonl").read_bytes() if (out / "results.jsonl").exists() else b""
        try:
            recs = [json.loads(line) for line in data.splitlines()]
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{what} exited {code} with malformed results.jsonl: {exc}") from None
        errors = sum(1 for r in recs if r.get("record") == "error" or r.get("ok") is False)
        run = Run(wall, rss, hashlib.sha256(data).hexdigest(), len(data), len(recs), errors)
        self.attempted += len(recs)
        self.failed += errors
        if code != 0:
            raise CheckFailed(f"{what} exited {code}: {self._stderr(err)}")
        if self.wl.records is not None and len(recs) != self.wl.records:
            raise CheckFailed(f"{what} wrote {len(recs)} records, expected {self.wl.records}")
        if (seed == DEFAULT_SEED or self.wl.seed_free) and run.digest != self.wl.digest:
            raise CheckFailed(f"{what}: results.jsonl sha256 {run.digest} != pinned {self.wl.digest}")
        if self.reference.setdefault(seed, run.digest) != run.digest:
            raise CheckFailed(f"{what}: results.jsonl differs from the first run of this seed")
        if traced:
            run.trace = json.loads(trace_path.read_text())
            if Path(run.trace["formlab_file"]).resolve().parent != SRC / "formlab":
                raise CheckFailed(f"traced run imported {run.trace['formlab_file']}, not {SRC}")
        shutil.rmtree(out)
        return run


# -- reporting -----------------------------------------------------------

def tail(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f} s of {' '.join(f'{v:.3f}' for v in values)}"
    if n < 11:
        return text + " (no percentile has 10 samples beyond it)"
    pct = int(100 * (1 - 10 / n))
    return text + f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f} s"


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy")}


def fits(start: float, seconds: float, last: float) -> bool:
    """Whether one more round, timed like the last one, ends within the run."""
    return time.perf_counter() - start + last <= seconds


def end_to_end(b: Bench, seconds: float) -> dict:
    start = time.perf_counter()
    setups: list[float] = []
    w1: list[Run] = []
    w2: list[Run] = []
    last = 0.0
    while not w1 or fits(start, seconds, last):
        t0 = time.perf_counter()
        setups += [b.setup() for _ in range(SETUPS_PER_ROUND)]
        seed = b.seed + PAIR_SEED_STEP * len(w1)
        w1.append(b.run(1, seed))
        w2.append(b.run(2, seed))
        last = time.perf_counter() - t0
    print(f"setup_s      median {statistics.median(setups):.4f} s, n={len(setups)}")
    print(f"run_s        {tail([r.wall_s for r in w1])}")
    print(f"run_w2_s     {tail([r.wall_s for r in w2])}")
    print(f"peak_rss_mb  median {statistics.median(r.rss_mb for r in w1):.1f} MB at workers 1")
    return {
        "run_s": statistics.median(r.wall_s for r in w1),
        "run_w2_s": statistics.median(r.wall_s for r in w2),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in w1),
    }


def per_layer(b: Bench, seconds: float) -> dict:
    start = time.perf_counter()
    plain = [b.run(1, b.seed)]
    traced = [b.run(1, b.seed, traced=True), b.run(1, b.seed, traced=True)]
    while fits(start, seconds, plain[-1].wall_s + traced[-1].wall_s):
        plain.append(b.run(1, b.seed))
        traced.append(b.run(1, b.seed, traced=True))
    first = traced[0].trace["metrics"]
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    for r in traced[1:]:
        again = {k: v for k, v in r.trace["metrics"].items() if not k.endswith("_s")}
        if again != counts:
            diff = sorted(k for k in counts if counts[k] != again.get(k))
            raise CheckFailed(f"traced runs disagree on counts: {diff}")
    metrics = {k: statistics.median(r.trace["metrics"][k] for r in traced)
               for k in first if k.endswith("_s")}
    metrics.update(counts)
    r0 = traced[0]
    metrics["harness.records"] = r0.records
    metrics["harness.error_records"] = r0.errors
    metrics["harness.results_bytes"] = r0.size
    overhead = statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain)
    metrics["trace.overhead_ratio"] = overhead
    print(f"traced runs {len(traced)}, untraced {len(plain)}; "
          f"{r0.trace['span_count']} spans per traced run, "
          f"{r0.trace['bindings']} wrapped bindings; overhead x{overhead:.3f}")
    if r0.trace["missing"]:
        print(f"not in the program, so reading 0: {', '.join(r0.trace['missing'])}")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload; returns the result object printed as the last line."""
    (ROOT / ".bench_runs").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_runs"))
    b = Bench(name, seed, scratch)
    print(f"workload {name} seed {seed}: formlab {' '.join(b.cli_args(1, seed))}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    correct = True
    metrics: dict = {}
    try:
        metrics = per_layer(b, seconds) if trace else end_to_end(b, seconds)
        if set(units) != set(metrics):
            raise CheckFailed(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
        if trace:
            for k in sorted(metrics):
                print(f"  {k:44s} {metrics[k]:.6g} {units[k]}")
    except CheckFailed as exc:
        correct, metrics = False, {}
        print(f"CHECK FAILED: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".bench_runs").rmdir()
        except OSError:  # another run still uses it
            pass
    share = b.failed / b.attempted if b.attempted else 0.0
    print(f"error_share  {share:.6g} ({b.failed} of {b.attempted} records)")
    return {
        "correct": correct,
        "attempted": max(b.attempted, 1),
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "formlab" / "__init__.py").is_file():
        print(f"no formlab sources at {SRC}; run from a formlab checkout", file=sys.stderr)
        return 2
    if not args.trace:
        cap = os.environ.get("FORMLAB_THREADS", "").strip()
        if cap and not (cap.isdigit() and int(cap) >= 2):
            print(f"FORMLAB_THREADS={cap!r} caps workers below 2; run_w2_s would not be "
                  "a two-worker time", file=sys.stderr)
            return 2
    print("machine: " + json.dumps(machine(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
