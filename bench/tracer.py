"""Run one `formlab` CLI command with spans around each layer's public calls.

Usage: python3 bench/tracer.py TRACE_JSON -- <formlab CLI arguments>

The program is not modified: before the command runs, each traced
function is replaced by a timing wrapper at every place its name is bound
(the defining module, every module that imported it by name, and the
class for methods).  Each span is added to running sums per span name
(calls, total and self nanoseconds), so memory grows with the number of
names, not of spans.  The sums stay in memory and are written once, when
the command returns: TRACE_JSON then holds the per-layer self times, call
counts and counters.

A layer's self time is its spans' duration minus the part covered by
child spans.  Counting work done by the wrappers themselves is recorded
as `trace.count` child spans, so no layer is charged for it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

import formlab
import formlab.cli
from formlab import chatelet, chowla_bh, forms, harness, normforms, polys, sieve
from formlab.errors import ResourceLimitError

_COUNT = "trace.count"


class Recorder:
    """Running sums per span name, plus the counters the wrappers keep."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        # one [name, nanoseconds spent in child spans] per open span
        self.stack: list[list] = []
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def open(self, name: str) -> None:
        self.stack.append([name, 0])

    def close(self, dur: int) -> None:
        name, child = self.stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def spans(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        return {n: {"calls": c, "total_s": self.total_ns[n] / 1e9, "self_s": self.self_ns[n] / 1e9}
                for n, c in self.calls.items()}


REC = Recorder()


# -- counters; each is called as counter(result, *args, **kwargs) --------

def _lookups(prefix: str):
    def count(result, table, values, *rest, **kw):
        arr = np.abs(np.asarray(values, dtype=np.int64))
        REC.add(f"{prefix}_values", int(arr.size))
        REC.add(f"{prefix}_beyond", int(np.count_nonzero(arr > table.bound)))
    return count


def _distinct(prefix: str, key):
    def count(result, *args, **kw):
        REC.see(prefix, key(*args, **kw))
    return count


def _draws(result, cube, seed, k, *rest, **kw):
    REC.add("chowla_bh.draws_scanned", result + 1)
    REC.add("chowla_bh.draws_accepted", k + 1)


def _real(result, *args, **kw):
    REC.add("chatelet.real_undecided", result is None)


def _padic(result, *args, **kw):
    REC.add("chatelet.padic_unknown", result.kind == "unknown")


def _point(result, *args, **kw):
    REC.add("chatelet.point_found", result is not None)


def _lazy(attr: str):
    """Span only the call that builds a cached table, not later reads."""
    return lambda table, *args, **kw: getattr(table, attr, None) is None


# (span name, owner: module or class, attribute, counter, when)
TRACED = [
    ("sieve.build", sieve, "build_sieve", None, None),
    ("sieve.build", sieve.SieveTable, "mangoldt_table", None, _lazy("_mangoldt_table")),
    ("sieve.build", sieve.SieveTable, "liouville_table", None, _lazy("_liouville_table")),
    ("sieve.mangoldt", sieve.SieveTable, "mangoldt_values", _lookups("sieve.mangoldt"), None),
    ("sieve.liouville", sieve.SieveTable, "liouville_values", _lookups("sieve.liouville"), None),
    ("forms.cube_sample", forms.CombinatorialCube, "sample", None, None),
    ("forms.extremes", forms, "extremes", None, None),
    ("forms.zero_count_mod", forms, "zero_count_mod", None, None),
    ("forms.zero_count_bound_check", forms, "zero_count_bound_check", None, None),
    ("forms.gcd_bound_check", forms, "gcd_bound_check", None, None),
    ("polys.factor_shape_mod_p", polys, "factor_shape_mod_p",
     _distinct("polys.factor_shape_mod_p", lambda f, p: (tuple(f), p)), None),
    ("chowla_bh.chowla_statistic", chowla_bh, "chowla_statistic", None, None),
    ("chowla_bh.bh_correlation", chowla_bh, "bh_correlation", None, None),
    ("chowla_bh.singular_series", chowla_bh, "singular_series", None, None),
    ("chowla_bh.accepted_draw_index", chowla_bh, "accepted_draw_index", _draws, None),
    ("normforms.splitting_type", normforms, "splitting_type",
     _distinct("normforms.splitting_type", lambda field, p: (field, p)), None),
    ("normforms.region_histogram", normforms.RegionB, "histogram", None, None),
    ("normforms.profile_draw", normforms.DensityProfile, "draw", None, None),
    ("normforms.aggregate", normforms.DensityProfile, "aggregate", None, None),
    ("normforms.gamma_many", normforms, "gamma_many", None, None),
    ("chatelet.real_solvable", chatelet, "real_solvable", _real, None),
    ("chatelet.padic_solvable", chatelet, "padic_solvable", _padic, None),
    ("chatelet.sigma_pp", chatelet, "sigma_pp", None, None),
    ("chatelet.sigma_mod", chatelet, "sigma_mod", None, None),
    ("chatelet.search_rational_point", chatelet, "search_rational_point", _point, None),
    ("chatelet.count_Nc", chatelet, "count_Nc", None, None),
    ("chatelet.localized_Nc", chatelet, "localized_Nc", None, None),
    ("harness.write", harness, "run", None, None),
    ("harness.summarize", harness, "summarize", None, None),
    ("harness.records", harness, "compute_records", None, None),
]


def _wrap(name: str, fn, counter, when):
    clock = time.perf_counter_ns

    def traced(*args, **kw):
        if when is not None and not when(*args, **kw):
            return fn(*args, **kw)
        REC.open(name)
        t0 = clock()
        try:
            result = fn(*args, **kw)
        except ResourceLimitError:
            REC.add(f"{name}.raised")
            raise
        finally:
            t1 = clock()
            REC.close(t1 - t0)
        if counter is not None:
            REC.open(_COUNT)
            counter(result, *args, **kw)
            REC.close(clock() - t1)
        return result

    return functools.wraps(fn)(traced)


def install() -> tuple[int, list[str]]:
    """Wrap every TRACED function wherever it is bound.

    Returns the number of bindings replaced and the TRACED functions the
    program no longer has; their layers read 0.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "formlab" or n.startswith("formlab.")) and m is not None]
    bound = 0
    missing = []
    for name, owner, attr, counter, when in TRACED:
        raw = owner.__dict__.get(attr)
        if raw is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(_wrap(name, raw.__func__, counter, when)))
            bound += 1
            continue
        wrapped = _wrap(name, raw, counter, when)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            bound += 1
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapped)
                    bound += 1
    return bound, missing


def _share(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict[str, dict]) -> dict[str, float]:
    """Per-layer figures named as in BENCHMARK.json (harness counts aside)."""
    c = REC.counters
    out: dict[str, float] = {}
    for name, _, _, _, _ in TRACED:
        out[f"{name}_s"] = spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    for prefix in ("sieve.mangoldt", "sieve.liouville"):
        out[f"{prefix}_values"] = c.get(f"{prefix}_values", 0)
        out[f"{prefix}_beyond_share"] = _share(c.get(f"{prefix}_beyond", 0),
                                               c.get(f"{prefix}_values", 0))
    for name in ("forms.cube_sample", "forms.zero_count_mod", "polys.factor_shape_mod_p",
                 "normforms.splitting_type", "chatelet.sigma_pp"):
        out[f"{name}_calls"] = calls(name)
    out["chatelet.padic_calls"] = calls("chatelet.padic_solvable")
    for name in ("polys.factor_shape_mod_p", "normforms.splitting_type"):
        out[f"{name}_distinct_share"] = _share(len(REC.distinct.get(name, ())), calls(name))
    out["chowla_bh.draws_scanned"] = c.get("chowla_bh.draws_scanned", 0)
    out["chowla_bh.accept_ratio"] = _share(c.get("chowla_bh.draws_accepted", 0),
                                           c.get("chowla_bh.draws_scanned", 0))
    cache_info = getattr(normforms.norm_residue_counts, "cache_info", None)
    hits, misses = cache_info()[:2] if cache_info else (0, 0)
    out["normforms.norm_residue_counts_hit_share"] = _share(hits, hits + misses)
    out["chatelet.real_undecided_share"] = _share(c.get("chatelet.real_undecided", 0),
                                                  calls("chatelet.real_solvable"))
    out["chatelet.padic_unknown_share"] = _share(
        c.get("chatelet.padic_unknown", 0) + c.get("chatelet.padic_solvable.raised", 0),
        calls("chatelet.padic_solvable"))
    out["chatelet.point_found_share"] = _share(c.get("chatelet.point_found", 0),
                                               calls("chatelet.search_rational_point"))
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <formlab arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    bindings, missing = install()
    t0 = time.perf_counter()
    code = formlab.cli.main(cli_args)
    wall = time.perf_counter() - t0
    spans = REC.spans()
    with open(out_path, "w") as fh:
        json.dump({
            "exit_code": code,
            "wall_s": wall,
            "bindings": bindings,
            "missing": missing,
            "span_count": sum(REC.calls.values()),
            "formlab_file": formlab.__file__,
            "spans": spans,
            "metrics": layer_metrics(spans),
        }, fh, sort_keys=True, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
