"""Experiment configuration, the parallel runner, persistence, and checks.

Each experiment kind is one `Protocol` in `PROTOCOLS`: the config fields
it reads with their defaults, its validation, its shared state, its
records for a block of indices, its summary rows, its CLI help and what
its CLI run prints.  Config coercion, the CLI flags and the summaries are
derived from that registry.

Every sample record is a pure function of (config, index).  Records are
computed in contiguous blocks of indices, in this process or in a pool,
and the single writer emits canonical JSON in index order, so the result
byte stream is identical for any worker count and any scheduling.  Heavy
shared state (sieve table, region histogram, the MC profile, the accepted
draws) is built once in the parent before the pool forks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing as mp
import os
import tempfile
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, arith, chatelet, chowla_bh, forms, normforms
from . import sieve as sieve_mod
from .errors import ConfigError, RecordError, ResourceLimitError
from .forms import BinaryForm, CombinatorialCube
from .normforms import DensityProfile, RegionB, field_presets
from .rng import philox

SUITES = ("all", "lemmas", "oracle")
# config fields every kind reads; each is a flag on every experiment subcommand
COMMON_FIELDS = ("seed", "out", "workers")

# bh/chowla share one smallest-prime-factor table per process; values beyond
# it take the slower scalar or probable-prime paths, so this caps memory only
_SIEVE_CAP = 2 * 10**6
# draws a rejection scan examines before the samples still unmet record an error
_SCAN_LIMIT = 10**5
# draws a rejection scan takes from one sample_rows call
_SCAN_CHUNK = 1000
# the most pool workers a run may ask for; a pool forks all of them at once
MAX_WORKERS = 64
# the most Monte-Carlo points (mc) a run may draw; the profile holds two float64 copies
_MC_POINTS = 10**7
# draws hensel-density-floor may take to certify its 8 instances (seed 11 takes 12)
_HENSEL_DRAWS = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    field: str = "gaussian"
    d: int = 2
    H: int = 100
    c: float = 0.05
    x: int = 300
    r: int = 1
    samples: int = 50
    seed: int = 42
    height: int = 200
    primes: int = 100
    w_desk: int = chatelet.DESK_W
    k_desk: int = chatelet.DESK_K
    m_dk: int = chatelet.DESK_M
    B: float = 12.0
    mc: int = 100000
    grid: int = 16
    min_series: float = 0.2
    anchor: bool = False
    bins: int = 40
    suite: str = "all"
    out: str = "runs"
    workers: int = 1

    def validate(self) -> None:
        protocol = PROTOCOLS.get(self.kind)
        if protocol is None:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.samples < 0:
            raise ConfigError("samples must be nonnegative")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must be between 1 and {MAX_WORKERS}")
        if self.d < 1 or self.H < 1:
            raise ConfigError("d and H must be positive")
        if self.H > 2**63 - 2:
            # the cube draws integers(-H, H + 1) as int64
            raise ConfigError("H must be at most 2^63 - 2")
        protocol.validate(self)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def sha256(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


FIELD_TYPES: dict[str, type] = typing.get_type_hints(ExperimentConfig)


def _coerce(key: str, value) -> object:
    typ = FIELD_TYPES[key]
    if typ is bool:
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {key}={value!r}")
    try:
        return typ(value)
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {key}={value!r}") from None


def make_config(kind: str, settings: Optional[dict] = None) -> ExperimentConfig:
    """Config for `kind` with the protocol's defaults under the explicit settings."""
    protocol = PROTOCOLS.get(kind)
    if protocol is None:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    merged: dict = dict(protocol.defaults)
    for key, value in (settings or {}).items():
        if key == "kind":
            continue
        if key not in FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, value)
    cfg = ExperimentConfig(kind=kind, **merged)
    cfg.validate()
    return cfg


def parse_config_file(path: str | Path) -> dict:
    """key=value lines (# comments, blank lines ignored) into a mapping."""
    mapping: dict = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip().strip('"')
    return mapping


# ---------------------------------------------------------------------------
# The experiment kinds.  Records hold plain JSON types only; `statistic`
# and `H` feed the generic summary, kind-specific fields carry the science.

def _error_record(cfg: ExperimentConfig, i: int, error: str) -> dict:
    # budget overruns are data, not crashes
    return {"record": "error", "index": i, "error": error, "statistic": None, "H": cfg.H}


def _scan(cube: CombinatorialCube, seed: int):
    """(index, coefficients) of the draws below _SCAN_LIMIT, in sample_rows chunks."""
    for lo in range(0, _SCAN_LIMIT, _SCAN_CHUNK):
        idx = range(lo, min(lo + _SCAN_CHUNK, _SCAN_LIMIT))
        yield from zip(idx, cube.sample_rows(seed, idx).tolist())


def _accepted_draws(cfg: ExperimentConfig, cube: CombinatorialCube, n: int,
                    predicate: Callable[[BinaryForm], bool]
                    ) -> tuple[list[tuple[int, BinaryForm]], str]:
    """The first n (draw index, form) pairs whose forms pass `predicate`, and the
    error of the samples past them: the scan stops at _SCAN_LIMIT draws or a budget error."""
    found: list[tuple[int, BinaryForm]] = []
    for idx, coeffs in _scan(cube, cfg.seed) if n else ():  # no samples draw no chunk
        if len(found) == n:
            break
        try:
            form = BinaryForm(coeffs)
            if predicate(form):
                found.append((idx, form))
        except ResourceLimitError as exc:
            return found, str(exc)
        except Exception as exc:
            raise RecordError(f"{cfg.kind} draw {idx}: {type(exc).__name__}: {exc}") from exc
    return found, "rejection sampling exhausted its scan budget"


def _drawn(state: dict, lo: int, hi: int) -> list[tuple[int, BinaryForm]]:
    draws, error = state["draws"]  # the run's accepted (index, form) pairs, then its scan error
    if hi > len(draws):
        raise ResourceLimitError(error)
    return draws[lo:hi]


def _check_scale_exponent(cfg: ExperimentConfig) -> None:
    cap = chowla_bh.exponent_cap(cfg.d)
    if not 0 < cfg.c < cap:
        raise ConfigError(
            f"scale exponent c={cfg.c} outside (0, {cap:.6f}) for degree {cfg.d}"
        )


def _validate_chowla(cfg: ExperimentConfig) -> None:
    _check_scale_exponent(cfg)
    if cfg.H < 3:
        raise ConfigError("H must be at least 3")
    if cfg.grid < 1:
        raise ConfigError("grid must be at least 1")


def _chowla_state(cfg: ExperimentConfig) -> dict:
    # the window first, so one over its budget costs no sieve
    top = chowla_bh.chowla_window(cfg.H, cfg.c, cfg.grid).top
    need = (cfg.d + 1) * cfg.H * top**cfg.d
    return {
        "cube": CombinatorialCube(degree=cfg.d, side=cfg.H),
        "sieve": sieve_mod.build_sieve(min(_SIEVE_CAP, max(10**4, need))),
    }


def _chowla_records(cfg: ExperimentConfig, state: dict, block: range) -> list[dict]:
    rows = state["cube"].sample_rows(cfg.seed, block)
    res = chowla_bh.chowla_block(rows, cfg.H, cfg.c, state["sieve"], cfg.grid)
    window = [res.grid[0], res.grid[-1]]
    out = []
    for i, coeffs, stat, over in zip(block, rows.tolist(), res.statistic.tolist(),
                                     res.overflow.tolist()):
        if over:
            out.append(_error_record(cfg, i, chowla_bh.OVERFLOW))
        else:
            out.append({"record": "sample", "index": i, "coeffs": coeffs,
                        "statistic": stat, "window": window, "H": cfg.H})
    return out


def _chowla_summary(records: list[dict]) -> list[tuple]:
    stats = [r["statistic"] for r in records if r.get("statistic") is not None]
    if not stats:
        return []
    return [("median_statistic", _fmt(float(np.median(stats))))]


def _validate_bh(cfg: ExperimentConfig) -> None:
    _check_scale_exponent(cfg)
    if cfg.x < 3:
        raise ConfigError("x must be at least 3")
    if cfg.r < 1:
        raise ConfigError("r must be at least 1")
    if not 0 <= cfg.min_series:
        raise ConfigError("min_series must be nonnegative")
    if cfg.d > 3 and not cfg.anchor:
        raise ConfigError("bh samples need d <= 3: irreducibility is tested up to degree 3")


def _bh_state(cfg: ExperimentConfig) -> dict:
    ms = Fraction(str(cfg.min_series))
    n = 0 if cfg.anchor else cfg.r * cfg.samples
    draws = _accepted_draws(cfg, CombinatorialCube(degree=cfg.d, side=cfg.H), n,
                            lambda g: chowla_bh.bh_admissible(g, cfg.x, ms))
    return {"sieve": sieve_mod.build_sieve(_SIEVE_CAP), "draws": draws}


def _bh_record(cfg: ExperimentConfig, state: dict, k: int) -> dict:
    if cfg.anchor:
        idxs, gs = [], [BinaryForm([1, 0])]
    else:
        idxs, gs = map(list, zip(*_drawn(state, cfg.r * k, cfg.r * (k + 1))))
    res = chowla_bh.bh_correlation(gs, cfg.x, state["sieve"])
    series = float(res.series)
    return {
        "record": "anchor" if cfg.anchor else "sample",
        "index": k,
        "draws": idxs,
        "coeffs": [list(g.coeffs) for g in gs],
        "series": str(res.series),
        "series_float": series,
        "C": float(res.correlation),
        "C_w": str(res.cramer),
        "C_w_float": float(res.cramer),
        "ratio": res.ratio,
        "ratio_w": res.ratio_w,
        "statistic": abs(res.ratio - 1.0) if res.ratio is not None else None,
        "H": cfg.H,
    }


def _bh_summary(records: list[dict]) -> list[tuple]:
    rows: list[tuple] = []
    for key in ("ratio", "ratio_w"):
        ratios = [r[key] for r in records if r.get(key) is not None]
        if ratios:
            rows.append((f"median_abs_{key}_gap",
                         _fmt(float(np.median([abs(t - 1) for t in ratios])))))
    return rows


# Desk choices of the local-count kinds: the small-prime threshold m_dk
# and the model modulus's prime window w_desk and exponent k_desk.
DESK_FIELDS = ("m_dk", "w_desk", "k_desk")


def desk_fields(kind: str) -> tuple[str, ...]:
    """The desk fields that `kind` reads, in DESK_FIELDS order."""
    return tuple(n for n in DESK_FIELDS if n in PROTOCOLS[kind].fields)


def _validate_local(cfg: ExperimentConfig) -> None:
    """Checks shared by the kinds that count points on N_K(x) = g(u, v)."""
    presets = field_presets()
    if cfg.field not in presets:
        raise ConfigError(f"unknown field preset {cfg.field!r}; have {sorted(presets)}")
    e = presets[cfg.field].degree
    if cfg.d % e != 0:
        raise ConfigError(f"field degree {e} must divide form degree {cfg.d}")
    if cfg.x < 1:
        raise ConfigError("x must be positive")
    desk = desk_fields(cfg.kind)
    if min(getattr(cfg, name) for name in desk) < 1:
        raise ConfigError(f"{', '.join(desk)} must be positive")
    if not 1000 <= cfg.mc <= _MC_POINTS:
        raise ConfigError(f"mc must be between 1000 and {_MC_POINTS}")


def _validate_hasse(cfg: ExperimentConfig) -> None:
    if cfg.height < 1:
        raise ConfigError("height must be at least 1")
    if cfg.primes < 0:
        raise ConfigError("primes must be at least 0")
    _validate_local(cfg)


def _local_state(cfg: ExperimentConfig, B: Optional[float] = None) -> dict:
    """Region, MC profile and model modulus; B defaults to the count's scale."""
    field = field_presets()[cfg.field]
    if B is None:
        probe = chatelet.ChateletInstance(field=field, form=BinaryForm([1] * (cfg.d + 1)))
        B = chatelet.default_B(probe, cfg.x, cfg.H)
    region = RegionB(field.norm, B)
    region.histogram()
    return {
        "field": field,
        "cube": CombinatorialCube(degree=cfg.d, side=cfg.H),
        "region": region,
        "profile": DensityProfile.draw(region, cfg.mc, cfg.seed),
        "W": chatelet.model_W(cfg.w_desk, cfg.k_desk),
    }


def _counts(cfg: ExperimentConfig, state: dict, inst: chatelet.ChateletInstance):
    """(Nc, Nc_hat, Nc_err): the exact count and its localized model."""
    vals = chatelet.value_table(inst, cfg.x)
    nc = chatelet.count_Nc(vals, state["region"])
    est, err = chatelet.localized_Nc(inst.field, vals, state["W"], state["profile"])
    return nc, float(est), float(err)


def _hasse_records(cfg: ExperimentConfig, state: dict, block: range) -> list[dict]:
    rows = state["cube"].sample_rows(cfg.seed, block).tolist()
    return [_hasse_record(cfg, state, i, BinaryForm(row)) for i, row in zip(block, rows)]


def _hasse_record(cfg: ExperimentConfig, state: dict, i: int, form: BinaryForm) -> dict:
    klass, witness, verdicts, obstruction = chatelet.classify_coeffs(
        state["field"], form.coeffs, cfg.H, cfg.height, cfg.primes
    )
    nc = nc_hat = nc_err = sigma = stat = None
    if klass != "not-in-S":
        inst = chatelet.ChateletInstance(field=state["field"], form=form)
        sigma = float(chatelet.sigma_w0(inst, cfg.m_dk, cfg.k_desk))
        nc, nc_hat, nc_err = _counts(cfg, state, inst)
        stat = nc * math.log(cfg.H) ** 2 / cfg.x**2
    if witness is not None:
        x, m, n = witness
        witness = [list(x), m, n]
    return {
        "record": "sample",
        "index": i,
        "coeffs": list(form.coeffs),
        "class": klass,
        "witness": witness,
        "padic": {str(p): v for p, v in verdicts},
        "obstruction": obstruction,
        "Nc": nc,
        "Nc_hat": nc_hat,
        "Nc_err": nc_err,
        "sigma_W0": sigma,
        "statistic": stat,
        "H": cfg.H,
    }


def _hasse_summary(records: list[dict]) -> list[tuple]:
    counts = {k: 0 for k in chatelet._CLASSES}
    violations = 0
    for r in records:
        if r.get("record") != "sample":
            continue
        counts[r["class"]] += 1
        if r["class"] == "rational-point-found" and any(
            v == "no" for v in r["padic"].values()
        ):
            violations += 1
    rows: list[tuple] = [(f"count_{klass}", n) for klass, n in counts.items()]
    found, unknown = counts["rational-point-found"], counts["unknown"]
    ratio = found / (found + unknown) if found + unknown else ""
    rows.append(("ratio_lower_bound", ratio))
    rows.append(("violations", violations))
    return rows


def _validate_density(cfg: ExperimentConfig) -> None:
    _validate_local(cfg)
    if not 1 <= cfg.B < math.inf:
        raise ConfigError("region scale B must be finite and at least 1")
    if cfg.bins < 2:
        raise ConfigError("bins must be at least 2")


def _density_state(cfg: ExperimentConfig) -> dict:
    # with no instances to count, the region scale is the B setting itself
    state = _local_state(cfg, float(cfg.B) if cfg.samples == 0 else None)
    state["draws"] = _accepted_draws(cfg, state["cube"], cfg.samples,
                                     lambda g: g.coeffs[0] * g.coeffs[-1] != 0)
    return state


def _density_record(cfg: ExperimentConfig, state: dict, k: int) -> dict:
    """The k-th instance: its `index` is its accepted draw and its `draw` is the
    sample number k.  An error record for sample k has `index` k."""
    ((idx, form),) = _drawn(state, k, k + 1)
    inst = chatelet.ChateletInstance(field=state["field"], form=form)
    nc, est, err = _counts(cfg, state, inst)
    gap = abs(nc - est)
    return {
        "record": "instance",
        "index": idx,
        "draw": k,
        "coeffs": list(form.coeffs),
        "Nc": nc,
        "Nc_hat": est,
        "Nc_err": err,
        "within": bool(gap <= 3.0 * err),
        "statistic": gap / err if err > 0 else (0.0 if gap == 0 else None),
        "H": cfg.H,
    }


def _density_prefix(cfg: ExperimentConfig, state: dict) -> list[dict]:
    """Bin rows plus the bin-sum-versus-volume integral row."""
    region, profile = state["region"], state["profile"]
    lo, hi = region.support
    h = profile.half_width
    step = (hi - lo + 2 * h) / cfg.bins
    centers = np.linspace(lo - h + step / 2, hi + h - step / 2, cfg.bins)
    rows = []
    for y in centers:
        est, se = profile.estimate(float(y))
        rows.append({"record": "bin", "y": float(y), "omega": est, "se": se,
                     "statistic": None, "H": cfg.H})
    total, tot_se = profile.aggregate(centers, np.full(cfg.bins, step))
    rows.append({
        "record": "integral",
        "sum": float(total),
        "se": float(tot_se),
        "volume": float(region.volume),
        "z": abs(float(total) - region.volume) / float(tot_se) if tot_se > 0 else None,
        "support": [float(lo), float(hi)],
        "statistic": None,
        "H": cfg.H,
    })
    return rows


def _density_summary(records: list[dict]) -> list[tuple]:
    rows: list[tuple] = []
    for r in records:
        if r.get("record") == "integral":
            rows.append(("bin_sum", _fmt(r["sum"])))
            rows.append(("bin_sum_se", _fmt(r["se"])))
            rows.append(("region_volume", _fmt(r["volume"])))
            rows.append(("bin_sum_z", _fmt(r["z"]) if r["z"] is not None else ""))
    inst = [r for r in records if r.get("record") == "instance"]
    if inst:
        rows.append(("instances_within_3se", sum(1 for r in inst if r["within"])))
        rows.append(("instances", len(inst)))
    return rows


def _validate_verify(cfg: ExperimentConfig) -> None:
    if cfg.suite not in SUITES:
        raise ConfigError(f"suite must be one of {SUITES}")


def _verify_prefix(cfg: ExperimentConfig, state: dict) -> list[dict]:
    return [
        {"record": "check", "suite": c.suite, "name": c.name, "ok": c.ok,
         "detail": c.detail, "statistic": None, "H": cfg.H}
        for c in verify_battery(cfg.suite)
    ]


def _verify_summary(records: list[dict]) -> list[tuple]:
    checks = [r for r in records if r.get("record") == "check"]
    return [("checks", len(checks)), ("failed", sum(1 for r in checks if not r["ok"]))]


def _verify_report(cfg: ExperimentConfig, manifest: "RunManifest") -> int:
    """One line per check and the pass count; exit code 3 when any failed."""
    failed = 0
    for line in (Path(manifest.out_dir) / "results.jsonl").read_text().splitlines():
        rec = json.loads(line)
        mark = "ok  " if rec["ok"] else "FAIL"
        print(f"{mark} {rec['suite']}/{rec['name']}: {rec['detail']}")
        failed += 0 if rec["ok"] else 1
    print(f"{manifest.records - failed}/{manifest.records} checks passed")
    return 3 if failed else 0


def _report_paths(cfg: ExperimentConfig, manifest: "RunManifest") -> int:
    """The desk banner, when the kind reads desk fields, and the output files."""
    desk = desk_fields(cfg.kind)
    if desk:
        # desk choices, not derived values
        print(" ".join(f"{name}={getattr(cfg, name)}" for name in desk))
    out = Path(manifest.out_dir)
    print(f"results: {out / 'results.jsonl'} ({manifest.records} records)")
    print(f"summary: {out / 'summary.csv'}")
    print(f"manifest: {out / 'manifest.json'}")
    return 0


# ---------------------------------------------------------------------------
# The registry.

@dataclass(frozen=True)
class Protocol:
    """Everything one experiment kind defines, in one place.

    `fields` are the config fields the kind reads; each is a flag of its
    subcommand, with `flag_help` where the default alone does not explain
    it.  `defaults` override ExperimentConfig's defaults for this kind.
    A run writes the `prefix` rows, then the records of the indices
    i < `count(cfg)`: `records(cfg, state, block)` returns one record per
    index of a contiguous `range` block, in order, each a pure function of
    (cfg, i), so any split into blocks gives the same records.  A hook
    may raise: the runner then recomputes its block one index at a time,
    so a ResourceLimitError becomes that index's error record and any
    other failure a RecordError naming the kind and the index.  `state`
    is `build_state(cfg)`, built once per run.
    `summary` maps the records to the kind's summary.csv rows.  After a
    CLI run, `report(cfg, manifest)` prints to stdout and returns the exit
    code.
    """

    help: str
    fields: tuple[str, ...]
    defaults: dict
    validate: Callable[[ExperimentConfig], None]
    build_state: Callable[[ExperimentConfig], dict]
    records: Callable[[ExperimentConfig, dict, range], list[dict]]
    summary: Callable[[list[dict]], list[tuple]]
    prefix: Callable[[ExperimentConfig, dict], list[dict]] = lambda cfg, state: []
    count: Callable[[ExperimentConfig], int] = lambda cfg: cfg.samples
    report: Callable[[ExperimentConfig, "RunManifest"], int] = _report_paths
    flag_help: dict = dataclasses.field(default_factory=dict)


PROTOCOLS: dict[str, Protocol] = {
    "chowla": Protocol(
        help="sign-correlation sup statistic over sampled forms",
        fields=("d", "H", "c", "samples", "grid"),
        defaults={"d": 3, "H": 1000, "c": 0.08, "samples": 200},
        validate=_validate_chowla,
        build_state=_chowla_state,
        records=_chowla_records,
        summary=_chowla_summary,
    ),
    "bh": Protocol(
        help="prime-density correlations against the local product",
        fields=("d", "H", "c", "x", "r", "samples", "min_series", "anchor"),
        defaults={"d": 2, "H": 500, "c": 0.05, "x": 300, "r": 1, "samples": 50},
        validate=_validate_bh,
        build_state=_bh_state,
        records=lambda cfg, state, block: [_bh_record(cfg, state, k) for k in block],
        summary=_bh_summary,
        count=lambda cfg: 1 if cfg.anchor else cfg.samples,
        flag_help={"anchor": "single identity-form record (densities exactly known)"},
    ),
    "hasse": Protocol(
        help="rational versus locally-solvable classes",
        fields=("field", "d", "H", "height", "primes", "samples", "x", "w_desk",
                "k_desk", "m_dk", "mc"),
        defaults={"d": 2, "H": 20, "height": 200, "primes": 50, "samples": 400,
                  "x": 20, "mc": 20000},
        validate=_validate_hasse,
        build_state=_local_state,
        records=_hasse_records,
        summary=_hasse_summary,
        flag_help={"primes": "test the primes up to this bound as well as the bad "
                             "primes, which are always tested; 0 tests only the bad primes"},
    ),
    "density": Protocol(
        help="archimedean density bins and count-model records",
        fields=("field", "d", "H", "x", "B", "mc", "samples", "bins", "w_desk", "k_desk"),
        defaults={"d": 2, "H": 50, "x": 40, "samples": 0, "mc": 100000},
        validate=_validate_density,
        build_state=_density_state,
        records=lambda cfg, state, block: [_density_record(cfg, state, k) for k in block],
        summary=_density_summary,
        prefix=_density_prefix,
    ),
    "verify": Protocol(
        help="run the exact check battery",
        fields=("suite",),
        defaults={"samples": 0},
        validate=_validate_verify,
        build_state=lambda cfg: {},
        records=lambda cfg, state, block: [],
        summary=_verify_summary,
        prefix=_verify_prefix,
        count=lambda cfg: 0,
        report=_verify_report,
        flag_help={"suite": f"one of {', '.join(SUITES)}"},
    ),
}


# ---------------------------------------------------------------------------
# The runner.  The current run's state is built in the parent before the
# pool forks and inherited by the workers.  Only that one state is held:
# a long-lived process does not keep every earlier config's sieve and profile.

_STATE: dict = {}


def _hold_state(cfg: ExperimentConfig) -> dict:
    _STATE.clear()
    state = _STATE[cfg] = PROTOCOLS[cfg.kind].build_state(cfg)
    return state


def _state_for(cfg: ExperimentConfig) -> dict:
    state = _STATE.get(cfg)
    return _hold_state(cfg) if state is None else state


def _block_records(cfg: ExperimentConfig, state: dict, block: range) -> list[dict]:
    """The kind's records of `block`, recomputed one index at a time (each is pure
    in (cfg, i)) only when the hook raises on the whole block: a ResourceLimitError
    at i becomes i's error record, any other failure a RecordError naming i."""
    hook = PROTOCOLS[cfg.kind].records
    try:
        return hook(cfg, state, block)
    except Exception:
        pass
    out = []
    for i in block:
        try:
            out += hook(cfg, state, range(i, i + 1))
        except ResourceLimitError as exc:
            out.append(_error_record(cfg, i, str(exc)))
        except Exception as exc:
            raise RecordError(f"{cfg.kind} record {i}: {type(exc).__name__}: {exc}") from exc
    return out


def _held_block(block: range) -> list[dict]:
    """The records of a block of the held run, read without hashing its config."""
    ((cfg, state),) = _STATE.items()
    return _block_records(cfg, state, block)


def compute_records(cfg: ExperimentConfig) -> list[dict]:
    """All records for the run, ordered; parallel over blocks of sample indices.

    The indices are cut into contiguous blocks of n // (4 * workers), at
    least one index each, so each worker gets about four or more; with
    one worker they are computed in this process, otherwise in a pool of
    at most one worker per block that forks after the run's state is built.
    """
    protocol = PROTOCOLS[cfg.kind]
    state = _state_for(cfg)
    prefix = protocol.prefix(cfg, state)
    n = protocol.count(cfg)
    w = cfg.workers
    size = max(1, n // (4 * w))
    blocks = [range(i, min(i + size, n)) for i in range(0, n, size)]
    if w <= 1 or len(blocks) <= 1:
        parts = [_block_records(cfg, state, b) for b in blocks]
    else:
        ctx = mp.get_context("fork")
        with ProcessPoolExecutor(max_workers=min(w, len(blocks)), mp_context=ctx) as ex:
            parts = list(ex.map(_held_block, blocks))
    return prefix + [rec for part in parts for rec in part]


# ---------------------------------------------------------------------------
# Persistence.

@dataclass(frozen=True)
class RunManifest:
    out_dir: str
    config: dict
    config_sha256: str
    version: str
    started: str
    finished: str
    files: dict
    records: int
    failed_checks: int
    # wall seconds of the phases: state build, records, results and summary writing
    timings: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# one encoder for every record: json.dumps builds this same encoder per call
_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _creatable_dir(out: Path) -> bool:
    """Whether `out` is, or mkdir can make it, a directory, checked without
    creating it: its nearest existing path must be a writable directory.
    A path that cannot be examined (say, under an unsearchable directory)
    cannot be made either."""
    near = out.absolute()
    try:
        while not near.exists():
            near = near.parent
        return near.is_dir() and os.access(near, os.W_OK | os.X_OK)
    except OSError:
        return False


def run(cfg: ExperimentConfig) -> RunManifest:
    """Execute the experiment; write results.jsonl, summary.csv, manifest.json."""
    cfg.validate()
    out = Path(cfg.out)
    # before the state build, so a bad path costs no sieve or region
    if not _creatable_dir(out):
        raise ConfigError(f"cannot create output directory {out}")
    started = _utcnow()
    t0 = time.perf_counter()
    try:
        # the state depends only on the config, so a budget it exceeds is a config error
        _hold_state(cfg)
    except ResourceLimitError as exc:
        raise ConfigError(f"{cfg.kind} run state: {exc}") from None
    t1 = time.perf_counter()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    records = compute_records(cfg)
    t2 = time.perf_counter()
    results = out / "results.jsonl"
    with open(results, "w") as fh:
        for rec in records:
            fh.write(_canon(rec) + "\n")
    table = _table(records)
    rows = [("kind", cfg.kind)]
    # runtime-only keys never influence the record stream; keep them out so
    # reruns into a different directory or pool size summarize identically
    rows += sorted((k, v) for k, v in cfg.to_dict().items()
                   if k not in ("kind", "out", "workers"))
    errors = sum(1 for r in records if r.get("record") == "error")
    rows.append(("sample_errors", errors))
    rows += PROTOCOLS[cfg.kind].summary(records)
    rows += _table_rows(table)
    summary = out / "summary.csv"
    with open(summary, "w") as fh:
        fh.write("key,value\n")
        for key, value in rows:
            fh.write(f"{key},{value}\n")
    failed = sum(1 for r in records if r.get("record") == "check" and not r["ok"])
    t3 = time.perf_counter()
    manifest = RunManifest(
        out_dir=str(out),
        config=cfg.to_dict(),
        config_sha256=cfg.sha256(),
        version=__version__,
        started=started,
        finished=_utcnow(),
        files={p.name: _sha256_file(p) for p in (results, summary)},
        records=len(records),
        failed_checks=failed,
        timings={"state_s": t1 - t0, "records_s": t2 - t1, "write_s": t3 - t2},
    )
    with open(out / "manifest.json", "w") as fh:
        fh.write(json.dumps(manifest.to_dict(), sort_keys=True, indent=1) + "\n")
    return manifest


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table_rows(table: dict) -> list[tuple]:
    rows = [("records", table["count"]), ("malformed_lines", table["malformed"])]
    for name, q in table["quantiles"].items():
        rows.append((f"stat_{name}", _fmt(q)))
    for a, frac in table["exceptional"].items():
        rows.append((f"exceptional_A{a}", _fmt(frac)))
    return rows


# ---------------------------------------------------------------------------
# Result summaries.

_QUANTS = (("min", 0.0), ("q05", 0.05), ("q25", 0.25), ("median", 0.5),
           ("q75", 0.75), ("q95", 0.95), ("max", 1.0))


def summarize(path: str | Path) -> dict:
    """Quantile table of the record statistics plus exceptional fractions.

    Malformed lines are counted, never fatal; a final line without a
    newline is treated as a truncated write and dropped.  A path that
    cannot be read raises ConfigError.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read results file: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] != "":
        lines = lines[:-1]  # truncated tail
    lines = [ln for ln in lines if ln]
    records: list[dict] = []
    malformed = 0
    for ln in lines:
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError:
            malformed += 1
            continue
        if not isinstance(rec, dict):
            malformed += 1
            continue
        records.append(rec)
    return _table(records, malformed)


def _table(records: list[dict], malformed: int = 0) -> dict:
    """The `summarize` table of parsed or in-memory records."""
    stats: list[float] = []
    H = None
    for rec in records:
        s = rec.get("statistic")
        if isinstance(s, (int, float)) and not isinstance(s, bool):
            stats.append(float(s))
        if isinstance(rec.get("H"), (int, float)):
            H = rec["H"]
    quantiles: dict = {}
    if stats:
        arr = np.asarray(stats, dtype=np.float64)
        quantiles = {name: float(np.quantile(arr, q)) for name, q in _QUANTS}
    exceptional: dict = {}
    if stats and H is not None and H > 1:
        for a in (1, 2, 3):
            thr = math.log(H) ** (-a)
            exceptional[a] = sum(1 for s in stats if s > thr) / len(stats)
    return {
        "count": len(records),
        "malformed": malformed,
        "quantiles": quantiles,
        "exceptional": exceptional,
    }


# ---------------------------------------------------------------------------
# The check battery behind the verify kind.

@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str


def _check(suite: str, name: str, fn: Callable[[], str]) -> CheckResult:
    try:
        return CheckResult(suite, name, True, fn())
    except Exception as exc:  # a failed check is a result, not a crash
        return CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}")


def _oracle_checks() -> list[CheckResult]:
    out = []
    sv = sieve_mod.build_sieve(20000)

    def against_trial() -> str:
        # trial division of 1..N by every t in 2..isqrt(N), in arrays, so no
        # spf table is read; a composite t never divides what is left
        N = 20000
        rest = np.arange(1, N + 1)
        big, small, prime = (np.zeros(N, dtype=np.int64) for _ in range(3))
        tau3 = np.ones(N, dtype=np.int64)
        for t in range(2, math.isqrt(N) + 1):
            at = slice(t - 1, None, t)  # only what is left of a multiple of t can hold t
            part = rest[at]  # a view: dividing it divides rest
            e = np.zeros(len(part), dtype=np.int64)
            while (hit := part % t == 0).any():
                e += hit
                part[hit] //= t
            big[at] += e
            small[at] += e > 0
            tau3[at] *= (e + 1) * (e + 2) // 2
            prime[at][e > 0] = t
        left = rest > 1  # one prime factor above isqrt(N) is left
        big, small, tau3 = big + left, small + left, tau3 * (1 + 2 * left)
        prime[left] = rest[left]
        mu_table = sv.mobius_table().tolist()
        for n, b, s, p, t3 in zip(range(1, N + 1), big.tolist(), small.tolist(),
                                  prime.tolist(), tau3.tolist()):
            assert sv.liouville(n) == (-1) ** b, f"liouville({n})"
            assert mu_table[n] == (0 if b > s else (-1) ** s), f"mobius({n})"
            tag = sv.mangoldt(n)
            if s == 1:
                assert tag.prime == p and tag.exponent == b, f"mangoldt({n})"
            else:
                assert tag.prime is None, f"mangoldt({n})"
            assert sv.tau_b(n, 3) == t3, f"tau_3({n})"
        return "lambda, mu, Lambda-tags, tau_3 agree on 1..20000"

    out.append(_check("oracle", "sieve-vs-trial-division", against_trial))

    def roundtrip() -> str:
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "spf.bin"
            sv.save(p)
            back = sieve_mod.SieveTable.load(p)
            assert back.bound == sv.bound
            assert np.array_equal(back._spf, sv._spf)
        return "save/load round trip preserves the table"

    out.append(_check("oracle", "sieve-file-round-trip", roundtrip))

    def factor_certified() -> str:
        rng = philox(2024, "battery")
        for _ in range(200):
            n = int(rng.integers(2, 10**12))
            fac = sv.factor(n)
            prod = 1
            for p, e in fac.items():
                assert arith.is_prime(p), (n, p)
                prod *= p**e
            assert prod == n
        return "200 factorizations certified (primality and product)"

    out.append(_check("oracle", "factor-certified", factor_certified))
    return out


def _lemma_checks() -> list[CheckResult]:
    out = []
    presets = field_presets()
    Qi = presets["gaussian"]

    def mobius_partition() -> str:
        N = 10**5
        sv = sieve_mod.build_sieve(N)
        mu = sv.mobius_table().astype(np.int64)
        d = np.arange(1, N + 1)
        total = int(np.sum(mu[1:] * (N // d)))
        assert total == 1, total
        return f"sum mu(d) floor(N/d) = 1 at N = {N}"

    out.append(_check("lemmas", "mobius-divisor-partition", mobius_partition))

    def zero_count_bound() -> str:
        gs = [g for g in map(BinaryForm, itertools.product(range(-3, 4), repeat=3))
              if g.is_separable]
        rows = np.array([g.coeffs for g in gs])
        # one count per prime power over all forms, checked form by form
        counts = {(p, k): forms.zero_count_mod(rows, p**k).tolist()
                  for p in (2, 3) for k in (1, 2)}
        for i, g in enumerate(gs):
            for (p, k), c in counts.items():
                res = forms.zero_count_bound_check(g, p, k, count=c[i])
                assert res.holds, (g.coeffs, p, k)
        return f"{len(gs) * len(counts)} prime-power zero-count bounds hold"

    out.append(_check("lemmas", "zero-count-bound", zero_count_bound))

    def gcd_bound() -> str:
        rng = philox(7, "gcdlemma")
        size = 10**4
        # one array draw per quantity; row i keeps the first d_i + 1 coefficients
        ds = rng.integers(2, 5, size=size)
        block = rng.integers(-30, 31, size=(size, 5))
        ms = rng.integers(1, 5000, size=size)
        ns = rng.integers(1, 5000, size=size)
        ls = rng.integers(1, ds + 1)
        ks = rng.integers(0, ls)
        failed = []
        for d in (2, 3, 4):  # one array check per degree, over rows with nonzero ends
            idx = np.flatnonzero(ds == d)
            idx = idx[(block[idx, 0] != 0) & (block[idx, d] != 0)]
            res = forms.gcd_bound_check(block[idx, : d + 1], ms[idx], ns[idx], ks[idx], ls[idx])
            failed += idx[~res.holds][:1].tolist()
        i = min(failed, default=None)  # the first failing draw
        assert i is None, (block[i, : ds[i] + 1].tolist(), *(int(a[i]) for a in (ms, ns, ks, ls)))
        return "10^4 fuzzed gcd bounds hold"

    out.append(_check("lemmas", "gcd-bound-fuzz", gcd_bound))

    def gamma_crt() -> str:
        pairs = 0
        for field in (Qi, presets["sqrt2"]):
            for q1 in range(2, 40):
                for q2 in range(2, 40 // q1 + 1):
                    if math.gcd(q1, q2) != 1:
                        continue
                    c1 = normforms.norm_residue_counts(field, q1)
                    c2 = normforms.norm_residue_counts(field, q2)
                    c12 = normforms.norm_residue_counts(field, q1 * q2)
                    for a in range(q1 * q2):
                        assert c12[a] == c1[a % q1] * c2[a % q2], (q1, q2, a)
                    pairs += 1
        return f"gamma CRT exact on {pairs} coprime pairs, two fields"

    out.append(_check("lemmas", "gamma-crt", gamma_crt))

    def sigma_crt() -> str:
        inst = chatelet.ChateletInstance(field=Qi, form=BinaryForm([2, 1, 3]))
        pairs = 0
        for q1 in range(2, 40):
            for q2 in range(2, 40 // q1 + 1):
                if math.gcd(q1, q2) != 1:
                    continue
                lhs = chatelet.sigma_mod(inst, q1 * q2)
                assert lhs == chatelet.sigma_mod(inst, q1) * chatelet.sigma_mod(inst, q2)
                pairs += 1
        return f"sigma CRT exact on {pairs} coprime pairs"

    out.append(_check("lemmas", "sigma-crt", sigma_crt))

    def dedekind_euler() -> str:
        for name in ("gaussian", "sqrt2", "cbrt2"):
            field = presets[name]
            for p in (2, 3, 5, 7, 11):
                loc = normforms.DedekindLocal.build(field, p)
                # expand prod (1 - T^f)^(-1) over primes above p by hand
                series = [0] * 9
                series[0] = 1
                for f, _ in normforms.splitting_type(field, p):
                    for j in range(f, 9):
                        series[j] += series[j - f]
                for j in range(9):
                    assert loc.ideal_count(j) == series[j], (name, p, j)
        return "local ideal counts match convolved Euler factors to j = 8"

    out.append(_check("lemmas", "dedekind-euler-factor", dedekind_euler))

    def b_tau_bound() -> str:
        sv = sieve_mod.build_sieve(2000)
        for name in ("gaussian", "cbrt2"):
            field = presets[name]
            e1 = field.degree + 1
            for k in range(1, 2001):
                bk = normforms.b_coeff(field, k, 2)
                assert abs(bk) <= sv.tau_b(k, 2) ** e1, (name, k)
        return "|b(k)| <= tau(k)^(e+1) for k <= 2000, degrees 2 and 3"

    out.append(_check("lemmas", "b-coefficient-bound", b_tau_bound))

    def hensel_bound() -> str:
        rng = philox(11, "henselbat")
        confirmed = draws = 0
        while confirmed < 8 and draws < _HENSEL_DRAWS:
            draws += 1
            coeffs = [int(v) for v in rng.integers(-5, 6, size=3)]
            if coeffs[0] * coeffs[-1] == 0:
                continue
            inst = chatelet.ChateletInstance(field=Qi, form=BinaryForm(coeffs))
            v = chatelet.padic_solvable(inst, 3)
            if v.kind != "yes":
                continue
            floor = Fraction(1, 3 ** ((v.alpha + 1) * 3))
            for k in (1, 2):
                assert chatelet.sigma_pp(inst, 3, k) >= floor, (coeffs, k)
            confirmed += 1
        assert confirmed == 8, f"{confirmed} of 8 instances certified in {_HENSEL_DRAWS} draws"
        return f"sigma lower bound holds for {confirmed} certified instances at p = 3"

    out.append(_check("lemmas", "hensel-density-floor", hensel_bound))

    def omega_support() -> str:
        region = RegionB(Qi.norm, 6.0)
        prof = DensityProfile.draw(region, 5000, 3)
        lo, hi = region.support
        est_out, _ = prof.estimate(hi + prof.half_width + 1.0)
        assert est_out == 0.0
        est_neg, _ = prof.estimate(lo - prof.half_width - 1.0)
        assert est_neg == 0.0
        est_mid, _ = prof.estimate(6.0**2 / 2)
        assert est_mid > 0.0
        return "omega vanishes outside support and is positive at the basepoint"

    out.append(_check("lemmas", "omega-support", omega_support))

    def anchor_identity() -> str:
        sv = sieve_mod.build_sieve(300)
        res = chowla_bh.bh_correlation([BinaryForm([1, 0])], 300, sv)
        psi = math.fsum(float(sv.mangoldt(n).value) for n in range(1, 301))
        assert res.series == 1
        assert abs(res.correlation - psi / 300) < 1e-9
        return "correlation of the identity form equals psi(x)/x at x = 300"

    out.append(_check("lemmas", "prime-count-anchor", anchor_identity))
    return out


def verify_battery(suite: str = "all") -> list[CheckResult]:
    """The exact-identity and inequality battery behind `verify`."""
    if suite not in SUITES:
        raise ConfigError(f"suite must be one of {SUITES}")
    out: list[CheckResult] = []
    if suite in ("all", "oracle"):
        out.extend(_oracle_checks())
    if suite in ("all", "lemmas"):
        out.extend(_lemma_checks())
    return out
