"""Configuration, the runner, persistence, summaries, CLI, and the battery."""

import argparse
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.strategies import fixed_dictionaries

from formlab import chatelet, chowla_bh, cli, forms, harness
from formlab import sieve as sieve_mod
from formlab.errors import ConfigError, RecordError, ResourceLimitError
from formlab.normforms import NumberField, field_presets


# ---------------------------------------------------------------------------
# Configuration.

def test_kind_defaults_applied():
    cfg = harness.make_config("chowla", {})
    assert (cfg.d, cfg.H, cfg.c, cfg.samples) == (3, 1000, 0.08, 200)
    cfg = harness.make_config("hasse", {})
    assert (cfg.H, cfg.height, cfg.primes, cfg.samples) == (20, 200, 50, 400)
    assert (cfg.w_desk, cfg.k_desk, cfg.m_dk) == (7, 2, 20)


def test_settings_override_defaults():
    cfg = harness.make_config("bh", {"x": 120, "samples": "7", "seed": "3"})
    assert (cfg.x, cfg.samples, cfg.seed) == (120, 7, 3)


def test_exponent_window_enforced():
    # rejected before any work when c reaches 5/(19d)
    with pytest.raises(ConfigError):
        harness.make_config("chowla", {"c": 5.0 / (19 * 3)})
    with pytest.raises(ConfigError):
        harness.make_config("chowla", {"c": 0.0})
    harness.make_config("chowla", {"c": 0.0877})  # just inside


def test_field_degree_must_divide_d():
    with pytest.raises(ConfigError):
        harness.make_config("hasse", {"d": 3})
    harness.make_config("hasse", {"d": 4})
    with pytest.raises(ConfigError):
        harness.make_config("hasse", {"field": "nosuch"})


def test_misc_validation():
    with pytest.raises(ConfigError):
        harness.make_config("nope", {})
    with pytest.raises(ConfigError):
        harness.make_config("chowla", {"samples": -1})
    with pytest.raises(ConfigError):
        harness.make_config("chowla", {"seed": 2**64})
    with pytest.raises(ConfigError):
        harness.make_config("verify", {"suite": "everything"})
    with pytest.raises(ConfigError):
        harness.make_config("chowla", {"no_such_key": 1})
    with pytest.raises(ConfigError):
        harness.make_config("bh", {"anchor": "sideways"})
    assert harness.make_config("bh", {"anchor": "true"}).anchor is True
    # the anchor record reads no draw, so no irreducibility test caps d
    assert harness.make_config("bh", {"d": 4, "anchor": True}).d == 4


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text('# comment\nH = 75\nsamples=4\nfield="gaussian"\n\nseed=11\n')
    mapping = harness.parse_config_file(p)
    assert mapping == {"H": "75", "samples": "4", "field": "gaussian", "seed": "11"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just some words\n")
    with pytest.raises(ConfigError):
        harness.parse_config_file(bad)
    with pytest.raises(ConfigError):
        harness.parse_config_file(tmp_path / "missing.cfg")


def test_config_hash_stable():
    a = harness.make_config("chowla", {"H": 99, "samples": 1})
    b = harness.make_config("chowla", {"samples": 1, "H": 99})
    assert a.sha256() == b.sha256()
    c = harness.make_config("chowla", {"H": 98, "samples": 1})
    assert a.sha256() != c.sha256()


# ---------------------------------------------------------------------------
# The field table: each range ExperimentConfig declares, at and past its ends.

_RANGED = [(kind, name) for kind, p in harness.PROTOCOLS.items()
           for name in p.fields + harness.COMMON_FIELDS
           if harness.field_range(kind, name) != (None, None, None)]
# settings a value needs beside it to pass the checks that span fields
_COMPANIONS = {"field": {"d": 6}}
# (kind, field, value) at a range end that only a check spanning fields refuses:
# no preset field has degree 1
_SPANNING_REFUSALS = {("hasse", "d", 1): "must divide", ("density", "d", 1): "must divide"}


def _ends(kind: str, name: str) -> tuple[list, list]:
    """(values at the range's ends, values just past them) of `name` for `kind`."""
    lo, hi, choices = harness.field_range(kind, name)
    if choices is not None:
        return list(choices), ["no-such-choice"]
    inside = [v for v in (lo, hi) if v is not None]
    outside = [v + step for v, step in ((lo, -1), (hi, 1)) if v is not None]
    if harness.FIELD_TYPES[name] is float:
        outside += [math.nan, math.inf, -math.inf]
    return inside, outside


@pytest.mark.parametrize("kind,name", _RANGED, ids=[f"{k}-{n}" for k, n in _RANGED])
def test_field_table_range_ends(kind, name):
    # make_config validates only: no value here builds a state
    inside, outside = _ends(kind, name)
    for value in outside:
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            harness.make_config(kind, {name: value})
    for value in inside:
        settings = {name: value, **_COMPANIONS.get(name, {})}
        refusal = _SPANNING_REFUSALS.get((kind, name, value))
        if refusal:
            with pytest.raises(ConfigError, match=refusal):
                harness.make_config(kind, settings)
        else:
            assert getattr(harness.make_config(kind, settings), name) == value


def _assert_config_exit_two(tmp_path, capsys, monkeypatch, argv):
    """The CLI exits 2 with the JSON diagnostic, before any directory, sieve or profile."""
    (tmp_path / "file").write_text("")
    builds = []
    build_sieve = sieve_mod.build_sieve
    monkeypatch.setattr(sieve_mod, "build_sieve", lambda n: builds.append(n) or build_sieve(n))
    draws = []
    draw = harness.DensityProfile.draw
    monkeypatch.setattr(harness.DensityProfile, "draw",
                        classmethod(lambda cls, *a: draws.append(a) or draw(*a)))
    code = cli.main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "config"
    assert not (tmp_path / "x").exists()
    assert builds == []
    assert draws == []


@pytest.mark.parametrize("kind", sorted(harness.PROTOCOLS))
def test_cli_refuses_a_value_past_the_table(tmp_path, capsys, monkeypatch, kind):
    name = next(n for k, n in _RANGED if k == kind)
    value = _ends(kind, name)[1][0]
    _assert_config_exit_two(tmp_path, capsys, monkeypatch,
                            [kind, "--" + name.replace("_", "-"), str(value), "--out", "{tmp}/x"])


def test_a_kind_checks_only_the_fields_it_reads():
    # verify reads no d, H or samples; density reads no m_dk; bh reads no c
    harness.make_config("verify", {"d": 0, "H": -1, "samples": -1, "mc": 1})
    harness.make_config("density", {"m_dk": 0})
    harness.make_config("bh", {"d": 3, "c": 0.1})
    with pytest.raises(ConfigError, match="^seed must be "):
        harness.make_config("verify", {"seed": -1})


@pytest.mark.parametrize("flag", ["--c", "--conf"])
def test_cli_flags_are_not_abbreviated(tmp_path, capsys, flag):
    # bh has no --c, and neither flag stands for --config
    with pytest.raises(SystemExit) as info:
        cli.main(["bh", flag, "0.05", "--out", str(tmp_path / "x")])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} 0.05" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_flag_help_shows_the_table_range(monkeypatch):
    # the help reads the preset names, not the fields: building the parser builds none
    field_presets.cache_clear()
    monkeypatch.setattr(NumberField, "power_basis",
                        classmethod(lambda cls, *a, **k: pytest.fail("a field was built")))
    words = " ".join(_subparser("hasse").format_help().split())
    assert "--mc MC default 20000; between 1000 and 10000000 " in words
    assert "--field FIELD default gaussian; one of gaussian, sqrt2, cbrt2, coray " in words
    words = " ".join(_subparser("chowla").format_help().split())
    assert "--H H default 1000; between 3 and 9223372036854775806 " in words
    assert "--c C default 0.08 " in words  # c's range spans fields: exponent_cap(d)


# ---------------------------------------------------------------------------
# The protocol registry.

# every ExperimentConfig default, and each kind's departures from it, as they
# stood before config, CLI and defaults were derived from the registry
_BASE_DEFAULTS = {
    "field": "gaussian", "d": 2, "H": 100, "c": 0.05, "x": 300, "r": 1, "samples": 50,
    "seed": 42, "height": 200, "primes": 100, "w_desk": 7, "k_desk": 2, "m_dk": 20,
    "B": 12.0, "mc": 100000, "grid": 16, "min_series": 0.2, "anchor": False, "bins": 40,
    "suite": "all", "out": "runs", "workers": 1,
}
_KIND_OVERRIDES = {
    "chowla": {"d": 3, "H": 1000, "c": 0.08, "samples": 200},
    "bh": {"H": 500},
    "hasse": {"H": 20, "x": 20, "samples": 400, "primes": 50, "mc": 20000},
    "density": {"H": 50, "x": 40, "samples": 0},
    "verify": {"samples": 0},
}
_COMMON_FLAGS = {"seed", "out", "workers", "config"}


def _subparser(kind: str) -> argparse.ArgumentParser:
    ap = cli._build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[kind]


def test_registry_covers_every_kind():
    assert set(harness.PROTOCOLS) == set(_KIND_OVERRIDES)


@pytest.mark.parametrize("kind", sorted(_KIND_OVERRIDES))
def test_registry_flags_and_defaults(kind):
    actions = [a for a in _subparser(kind)._actions if a.dest != "help"]
    assert {a.dest for a in actions} == set(harness.PROTOCOLS[kind].fields) | _COMMON_FLAGS
    for a in actions:
        assert a.option_strings == ["--" + a.dest.replace("_", "-")]
    expected = {"kind": kind, **_BASE_DEFAULTS, **_KIND_OVERRIDES[kind]}
    assert harness.make_config(kind, {}).to_dict() == expected


_FIELD_VALUES = {
    "field": st.sampled_from(sorted(field_presets())),
    "d": st.sampled_from([2, 6, 12]),
    "c": st.floats(0.001, 0.02),  # inside the exponent window at d = 12
    "x": st.integers(2, 500),
    "B": st.floats(1.0, 50.0),
    "mc": st.integers(1000, 10**6),
    "min_series": st.floats(0.0, 1.0),
    "anchor": st.booleans(),
    "suite": st.sampled_from(harness.SUITES),
    "seed": st.integers(0, 2**64 - 1),
    "out": st.text(alphabet="abc/_.", min_size=1, max_size=8),
}


def _config_or_error(kind: str, settings: dict):
    try:
        return harness.make_config(kind, settings)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", sorted(_KIND_OVERRIDES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_argv_matches_make_config(kind, data):
    # the same config, or the same config error, whichever way the settings arrive
    names = harness.PROTOCOLS[kind].fields + harness.COMMON_FIELDS
    chosen = data.draw(fixed_dictionaries(
        {}, optional={n: _FIELD_VALUES.get(n, st.integers(2, 60)) for n in names}
    ))
    argv = [kind]
    for name, value in chosen.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, str(value)]
    args = cli._build_parser().parse_args(argv)
    assert _config_or_error(kind, cli._collect_settings(args)) == _config_or_error(kind, chosen)


def test_state_holds_only_the_current_run():
    first = harness.make_config("chowla", {"H": 50, "samples": 2})
    second = harness.make_config("chowla", {"H": 60, "samples": 2})
    harness.compute_records(first)
    harness.compute_records(second)
    assert list(harness._STATE) == [second]


# ---------------------------------------------------------------------------
# Runs and persistence.

def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_run_writes_all_artifacts(tmp_path):
    cfg = harness.make_config("chowla", {"H": 100, "samples": 4, "out": str(tmp_path / "r")})
    man = harness.run(cfg)
    out = Path(man.out_dir)
    assert (out / "results.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()
    recs = _read_jsonl(out / "results.jsonl")
    assert len(recs) == 4 == man.records
    assert all(r["record"] == "sample" for r in recs)
    disk = json.loads((out / "manifest.json").read_text())
    assert disk["config_sha256"] == cfg.sha256()
    import hashlib

    assert man.files["results.jsonl"] == hashlib.sha256(
        (out / "results.jsonl").read_bytes()
    ).hexdigest()


def test_rerun_identical_bytes(tmp_path):
    settings = {"H": 80, "samples": 5, "seed": 21}
    m1 = harness.run(harness.make_config("chowla", {**settings, "out": str(tmp_path / "a")}))
    m2 = harness.run(harness.make_config("chowla", {**settings, "out": str(tmp_path / "b")}))
    assert m1.files["results.jsonl"] == m2.files["results.jsonl"]
    assert m1.files["summary.csv"] == m2.files["summary.csv"]
    a = (Path(m1.out_dir) / "results.jsonl").read_bytes()
    b = (Path(m2.out_dir) / "results.jsonl").read_bytes()
    assert a == b


@pytest.mark.parametrize("kind,settings", [
    ("chowla", {"H": 90, "samples": 6}),
    ("bh", {"H": 40, "x": 60, "samples": 3}),
    ("hasse", {"samples": 8, "height": 50, "primes": 15, "mc": 2000}),
    ("density", {"samples": 4, "mc": 4000, "w_desk": 5, "k_desk": 1}),
])
def test_worker_count_invariance(tmp_path, kind, settings):
    m1 = harness.run(harness.make_config(
        kind, {**settings, "seed": 13, "workers": 1, "out": str(tmp_path / "w1")}
    ))
    m2 = harness.run(harness.make_config(
        kind, {**settings, "seed": 13, "workers": 3, "out": str(tmp_path / "w3")}
    ))
    assert m1.files["results.jsonl"] == m2.files["results.jsonl"]


_SMALL_RUNS = {
    "chowla": {"H": 90, "samples": 6},
    "bh": {"H": 40, "x": 60, "samples": 3},
    "hasse": {"samples": 8, "height": 50, "primes": 15, "mc": 2000},
    "density": {"samples": 4, "mc": 4000, "w_desk": 5, "k_desk": 1},
    "verify": {"suite": "oracle"},
}


@pytest.mark.parametrize("kind", sorted(harness.PROTOCOLS))
def test_run_table_equals_summarize(tmp_path, kind):
    # run builds its quantile table from the records in memory; the rows
    # must be the ones summarize(results.jsonl) gives for the written file
    man = harness.run(harness.make_config(kind, {**_SMALL_RUNS[kind], "out": str(tmp_path)}))
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    table = harness.summarize(tmp_path / "results.jsonl")
    want = [f"{key},{value}" for key, value in harness._table_rows(table)]
    assert rows[-len(want):] == want
    assert table["count"] == man.records


def test_canonical_json_lines(tmp_path):
    cfg = harness.make_config("chowla", {"H": 70, "samples": 2, "out": str(tmp_path / "c")})
    harness.run(cfg)
    for line in (Path(cfg.out) / "results.jsonl").read_text().splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))


def test_resource_errors_become_records(tmp_path):
    # the correlation grid budget trips at x = 4000; the run must finish
    cfg = harness.make_config(
        "bh", {"x": 4000, "samples": 2, "H": 30, "out": str(tmp_path / "rl")}
    )
    man = harness.run(cfg)
    recs = _read_jsonl(Path(man.out_dir) / "results.jsonl")
    assert len(recs) == 2
    assert all(r["record"] == "error" and "error" in r for r in recs)


# ---------------------------------------------------------------------------
# Index blocks.

# results.jsonl of the 300-sample chowla run at seed 42, pinned while its
# records were still computed one sample at a time
_CHOWLA_300 = "cd9ceaaa7f794b12edf2cd6069b8b4834ca48cbc4c1aee12b9244e6062ede097"


def test_chowla_300_pinned(tmp_path):
    man = harness.run(harness.make_config("chowla", {"samples": 300, "out": str(tmp_path)}))
    assert man.files["results.jsonl"] == _CHOWLA_300


@pytest.mark.parametrize("kind,settings", [
    ("chowla", {"H": 90, "samples": 23}),
    ("hasse", {"samples": 7, "height": 50, "primes": 15, "mc": 2000}),
    ("bh", {"H": 25, "x": 50, "samples": 7}),
    ("density", {"samples": 5, "mc": 2000, "w_desk": 5, "k_desk": 1}),
])
def test_records_identical_across_block_splits(kind, settings):
    cfg = harness.make_config(kind, settings)
    state = harness._state_for(cfg)
    protocol = harness.PROTOCOLS[kind]
    whole = harness.compute_records(cfg)[len(protocol.prefix(cfg, state)):]
    hook = protocol.records
    n = cfg.samples
    for size in (1, 2, 5, n):
        split = [rec for lo in range(0, n, size)
                 for rec in hook(cfg, state, range(lo, min(lo + size, n)))]
        assert split == whole


def test_chowla_workers_agree_off_block_multiple(tmp_path):
    # 23 samples: blocks of 5 (and a last one of 3) at one worker, of 2 at two
    runs = [harness.run(harness.make_config("chowla", {
        "H": 90, "samples": 23, "seed": 8, "workers": w, "out": str(tmp_path / f"w{w}")}))
        for w in (1, 2)]
    assert runs[0].files == runs[1].files
    recs = _read_jsonl(Path(runs[0].out_dir) / "results.jsonl")
    assert [r["index"] for r in recs] == list(range(23))


def test_chowla_records_match_row_by_row():
    # at H = 2^59 and d = 1 most draws overflow the layer sums; the block's
    # error and sample records are the ones each draw gives on its own
    cfg = harness.make_config("chowla", {"samples": 12, "d": 1, "c": 0.05, "H": 2**59})
    recs = harness.compute_records(cfg)
    state = harness._state_for(cfg)
    for i, rec in enumerate(recs):
        form = state["cube"].sample(cfg.seed, i)
        alone = chowla_bh.chowla_block([form.coeffs], cfg.H, cfg.c, state["sieve"], cfg.grid)
        if alone.overflow[0]:
            assert rec == {"record": "error", "index": i, "error": chowla_bh.OVERFLOW,
                           "statistic": None, "H": cfg.H}
            continue
        assert rec == {"record": "sample", "index": i, "coeffs": list(form.coeffs),
                       "statistic": alone.statistic[0], "H": cfg.H,
                       "window": [alone.grid[0], alone.grid[-1]]}
    assert {r["record"] for r in recs} == {"error", "sample"}


# results.jsonl and summary.csv digests of a run whose evaluation chunks are
# cut by its 5,000 grid points rather than by its window's square
_GRID_BOUND_RUN = ({"samples": 300, "grid": 5000, "d": 2, "H": 100000, "c": 0.12},
                   "025318ec2d2411478544031ffa1e76640f55aaf155393651eb28621693d95371",
                   "e5b314569735098c1e577bb2d894d8859215d660417ba8192562712fe1d1394a")


@pytest.mark.parametrize("workers", [1, 2])
def test_chowla_grid_bound_run_pinned(tmp_path, workers):
    settings, results, summary = _GRID_BOUND_RUN
    man = harness.run(harness.make_config(
        "chowla", {**settings, "workers": workers, "out": str(tmp_path)}))
    assert man.files == {"results.jsonl": results, "summary.csv": summary}


@pytest.mark.parametrize("workers", [1, 2])
def test_block_failure_names_kind_and_range(workers):
    # the statistic refuses H < 3; built directly, the config skips validation
    cfg = harness.ExperimentConfig(kind="chowla", H=2, samples=5, workers=workers)
    with pytest.raises(RecordError,
                       match=r"^chowla record 0: ValueError: scale must be >= 3$") as info:
        harness.compute_records(cfg)
    if workers == 1:
        assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("workers", [1, 2])
def test_runner_names_the_index_and_keeps_budget_errors(monkeypatch, workers):
    # a hook that fails on a block is recomputed one index at a time
    def hook(cfg, state, block):
        out = []
        for i in block:
            if i == 1:
                raise ResourceLimitError("over budget")
            if i == 3:
                raise ZeroDivisionError("boom")
            out.append({"record": "sample", "index": i})
        return out

    bh = harness.PROTOCOLS["bh"]
    monkeypatch.setitem(harness.PROTOCOLS, "bh", dataclasses.replace(
        bh, build_state=lambda cfg: {}, records=hook))
    monkeypatch.setattr(harness, "_STATE", {})
    cfg = harness.make_config("bh", {"samples": 3, "workers": workers})
    assert harness.compute_records(cfg) == [
        {"record": "sample", "index": 0},
        {"record": "error", "index": 1, "error": "over budget", "statistic": None, "H": cfg.H},
        {"record": "sample", "index": 2},
    ]
    assert harness._block_records(cfg, {}, range(3)) == harness.compute_records(cfg)
    cfg = harness.make_config("bh", {"samples": 5, "workers": workers})
    with pytest.raises(RecordError, match=r"^bh record 3: ZeroDivisionError: boom$") as info:
        harness.compute_records(cfg)
    if workers == 1:
        assert isinstance(info.value.__cause__, ZeroDivisionError)
    with pytest.raises(RecordError, match=r"^bh record 3: ZeroDivisionError: boom$"):
        harness._block_records(cfg, {}, range(5))


class _PoolStub:
    """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

    sizes: list = []

    def __init__(self, max_workers, mp_context):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        return map(fn, blocks)


@pytest.mark.parametrize("samples,workers", [(2, 5), (3, 64), (40, 3)])
def test_pool_has_at_most_one_worker_per_block(monkeypatch, samples, workers):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _PoolStub)
    monkeypatch.setattr(_PoolStub, "sizes", [])
    cfg = harness.make_config("chowla", {"H": 90, "samples": samples, "workers": workers})
    recs = harness.compute_records(cfg)
    blocks = -(-samples // max(1, samples // (4 * workers)))
    assert _PoolStub.sizes == [min(workers, blocks)]
    assert recs == harness.compute_records(dataclasses.replace(cfg, workers=1))


def test_workers_ceiling():
    assert harness.make_config("chowla", {"workers": harness.MAX_WORKERS}).workers == 64
    with pytest.raises(ConfigError, match="workers"):
        harness.make_config("chowla", {"workers": harness.MAX_WORKERS + 1})


# results.jsonl digests of runs with error records: layer-sum overflows sit
# beside chowla samples, and value-budget errors beside hasse samples and
# density instances
_ERROR_RUNS = {
    "chowla": ({"d": 1, "H": 2**59, "c": 0.05, "samples": 12},
               "2a169f54a860ee8e6bc2e15eef14c7cdcb5822a7cf63d385cb922973ea79a420"),
    "hasse": ({"H": 1, "x": 5000, "samples": 4},
              "6baa5a11adec56ba3179afd81f77014f2555865956beaf47a63476dcf374933e"),
    "density": ({"H": 1, "x": 5000, "samples": 3},
                "cd335fc610ad0540e33ebd0269423a98e0f3aa369528d2025c5acac31629d6a8"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(_ERROR_RUNS))
def test_error_record_runs_pinned(tmp_path, kind, workers):
    settings, digest = _ERROR_RUNS[kind]
    cfg = harness.make_config(kind, {**settings, "workers": workers, "out": str(tmp_path)})
    man = harness.run(cfg)
    assert man.files["results.jsonl"] == digest
    recs = _read_jsonl(tmp_path / "results.jsonl")
    assert "error" in {r["record"] for r in recs}
    # one block of every index gives the same records as the run's blocks
    state = harness._state_for(cfg)
    whole = harness._block_records(cfg, state, range(cfg.samples))
    assert recs[len(recs) - cfg.samples:] == whole


def test_manifest_phase_timings(tmp_path):
    man = harness.run(harness.make_config("chowla", {"H": 90, "samples": 6, "out": str(tmp_path)}))
    disk = json.loads((tmp_path / "manifest.json").read_text())
    assert disk["timings"] == man.timings
    assert set(man.timings) == {"state_s", "records_s", "write_s"}
    assert all(isinstance(v, float) and v >= 0 for v in man.timings.values())
    for name in ("results.jsonl", "summary.csv"):
        text = (tmp_path / name).read_text()
        assert not any(key in text for key in ("timings", *man.timings))


def test_bh_anchor_record(tmp_path):
    cfg = harness.make_config(
        "bh", {"anchor": True, "x": 200, "out": str(tmp_path / "an")}
    )
    man = harness.run(cfg)
    recs = _read_jsonl(Path(man.out_dir) / "results.jsonl")
    assert len(recs) == 1
    assert recs[0]["record"] == "anchor"
    assert recs[0]["coeffs"] == [[1, 0]]
    assert recs[0]["series"] == "1"
    assert 0.8 < recs[0]["C"] < 1.1


def test_bh_r2_samples_joint_forms(tmp_path):
    cfg = harness.make_config(
        "bh", {"r": 2, "x": 50, "H": 25, "samples": 2, "out": str(tmp_path / "r2")}
    )
    recs = _read_jsonl(Path(harness.run(cfg).out_dir) / "results.jsonl")
    assert all(len(r["coeffs"]) == 2 for r in recs)
    # accepted draw streams of consecutive records do not overlap
    assert set(recs[0]["draws"]).isdisjoint(recs[1]["draws"])


def test_hasse_records_and_summary(tmp_path):
    cfg = harness.make_config("hasse", {
        "samples": 10, "height": 60, "primes": 20, "mc": 2000,
        "out": str(tmp_path / "h"),
    })
    man = harness.run(cfg)
    recs = _read_jsonl(Path(man.out_dir) / "results.jsonl")
    assert len(recs) == 10
    for r in recs:
        assert r["class"] in ("not-in-S", "locally-obstructed",
                              "rational-point-found", "unknown")
        assert isinstance(r["padic"], dict)
        if r["class"] == "rational-point-found":
            assert r["witness"] is not None
            assert all(v != "no" for v in r["padic"].values())
    text = (Path(man.out_dir) / "summary.csv").read_text()
    assert "m_dk,20" in text  # the unresolved threshold is always reported
    assert "ratio_lower_bound," in text
    assert "violations,0" in text


# results.jsonl digests of local-count runs off the default desk: the
# hasse run has W0 primes 2, 3 and primes above m_dk inside w_desk, the
# density run a squarefree model modulus
_LOCAL_PINS = {
    "hasse": ({"samples": 40, "m_dk": 3, "w_desk": 11, "k_desk": 2},
              "16345524028b1b14344ee5fdd2d45cd8c7278f980ab5fc72c7f72cbbe8f6de36"),
    "density": ({"samples": 20, "w_desk": 5, "k_desk": 1},
                "6a5d6161f8d14b795f4f4da77c8cc8cf2de16402ef36286124a07541c8418177"),
}


@pytest.mark.parametrize("kind", sorted(_LOCAL_PINS))
def test_local_records_pinned(tmp_path, kind):
    settings, digest = _LOCAL_PINS[kind]
    man = harness.run(harness.make_config(kind, {**settings, "out": str(tmp_path)}))
    data = (Path(man.out_dir) / "results.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# results.jsonl and summary.csv digests of runs over cubic fields, whose
# float norm values are the ones whose last bits depend on the evaluator
_CUBIC_PINS = {
    "hasse": ({"field": "coray", "d": 3, "samples": 10, "m_dk": 5, "w_desk": 3, "k_desk": 1},
              "8c1a61ce6a9548a84d778d282ea32e2ee41f45c0c536fa9ac71264ed174f357c",
              "2855963a151e627f4c1f8f4edbaf7862269a118d8eb98b758b50240d028f9a91"),
    "density": ({"field": "cbrt2", "d": 3, "samples": 0},
                "e70ec3f6c92900723ccd151e9b67f03c702c11873808e09834400ddc371b8a9c",
                "cb6d082f5f70b3fa55486051034f7ecae39890397f0d5dc7bfe888f45ff7700b"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(_CUBIC_PINS))
def test_cubic_field_runs_pinned(tmp_path, kind, workers):
    settings, results, summary = _CUBIC_PINS[kind]
    man = harness.run(harness.make_config(
        kind, {**settings, "workers": workers, "out": str(tmp_path)}))
    assert man.files == {"results.jsonl": results, "summary.csv": summary}


# results.jsonl of `verify --suite all`; the benchmark pins the same digest
_VERIFY_ALL = "1eab62ffc8265987ff5c9dd5390f390f867432de39ca94593f512c68d411daf2"


def test_verify_records_pinned(tmp_path):
    man = harness.run(harness.make_config("verify", {"suite": "all", "out": str(tmp_path)}))
    data = (Path(man.out_dir) / "results.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _VERIFY_ALL


def test_density_run_bins_and_instances(tmp_path):
    cfg = harness.make_config("density", {
        "samples": 3, "mc": 4000, "bins": 10, "w_desk": 5, "k_desk": 1,
        "out": str(tmp_path / "d"),
    })
    man = harness.run(cfg)
    recs = _read_jsonl(Path(man.out_dir) / "results.jsonl")
    bins = [r for r in recs if r["record"] == "bin"]
    integrals = [r for r in recs if r["record"] == "integral"]
    instances = [r for r in recs if r["record"] == "instance"]
    assert len(bins) == 10 and len(integrals) == 1 and len(instances) == 3
    integ = integrals[0]
    assert integ["z"] is not None and integ["z"] < 10
    for r in instances:
        assert r["within"] == (abs(r["Nc"] - r["Nc_hat"]) <= 3 * r["Nc_err"])


def test_density_pure_region_mode(tmp_path):
    # no instances: the region scale comes straight from the B flag
    cfg = harness.make_config("density", {
        "B": 9.0, "mc": 3000, "bins": 8, "samples": 0, "out": str(tmp_path / "p"),
    })
    man = harness.run(cfg)
    recs = _read_jsonl(Path(man.out_dir) / "results.jsonl")
    assert [r["record"] for r in recs].count("instance") == 0
    integ = [r for r in recs if r["record"] == "integral"][0]
    e = 2
    assert integ["volume"] < (2 * 9.0) ** e  # (2 kappa B)^e with kappa < 1


# ---------------------------------------------------------------------------
# Summaries.

def test_summarize_synthetic_quantiles(tmp_path):
    p = tmp_path / "r.jsonl"
    with open(p, "w") as fh:
        for k in range(1, 10):
            fh.write(json.dumps({"statistic": 0.1 * k, "H": 100}) + "\n")
    table = harness.summarize(p)
    assert table["count"] == 9
    assert abs(table["quantiles"]["median"] - 0.5) < 1e-12
    assert table["quantiles"]["min"] == pytest.approx(0.1)
    assert table["quantiles"]["max"] == pytest.approx(0.9)
    # thresholds (log 100)^-A: 0.217, 0.047, 0.0102
    assert table["exceptional"][1] == pytest.approx(7 / 9)
    assert table["exceptional"][2] == 1.0


def test_summarize_empty_and_malformed(tmp_path):
    p = tmp_path / "e.jsonl"
    p.write_text("")
    table = harness.summarize(p)
    assert table == {"count": 0, "malformed": 0, "quantiles": {}, "exceptional": {}}
    p.write_text('{"statistic": 0.5, "H": 10}\nnot json at all\n[1,2]\n')
    table = harness.summarize(p)
    assert table["count"] == 1
    assert table["malformed"] == 2


def test_summarize_drops_truncated_tail(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text('{"statistic": 0.5, "H": 10}\n{"statistic": 0.9, "H"')
    table = harness.summarize(p)
    assert table["count"] == 1
    assert table["malformed"] == 0
    assert table["quantiles"]["max"] == pytest.approx(0.5)


def test_summarize_single_record(tmp_path):
    p = tmp_path / "s.jsonl"
    p.write_text(json.dumps({"statistic": 0.3, "H": 50}) + "\n")
    q = harness.summarize(p)["quantiles"]
    assert all(v == pytest.approx(0.3) for v in q.values())


# ---------------------------------------------------------------------------
# The battery.

@pytest.fixture(scope="module")
def battery():
    return harness.verify_battery("all")


def test_battery_all_green(battery):
    failed = [c.name for c in battery if not c.ok]
    assert failed == []


def test_battery_suite_filtering(battery):
    oracle = harness.verify_battery("oracle")
    lemmas = harness.verify_battery("lemmas")
    assert {c.suite for c in oracle} == {"oracle"}
    assert {c.suite for c in lemmas} == {"lemmas"}
    assert len(oracle) + len(lemmas) == len(battery)
    with pytest.raises(ConfigError):
        harness.verify_battery("everything")


# Each fault below breaks one quantity a check covers, at one place.  The
# check must fail and name the first failing item as the one-item-at-a-time
# battery did: these details are what it gave for the same faults.

def _at(n0, change):
    """A SieveTable method whose value at n0 goes through `change`."""
    def wrap(method):
        def faulty(self, n, *args):
            value = method(self, n, *args)
            return change(value) if n == n0 else value
        return faulty
    return wrap


def _entry(n0, value):
    """A SieveTable table method whose entry at n0 reads `value`."""
    def wrap(method):
        def table(self):
            out = method(self).copy()
            out[n0] = value
            return out
        return table
    return wrap


def _zero_count_fault(zero_count_mod):
    # every count at 3^2, and the counts at 2^2 of forms with c0 > 0: in the
    # order form, p, k the first failure is the first form, at 3^2
    def faulty(rows, q):
        return zero_count_mod(rows, q) + 10**6 * ((q == 9) | ((q == 4) & (rows[:, 0] > 0)))
    return faulty


def _gcd_row_fault(gcd_bound_check):
    # draw 4005 (degree 4) and the later draw 4008 (degree 2) fail; though
    # degree 2 is checked first, the first failing draw is 4005
    def faulty(rows, m, n, k, l):
        res = gcd_bound_check(rows, m, n, k, l)
        bad = ((m == 833) & (n == 3494)) | ((m == 143) & (n == 3796))
        return forms.GcdBound(res.lhs, res.rhs, res.holds & ~bad)
    return faulty


_TRIAL = ("oracle", "sieve-vs-trial-division")


@pytest.mark.parametrize("owner, attr, fault, check, detail", [
    (sieve_mod.SieveTable, "liouville", _at(4096, lambda v: -v), _TRIAL, "liouville(4096)"),
    (sieve_mod.SieveTable, "mangoldt", _at(4096, lambda t: t._replace(exponent=11)), _TRIAL,
     "mangoldt(4096)"),
    (sieve_mod.SieveTable, "mangoldt", _at(6, lambda t: sieve_mod.Mangoldt(0.7, 2, 1)), _TRIAL,
     "mangoldt(6)"),
    (sieve_mod.SieveTable, "tau_b", _at(720, lambda v: v + 1), _TRIAL, "tau_3(720)"),
    (sieve_mod.SieveTable, "mobius_table", _entry(30, 0), _TRIAL, "mobius(30)"),
    (sieve_mod.SieveTable, "liouville_table", _entry(4096, -1), _TRIAL,
     "liouville_table[4096]"),
    (forms, "zero_count_mod", _zero_count_fault, ("lemmas", "zero-count-bound"),
     "((-3, -3, -3), 3, 2)"),
    (forms, "gcd_bound_check", _gcd_row_fault, ("lemmas", "gcd-bound-fuzz"),
     "([10, 1, -9, 13, 6], 833, 3494, 0, 1)"),
], ids=["liouville", "mangoldt-prime-power", "mangoldt-not-prime-power", "tau3",
        "mobius-entry", "liouville-entry", "zero-count", "gcd-row"])
def test_battery_names_the_first_fault(monkeypatch, owner, attr, fault, check, detail):
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    suite, name = check
    (res,) = [c for c in harness.verify_battery(suite) if c.name == name]
    assert (res.ok, res.detail) == (False, f"AssertionError: {detail}")


def test_hensel_floor_stops_at_the_draw_cap(monkeypatch):
    draws = []

    def never(inst, p):
        draws.append(inst)
        return chatelet.PadicVerdict("no", None, 1)

    monkeypatch.setattr(chatelet, "padic_solvable", never)
    (res,) = [c for c in harness.verify_battery("lemmas") if c.name == "hensel-density-floor"]
    assert not res.ok
    assert res.detail == (f"AssertionError: 0 of 8 instances certified in "
                          f"{harness._HENSEL_DRAWS} draws")
    # the cap counts draws, some of which a zero end coefficient skips
    assert 0 < len(draws) <= harness._HENSEL_DRAWS


def test_verify_kind_through_runner(tmp_path):
    cfg = harness.make_config("verify", {"suite": "oracle", "out": str(tmp_path / "v")})
    man = harness.run(cfg)
    recs = _read_jsonl(Path(man.out_dir) / "results.jsonl")
    assert all(r["record"] == "check" for r in recs)
    assert man.failed_checks == 0


# ---------------------------------------------------------------------------
# CLI surface.

def test_cli_verify_exit_zero(tmp_path, capsys):
    code = cli.main(["verify", "--suite", "oracle", "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "ok   oracle/sieve-vs-trial-division: lambda, mu, Lambda-tags, tau_3 agree on 1..20000",
        "ok   oracle/sieve-file-round-trip: save/load round trip preserves the table",
        "ok   oracle/factor-certified: 200 factorizations certified (primality and product)",
        "3/3 checks passed",
    ]


def test_cli_verify_failure_exit_three(tmp_path, capsys, monkeypatch):
    checks = [harness.CheckResult("oracle", "good", True, "fine"),
              harness.CheckResult("lemmas", "bad", False, "AssertionError: (2, 3)")]
    monkeypatch.setattr(harness, "verify_battery", lambda suite: checks)
    code = cli.main(["verify", "--out", str(tmp_path / "v")])
    assert code == 3
    assert capsys.readouterr().out.splitlines() == [
        "ok   oracle/good: fine",
        "FAIL lemmas/bad: AssertionError: (2, 3)",
        "1/2 checks passed",
    ]


def test_cli_hasse_banner(tmp_path, capsys):
    out = tmp_path / "h"
    code = cli.main(["hasse", "--samples", "1", "--mc", "2000", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "m_dk=20 w_desk=7 k_desk=2",
        f"results: {out / 'results.jsonl'} (1 records)",
        f"summary: {out / 'summary.csv'}",
        f"manifest: {out / 'manifest.json'}",
    ]


_RUN_OUT = ["--samples", "1", "--out", "{tmp}/x"]


@pytest.mark.parametrize("argv", [
    ["chowla", "--c", "0.5", *_RUN_OUT],
    ["chowla", "--H", "2", *_RUN_OUT],
    ["chowla", "--grid", "0", *_RUN_OUT],
    ["bh", "--d", "4", *_RUN_OUT],
    ["bh", "--x", "2", *_RUN_OUT],
    ["bh", "--anchor", "--x", "2", *_RUN_OUT],
    ["sieve", "--bound", "100", "--out", "{tmp}/missing/d/s.bin"],
    ["sieve", "--bound", "100", "--out", "{tmp}"],
    # density reads B only at its default of 0 samples
    ["density", "--B", "1e6", "--out", "{tmp}/x"],
    ["density", "--B", "nan", "--out", "{tmp}/x"],
    ["density", "--B", "inf", "--out", "{tmp}/x"],
    ["density", "--B", "1e300", "--out", "{tmp}/x"],
    ["hasse", "--samples", "1", "--x", "10000", "--out", "{tmp}/x"],
    ["chowla", "--H", "10000000000000000000", *_RUN_OUT],
    ["bh", "--H", "10000000000000000000", *_RUN_OUT],
    ["chowla", "--H", str(2**63 - 1), *_RUN_OUT],
    ["bh", "--H", str(2**63 - 1), *_RUN_OUT],
    ["hasse", "--height", "0", *_RUN_OUT],
    ["hasse", "--height", "-5", *_RUN_OUT],
    ["hasse", "--primes", "-5", *_RUN_OUT],
    # {tmp}/file is a regular file, so no directory can be made under it
    ["bh", "--samples", "1", "--out", "{tmp}/file/x"],
    ["chowla", "--workers", "65", *_RUN_OUT],
    # the window's square is over its budget, or its grid over its cap
    ["chowla", "--d", "1", "--H", "10000000000000", "--c", "0.25", *_RUN_OUT],
    ["chowla", "--d", "1", "--H", "1000000000000000000", "--c", "0.25", *_RUN_OUT],
    ["chowla", "--grid", "262145", *_RUN_OUT],
    # Monte-Carlo points outside [1000, _MC_POINTS]
    ["hasse", "--mc", "10000001", *_RUN_OUT],
    ["density", "--mc", "10000001", "--out", "{tmp}/x"],
    ["hasse", "--mc", "999", *_RUN_OUT],
], ids=["c-outside-window", "H-below-3", "grid-0", "bh-d-4", "bh-x-2", "anchor-x-2",
        "sieve-out-missing-dir", "sieve-out-is-directory", "density-B-over-budget",
        "density-B-nan", "density-B-inf", "density-B-1e300", "hasse-x-over-budget",
        "chowla-H-1e19", "bh-H-1e19", "chowla-H-2^63-1", "bh-H-2^63-1", "hasse-height-0",
        "hasse-height-negative", "hasse-primes-negative", "bh-out-under-file",
        "workers-over-ceiling", "chowla-window-H-1e13", "chowla-window-H-1e18",
        "chowla-grid-over-cap", "hasse-mc-over-cap", "density-mc-over-cap",
        "hasse-mc-below-1000"])
def test_cli_config_error_exit_two(tmp_path, capsys, monkeypatch, argv):
    _assert_config_exit_two(tmp_path, capsys, monkeypatch, argv)


def test_cli_unexaminable_out_is_config_error(tmp_path, capsys, monkeypatch):
    # an unsearchable parent makes Path.exists raise PermissionError, which
    # must surface as the config diagnostic, not a traceback
    locked = tmp_path / "locked"
    exists = Path.exists

    def guarded(self, *args, **kwargs):
        if locked in (self, *self.parents):
            raise PermissionError(13, "Permission denied", str(self))
        return exists(self, *args, **kwargs)

    monkeypatch.setattr(Path, "exists", guarded)
    builds = []
    build_sieve = sieve_mod.build_sieve
    monkeypatch.setattr(sieve_mod, "build_sieve", lambda n: builds.append(n) or build_sieve(n))
    code = cli.main(["bh", "--samples", "1", "--out", str(locked / "x")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert builds == []


@pytest.mark.parametrize("kind", ["chowla", "bh"])
def test_cli_H_at_int64_cap_records_overflow(tmp_path, capsys, kind):
    # the largest H the cube can draw runs, and its forms overflow as data
    out = tmp_path / "o"
    assert cli.main([kind, "--samples", "1", "--H", str(2**63 - 2), "--out", str(out)]) == 0
    (rec,) = _read_jsonl(out / "results.jsonl")
    assert rec["record"] == "error" and "overflow" in rec["error"]


def test_cli_kind_mismatch_in_config_file(tmp_path, capsys):
    p = tmp_path / "f.cfg"
    p.write_text("kind=bh\nsamples=1\n")
    code = cli.main(["chowla", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_flags_override_config_file(tmp_path):
    p = tmp_path / "f.cfg"
    p.write_text("H=70\nsamples=5\nseed=4\n")
    out = tmp_path / "run"
    code = cli.main(["chowla", "--config", str(p), "--samples", "2",
                     "--out", str(out)])
    assert code == 0
    recs = _read_jsonl(out / "results.jsonl")
    assert len(recs) == 2
    assert recs[0]["H"] == 70


def test_cli_sieve_round_trip(tmp_path):
    target = tmp_path / "spf.bin"
    assert cli.main(["sieve", "--bound", "500", "--out", str(target)]) == 0
    from formlab.sieve import SieveTable

    table = SieveTable.load(target)
    assert table.bound == 500
    assert table.liouville(12) == -1


def test_cli_sieve_bound_beyond_uint32(tmp_path, capsys, monkeypatch):
    # a uint32 table cannot hold 2^32; the CLI refuses before opening --out
    def refuse(bound):
        raise AssertionError("no table may be built")

    monkeypatch.setattr(sieve_mod.SieveTable, "_build", staticmethod(refuse))
    out = tmp_path / "x"
    assert cli.main(["sieve", "--bound", str(2**32), "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not out.exists()


def test_cli_summarize_json(tmp_path, capsys):
    p = tmp_path / "r.jsonl"
    p.write_text(json.dumps({"statistic": 0.2, "H": 10}) + "\n")
    assert cli.main(["summarize", str(p)]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["count"] == 1


@pytest.mark.parametrize("name", ["missing.jsonl", "."], ids=["missing", "directory"])
def test_cli_summarize_unreadable_path(tmp_path, capsys, name):
    assert cli.main(["summarize", str(tmp_path / name)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_cli_run_prints_mdk_flag(tmp_path, capsys):
    code = cli.main(["hasse", "--samples", "2", "--height", "30", "--primes", "10",
                     "--mc", "2000", "--out", str(tmp_path / "h")])
    out = capsys.readouterr().out
    assert code == 0
    assert "m_dk=20" in out


def test_cli_banner_shows_only_the_desk_fields_read(tmp_path, capsys):
    # density reads w_desk and k_desk but not m_dk, so it neither checks nor prints m_dk
    assert harness.desk_fields("hasse") == ("m_dk", "w_desk", "k_desk")
    assert harness.desk_fields("density") == ("w_desk", "k_desk")
    assert harness.desk_fields("bh") == ()
    harness.make_config("density", {"m_dk": 0})
    with pytest.raises(ConfigError, match="m_dk"):
        harness.make_config("hasse", {"m_dk": 0})
    code = cli.main(["density", "--mc", "1000", "--bins", "4", "--w-desk", "5",
                     "--k-desk", "1", "--out", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "w_desk=5 k_desk=1"
