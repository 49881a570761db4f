"""Acceptance gate: fourteen pinned criteria, one PASS/FAIL line each.

Every criterion prints `C##: PASS/FAIL (detail)` on its own line (run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they happen).
Tolerances and scales are frozen here and must not be loosened; two criteria
are expected to fail at desk scale for structural reasons recorded alongside
them, and each carries a supplementary test demonstrating the diagnosis.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from formlab import chatelet as ch
from formlab import forms as fm
from formlab import harness
from formlab import normforms as nf
from formlab.rng import philox
from formlab.sieve import build_sieve, gcd_divisibility_counts


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"C{num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared experiment runs.  Criteria 9-13 each pin one protocol; criterion 14
# reruns every one of them at worker counts 1 and 8 and compares bytes, so
# both runs happen here and the single-worker stream feeds the assertions.

_PROTOCOLS = {
    "c09": ("density", {"samples": 50, "w_desk": 5, "k_desk": 1}),
    "c10": ("chowla", {}),
    "c11": ("bh", {}),
    "c12": ("bh", {"anchor": True, "x": 1000}),
    "c13": ("hasse", {}),
}


@dataclass(frozen=True)
class RunPair:
    cfg: harness.ExperimentConfig
    sha_w1: str
    sha_w8: str
    records: tuple
    summary: dict


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    out = {}
    for name, (kind, settings) in _PROTOCOLS.items():
        shas = {}
        cfg1 = None
        for w in (1, 8):
            cfg = harness.make_config(
                kind, {**settings, "workers": w, "out": str(base / f"{name}_w{w}")}
            )
            man = harness.run(cfg)
            shas[w] = man.files["results.jsonl"]
            if w == 1:
                cfg1 = cfg
        lines = (base / f"{name}_w1" / "results.jsonl").read_text().splitlines()
        csv = (base / f"{name}_w1" / "summary.csv").read_text().splitlines()[1:]
        out[name] = RunPair(
            cfg=cfg1,
            sha_w1=shas[1],
            sha_w8=shas[8],
            records=tuple(json.loads(l) for l in lines),
            summary=dict(l.split(",", 1) for l in csv),
        )
    return out


# ---------------------------------------------------------------------------
# C1: sieve vs an independent trial-division oracle, all n <= 1e5.

def _trial_factor(n: int) -> dict[int, int]:
    fac = {}
    while n % 2 == 0:
        fac[2] = fac.get(2, 0) + 1
        n //= 2
    f = 3
    while f * f <= n:
        while n % f == 0:
            fac[f] = fac.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def test_c01_sieve_oracle():
    t0 = time.monotonic()
    tab = build_sieve(10**5)
    bad = 0
    for n in range(1, 10**5 + 1):
        fac = _trial_factor(n)
        omega = sum(fac.values())
        lam = -1 if omega % 2 else 1
        mu = 0 if any(e > 1 for e in fac.values()) else (-1 if len(fac) % 2 else 1)
        if tab.liouville(n) != lam or tab.mobius(n) != mu:
            bad += 1
            continue
        tag = tab.mangoldt(n)
        if len(fac) == 1:
            ((p, k),) = fac.items()
            if tag.prime != p or tag.exponent != k or tag.value != math.log(p):
                bad += 1
                continue
        elif tag.value != 0.0 or tag.prime is not None or tag.exponent != 0:
            bad += 1
            continue
        t2 = t3 = 1
        for e in fac.values():
            t2 *= e + 1
            t3 *= math.comb(e + 2, 2)
        if tab.tau_b(n, 2) != t2 or tab.tau_b(n, 3) != t3:
            bad += 1
    dt = time.monotonic() - t0
    _verdict(1, bad == 0 and dt < 10.0,
             f"lambda/mu/Lambda-tag/tau_b exact on n<=1e5, {bad} mismatches, {dt:.1f}s")


def test_c02_mertens():
    t0 = time.monotonic()
    tab = build_sieve(10**6)
    total = int(tab.mobius_table()[1:].sum())
    dt = time.monotonic() - t0
    _verdict(2, total == 212 and dt < 5.0, f"sum mu(n) n<=1e6 = {total}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# C3: zero-count bound over every separable form of degree <= 3, |c_i| <= 5,
# all q = p^k with p in {2,3,5,7} and k <= 3.

def test_c03_zero_count_bound_suite():
    violations = 0
    checked = 0
    for deg in (1, 2, 3):
        forms = [fm.BinaryForm(t)
                 for t in itertools.product(range(-5, 6), repeat=deg + 1)]
        forms = [f for f in forms if f.is_separable]
        rows = np.array([f.coeffs for f in forms], dtype=np.int64)
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3):
                counts = fm.zero_count_mod(rows, p**k)
                for f, cnt in zip(forms, counts):
                    res = fm.zero_count_bound_check(f, p, k, count=int(cnt))
                    checked += 1
                    violations += not res.holds
    _verdict(3, violations == 0, f"{checked} bound checks, {violations} violations")


# ---------------------------------------------------------------------------
# C4: the gcd bound on 1e6 fuzzed inputs, then the prime-power divisibility
# statistic count * q^(1/(2 max)) / x^2 stays below a constant fitted on the
# small-modulus regime, across all prime powers q <= 1e4.

def test_c04_gcd_bound_and_divisibility():
    rng = philox(20260816, 4)
    size = 10**6
    # one array draw per quantity; row i keeps the first deg_i + 1 coefficients
    degs = rng.integers(1, 4, size=size)
    block = rng.integers(-9, 10, size=(size, 4))
    ms = rng.integers(1, 1001, size=size)
    ns = rng.integers(1, 1001, size=size)
    ls = rng.integers(1, degs + 1)
    ks = rng.integers(0, ls)
    violations = 0
    failed = []
    for deg in (1, 2, 3):  # one array check per degree, over rows with nonzero ends
        idx = np.flatnonzero(degs == deg)
        idx = idx[(block[idx, 0] != 0) & (block[idx, deg] != 0)]
        res = fm.gcd_bound_check(block[idx, : deg + 1], ms[idx], ns[idx], ks[idx], ls[idx])
        violations += int(np.count_nonzero(~res.holds))
        failed += idx[~res.holds][:1].tolist()
    i = min(failed, default=None)  # the first failing draw, as (coeffs, m, n, k, l)
    first = "" if i is None else (
        f"first gcd failure {(block[i, : degs[i] + 1].tolist(), *(int(a[i]) for a in (ms, ns, ks, ls)))}, ")

    tab = build_sieve(10**4)
    pps = []
    for p in tab.primes():
        q = p
        while q <= 10**4:
            pps.append(q)
            q *= p
    x = 200
    worst = []
    for a, b, c in itertools.product((1, 2), repeat=3):
        mx = max(a, b, c)
        counts = gcd_divisibility_counts(pps, a, b, c, x)
        stats = {q: int(n) * q ** (1 / (2 * mx)) / x**2 for q, n in zip(pps, counts)}
        fitted = max(v for q, v in stats.items() if q <= 100)
        excess = sum(1 for v in stats.values() if v > fitted)
        worst.append(((a, b, c), fitted, excess))
        violations += excess
    detail = "; ".join(f"{t}: fit={f:.3f}" for t, f, _ in worst[:2])
    _verdict(4, violations == 0,
             f"1e6 gcd fuzz + {len(pps)} moduli x 8 triples, "
             f"{violations} violations, {first}{detail}, ...")


# ---------------------------------------------------------------------------
# C5: CRT multiplicativity of the residue counts and the congruence densities
# for every coprime modulus pair with product <= 60, over both degree-2 fields.

_C5_FORMS = [(1, 0, 1), (2, 3, 1), (3, 0, 21), (-2, 5, -3)]


def test_c05_crt_multiplicativity():
    fields = nf.field_presets()
    pairs = [(q1, q2) for q1 in range(2, 31) for q2 in range(q1 + 1, 61)
             if q1 * q2 <= 60 and math.gcd(q1, q2) == 1]
    bad = 0
    ncheck = 0
    for fname in ("gaussian", "sqrt2"):
        field = fields[fname]
        for q1, q2 in pairs:
            n1 = nf.norm_residue_counts(field, q1)
            n2 = nf.norm_residue_counts(field, q2)
            n12 = nf.norm_residue_counts(field, q1 * q2)
            for a in range(q1 * q2):
                ncheck += 1
                bad += int(n12[a]) != int(n1[a % q1]) * int(n2[a % q2])
            for coeffs in _C5_FORMS:
                inst = ch.make_instance(field, coeffs)
                ncheck += 1
                if ch.sigma_mod(inst, q1 * q2) != (
                    ch.sigma_mod(inst, q1) * ch.sigma_mod(inst, q2)
                ):
                    bad += 1
    _verdict(5, bad == 0,
             f"{len(pairs)} coprime pairs x 2 fields, {ncheck} identities, {bad} failures")


# ---------------------------------------------------------------------------
# C6: ideal-count coefficients match the hand-convolved local factor to
# j <= 12, and the normalized coefficients stay below tau(k)^(e+1) to k <= 1e4.

def _euler_series(field, p: int, jmax: int) -> list[int]:
    series = [1] + [0] * jmax
    for f, _ in nf.splitting_type(field, p):
        nxt = [0] * (jmax + 1)
        for j in range(0, jmax + 1, f):
            for i in range(jmax + 1 - j):
                nxt[i + j] += series[i]
        series = nxt
    return series


def test_c06_dedekind_suite():
    fields = nf.field_presets()
    bad = 0
    for fname in ("gaussian", "sqrt2", "cbrt2"):
        field = fields[fname]
        for p in (2, 3, 5, 7, 11, 13):
            local = nf.DedekindLocal.build(field, p)
            want = _euler_series(field, p, 12)
            for j in range(13):
                bad += local.ideal_count(j) != want[j]
    tab = build_sieve(10**4)
    over = 0
    for fname in ("gaussian", "cbrt2"):
        field = fields[fname]
        e1 = field.degree + 1
        for k in range(1, 10**4 + 1):
            if abs(nf.b_coeff(field, k, 14)) > tab.tau_b(k, 2) ** e1:
                over += 1
    _verdict(6, bad == 0 and over == 0,
             f"factor identity j<=12 ({bad} bad), |b(k)| bound k<=1e4 ({over} over)")


# ---------------------------------------------------------------------------
# C7: for every certified solvable-with-level-alpha verdict over the full
# coefficient cube |c_i| <= 5, the congruence density at p^k clears the
# lifting floor p^(-(alpha+1)(e+1)).

def test_c07_hensel_floor():
    field = nf.field_presets()["gaussian"]
    certified = 0
    violations = 0
    for t in itertools.product(range(-5, 6), repeat=3):
        try:
            inst = ch.make_instance(field, t)
        except ValueError:
            continue
        for p in (3, 5):
            v = ch.padic_solvable(inst, p, 3)
            if v.kind != "yes":
                continue
            certified += 1
            floor = Fraction(1, p ** ((v.alpha + 1) * 3))
            for k in (1, 2, 3):
                violations += ch.sigma_pp(inst, p, k) < floor
    _verdict(7, certified > 1000 and violations == 0,
             f"{certified} certified verdicts, {violations} floor violations")


# ---------------------------------------------------------------------------
# C8: the binned real-density curve integrates to the region volume within
# 3 combined standard errors at B = 12 with 1e5 samples; the curve vanishes
# off the certified support and is positive at the basepoint value B^e / 2.

def test_c08_archimedean_density():
    field = nf.field_presets()["gaussian"]
    region = nf.RegionB(nf.NormForm(field), 12.0)
    profile = nf.DensityProfile.draw(region, 10**5, 11)
    lo, hi = region.support
    h = profile.half_width
    nbins = 40
    edges = np.linspace(lo - h, hi + h, nbins + 1)
    centers = (edges[:-1] + edges[1:]) / 2
    step = float(edges[1] - edges[0])
    total, se = profile.aggregate(centers.tolist(), [step] * nbins)
    z = abs(total - region.volume) / se
    out1, _ = profile.estimate(hi + 1.0)
    out2, _ = profile.estimate(lo - 1.0)
    mid, _ = profile.estimate(12.0**2 / 2)
    ok = z <= 3.0 and out1 == 0.0 and out2 == 0.0 and mid > 0.0
    _verdict(8, ok, f"sum={total:.3f} vol={region.volume:.3f} z={z:.2f}, "
                    f"outside=({out1},{out2}), at B^e/2: {mid:.4f}")


# ---------------------------------------------------------------------------
# C9: exact vs localized counts on 50 sampled instances.  The localized model
# at the pinned desk window (w_desk=5, k_desk=1, so W = 30) carries a
# systematic per-instance bias that 3 error bars do not absorb; the criterion
# is asserted as written and fails, and the supplement below shows the same
# pipeline landing within a few percent once the window grows.

def test_c09_localized_error_bars(runs):
    recs = [r for r in runs["c09"].records if r["record"] == "instance"]
    within = sum(r["within"] for r in recs)
    _verdict(9, len(recs) == 50 and within >= 45,
             f"|Nc - Nc_hat| <= 3 err on {within}/50 instances (need >= 45)")


def test_c09_supplement_window_convergence(runs):
    pair = runs["c09"]
    recs = [r for r in pair.records if r["record"] == "instance"]
    state = harness._state_for(pair.cfg)
    W = ch.model_W(19, 3)
    gaps = []
    for r in recs:
        inst = ch.make_instance(state["field"], r["coeffs"])
        est, _ = ch.localized_Nc(inst.field, ch.value_table(inst, pair.cfg.x), W,
                                 profile=state["profile"])
        gaps.append(abs(r["Nc"] - est) / max(r["Nc"], est, 1.0))
    med = float(np.median(gaps))
    assert med <= 0.05, f"strong-window median relative gap {med:.4f}"
    print(f"C09 supplement: median relative gap {med:.4f} at W = {W} (<= 0.05)")


# ---------------------------------------------------------------------------
# C10: the sign-correlation statistic at H = 1e3, c = 0.08 over 200 forms.
# The scale window [H^c, 2H^c] tops out below x = 3.5 for every admissible
# exponent at this H, where the sup of |S(x)|/x^2 has a hard floor of
# 1/H^(2c) ~ 0.33 whenever g(1,1) != 0; the pinned medians are therefore
# unreachable at these scales.  Asserted as written; supplement pins the floor.

def test_c10_chowla_smoke(runs):
    stats = np.array([r["statistic"] for r in runs["c10"].records
                      if r["statistic"] is not None])
    med = float(np.median(stats))
    frac = float(np.mean(stats < 0.15))
    _verdict(10, len(stats) == 200 and med <= 0.05 and frac >= 0.90,
             f"median={med:.4f} (need <= 0.05), below-0.15 fraction={frac:.2f} "
             f"(need >= 0.90)")


def test_c10_supplement_statistic_floor(runs):
    stats = np.array([r["statistic"] for r in runs["c10"].records])
    floor = 1.0 / 1000.0 ** (2 * 0.08)
    assert float(np.median(stats)) >= floor
    assert float(np.min(stats)) >= floor - 1e-12
    print(f"C10 supplement: every sampled statistic >= {floor:.4f}, "
          f"the window floor at H=1e3")


# ---------------------------------------------------------------------------
# C11: correlation vs the local-density product on 50 admissible forms.

def test_c11_bh_smoke(runs):
    recs = [r for r in runs["c11"].records if r["record"] == "sample"]
    g = np.array([abs(r["ratio"] - 1.0) for r in recs])
    gw = np.array([abs(r["ratio_w"] - 1.0) for r in recs])
    med, medw = float(np.median(g)), float(np.median(gw))
    _verdict(11, len(recs) == 50 and med <= 0.25 and medw <= 0.15,
             f"median |C/S - 1| = {med:.4f} (<= 0.25), "
             f"median |C_w/S - 1| = {medw:.4f} (<= 0.15)")


def test_c12_prime_count_anchor(runs):
    recs = runs["c12"].records
    anchor = recs[0]
    ok = (len(recs) == 1 and anchor["record"] == "anchor"
          and anchor["series"] == "1"
          and abs(anchor["C"] - 0.9968) <= 0.0005)
    _verdict(12, ok, f"C = {anchor['C']:.6f} (0.9968 +- 0.0005), "
                     f"series = {anchor['series']}")


def test_c13_hasse_smoke(runs):
    pair = runs["c13"]
    recs = [r for r in pair.records if r["record"] == "sample"]
    found = sum(r["class"] == "rational-point-found" for r in recs)
    unknown = sum(r["class"] == "unknown" for r in recs)
    local = found + unknown
    ratio = found / local if local else None
    violations = sum(
        r["class"] == "rational-point-found"
        and any(v == "no" for v in r["padic"].values())
        for r in recs
    )
    assert float(pair.summary["ratio_lower_bound"]) == ratio
    assert int(pair.summary["violations"]) == violations
    _verdict(13, len(recs) == 400 and ratio is not None and ratio >= 0.85
             and violations == 0,
             f"found/local = {found}/{local} = {ratio}, "
             f"{violations} consistency violations")


# results.jsonl digests of the C09-C13 runs; C14 holds them at 8 workers too
_RUN_DIGESTS = {
    "c09": "44cdd60a320741cc2c8274b4269b122f73d753faeffc4cb9051948cd0020cf33",
    "c10": "fce9bc3443dafd765fb6e8d562ff21f8cb1c91fe1c4d3f9acb16556212bb7548",
    "c11": "85b19bf5b4a9b45872d8caacb9044a0482cdfda247694cfec50503ef67e7569a",
    "c12": "823d319c19b8ad7156653f028274a18beca39b4a3c0fcc7411313a6c2bc54873",
    "c13": "064aba3a54a0177cb18ac86272645247380ea6cef0569b6c4f7a57e328f0341c",
}


def test_protocol_records_pinned(runs):
    assert {name: pair.sha_w1 for name, pair in runs.items()} == _RUN_DIGESTS


def test_c14_worker_determinism(runs):
    mismatched = [name for name, pair in runs.items() if pair.sha_w1 != pair.sha_w8]
    _verdict(14, not mismatched,
             f"5 protocols byte-identical at workers 1 vs 8"
             + (f"; mismatched: {mismatched}" if mismatched else ""))
