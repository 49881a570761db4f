"""Liouville sup statistics and prime-correlation checks.

Brute-force double sums and sympy factorizations serve as the oracles;
library results are compared against them on worked examples and fuzz.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlab import chowla_bh, harness
from formlab.arith import primes
from formlab.chowla_bh import (
    WTrick,
    bh_admissible,
    bh_correlation,
    chowla_block,
    exponent_cap,
    is_irreducible,
    series_cutoff,
    singular_series,
)
from formlab.errors import RecordError, ResourceLimitError
from formlab.forms import BinaryForm, CombinatorialCube
from formlab.rng import philox
from formlab.sieve import SieveTable


def oracle_liouville(n):
    n = abs(n)
    if n == 0:
        return 0
    return (-1) ** sum(sympy.factorint(n).values())


def oracle_mangoldt(n):
    n = abs(n)
    if n < 2:
        return 0.0
    fac = sympy.factorint(n)
    if len(fac) == 1:
        return math.log(next(iter(fac)))
    return 0.0


def oracle_square_sum(form, top):
    """sum of lambda(g(u, v)) over 1 <= u, v <= top, by direct loops."""
    return sum(
        oracle_liouville(form(u, v)) for u in range(1, top + 1) for v in range(1, top + 1)
    )


def oracle_statistic(form, xs):
    best = 0.0
    vals = []
    for x in xs:
        top = math.floor(x)
        s = oracle_square_sum(form, top) if top >= 1 else 0
        v = abs(s) / (x * x)
        vals.append(v)
        best = max(best, v)
    return best, vals


def one_row(form, scale, exponent, sieve, grid_size=16):
    """(grid, statistic, trace) of one form, as a one-row block."""
    block = chowla_block([form.coeffs], scale, exponent, sieve, grid_size)
    return block.grid, float(block.statistic[0]), block.trace[0].tolist()


def lambda_partial_sums(limit):
    out = [0] * (limit + 1)
    for n in range(1, limit + 1):
        out[n] = out[n - 1] + oracle_liouville(n)
    return out


# ---------------------------------------------------------------------------
# sup statistic

def test_worked_product_form_grid_all(sieve_small):
    # g = uv: the double sum factors into (sum of lambda(u))^2.
    grid, stat, trace = one_row(BinaryForm([0, 1, 0]), 10**4, 0.13, sieve_small, "all")
    lo = (10**4) ** 0.13
    assert grid[0] == pytest.approx(lo)
    assert [x for x in grid[1:]] == [4.0, 5.0, 6.0]
    M = lambda_partial_sums(6)
    for x, val in zip(grid, trace):
        top = math.floor(x)
        assert val == pytest.approx(M[top] ** 2 / (x * x))
    assert stat == pytest.approx(M[3] ** 2 / (lo * lo))


def test_worked_linear_form(sieve_small):
    # g = u: statistic reduces to |sum of lambda(u)| / x at integer x.
    grid, stat, trace = one_row(BinaryForm([1, 0]), 10**4, 0.25, sieve_small, "all")
    M = lambda_partial_sums(20)
    for x, val in zip(grid, trace):
        if x == int(x):
            assert val == pytest.approx(abs(M[int(x)]) / x)
    assert stat == max(trace)


def test_worked_even_power_is_one(sieve_small):
    # g = v^2: every value is a square, lambda = 1, so the sup hits 1
    # exactly at integer grid points.
    _, stat, _ = one_row(BinaryForm([0, 0, 1]), 1000, 0.13, sieve_small, "all")
    assert stat == pytest.approx(1.0)


def test_zero_form_statistic_zero(sieve_small):
    _, stat, _ = one_row(BinaryForm([0, 0, 0]), 1000, 0.1, sieve_small, "all")
    assert stat == 0.0


def test_statistic_matches_oracle_fuzz(sieve_1m):
    rng = philox(77, "chowla-fuzz")
    cases = [(1, 400, 0.25), (2, 10**6, 0.12), (3, 10**8, 0.085)]
    for d, H, c in cases:
        for trial in range(6):
            coeffs = [int(v) for v in rng.integers(-9, 10, size=d + 1)]
            if all(v == 0 for v in coeffs):
                coeffs[0] = 1
            g = BinaryForm(coeffs)
            for grid in ("all", 16):
                xs, stat, trace = one_row(g, H, c, sieve_1m, grid)
                best, vals = oracle_statistic(g, xs)
                assert stat == best
                assert trace == vals
                assert 0.0 <= stat <= 1.0
            # the integer grid realizes the true sup over the window
            s_all = one_row(g, H, c, sieve_1m, "all")[1]
            s_16 = one_row(g, H, c, sieve_1m, 16)[1]
            assert s_all >= s_16 - 1e-12


_SIEVE_30 = SieveTable(30)


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from([(1, 400, 0.25), (2, 10**4, 0.13), (2, 10**6, 0.12), (3, 1000, 0.08),
                          (3, 10**8, 0.085)]),
    coeffs=st.lists(st.integers(-40, 40), min_size=4, max_size=4),
    grids=st.lists(st.sampled_from(["all", 1, 2, 5, 16]), min_size=2, max_size=2),
)
def test_statistic_exact_against_oracle(case, coeffs, grids):
    # Sieve bound 30: most values lie beyond the table and take the scalar
    # lambda path.  Zero and negative coefficients (and the zero form) occur.
    d, H, c = case
    g = BinaryForm(coeffs[: d + 1])
    first, other = grids
    block = chowla_block([g.coeffs], H, c, _SIEVE_30, first)
    before = (block.grid, float(block.statistic[0]), block.trace[0].tolist())
    assert isinstance(block.grid, tuple)
    best, vals = oracle_statistic(g, block.grid)
    assert before[1] == best
    assert before[2] == vals
    # a later call with another grid leaves the earlier result as it was
    later = one_row(g, H, c, _SIEVE_30, other)
    assert later[1] == oracle_statistic(g, later[0])[0]
    assert (block.grid, float(block.statistic[0]), block.trace[0].tolist()) == before
    assert one_row(g, H, c, _SIEVE_30, first) == before


_WILD = st.integers(-(2**63), 2**63 - 1)


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from([(1, 400, 0.25), (2, 10**6, 0.12), (3, 10**8, 0.085),
                          (4, 10**6, 0.06)]),
    rows=st.lists(
        st.one_of(st.lists(st.integers(-40, 40), min_size=5, max_size=5),
                  st.lists(st.one_of(st.integers(-40, 40), _WILD), min_size=5, max_size=5)),
        min_size=1, max_size=6),
    grid=st.sampled_from([16, "all"]),
)
@example(case=(1, 400, 0.25), rows=[[-(2**63), 0, 0, 0, 0], [1, 2, 0, 0, 0],
                                    [2**58, 2**58, 0, 0, 0], [2**58, 1 - 2**58, 0, 0, 0],
                                    [0] * 5], grid="all")  # 8 * (|c0| + |c1|) at 2^62 and below
def test_block_matches_statistic_row_by_row(case, rows, grid):
    # a block mixing rows refused for overflow with computed rows equals
    # one-row blocks run row by row; values beyond the 30-entry sieve
    # take the scalar lambda path
    d, H, c = case
    rows = [r[: d + 1] for r in rows]
    block = chowla_block(np.array(rows, dtype=np.int64), H, c, _SIEVE_30, grid)
    assert block.sums.shape == (len(rows), len(block.grid))
    stats, traces = block.statistic.tolist(), block.trace.tolist()
    for r, row in enumerate(rows):
        alone = chowla_block([row], H, c, _SIEVE_30, grid)
        assert alone.overflow[0] == block.overflow[r]
        if block.overflow[r]:
            assert not block.sums[r].any()
            continue
        assert block.grid == alone.grid
        assert stats[r] == alone.statistic[0]
        assert traces[r] == alone.trace[0].tolist()


def test_block_guard_splits_evaluation(monkeypatch, sieve_small):
    # with the entry budget below one form's square every form is evaluated
    # on its own, with the same sums
    rows = CombinatorialCube(2, 50).sample_rows(3, range(40))
    whole = chowla_block(rows, 10**4, 0.13, sieve_small)
    monkeypatch.setattr(chowla_bh, "_EVAL_BLOCK", 1)
    alone = chowla_block(rows, 10**4, 0.13, sieve_small)
    assert np.array_equal(whole.sums, alone.sums)
    assert whole.statistic.tolist() == alone.statistic.tolist()


def test_block_budget_and_empty(sieve_small):
    with pytest.raises(ResourceLimitError, match="double-sum budget"):
        chowla_block(np.zeros((3, 2), dtype=np.int64), 10**13, 0.25, sieve_small)
    empty = chowla_block(np.zeros((0, 4), dtype=np.int64), 1000, 0.08, sieve_small)
    assert empty.statistic.shape == (0,) and empty.trace.shape == (0, len(empty.grid))


def test_statistic_validation(sieve_small):
    row = [[1, 0, 1]]
    with pytest.raises(ValueError):
        chowla_block(row, 1000, 0.14, sieve_small)  # above 5/(19*2)
    with pytest.raises(ValueError):
        chowla_block(row, 1000, 0.0, sieve_small)
    with pytest.raises(ValueError):
        chowla_block(row, 2, 0.1, sieve_small)
    with pytest.raises(ValueError):
        chowla_block(row, 1000, 0.1, sieve_small, grid_size=0)
    assert exponent_cap(1) == pytest.approx(5 / 19)


def test_default_grid_shape(sieve_small):
    grid = chowla_block([[1, 0, 1]], 10**4, 0.1, sieve_small).grid
    lo = (10**4) ** 0.1
    assert grid[0] == pytest.approx(lo)
    assert grid[-1] == pytest.approx(2 * lo)
    assert 16 <= len(grid) <= 18
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_chowla_experiment_aggregation(tmp_path, sieve_small):
    out = tmp_path / "chowla"
    harness.run(harness.make_config("chowla", {"d": 2, "H": 100, "c": 0.13, "samples": 8,
                                               "seed": 5, "out": str(out)}))
    recs = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    cube = CombinatorialCube(degree=2, side=100)
    stats = [one_row(cube.sample(5, i), 100, 0.13, sieve_small)[1] for i in range(8)]
    assert [r["statistic"] for r in recs] == stats
    rows = dict(line.split(",", 1)
                for line in (out / "summary.csv").read_text().splitlines()[1:])
    assert float(rows["median_statistic"]) == float(np.median(stats))
    threshold = 1.0 / math.log(100)
    assert float(rows["exceptional_A1"]) == sum(1 for s in stats if s > threshold) / 8


# ---------------------------------------------------------------------------
# local-density product

def test_series_worked_gaussian_cutoff():
    val = singular_series([BinaryForm([1, 0, 1])], x=100, cutoff=3)
    assert val == Fraction(4, 3)


def test_series_unit_for_coordinate_form():
    for x in (10, 1000, 10**6):
        assert singular_series([BinaryForm([1, 0])], x) == 1


def test_series_unit_for_coordinate_pair():
    assert singular_series([BinaryForm([1, 0]), BinaryForm([0, 1])], x=10**4) == 1


def test_series_zero_on_even_content():
    assert singular_series([BinaryForm([2, 4, 6])], x=1000) == 0


def test_series_default_cutoff_matches_explicit():
    g = BinaryForm([1, 1, 3])
    x = 5000
    assert series_cutoff(x) == int(math.exp(math.sqrt(math.log(x))))
    assert singular_series([g], x) == singular_series([g], x, cutoff=series_cutoff(x))


def test_series_variable_swap_invariance():
    rng = philox(3, "series-swap")
    for _ in range(10):
        coeffs = [int(v) for v in rng.integers(-6, 7, size=3)]
        if all(c == 0 for c in coeffs):
            coeffs[1] = 1
        g = BinaryForm(coeffs)
        h = BinaryForm(list(reversed(coeffs)))
        assert singular_series([g], 10**4) == singular_series([h], 10**4)
        assert singular_series([g], 10**4) == singular_series([BinaryForm([-c for c in coeffs])], 10**4)


def test_series_order_invariance():
    g, h = BinaryForm([1, 0, 1]), BinaryForm([1, 1])
    assert singular_series([g, h], 200) == singular_series([h, g], 200)


def test_lagrange_zero_count_bound():
    # nonzero count mod p of a degree-d form with p not dividing the
    # content stays below p(d+1); this is what keeps factors bounded.
    from formlab.forms import zero_count_mod

    rng = philox(9, "lagrange")
    for _ in range(40):
        d = int(rng.integers(1, 4))
        coeffs = [int(v) for v in rng.integers(-9, 10, size=d + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        g = BinaryForm(coeffs)
        for p in (2, 3, 5, 7, 11, 13, 37):
            if g.content % p == 0:
                continue
            z = zero_count_mod(g, p)
            assert z <= 1 + (p - 1) * (d + 1) < p * (d + 1) + 1


def test_series_truncation_window():
    # extending the cutoff multiplies by per-prime factors that are
    # squeezed between 1 - (d+1)/p and (1 - 1/p)^(-r)
    g = BinaryForm([1, 1, 1])
    d, r = 2, 1
    P, Q = 10, 40
    sP = singular_series([g], 10, cutoff=P)
    sQ = singular_series([g], 10, cutoff=Q)
    lo_bound = Fraction(1)
    hi_bound = Fraction(1)
    for p in primes(Q):
        if p <= P:
            continue
        lo_bound *= 1 - Fraction(d + 1, p)
        hi_bound *= (1 - Fraction(1, p)) ** (-r)
    assert sP * lo_bound <= sQ <= sP * hi_bound


def test_series_validation():
    with pytest.raises(ValueError):
        singular_series([], 100)
    with pytest.raises(ValueError):
        singular_series([BinaryForm([0, 0])], 100)
    with pytest.raises(ValueError):
        singular_series([BinaryForm([1, 0])], 2)


# ---------------------------------------------------------------------------
# coprimality weight

def test_wtrick_worked():
    t = WTrick.for_x(300)
    assert t.modulus == 210
    assert t.density == Fraction(35, 8)
    assert WTrick.for_x(310).modulus == 210  # cutoff exp(sqrt(log 310)) = 10.97
    assert WTrick.for_x(3).modulus == 2  # cutoff 2.85
    with pytest.raises(ValueError):
        WTrick.for_x(2)


# ---------------------------------------------------------------------------
# correlations

def test_cramer_identity_direct_enumeration(sieve_small):
    # r = 1: the surrogate equals the plain average of the coprimality
    # weight (W/phi(W) on values coprime to W, else 0) over the grid,
    # computed here by direct loops.
    g = BinaryForm([1, 2, -1])
    x = 200
    res = bh_correlation([g], x, sieve_small)
    trick = WTrick.for_x(x)
    assert res.w_modulus == trick.modulus
    assert trick.density == Fraction(trick.modulus, int(sympy.totient(trick.modulus)))
    direct = Fraction(0)
    for m in range(1, x + 1):
        for n in range(1, x + 1):
            if math.gcd(g(m, n), trick.modulus) == 1:
                direct += trick.density
    assert res.cramer == direct / (x * x)


def test_pnt_anchor(sieve_1m):
    res = bh_correlation([BinaryForm([1, 0])], 1000, sieve_1m)
    psi = 0.0
    for p in sympy.primerange(2, 1001):
        psi += math.floor(math.log(1000) / math.log(p)) * math.log(p)
    assert res.correlation == pytest.approx(psi / 1000, rel=1e-12)
    assert res.series == 1
    assert abs(res.correlation - 0.9968) <= 5e-4


def test_correlation_two_forms_oracle(sieve_small):
    g1, g2 = BinaryForm([1, 0]), BinaryForm([1, 2])
    x = 50
    res = bh_correlation([g1, g2], x, sieve_small)
    direct = math.fsum(
        oracle_mangoldt(g1(m, n)) * oracle_mangoldt(g2(m, n))
        for m in range(1, x + 1)
        for n in range(1, x + 1)
    )
    assert res.correlation == pytest.approx(direct / (x * x), rel=1e-9)
    W = res.w_modulus
    count = sum(
        1
        for m in range(1, x + 1)
        for n in range(1, x + 1)
        if math.gcd(g1(m, n), W) == 1 and math.gcd(g2(m, n), W) == 1
    )
    dens = Fraction(W, sympy.totient(W))
    assert res.cramer == dens**2 * Fraction(count, x * x)


def test_bh_result_consistency(sieve_small):
    res = bh_correlation([BinaryForm([1, 1])], 100, sieve_small)
    assert res.ratio == pytest.approx(res.correlation / float(res.series))
    assert isinstance(res.cramer, Fraction)
    assert isinstance(res.series, Fraction)


def test_correlation_budget_guards(sieve_small):
    with pytest.raises(ResourceLimitError):
        bh_correlation([BinaryForm([1, 0])], 4000, sieve_small)
    with pytest.raises(ResourceLimitError):
        bh_correlation([BinaryForm([2**61, 0])], 100, sieve_small)
    with pytest.raises(ValueError):
        bh_correlation([BinaryForm([1, 0])], 1, sieve_small)


# ---------------------------------------------------------------------------
# admissibility and deterministic rejection streams

def test_is_irreducible_worked():
    assert is_irreducible(BinaryForm([1, 0, 1]))  # u^2 + v^2
    assert is_irreducible(BinaryForm([1, 0, -2]))  # u^2 - 2 v^2
    assert is_irreducible(BinaryForm([1, 0, 0, 2]))  # u^3 + 2 v^3
    assert is_irreducible(BinaryForm([3, 7]))
    assert not is_irreducible(BinaryForm([0, 1, 0]))  # uv
    assert not is_irreducible(BinaryForm([1, 0, -1]))  # (u-v)(u+v)
    assert not is_irreducible(BinaryForm([1, 0, 0, -1]))  # u - v divides
    assert not is_irreducible(BinaryForm([0, 0, 0]))
    with pytest.raises(ValueError):
        is_irreducible(BinaryForm([1, 0, 0, 0, 1]))


def test_is_irreducible_matches_sympy():
    t = sympy.symbols("t")
    rng = philox(21, "irred")
    for _ in range(120):
        d = int(rng.integers(2, 4))
        coeffs = [int(v) for v in rng.integers(-5, 6, size=d + 1)]
        if coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        poly = sympy.Poly(sum(c * t ** (d - i) for i, c in enumerate(coeffs)), t, domain="QQ")
        assert is_irreducible(BinaryForm(coeffs)) == poly.is_irreducible


_U, _V = sympy.symbols("u v")


@settings(max_examples=300, deadline=None)
@given(coeffs=st.integers(1, 3).flatmap(
    lambda d: st.lists(st.integers(-12, 12), min_size=d + 1, max_size=d + 1)))
@example(coeffs=[0, 0, 0])  # the zero form
@example(coeffs=[0, 0])
@example(coeffs=[0, 1, 1, 1])  # c0 = 0: v divides, u^2 + uv + v^2 cofactor
@example(coeffs=[1, 1, 1, 0])  # c_d = 0: u divides
@example(coeffs=[0, 5])  # d = 1 with c0 = 0
@example(coeffs=[4, 0, -9])  # (2u - 3v)(2u + 3v): roots 3/2 and -3/2
@example(coeffs=[6, 0, 0, 10])  # content 2, irreducible cubic
def test_is_irreducible_matches_sympy_factor_list(coeffs):
    d = len(coeffs) - 1
    g = sum(c * _U ** (d - i) * _V**i for i, c in enumerate(coeffs))
    if g == 0:
        want = False
    else:
        _, factors = sympy.factor_list(g, _U, _V)
        want = len(factors) == 1 and factors[0][1] == 1
    assert is_irreducible(BinaryForm(coeffs)) == want


def test_bh_admissible():
    assert bh_admissible(BinaryForm([1, 0]), 1000)
    assert not bh_admissible(BinaryForm([0, 1, 0]), 1000)  # reducible
    assert not bh_admissible(BinaryForm([2, 4]), 1000) or singular_series(
        [BinaryForm([2, 4])], 1000
    ) >= Fraction(1, 5)
    assert not bh_admissible(BinaryForm([0, 0]), 1000)


# ---------------------------------------------------------------------------
# The accepted-draw stream: the harness scans once per run; the oracle
# rescans from draw 0 for every acceptance, as each record once did.

def accepted_draw_index(cube, seed, k, predicate, scan_limit=10**5):
    """Index of the k-th draw satisfying predicate, scanning from 0."""
    found = -1
    for idx in range(scan_limit):
        if predicate(cube.sample(seed, idx)):
            found += 1
            if found == k:
                return idx
    raise ResourceLimitError("rejection sampling exhausted its scan budget")


def test_accepted_draw_stream():
    cube = CombinatorialCube(degree=2, side=20)
    pred = lambda g: bh_admissible(g, 300)
    idxs = [accepted_draw_index(cube, 11, k, pred) for k in range(6)]
    assert idxs == sorted(set(idxs))
    for k, idx in enumerate(idxs):
        assert pred(cube.sample(11, idx))
        # no admissible draw between consecutive accepted indices
        prev = idxs[k - 1] if k else -1
        for j in range(prev + 1, idx):
            assert not pred(cube.sample(11, j))


def test_bh_sample_deterministic(sieve_small):
    cube = CombinatorialCube(degree=2, side=20)
    pred = lambda g: bh_admissible(g, 100)
    idx = accepted_draw_index(cube, 7, 3, pred)
    assert idx == accepted_draw_index(cube, 7, 3, pred)
    form = cube.sample(7, idx)
    assert bh_admissible(form, 100)
    assert bh_correlation([form], 100, sieve_small) == bh_correlation([form], 100, sieve_small)


def _oracle_outcome(cube, seed, lo, hi, pred, scan_limit):
    """The draws of acceptances lo..hi-1, or the error their rescans raise."""
    try:
        return [accepted_draw_index(cube, seed, m, pred, scan_limit) for m in range(lo, hi)]
    except ResourceLimitError as exc:
        return str(exc)


def _trap(cube, seed, at):
    """A predicate wrapper that raises a budget error on the form of draw `at` only."""
    form = cube.sample(seed, at)
    assert all(cube.sample(seed, j) != form for j in range(at))

    def wrap(pred):
        def checked(g, *args):
            if g == form:
                raise ResourceLimitError(f"planted budget error at draw {at}")
            return pred(g, *args)
        return checked
    return wrap


@pytest.mark.parametrize("limit,raise_at", [(10**5, None), (12, None), (40, 9), (40, 0)])
def test_scan_matches_rescanning_oracle(monkeypatch, limit, raise_at):
    monkeypatch.setattr(harness, "_SCAN_LIMIT", limit)
    cfg = harness.make_config("bh", {"seed": 5})
    cube = CombinatorialCube(degree=2, side=20)
    pred = lambda g: g.coeffs[0] > 0
    if raise_at is not None:
        pred = _trap(cube, cfg.seed, raise_at)(pred)
    state = {"draws": harness._accepted_draws(cfg, cube, 15, pred)}
    outcomes = []
    for k in range(15):
        try:
            drawn = harness._drawn(state, k, k + 1)
            assert all(g == cube.sample(cfg.seed, idx) for idx, g in drawn)
            got = [idx for idx, _ in drawn]
        except ResourceLimitError as exc:
            got = str(exc)
        assert got == _oracle_outcome(cube, cfg.seed, k, k + 1, pred, limit), k
        outcomes.append(isinstance(got, str))
    # the unlimited scan meets every sample; the others leave some unmet
    assert any(outcomes) == (limit < 10**5 or raise_at is not None)


def test_scan_of_no_samples_draws_nothing():
    def pred(g):
        raise AssertionError("no draw is examined")

    cfg = harness.make_config("bh", {})
    assert harness._accepted_draws(cfg, CombinatorialCube(degree=2, side=5), 0, pred)[0] == []


@pytest.mark.parametrize("limit,raise_at", [(15, None), (10**5, 7)])
def test_bh_error_records_match_oracle(monkeypatch, limit, raise_at):
    # r = 2: record k needs acceptances 2k and 2k + 1
    monkeypatch.setattr(harness, "_SCAN_LIMIT", limit)
    monkeypatch.setattr(harness, "_STATE", {})
    cfg = harness.make_config("bh", {"H": 25, "x": 50, "r": 2, "samples": 8, "seed": 3})
    cube = CombinatorialCube(degree=2, side=25)
    admissible = chowla_bh.bh_admissible
    if raise_at is not None:
        admissible = _trap(cube, cfg.seed, raise_at)(admissible)
        monkeypatch.setattr(chowla_bh, "bh_admissible", admissible)
    pred = lambda g: admissible(g, cfg.x, Fraction(str(cfg.min_series)))
    recs = harness.compute_records(cfg)
    assert {r["record"] for r in recs} == {"sample", "error"}
    for k, rec in enumerate(recs):
        got = rec["error"] if rec["record"] == "error" else rec["draws"]
        assert got == _oracle_outcome(cube, cfg.seed, 2 * k, 2 * k + 2, pred, limit), k


def test_density_error_records_match_oracle(monkeypatch):
    monkeypatch.setattr(harness, "_SCAN_LIMIT", 4)
    monkeypatch.setattr(harness, "_STATE", {})
    cfg = harness.make_config("density", {"H": 2, "samples": 5, "mc": 2000,
                                          "w_desk": 5, "k_desk": 1})
    cube = CombinatorialCube(degree=2, side=2)
    pred = lambda g: g.coeffs[0] * g.coeffs[-1] != 0
    recs = [r for r in harness.compute_records(cfg) if r["record"] in ("instance", "error")]
    assert {r["record"] for r in recs} == {"instance", "error"}
    for k, rec in enumerate(recs):
        got = rec["error"] if rec["record"] == "error" else [rec["index"]]
        assert got == _oracle_outcome(cube, cfg.seed, k, k + 1, pred, 4), k


def test_scan_failure_names_kind_and_draw():
    cfg = harness.make_config("density", {"samples": 3})
    cube = CombinatorialCube(degree=2, side=20)
    bad = cube.sample(cfg.seed, 2)

    def pred(g):
        if g == bad:
            raise ZeroDivisionError("boom")
        return True

    with pytest.raises(RecordError, match=r"^density draw 2: ZeroDivisionError: boom$"):
        harness._accepted_draws(cfg, cube, 3, pred)
