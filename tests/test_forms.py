import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlab import forms
from formlab.errors import ResourceLimitError
from formlab.forms import BinaryForm, CombinatorialCube
from formlab.rng import mix


# -- independent oracles ------------------------------------------------------

def oracle_eval(coeffs, m, n):
    d = len(coeffs) - 1
    return sum(c * m ** (d - i) * n**i for i, c in enumerate(coeffs))


def oracle_zero_count(coeffs, q):
    return sum(
        1 for u in range(q) for v in range(q) if oracle_eval(coeffs, u, v) % q == 0
    )


def _random_form(rng, d=None, lim=6):
    d = d or rng.randint(1, 4)
    while True:
        cs = [rng.randint(-lim, lim) for _ in range(d + 1)]
        if any(cs):
            return BinaryForm(cs)


# -- evaluation ----------------------------------------------------------------

def test_evaluate_worked():
    g = BinaryForm([1, 0, 1])
    assert g(3, 4) == 25
    assert BinaryForm([1, 2, 1])(1, 1) == 4
    assert g(0, 0) == 0
    assert BinaryForm([2, 3])(5, 1) == 13


def test_evaluate_matches_oracle_and_homogeneity():
    rng = random.Random(9)
    for _ in range(2500):
        g = _random_form(rng)
        m, n, t = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-4, 4)
        assert g(m, n) == oracle_eval(g.coeffs, m, n)
        assert g(t * m, t * n) == t**g.degree * g(m, n)


def test_min_coefficients():
    with pytest.raises(ValueError):
        BinaryForm([3])


# -- content / discriminant -----------------------------------------------------

def test_content():
    assert BinaryForm([2, 4, 6]).content == 2
    assert BinaryForm([0, 0, 0]).content == 0
    assert BinaryForm([-3, 6]).content == 3


def test_discriminant_worked():
    assert BinaryForm([0, 1, 0]).discriminant() != 0  # uv
    assert BinaryForm([0, 1, 0]).is_separable
    assert BinaryForm([1, 0, 0]).discriminant() == 0  # u^2
    assert not BinaryForm([1, 0, 0]).is_separable
    assert BinaryForm([1, 0, 1]).discriminant() == -4
    assert not BinaryForm([0, 0, 1]).is_separable  # v^2
    assert BinaryForm([1, 1]).discriminant() == 1
    with pytest.raises(ValueError):
        BinaryForm([0, 0, 0]).discriminant()


def test_discriminant_swap_and_scale_invariance():
    rng = random.Random(21)
    for _ in range(200):
        g = _random_form(rng)
        d = g.degree
        swapped = BinaryForm(list(reversed(g.coeffs)))
        assert swapped.discriminant() == g.discriminant()
        t = rng.choice([2, 3, -2])
        scaled = BinaryForm([t * c for c in g.coeffs])
        assert scaled.discriminant() == t ** (2 * d - 2) * g.discriminant()


def test_discriminant_separability_matches_repeated_projective_roots():
    # deg-2 forms: separable iff b^2 - 4ac != 0 when a != 0
    rng = random.Random(27)
    for _ in range(200):
        a, b, c = (rng.randint(-5, 5) for _ in range(3))
        if (a, b, c) == (0, 0, 0):
            continue
        g = BinaryForm([a, b, c])
        if a != 0:
            assert (g.discriminant() != 0) == (b * b - 4 * a * c != 0)


# -- zero counts -----------------------------------------------------------------

def test_zero_count_worked():
    assert forms.zero_count_mod(BinaryForm([0, 1, 0]), 3) == 5
    assert forms.zero_count_mod(BinaryForm([1, 0, 1]), 3) == 1
    assert forms.zero_count_mod(BinaryForm([3, 3, 3]), 3) == 9
    assert forms.zero_count_mod(BinaryForm([1, 0, 1]), 1) == 1


def test_zero_count_oracle():
    rng = random.Random(33)
    for _ in range(60):
        g = _random_form(rng, d=rng.randint(1, 3), lim=4)
        q = rng.randint(1, 24)
        assert forms.zero_count_mod(g, q) == oracle_zero_count(g.coeffs, q), (g, q)


def test_zero_count_multiplicative():
    # zero_count_mod composes prime-power orbit sums by CRT, so the product
    # identity alone would be a tautology: the composite count is also
    # checked against the brute-force oracle
    rng = random.Random(37)
    pairs = [(q1, q2) for q1 in range(2, 26) for q2 in range(2, 26)
             if math.gcd(q1, q2) == 1 and q1 * q2 <= 50]
    for _ in range(40):
        g = _random_form(rng, d=rng.randint(1, 3), lim=3)
        for q1, q2 in pairs:
            got = forms.zero_count_mod(g, q1 * q2)
            assert got == forms.zero_count_mod(g, q1) * forms.zero_count_mod(g, q2)
            assert got == oracle_zero_count(g.coeffs, q1 * q2), (g, q1, q2)


def test_fast_path_worked():
    # orbit sums with the default weight, the indicator of residue 0
    assert forms.orbit_sum((0, 1, 0), 3, 1) == 5
    assert forms.orbit_sum((1, 0, 1), 5, 1) == 9
    assert forms.orbit_sum((1, 0, 1), 3, 1) == 1
    assert forms.orbit_sum((3, 6, 9), 3, 1) == 9  # content divisible by p
    assert forms.orbit_sum((0, 0, 0), 2, 3) == 64  # the zero form
    assert forms.orbit_sum((1, 0, 1), 2, 3) == oracle_zero_count((1, 0, 1), 8)  # k > d
    # u*v vanishes mod p exactly on the two axes: 2p - 1 pairs, at a p whose
    # p^2 grid exceeds 10^7 but whose orbit sum has only p + 1 points
    assert forms.zero_count_mod(BinaryForm([0, 1, 0]), 3163) == 2 * 3163 - 1
    # a unit-invariant weight: residue counts of u^2 + v^2 mod 5
    cnt = np.bincount([(u * u + v * v) % 5 for u in range(5) for v in range(5)], minlength=5)
    want = sum(int(cnt[oracle_eval((1, 2, 2), s, t) % 5]) for s in range(5) for t in range(5))
    assert forms.orbit_sum((1, 2, 2), 5, 1, cnt) == want


def oracle_zero_counts_grid(rows, q):
    """Brute-force zero counts of many forms over the whole (Z/q)^2 grid."""
    rows = np.asarray(rows, dtype=np.int64)
    d = rows.shape[1] - 1
    u, v = (a.ravel() for a in np.meshgrid(np.arange(q), np.arange(q), indexing="ij"))
    mono = np.stack([u ** (d - i) % q * (v**i % q) % q for i in range(d + 1)], axis=1)
    return np.count_nonzero((mono @ (rows % q).T) % q == 0, axis=0)


def test_fast_slow_agreement_exhaustive():
    # every form with d <= 3, |c| <= 2; all primes <= 101, content included
    primes = [p for p in range(2, 102) if sympy.isprime(p)]
    from itertools import product as iproduct

    for d in (1, 2, 3):
        rows = [cs for cs in iproduct(range(-2, 3), repeat=d + 1) if any(cs)]
        arr = np.array(rows, dtype=np.int64)
        for p in primes:
            counts = forms.zero_count_mod(arr, p)
            assert counts.tolist() == oracle_zero_counts_grid(arr, p).tolist(), (d, p)


_PRIME_POWERS = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 7) if p**k <= 64]


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
    pk=st.sampled_from(_PRIME_POWERS),
    scale=st.sampled_from([1, 1, 2, 3, 4, 8, 9, 27, 0]),
)
@example(coeffs=[0, 0, 0], pk=(2, 5), scale=1)  # the zero form, k > d
@example(coeffs=[1, 1], pk=(2, 6), scale=1)  # d = 1, k > d
@example(coeffs=[1, 0, 1], pk=(3, 3), scale=3)  # content divisible by p, k > d
@example(coeffs=[2, 0, 0, 1], pk=(2, 4), scale=4)
@example(coeffs=[3], pk=(3, 2), scale=3)  # d = 0: a constant row, zero mod q
@example(coeffs=[5], pk=(2, 6), scale=1)  # d = 0: a unit constant
def test_orbit_sum_zero_counts_match_oracle(coeffs, pk, scale):
    p, k = pk
    cs = [scale * c for c in coeffs]
    want = oracle_zero_count(cs, p**k)
    assert forms.orbit_sum(cs, p, k) == want
    assert forms.zero_count_mod(np.array([cs]), p**k).tolist() == [want]
    if len(cs) > 1:  # a BinaryForm has degree >= 1
        g = BinaryForm(cs)
        assert forms.zero_count_mod(g, p**k) == want


def test_orbit_sum_uncached_monomials(monkeypatch):
    # moduli with (d+1)*q above the cache size build their monomials on every call
    rows = np.array([[1, 0, 1], [3, 6, 9], [0, 0, 0], [2, -1, 5]], dtype=np.int64)
    want = oracle_zero_counts_grid(rows, 27).tolist()
    assert forms.zero_count_mod(rows, 27).tolist() == want
    monkeypatch.setattr(forms, "_MONO_CACHE_SIZE", 0)
    assert forms.zero_count_mod(rows, 27).tolist() == want


def test_batch_matches_single():
    rng = random.Random(41)
    rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(50)]
    rows = [r for r in rows if any(r)]
    for q in (1, 2, 5, 9, 12, 49):
        batch = forms.zero_count_mod(np.array(rows), q)
        assert batch.dtype == np.int64 and batch.shape == (len(rows),)
        for r, got in zip(rows, batch):
            single = forms.zero_count_mod(BinaryForm(r), q)
            assert type(single) is int and int(got) == single


@pytest.mark.parametrize("g", [BinaryForm([1, 0, 1]), np.array([[1, 0, 1], [2, 3, 4]])])
def test_zero_count_guards_for_both_shapes(g):
    with pytest.raises(ValueError):
        forms.zero_count_mod(g, 0)
    with pytest.raises(ResourceLimitError):
        forms.zero_count_mod(g, 10**4 + 1)
    assert np.all(forms.zero_count_mod(g, 1) == 1)


def test_zero_count_bound_small_sweep():
    # light version of the full lemma sweep (the acceptance suite widens it)
    from itertools import product as iproduct

    for d in (1, 2):
        for cs in iproduct(range(-2, 3), repeat=d + 1):
            if not any(cs):
                continue
            g = BinaryForm(cs)
            if not g.is_separable:
                continue
            for p in (2, 3):
                for k in (1, 2, 3):
                    res = forms.zero_count_bound_check(g, p, k)
                    assert res.holds, (cs, p, k, res)


def test_zero_count_bound_saturated_case():
    g = BinaryForm([2, 4])  # content 2, separable (d=1)
    res = forms.zero_count_bound_check(g, 2, 1)
    assert res.saturated and res.holds and res.count == 4


# -- gcd bound -----------------------------------------------------------------------

def _gcd_bound_scalar(form: BinaryForm, m: int, n: int, k: int, l: int):
    """(lhs, rhs, holds) of the gcd bound for one form, in Python ints: the oracle."""
    if m == n == 0:
        raise ValueError("the bound requires (m, n) != (0, 0)")
    d = form.degree
    c0, cd = form.coeffs[0], form.coeffs[-1]
    lhs = math.gcd(form(m, n), m**k * n ** (d - l))
    rhs = math.gcd(m, n) ** d * math.gcd(cd, m) ** k * math.gcd(c0, n) ** (d - l)
    return lhs, rhs, lhs <= rhs


def _assert_gcd_rows_match(rows, m, n, k, l):
    res = forms.gcd_bound_check(np.array(rows, dtype=np.int64), m, n, k, l)
    got = list(zip(res.lhs.tolist(), res.rhs.tolist(), res.holds.tolist()))
    want = []
    for i, row in enumerate(rows):
        lhs, rhs, holds = _gcd_bound_scalar(BinaryForm(row), m[i], n[i], k[i], l[i])
        want.append((lhs, min(rhs, forms._GCD_CAP), holds))
    assert got == want
    return res


@st.composite
def _gcd_draws(draw):
    """Rows of one degree 1..4 with nonzero ends; points (m, n) != (0, 0) and
    exponents per row."""
    d = draw(st.integers(1, 4))
    end, mid = st.integers(-30, 30).filter(bool), st.integers(-30, 30)
    point = st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(any)
    rows, m, n, k, l = [], [], [], [], []
    for _ in range(draw(st.integers(1, 12))):
        rows.append([draw(end), *(draw(mid) for _ in range(d - 1)), draw(end)])
        mn = draw(point)
        m.append(mn[0])
        n.append(mn[1])
        l.append(draw(st.integers(1, d)))
        k.append(draw(st.integers(0, l[-1] - 1)))
    return rows, m, n, k, l


@settings(max_examples=200, deadline=None)
@given(draws=_gcd_draws())
@example(draws=([[1, 0, 0, 0, 5]] * 2, [0, -7], [-4, 0], [0, 3], [4, 4]))
@example(draws=([[-2, 7, 1, -9]] * 2, [-12, 12], [-18, -18], [0, 2], [3, 3]))
def test_gcd_bound_matches_scalar_oracle(draws):
    _assert_gcd_rows_match(*draws)


def test_gcd_bound_saturated_rhs_matches_oracle():
    # gcd(m,n)^d gcd(cd,m)^k gcd(c0,n)^(d-l) runs past 2^62 while every
    # bound (d+1) max|c| max(|m|,|n|)^d stays below 2^63
    rows = [[2**10, 1, 1, 1, 2**10], [2**10, -3, 0, 5, -(2**10)], [7, 0, 0, 0, 2**10]]
    m, n = [2**12, -(2**12), 2**12], [2**12, 2**12, -(2**11)]
    res = _assert_gcd_rows_match(rows, m, n, [2, 1, 3], [3, 2, 4])
    assert res.rhs.tolist()[:2] == [forms._GCD_CAP] * 2 and res.holds.all()
    rows = [[2**20, 0, 0, 2**20], [3, 0, 0, 2**20]]
    res = _assert_gcd_rows_match(rows, [2**13, 2**13], [2**13, 2**13], [1, 2], [2, 3])
    assert res.rhs.tolist()[0] == forms._GCD_CAP


def test_gcd_bound_worked():
    r = forms.gcd_bound_check([[1, 0, 1], [1, 0, 1]], [2, 3], [2, 6], [0, 1], [2, 2])
    assert r.lhs.tolist() == [1, 3] and r.rhs.tolist()[1] == 9 and r.holds.all()
    r = forms.gcd_bound_check([[2, 3]], [3], [2], [0], [1])
    assert r.lhs.tolist() == [1] and r.holds.all()
    r = forms.gcd_bound_check(np.zeros((0, 3), dtype=np.int64), *[np.zeros(0, dtype=np.int64)] * 4)
    assert r.holds.shape == (0,)


def test_gcd_bound_validation():
    one = [[1]] * 2
    with pytest.raises(ValueError, match="k < l"):
        forms.gcd_bound_check([[1, 0, 1], [1, 0, 1]], *one, [0, 2], [1, 2])  # k >= l
    with pytest.raises(ValueError, match="k < l"):
        forms.gcd_bound_check([[1, 0, 1]], [1], [1], [0], [3])  # l > d
    with pytest.raises(ValueError, match="nonzero end"):
        forms.gcd_bound_check([[1, 0, 1], [0, 1, 1]], *one, [0, 0], [1, 1])  # c0 = 0
    # the lemma excludes m = n = 0, where the bound reads 1 <= 0 at k = 0, l = d
    with pytest.raises(ValueError, match=r"\(m, n\) != \(0, 0\)"):
        forms.gcd_bound_check([[3, -2]], [0], [0], [0], [1])
    with pytest.raises(ValueError, match=r"\(m, n\) != \(0, 0\)"):
        _gcd_bound_scalar(BinaryForm([3, -2]), 0, 0, 0, 1)


@pytest.mark.parametrize("rows, m, n", [
    ([[2**62, 1]], [1], [1]),          # 2 * 2^62 = 2^63
    ([[1, -(2**62)]], [1], [-1]),
    ([[1, 0, 1]], [2**31], [1]),       # 3 * 2^62
    ([[1, 0, 1]], [1], [-(2**31)]),
    ([[1, 1, 1, 1, 1]], [2**16], [3]),  # 5 * 2^64
])
def test_gcd_bound_refuses_int64_overflow(rows, m, n):
    d = len(rows[0]) - 1
    with pytest.raises(ValueError, match="too large"):
        forms.gcd_bound_check(rows, m, n, [0], [d])


def test_gcd_bound_accepts_just_below_overflow():
    # the largest |c| and |m| the refusal lets through, one below each case above
    res = forms.gcd_bound_check([[2**61, 1], [1, 2**61]], [1, -1], [1, 1], [0, 0], [1, 1])
    assert res.holds.all()
    res = _assert_gcd_rows_match([[1, 0, 1]], [2**30], [2**30 - 1], [0], [2])
    assert res.holds.all()
    res = _assert_gcd_rows_match([[1, 1, 1, 1, 1]], [2**15], [3], [1], [4])  # 5 * 2^60
    assert res.holds.all()


def test_gcd_bound_fuzz():
    rng = random.Random(67)
    draws: dict[int, list] = {d: [] for d in range(1, 5)}
    for _ in range(10**4):
        d = rng.randint(1, 4)
        cs = [rng.randint(-8, 8) for _ in range(d + 1)]
        if cs[0] == 0 or cs[-1] == 0:
            continue
        m, n = rng.randint(-50, 50), rng.randint(-50, 50)
        if m == n == 0:  # outside the lemma
            continue
        l = rng.randint(1, d)
        k = rng.randint(0, l - 1)
        draws[d].append((cs, m, n, k, l))
    for d, tuples in draws.items():  # one array check per degree
        rows, m, n, k, l = zip(*tuples)
        assert forms.gcd_bound_check(np.array(rows), m, n, k, l).holds.all()


# -- cubes ----------------------------------------------------------------------------

def test_cube_uniform_frequency():
    cube = CombinatorialCube(1, 1)
    counts: dict[tuple, int] = {}
    for i in range(9000):
        f = cube.sample(7, i)
        counts[f.coeffs] = counts.get(f.coeffs, 0) + 1
    assert len(counts) == 9
    sigma = math.sqrt(9000 * (1 / 9) * (8 / 9))
    for c, n in counts.items():
        assert abs(n - 1000) <= 3 * sigma, (c, n)


def test_cube_determinism_and_json():
    cube = CombinatorialCube(3, 10)
    assert cube.sample(5, 77).coeffs == cube.sample(5, 77).coeffs


def _fresh_draw(cube, seed, i):
    """Draw i as a fresh Philox generator keyed by the label hash gives it."""
    key = [mix(seed, "key0", "cube", i), mix(seed, "key1", "cube", i)]
    gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    return [int(gen.integers(-cube.side, cube.side + 1)) for _ in range(cube.degree + 1)]


@pytest.mark.parametrize("cube", [
    CombinatorialCube(3, 1000),
    CombinatorialCube(2, 0),
    CombinatorialCube(4, 2**40),
    CombinatorialCube(1, 3),
    CombinatorialCube(2, 2**62),
    CombinatorialCube(2, 2**31 - 1),
    CombinatorialCube(2, 2**31),
    CombinatorialCube(15, 1000),
])
def test_cube_rows_match_fresh_generators(cube):
    idx = [0, 1, 2, 3, 57, 1000, 2**40, -1, 2**63 - 1]
    for seed in (42, 2**64 - 1):
        rows = cube.sample_rows(seed, idx)
        assert rows.dtype == np.int64 and rows.shape == (len(idx), cube.degree + 1)
        assert rows.tolist() == [_fresh_draw(cube, seed, i) for i in idx]
        assert [cube.sample(seed, i).coeffs for i in idx] == [tuple(r) for r in rows.tolist()]
    assert cube.sample_rows(42, []).shape == (0, cube.degree + 1)


def test_cube_rows_redraw_rejected_draws(monkeypatch):
    # at 2H + 1 = 24,691,357 numpy's Lemire rule rejects about 0.5% of draws;
    # those rows read further stream words and are redrawn one by one
    cube = CombinatorialCube(2, 12_345_678)
    redrawn = []
    exact = CombinatorialCube._exact_rows

    def spy(self, seed, indices):
        redrawn.extend(indices.tolist())
        return exact(self, seed, indices)

    monkeypatch.setattr(CombinatorialCube, "_exact_rows", spy)
    rows = cube.sample_rows(42, range(2000))
    assert redrawn
    monkeypatch.undo()
    for i in redrawn + [0, 1999]:
        assert rows[i].tolist() == _fresh_draw(cube, 42, i)


def test_cube_pinned_draw():
    cube = CombinatorialCube(3, 1000)
    assert cube.sample(42, 7).coeffs == (50, 777, -823, -651)
    assert cube.sample_rows(42, range(5, 9))[2].tolist() == [50, 777, -823, -651]


def test_form_grid_rows_match_single_forms():
    rows = np.array([[1, -2, 3], [0, 0, 0], [-5, 7, 11], [9, 0, -1]], dtype=np.int64)
    ms, ns = np.arange(-3, 5), np.arange(1, 7)
    grids = forms.form_grid(rows, ms, ns)
    assert grids.shape == (4, len(ms), len(ns))
    for row, grid in zip(rows.tolist(), grids):
        assert np.array_equal(grid, forms.form_grid(BinaryForm(row), ms, ns))
        assert grid.tolist() == [[oracle_eval(row, m, n) for n in ns] for m in ms]


def test_cube_validation():
    with pytest.raises(ValueError):
        CombinatorialCube(0, 5)
    with pytest.raises(ValueError):
        CombinatorialCube(2, -1)


def test_form_product_and_json():
    f = BinaryForm([1, 0, 1])
    uv = BinaryForm([0, 1, 0])
    prod = f * uv
    u, v = sympy.symbols("u v")
    want = sympy.expand((u**2 + v**2) * u * v)
    got = sum(c * u ** (prod.degree - i) * v**i for i, c in enumerate(prod.coeffs))
    assert sympy.expand(got - want) == 0
