"""Norm forms, splitting data, local densities, and box regions."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from formlab import arith, normforms as nf
from formlab.errors import IndexDivisorError, ResourceLimitError
from formlab.rng import philox


# --- oracles -----------------------------------------------------------

def oracle_norm_resultant(poly, y):
    """Norm of y1 + y2*theta + ... via the resultant with the minimal poly."""
    t = sympy.Symbol("t")
    f = sum(int(c) * t**i for i, c in enumerate(poly))
    g = sum(int(v) * t**i for i, v in enumerate(y))
    return int(sympy.resultant(f, g, t))


def oracle_gamma(norm, q, a):
    e = norm.field.degree
    count = 0
    for s in itertools.product(range(q), repeat=e):
        if norm(s) % q == a % q:
            count += 1
    return Fraction(count, q ** (e - 1))


def oracle_ideal_count(shape, j):
    """Multisets of primes above p with norms multiplying to p^j."""
    fs = [f for f, _ in shape]
    if not fs:
        return 1 if j == 0 else 0
    count = 0
    ranges = [range(j // f + 1) for f in fs]
    for ks in itertools.product(*ranges):
        if sum(k * f for k, f in zip(ks, fs)) == j:
            count += 1
    return count


def oracle_two_squares(n):
    """Representations of n as a^2 + b^2 (ordered, signed)."""
    count = 0
    r = math.isqrt(n)
    for a in range(-r, r + 1):
        rem = n - a * a
        if rem < 0:
            continue
        b = math.isqrt(rem)
        if b * b == rem:
            count += 1 if b == 0 else 2
    return count


@pytest.fixture(scope="module")
def presets():
    return nf.field_presets()


@pytest.fixture(scope="module")
def gaussian_norm(presets):
    return nf.NormForm(presets["gaussian"])


# --- field construction ------------------------------------------------

def test_presets_shape(presets):
    assert set(presets) == {"gaussian", "sqrt2", "cbrt2", "coray"}
    assert presets["gaussian"].signature == (0, 1)
    assert presets["sqrt2"].signature == (2, 0)
    assert presets["cbrt2"].signature == (1, 1)
    assert presets["coray"].signature == (3, 0)
    for f in presets.values():
        assert f.index == 1
        assert f.poly[-1] == 1


def test_power_basis_rejects_bad_polys():
    with pytest.raises(ValueError):
        nf.NumberField.power_basis([1, 1])  # degree 1
    with pytest.raises(ValueError):
        nf.NumberField.power_basis([1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        nf.NumberField.power_basis([-1, 0, 1])  # rational root
    with pytest.raises(ValueError):
        nf.NumberField.power_basis([0, 1, 0, 1])  # root at zero
    with pytest.raises(ValueError):
        nf.NumberField.power_basis([1, 0, 2, 0, 1])  # (t^2+1)^2 not separable


def test_multiplication_table_gaussian(presets):
    gi = presets["gaussian"]
    # i * i = -1
    assert gi.table[1][1] == (-1, 0)


def test_power_basis_table_matches_sympy(presets):
    # theta^i * theta^j = rem(t^(i+j), poly), with integer coordinates
    t = sympy.Symbol("t")
    for field in presets.values():
        poly = sum(c * t**k for k, c in enumerate(field.poly))
        e = field.degree
        for i, j in itertools.product(range(e), repeat=2):
            rem = sympy.Poly(sympy.rem(t ** (i + j), poly, t), t)
            want = tuple(int(rem.coeff_monomial(t**k)) for k in range(e))
            assert field.table[i][j] == want, (field.name, i, j)
            assert all(type(c) is int for c in field.table[i][j])


# --- norm form ---------------------------------------------------------

def test_norm_worked_values(presets, gaussian_norm):
    assert gaussian_norm([3, 4]) == 25
    assert gaussian_norm([1, 0]) == 1
    assert nf.NormForm(presets["sqrt2"])([1, 1]) == -1
    n3 = nf.NormForm(presets["cbrt2"])
    assert n3([1, 1, 1]) == 1
    assert n3([0, 1, 0]) == 2
    # a^3 + 2b^3 + 4c^3 - 6abc
    assert sorted(n3.poly.items()) == [
        ((0, 0, 3), 4),
        ((0, 3, 0), 2),
        ((1, 1, 1), -6),
        ((3, 0, 0), 1),
    ]


def test_norm_matches_resultant_oracle(presets):
    rng = philox(11, "normres")
    for f in presets.values():
        norm = nf.NormForm(f)
        for _ in range(40):
            y = [int(v) for v in rng.integers(-30, 31, size=f.degree)]
            assert norm(y) == oracle_norm_resultant(f.poly, y)
            assert norm.eval_det(y) == norm(y)


def test_norm_euler_identity(presets):
    rng = philox(12, "euler")
    for f in presets.values():
        norm = nf.NormForm(f)
        e = f.degree
        for _ in range(250):
            y = [int(v) for v in rng.integers(-50, 51, size=e)]
            grad = norm.gradient(y)
            assert e * norm(y) == sum(g * v for g, v in zip(grad, y))


def test_norm_input_length(gaussian_norm):
    with pytest.raises(ValueError):
        gaussian_norm([1, 2, 3])


def test_norm_float_and_int_grids(gaussian_norm):
    pts = np.array([[1.5, 2.0], [0.0, -3.0]])
    out = gaussian_norm.eval_float(pts)
    assert out == pytest.approx([1.5**2 + 4.0, 9.0])
    us, vs = np.meshgrid(np.arange(-2, 3), np.arange(-2, 3), indexing="ij")
    grid = gaussian_norm([us, vs])
    assert grid[0, 0] == 8 and grid[2, 2] == 0


# --- splitting types ---------------------------------------------------

def test_splitting_worked(presets):
    gi = presets["gaussian"]
    assert nf.splitting_type(gi, 5) == ((1, 1), (1, 1))
    assert nf.splitting_type(gi, 3) == ((2, 1),)
    assert nf.splitting_type(gi, 2) == ((1, 2),)
    assert nf.splitting_type(presets["coray"], 7) == ((1, 3),)
    with pytest.raises(ValueError):
        nf.splitting_type(gi, 6)


def test_splitting_index_guard():
    # t^2 + 3 has disc -12; 2 may divide the index of Z[sqrt(-3)]
    f = nf.NumberField.power_basis([3, 0, 1])
    with pytest.raises(IndexDivisorError):
        nf.splitting_type(f, 2)
    assert nf.splitting_type(f, 3) == ((1, 2),)
    # declared index: 2 divides it, other primes fine
    g = nf.NumberField.power_basis([3, 0, 1], index=2)
    with pytest.raises(IndexDivisorError):
        nf.splitting_type(g, 2)
    assert nf.splitting_type(g, 7) == ((1, 1), (1, 1))


def test_splitting_matches_legendre(presets):
    # odd unramified p splits in Q(i) iff p = 1 mod 4
    gi = presets["gaussian"]
    for p in arith.primes(200):
        if p == 2:
            continue
        shape = nf.splitting_type(gi, p)
        if p % 4 == 1:
            assert shape == ((1, 1), (1, 1))
        else:
            assert shape == ((2, 1),)


# --- Dedekind local data ----------------------------------------------

def test_ideal_count_oracle(presets):
    shapes = [
        ((1, 1), (1, 1)),
        ((2, 1),),
        ((1, 2),),
        ((1, 3),),
        ((1, 1), (2, 1)),
        ((3, 1),),
        ((1, 1), (1, 1), (1, 1)),
    ]
    for shape in shapes:
        loc = nf.DedekindLocal(p=5, shape=shape, degree=sum(f * e for f, e in shape))
        for j in range(13):
            assert loc.ideal_count(j) == oracle_ideal_count(shape, j)


def test_ideal_count_two_squares(presets):
    """r_K for Q(i) equals the two-squares count over four units."""
    gi = presets["gaussian"]
    locs = {}
    for n in range(1, 200):
        total = 1
        for p, k in arith.factorize(n).items():
            if p not in locs:
                locs[p] = nf.DedekindLocal.build(gi, p)
            total *= locs[p].ideal_count(k)
        assert total == oracle_two_squares(n) // 4, n


def test_alpha_beta_worked(presets):
    gi = presets["gaussian"]
    d5 = nf.DedekindLocal.build(gi, 5)
    assert d5.alpha() == Fraction(4, 5)
    for k in range(5):
        assert d5.beta(k) == Fraction(4 * k + 5, 5) if k else Fraction(1)
    d2 = nf.DedekindLocal.build(gi, 2)
    assert d2.alpha() == 1
    assert [d2.beta(k) for k in range(4)] == [Fraction(1)] * 4
    d3 = nf.DedekindLocal.build(gi, 3)
    assert d3.alpha() == Fraction(4, 3)
    assert d3.beta(1) == Fraction(1, 3)
    assert d3.beta(2) == 1
    with pytest.raises(ValueError):
        d3.beta(-1)


def test_beta_zero_is_one(presets):
    for f in presets.values():
        for p in (2, 3, 5, 7, 11):
            try:
                loc = nf.DedekindLocal.build(f, p)
            except IndexDivisorError:
                continue
            assert loc.beta(0) == 1


def test_r_tilde_and_b(presets):
    gi = presets["gaussian"]
    d5 = nf.DedekindLocal.build(gi, 5)
    # below the truncation the plain ideal count is used
    assert d5.r_tilde(1, 3) == 2
    assert d5.r_tilde(2, 3) == 3
    # at and beyond it the constant beta/alpha value
    assert d5.r_tilde(3, 3) == d5.r_tilde(9, 3) == d5.beta(3) / d5.alpha()
    assert d5.b(0, 1) == 1
    assert d5.b(1, 1) == Fraction(9, 4) - 1
    d3 = nf.DedekindLocal.build(gi, 3)
    assert d3.b(1, 1) == Fraction(-3, 4)
    assert d3.b(1, 2) == -1
    assert d3.b(2, 2) == Fraction(3, 4)


def test_b_untruncated_telescopes(presets):
    gi = presets["gaussian"]
    big = 40
    for p in (2, 3, 5, 13):
        loc = nf.DedekindLocal.build(gi, p)
        for j in range(1, 8):
            assert loc.b(j, big) == loc.ideal_count(j) - loc.ideal_count(j - 1)


def test_b_coeff_tau_bound(presets):
    """|b(k)| <= tau(k)^(e+1) for the truncations the desk runs use."""
    for name in ("gaussian", "cbrt2"):
        f = presets[name]
        e = f.degree
        locs = {}
        for k_trunc in (1, 2, 3):
            rng_ks = range(2, 2000) if name == "gaussian" else range(2, 400)
            for k in rng_ks:
                fac = arith.factorize(k)
                val = Fraction(1)
                tau = 1
                for p, j in fac.items():
                    if p not in locs:
                        locs[p] = nf.DedekindLocal.build(f, p)
                    val *= locs[p].b(j, k_trunc)
                    tau *= j + 1
                assert abs(val) <= Fraction(tau) ** (e + 1), (name, k_trunc, k)
                # the memoized local factors give the same product
                assert nf.b_coeff(f, k, k_trunc) == val, (name, k_trunc, k)
    assert nf._local_b.cache_parameters()["maxsize"] is not None


def test_b_coeff_matches_per_prime(presets):
    gi = presets["gaussian"]
    d2 = nf.DedekindLocal.build(gi, 2)
    d5 = nf.DedekindLocal.build(gi, 5)
    assert nf.b_coeff(gi, 20, 2) == d2.b(2, 2) * d5.b(1, 2)
    assert nf.b_coeff(gi, 1, 1) == 1  # k=1 has empty factorization
    with pytest.raises(ValueError):
        nf.b_coeff(gi, 0, 1)


# --- gamma densities ---------------------------------------------------

def gamma_at(field, q, a):
    return float(nf.gamma_many(field, q, np.array([a]))[0])


def test_gamma_worked(presets):
    gi = presets["gaussian"]
    assert gamma_at(gi, 2, 0) == 1.0
    assert gamma_at(gi, 3, 1) == 4 / 3
    assert gamma_at(gi, 1, 0) == 1.0
    with pytest.raises(ValueError):
        gamma_at(gi, 0, 1)


def test_gamma_oracle_small_moduli(presets):
    # one correctly rounded count ratio per prime power q: exact floats;
    # the composite 12 multiplies two of them
    cases = [(name, q) for name in ("gaussian", "sqrt2") for q in (2, 3, 4, 5, 8, 9, 12)]
    cases += [("cbrt2", q) for q in (2, 3, 4)]
    for name, q in cases:
        field = presets[name]
        norm = nf.NormForm(field)
        got = nf.gamma_many(field, q, np.arange(q))
        want = [float(oracle_gamma(norm, q, a)) for a in range(q)]
        if q == 12:
            assert got.tolist() == pytest.approx(want, rel=1e-15), name
        else:
            assert got.tolist() == want, (name, q)


def test_gamma_multiplicative(presets):
    gi = presets["gaussian"]
    for q1, q2 in ((4, 3), (5, 8), (9, 5), (3, 20)):
        c1 = nf.norm_residue_counts(gi, q1)
        c2 = nf.norm_residue_counts(gi, q2)
        c12 = nf.norm_residue_counts(gi, q1 * q2)
        for a in range(q1 * q2):
            assert c12[a] == c1[a % q1] * c2[a % q2], (q1, q2, a)


def test_gamma_mass(presets):
    # the counts over all residues sum to q^e, so gamma sums to q
    for name, qs in (("gaussian", (7, 12, 45)), ("cbrt2", (6, 10))):
        f = presets[name]
        for q in qs:
            assert int(nf.norm_residue_counts(f, q).sum()) == q**f.degree
            assert nf.gamma_many(f, q, np.arange(q)).sum() == pytest.approx(q, rel=1e-12)


def test_gamma_many_matches_scalar(presets, gaussian_norm):
    gi = presets["gaussian"]
    res = np.array([0, 1, 7, 29, 30, 59, 60, 1234567], dtype=np.int64)
    outs = nf.gamma_many(gi, 60, res)
    for r, o in zip(res, outs):
        assert o == pytest.approx(float(oracle_gamma(gaussian_norm, 60, int(r))), rel=1e-15)
    assert nf.gamma_many(gi, 1, res).tolist() == [1.0] * len(res)


_NORM_POLYS = [
    poly
    for name in ("gaussian", "sqrt2", "cbrt2")
    for norm in [nf.NormForm(nf.field_presets()[name])]
    for poly in (norm.poly, *norm.partials)
]


@st.composite
def _poly_and_points(draw):
    if draw(st.booleans()):
        poly = draw(st.sampled_from(_NORM_POLYS))
    else:  # a binary form c0 u^d + ... + cd v^d, big coefficients allowed
        cs = draw(st.lists(st.integers(-(2**70), 2**70), min_size=2, max_size=6))
        poly = {(len(cs) - 1 - i, i): c for i, c in enumerate(cs) if c != 0}
    nvars = len(next(iter(poly))) if poly else 2
    coord = st.integers(-(2**62), 2**62)
    pts = draw(st.lists(st.tuples(*[coord] * nvars), min_size=1, max_size=20))
    return poly, pts


@settings(max_examples=200, deadline=None)
@given(
    case=_poly_and_points(),
    q=st.sampled_from([2, 7, 2**20 + 7, 2**31 - 1, 2**31, 23**7, 11**9, 2**64 + 13]),
)
def test_mp_eval_mod_matches_scalar(case, q):
    # int64 below 2^31, exact object arrays from 2^31 on; either way the
    # values equal the exact scalar evaluation reduced mod q
    poly, pts = case
    cols = [np.array(c, dtype=np.int64) for c in zip(*pts)]
    got = nf._mp_eval_mod(poly, cols, q)
    assert got.dtype == (np.int64 if q < 2**31 else object)
    assert [int(v) for v in got] == [nf._mp_eval(poly, pt) % q for pt in pts]


def test_gamma_budget(presets):
    with pytest.raises(ResourceLimitError):
        gamma_at(presets["cbrt2"], 467, 1)


# --- regions and lattice counts ----------------------------------------

@pytest.fixture(scope="module")
def region12(gaussian_norm):
    return nf.RegionB(gaussian_norm, 12.0)


def test_region_positive(gaussian_norm, region12):
    r = region12
    e1_val = gaussian_norm.eval_float(np.array([r.x1]))[0]
    assert e1_val == pytest.approx(0.5)
    assert r.kappa > 0 and r.cert_inf >= abs(gaussian_norm.gradient(list(r.x1))[r.coord]) / 2
    lo, hi = r.support
    assert lo > 0
    assert r.volume == pytest.approx((2 * r.kappa * 12.0) ** 2)


def test_region_histogram_brute(gaussian_norm, region12):
    hist = region12.histogram()
    (ulo, uhi), (vlo, vhi) = region12.lattice_bounds()
    brute = {}
    for u in range(ulo, uhi + 1):
        for v in range(vlo, vhi + 1):
            n = u * u + v * v
            brute[n] = brute.get(n, 0) + 1
    assert hist == brute
    assert sum(hist.values()) == (uhi - ulo + 1) * (vhi - vlo + 1)
    assert hist.get(-1, 0) == 0


def test_region_support_bounds_values(gaussian_norm, region12):
    lo, hi = region12.support
    for n in region12.histogram():
        assert lo - 1e-9 <= n <= hi + 1e-9


def test_region_negative_sign_imaginary_raises(gaussian_norm):
    with pytest.raises(ValueError):
        nf.RegionB(gaussian_norm, 0.5)


def test_region_budget(gaussian_norm):
    with pytest.raises(ResourceLimitError):
        nf.RegionB(gaussian_norm, 4.0e4).histogram()
    # the budget is applied before B**e is formed, so a huge B cannot overflow
    with pytest.raises(ResourceLimitError):
        nf.RegionB(gaussian_norm, 1e300)
    for B in (math.nan, math.inf):
        with pytest.raises(ValueError):
            nf.RegionB(gaussian_norm, B)


def test_region_cubic(presets):
    norm = nf.NormForm(presets["cbrt2"])
    r = nf.RegionB(norm, 6.0)
    assert sum(r.histogram().values()) == math.prod(hi - lo + 1 for lo, hi in r.lattice_bounds())
    lo, hi = r.support
    assert lo > 0


# --- real density estimates --------------------------------------------

def test_omega_center_positive(gaussian_norm, region12):
    est, se = nf.DensityProfile.draw(region12, 20000, 7).estimate(72.0)
    assert est > 0
    assert se > 0


def test_omega_outside_support_zero(gaussian_norm, region12):
    lo, hi = region12.support
    h = region12.B**2 / 200.0
    prof = nf.DensityProfile.draw(region12, 5000, 3)
    est, se = prof.estimate(hi + 2 * h + 5)
    assert est == 0.0 and se == 0.0
    est, se = prof.estimate(lo - 2 * h - 5)
    assert est == 0.0


def test_omega_brute_match(gaussian_norm, region12):
    """Hit fraction times volume over window width, recomputed by hand."""
    prof = nf.DensityProfile.draw(region12, 4000, 19)
    y = 80.0
    h = prof.half_width
    hits = int(np.sum(np.abs(prof.values - y) <= h))
    est, _ = prof.estimate(y)
    assert est == pytest.approx(hits / 4000 * region12.volume / (2 * h))
    assert h == pytest.approx(144.0 / 200.0)


def test_omega_integrates_to_volume(gaussian_norm, region12):
    prof = nf.DensityProfile.draw(region12, 40000, 23)
    lo, hi = region12.support
    h = prof.half_width
    centers = np.arange(lo - h, hi + 3 * h, 2 * h)
    est, se = prof.aggregate(centers, [2 * h] * len(centers))
    assert est == pytest.approx(region12.volume, rel=1e-9)
    assert se <= 1e-9  # every sample lands in exactly one bin


def test_aggregate_matches_separate_estimates(region12):
    prof = nf.DensityProfile.draw(region12, 6000, 5)
    ys = [60.0, 75.0, 90.0]
    ws = [1.0, 2.0, 0.5]
    single = sum(w * prof.estimate(y)[0] for y, w in zip(ys, ws))
    agg, se = prof.aggregate(ys, ws)
    assert agg == pytest.approx(single)
    assert se >= 0


def test_density_profile_determinism(region12):
    a = nf.DensityProfile.draw(region12, 2000, 99)
    b = nf.DensityProfile.draw(region12, 2000, 99)
    assert np.array_equal(a.values, b.values)
    c = nf.DensityProfile.draw(region12, 2000, 100)
    assert not np.array_equal(a.values, c.values)
    with pytest.raises(ValueError):
        nf.DensityProfile.draw(region12, 100, 1)
