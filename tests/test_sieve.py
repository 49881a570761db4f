"""Oracle-first checks: every table answer is compared against plain
trial division written here with no dependence on the package."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlab import sieve as sv


# -- independent oracles ----------------------------------------------------

def oracle_factor(n: int) -> dict[int, int]:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def oracle_liouville(n: int) -> int:
    if n == 0:
        return 0
    return -1 if sum(oracle_factor(abs(n)).values()) % 2 else 1


def oracle_mobius(n: int) -> int:
    fac = oracle_factor(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def oracle_mangoldt_tag(n: int):
    if n == 0:
        return (None, 0)
    fac = oracle_factor(abs(n))
    if len(fac) == 1:
        ((p, k),) = fac.items()
        return (p, k)
    return (None, 0)


def oracle_tau_b(n: int, b: int) -> int:
    out = 1
    for e in oracle_factor(n).values():
        out *= math.comb(e + b - 1, b - 1)
    return out


# -- construction -----------------------------------------------------------

def test_spf_small_table():
    t = sv.SieveTable(10)
    assert list(t._spf[2:]) == [2, 3, 2, 5, 2, 7, 2, 3, 2]


def test_bound_validation():
    with pytest.raises(ValueError):
        sv.SieveTable(1)


def test_spf_invariant(sieve_small):
    spf = sieve_small._spf
    for n in (2, 3, 4, 6, 9, 9973, 10000):
        p = int(spf[n])
        assert n % p == 0
        assert oracle_factor(p) == {p: 1}


def test_primes_list(sieve_small):
    ps = sieve_small.primes()
    assert ps[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(ps) == 1229  # pi(10^4)


# -- scalar functions vs oracle --------------------------------------------

def test_oracle_agreement_small(sieve_small):
    for n in range(1, 20001):
        fac = sieve_small.factor(n)
        assert fac == oracle_factor(n), n
        assert sieve_small.liouville(n) == oracle_liouville(n)
        assert sieve_small.mobius(n) == oracle_mobius(n)
        tag = sieve_small.mangoldt(n)
        assert (tag.prime, tag.exponent) == oracle_mangoldt_tag(n)
        assert sieve_small.tau_b(n, 3) == oracle_tau_b(n, 3)


def test_worked_values(sieve_small):
    assert sieve_small.liouville(0) == 0
    assert sieve_small.liouville(1) == 1
    assert sieve_small.liouville(2) == -1
    assert sieve_small.liouville(-12) == -1
    assert sieve_small.liouville(12) == sieve_small.liouville(-12)

    m8 = sieve_small.mangoldt(8)
    assert m8.value == math.log(2) and (m8.prime, m8.exponent) == (2, 3)
    assert sieve_small.mangoldt(6).value == 0.0
    m5 = sieve_small.mangoldt(-5)
    assert m5.value == math.log(5) and m5.prime == 5
    assert sieve_small.mangoldt(0) == sv.Mangoldt(0.0, None, 0)
    assert sieve_small.mangoldt(1) == sv.Mangoldt(0.0, None, 0)

    assert sieve_small.tau_b(12, 2) == 6
    for b in (1, 2, 5):
        assert sieve_small.tau_b(1, b) == 1
        assert sieve_small.tau_b(7, b) == b
    with pytest.raises(ValueError):
        sieve_small.tau_b(0, 2)


def test_factor_beyond_bound(sieve_small):
    p, q = 1000003, 1000033
    assert sieve_small.factor(p * q) == {p: 1, q: 1}
    assert sieve_small.factor(2**40 * 3) == {2: 40, 3: 1}
    n = 10**11 + 3
    fac = sieve_small.factor(n)
    assert math.prod(pp**e for pp, e in fac.items()) == n
    assert sieve_small.liouville(-(p * q)) == 1
    assert sieve_small.mangoldt(p * p) == sv.Mangoldt(math.log(p), p, 2)


def test_complete_multiplicativity(sieve_1m):
    lt = sieve_1m.liouville_table()
    vals = lt[1:1001].astype(np.int32)
    grid = np.arange(1, 1001, dtype=np.int64)
    prods = np.outer(vals, vals)
    assert (lt[np.outer(grid, grid)] == prods).all()


def test_tau_submultiplicative(sieve_small):
    rng = np.random.default_rng(5)
    for _ in range(300):
        m, n = rng.integers(1, 3000, size=2)
        for b in (2, 3):
            assert sieve_small.tau_b(int(m * n), b) <= sieve_small.tau_b(int(m), b) * sieve_small.tau_b(int(n), b)


def test_divisor_sum_growth(sieve_1m):
    # sum tau_B(r)^k over r <= R stays within C * R * (log R)^(B^k - 1).
    for bb, k, cap in ((1, 1, 1.01), (1, 2, 1.01), (2, 1, 1.3), (2, 2, 1.1)):
        for rr in (10**3, 10**4, 10**5):
            total = sum(sieve_1m.tau_b(r, bb) ** k for r in range(1, rr + 1))
            bound = cap * rr * math.log(rr) ** (bb**k - 1)
            assert total <= bound, (bb, k, rr, total / bound)


# -- bulk tables -------------------------------------------------------------

def test_tables_match_scalars(sieve_small):
    lt = sieve_small.liouville_table()
    mt = sieve_small.mobius_table()
    gt = sieve_small.mangoldt_values(np.arange(sieve_small.bound + 1))
    assert lt[0] == 0 and mt[0] == 0 and gt[0] == 0.0
    for n in list(range(1, 300)) + [9973, 10000]:
        assert lt[n] == sieve_small.liouville(n)
        assert mt[n] == sieve_small.mobius(n)
        assert gt[n] == sieve_small.mangoldt(n).value


def test_mertens_small_oracle(sieve_small):
    want = sum(oracle_mobius(n) for n in range(1, 10001))
    assert want == -23
    assert int(sieve_small.mobius_table()[1:].sum()) == -23


def test_mertens_100k(sieve_1m):
    assert int(sieve_1m.mobius_table()[1 : 10**5 + 1].sum(dtype=np.int64)) == -48


def test_mangoldt_values_vectorized(sieve_small):
    vals = [0, 1, 2, 6, 8, 243, 9973, -32, 10**6 + 3, (10**6 + 3) ** 2, 1000003 * 1000033, 2**41]
    got = sieve_small.mangoldt_values(np.array(vals, dtype=np.int64))
    for v, g in zip(vals, got):
        tag = sieve_small.mangoldt(v)
        assert abs(g - tag.value) < 1e-12, v


_BOUNDS = (2, 30, 1000, 10**4)  # 2 and 30 sit below the layer's trial-division primes
_TABLES = {b: sv.SieveTable(b) for b in _BOUNDS}
_PRIMES = [p for p in range(2, 3000) if oracle_factor(p) == {p: 1}]
# primes around sqrt(2^31) = 46340.95, so p^2 straddles 2^31
_NEAR_ROOT = [p for p in range(46200, 46500) if oracle_factor(p) == {p: 1}]
# strong pseudoprimes to the bases (2), (2, 3), (2, 3, 5), (2, 3, 5, 7) and
# (2, 7, 61), then Carmichael numbers
_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 4759123141,
                 561, 41041, 825265, 321197185]

_magnitudes = st.one_of(
    st.integers(0, 200),
    st.sampled_from(_BOUNDS).flatmap(lambda b: st.integers(max(0, b - 40), b + 40)),
    st.integers(2**31 - 300, 2**31 + 300),
    st.integers(0, 10**10),
    st.sampled_from(_PSEUDOPRIMES),
    st.tuples(st.sampled_from(_PRIMES), st.integers(1, 3)).map(lambda t: t[0] ** t[1]),
    st.tuples(st.sampled_from(_NEAR_ROOT), st.integers(1, 2)).map(lambda t: t[0] ** t[1]),
)
_values = st.lists(st.tuples(_magnitudes, st.booleans()).map(lambda t: -t[0] if t[1] else t[0]),
                   max_size=40)


@settings(max_examples=150, deadline=None)
@given(bound=st.sampled_from(_BOUNDS), values=_values)
@example(bound=2, values=_PSEUDOPRIMES)
@example(bound=1000, values=[-v for v in _PSEUDOPRIMES] + [-2**63, 2**63 - 1])
@example(bound=2, values=[0, 1, -1, 2, 3, 5, 7, 11, 53, 59, 61, 67, 4, 8, 49, 3721, 4489])
def test_mangoldt_values_match_scalar(bound, values):
    table = _TABLES[bound]
    arr = np.array(values, dtype=np.int64)
    want = np.array([table.mangoldt(int(v)).value for v in arr], dtype=np.float64)
    assert table.mangoldt_values(arr).tobytes() == want.tobytes()


def test_mangoldt_beyond_vector_limit_matches_sympy():
    # magnitudes from 2^31 on take factor; sympy is the independent oracle
    table = _TABLES[1000]
    mags = [2**31 + 11, 3**20, 2**31 * 3, 4294967311, 46349**2, 999983 * 1000003]
    for n in mags:
        fac = sympy.factorint(n)
        want = math.log(next(iter(fac))) if len(fac) == 1 else 0.0
        got = table.mangoldt_values(np.array([n, -n], dtype=np.int64))
        assert got.tolist() == [want, want], n
        assert table.mangoldt(n).value == want, n


def test_liouville_values_vectorized(sieve_small):
    vals = np.array([0, 1, -12, 9999, 10007 * 10009], dtype=np.int64)
    got = sieve_small.liouville_values(vals)
    assert list(got) == [sieve_small.liouville(int(v)) for v in vals]


@settings(max_examples=150, deadline=None)
@given(bound=st.sampled_from(_BOUNDS), values=_values)
@example(bound=1000, values=[-2**63, 2**63 - 1, -1000, 1000, -1001, 1001, 999,
                             2**31, -2**31, 2**31 - 1, 2**31 + 1, 0])
@example(bound=2, values=[-2**63, -2, 2, -3, 3, 2**31])
def test_liouville_values_match_scalar(bound, values):
    table = _TABLES[bound]
    arr = np.array(values, dtype=np.int64)
    want = np.array([table.liouville(int(v)) for v in arr], dtype=np.int8)
    assert table.liouville_values(arr).tobytes() == want.tobytes()


# -- persistence --------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    t = sv.SieveTable(500)
    path = tmp_path / "spf.bin"
    t.save(path)
    t2 = sv.SieveTable.load(path)
    assert t2.bound == 500
    assert (t2._spf == t._spf).all()
    raw = path.read_bytes()
    assert raw[:8] == b"FRMLSPF1"
    assert len(raw) == 16 + 4 * 501


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 32)
    with pytest.raises(ValueError, match="bad magic"):
        sv.SieveTable.load(path)
    good = tmp_path / "spf.bin"
    sv.SieveTable(500).save(good)
    raw = good.read_bytes()
    # shorter than the header; then a payload that is not whole uint32 entries
    for cut in (raw[:12], raw[:-2]):
        path.write_bytes(cut)
        with pytest.raises(ValueError, match="truncated"):
            sv.SieveTable.load(path)


# -- prime power pair counts ---------------------------------------------------

def oracle_pair_count(qs, a, b, c, x):
    """Per q in qs, the pairs with q | v1^a v2^b (v1^c - v2^c); each value computed once."""
    counts = [0] * len(qs)
    for v1 in range(1, x + 1):
        for v2 in range(1, x + 1):
            value = v1**a * v2**b * (v1**c - v2**c)
            for j, q in enumerate(qs):
                counts[j] += value % q == 0
    return counts


def test_pair_count_worked_examples():
    # (2,2) gives product 0 and (1,1) gives 0 as well: both divisible by 4.
    assert sv.gcd_divisibility_counts([4], 1, 1, 1, 2)[0] == 2
    assert oracle_pair_count([4], 1, 1, 1, 2) == [2]
    assert sv.gcd_divisibility_counts([2], 1, 1, 1, 1)[0] == 1
    got = sv.gcd_divisibility_counts([9], 1, 1, 2, 30)[0]
    assert [got] == oracle_pair_count([9], 1, 1, 2, 30)


def test_pair_count_random_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        q = int(rng.choice([2, 3, 4, 5, 8, 9, 25, 27, 49]))
        a, b, c = (int(v) for v in rng.integers(1, 4, size=3))
        x = int(rng.integers(1, 25))
        want = oracle_pair_count([q, 2], a, b, c, x)
        assert sv.gcd_divisibility_counts([q], a, b, c, x)[0] == want[0]
        assert sv.gcd_divisibility_counts([q, 2], a, b, c, x).tolist() == want


def test_pair_counts_batch_matches_scalar():
    # C04's scale: x = 200 and exponents up to 2, so values reach 200^6
    qs = [2, 3, 4, 7, 64, 243, 625, 2401, 4096, 6561, 9973]
    for a, b, c in ((1, 1, 1), (2, 1, 2), (2, 2, 2)):
        got = sv.gcd_divisibility_counts(qs, a, b, c, 200)
        assert got.tolist() == oracle_pair_count(qs, a, b, c, 200)


def test_pair_count_validation():
    with pytest.raises(ValueError):
        sv.gcd_divisibility_counts([6], 1, 1, 1, 10)  # not a prime power
    with pytest.raises(ValueError):
        sv.gcd_divisibility_counts([4], 0, 1, 1, 10)
    with pytest.raises(ValueError):
        sv.gcd_divisibility_counts([4], 1, 1, 1, 10**5)  # budget
    with pytest.raises(ValueError):
        sv.gcd_divisibility_counts([4, 6], 1, 1, 1, 10)  # not a prime power
    with pytest.raises(ValueError):
        sv.gcd_divisibility_counts([4], 9, 9, 9, 200)  # values overflow int64


def test_pair_count_lemma_shape():
    # count * q^(1/(2 max)) / x^2 bounded uniformly over prime powers.
    x = 60
    worst = 0.0
    qs = [p**e for p in (2, 3, 5, 7, 11, 13) for e in (1, 2, 3) if p**e <= 1000]
    for abc in ((1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)):
        for q, count in zip(qs, sv.gcd_divisibility_counts(qs, *abc, x).tolist()):
            ratio = count * q ** (1 / (2 * max(abc))) / x**2
            worst = max(worst, ratio)
    assert worst <= 3.5, worst
