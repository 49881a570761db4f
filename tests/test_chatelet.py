"""Local-global solvability, densities, counting, and the hasse/density kinds.

Brute-force oracles are written independently of the implementation:
sigma by full residue enumeration, the p-adic verdicts by exhaustive
congruence search, two-squares by scanning, counts by double loops.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formlab import arith, chatelet as ch, forms, harness, polys
from formlab.errors import ResourceLimitError
from formlab.forms import BinaryForm
from formlab.normforms import (
    DedekindLocal,
    DensityProfile,
    NormForm,
    NumberField,
    RegionB,
    field_presets,
    gamma_many,
)
from formlab.rng import philox


@pytest.fixture(scope="module")
def fields():
    return field_presets()


@pytest.fixture(scope="module")
def Qi(fields):
    return fields["gaussian"]


def inst_of(field, coeffs) -> ch.ChateletInstance:
    return ch.ChateletInstance(field=field, form=BinaryForm(coeffs))


# ---------------------------------------------------------------------------
# Instance basics.

def test_degree_divisibility_enforced(Qi, fields):
    with pytest.raises(ValueError):
        inst_of(Qi, [1, 1, 1, 1])  # d=3, e=2
    inst_of(fields["cbrt2"], [1, 0, 0, 1])
    inst_of(Qi, [1, 0, 0, 0, 1])


def test_in_S_membership(Qi):
    assert inst_of(Qi, [3, 1, 2]).in_S(3)
    assert not inst_of(Qi, [3, 1, 2]).in_S(2)  # height
    assert not inst_of(Qi, [0, 1, 2]).in_S(5)  # c0 = 0
    assert not inst_of(Qi, [2, 1, 0]).in_S(5)  # cd = 0


def test_bad_primes_cover_edges_and_discs(Qi):
    bad = inst_of(Qi, [7, 0, 7]).bad_primes()
    assert 2 in bad  # field discriminant
    assert 7 in bad  # edge coefficients
    bad2 = inst_of(Qi, [1, 0, -15]).bad_primes()
    assert {3, 5} <= set(bad2)


# ---------------------------------------------------------------------------
# Real solvability.

def test_real_imaginary_field_positive_form(Qi):
    assert ch.real_solvable(inst_of(Qi, [1, 0, 1])) is True


def test_real_imaginary_field_negative_form(Qi):
    # -3(2u + v)^2 and -(u^2 - 2v^2)^2 touch 0 but never turn positive
    for coeffs in ([-1, 0, -1], [-12, -12, -3], [-1, 0, 4, 0, -4]):
        assert ch.real_solvable(inst_of(Qi, coeffs)) is False


def test_real_embedded_field(fields):
    # N_K takes both signs, so every nonzero g is solvable: indefinite,
    # positive definite, and nonpositive squares with a rational and an
    # irrational double root
    for coeffs in ([1, 0, -1], [1, 0, 1], [-12, -12, -3], [-1, 0, 4, 0, -4]):
        assert ch.real_solvable(inst_of(fields["sqrt2"], coeffs)) is True


def test_real_odd_degree_both_signs(fields):
    assert ch.real_solvable(inst_of(fields["cbrt2"], [5, 1, -2, 7])) is True


def test_real_zero_form_and_bad_sign(Qi, fields):
    assert ch.real_solvable(inst_of(Qi, [0, 0, 0])) is False
    assert ch.real_solvable(inst_of(fields["sqrt2"], [0, 0, 0])) is False
    # the verdict covers both signs at once, so a sign is no argument
    with pytest.raises(TypeError):
        ch.real_solvable(inst_of(Qi, [1, 0, 1]), 1)


def oracle_g_signs(coeffs):
    """Signs of the nonzero values of g(u, v) over R, found with sympy alone.

    g(t, 1) is sampled at a rational point of each gap between its
    distinct real roots; g(1, 0) = c0 covers v = 0.
    """
    t = sympy.symbols("t")
    f = sympy.Poly(list(coeffs), t)  # c0 t^d + ... + cd = g(t, 1)
    if f.is_zero:
        return set()
    # closed isolating intervals, narrow enough that neighbours do not touch
    boxes = [box for box, _ in f.intervals(eps=sympy.Rational(1, 10**9))]
    if boxes:
        points = [boxes[0][0] - 1, boxes[-1][1] + 1]
        for (_, b), (a, _) in zip(boxes, boxes[1:]):
            assert b < a
            points.append((a + b) / 2)
    else:
        points = [0]
    signs = {sympy.sign(f.eval(x)) for x in points} | {sympy.sign(coeffs[0])}
    signs.discard(0)
    return signs


def oracle_real(field, coeffs):
    """N_K(x) = g(u, v) != 0 over R: N_K takes every positive value, and
    every negative one unless sympy finds no real root of K's polynomial."""
    t = sympy.symbols("t")
    imaginary = not sympy.real_roots(sympy.Poly(list(reversed(field.poly)), t))
    signs = oracle_g_signs(coeffs)
    return bool(signs) and (1 in signs or not imaginary)


# forms h(u, v) with irrational, rational or no real roots, planted as squares
_PLANTED = [(1, 0, -2), (1, 0, -3), (1, 1, -1), (2, 1), (1, -3), (1, 0, 1), (3, 0, -5)]


@st.composite
def _real_cases(draw):
    name = draw(st.sampled_from(["gaussian", "sqrt2", "cbrt2"]))
    d = 6 if name == "cbrt2" else draw(st.sampled_from([2, 4, 6]))
    if draw(st.booleans()):  # +-k h^2 r with r of the remaining degree
        k = draw(st.sampled_from([1, -1, 3, -3]))
        h = BinaryForm(draw(st.sampled_from([h for h in _PLANTED if 2 * len(h) - 2 <= d])))
        g = h * h
        rest = d - g.degree
        if rest:
            r = draw(st.lists(st.integers(-4, 4), min_size=rest + 1, max_size=rest + 1))
            g = g * BinaryForm(r)
        coeffs = [k * c for c in g.coeffs]
    else:
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1))
    end = draw(st.sampled_from([None, 0, -1]))  # force c0 = 0 or cd = 0
    if end is not None:
        coeffs[end] = 0
    return name, coeffs


@settings(max_examples=300, deadline=None)
@given(case=_real_cases())
@example(case=("sqrt2", [-1, 0, 4, 0, -4]))  # -(u^2 - 2v^2)^2
@example(case=("sqrt2", [-12, -12, -3]))  # -3(2u + v)^2
@example(case=("sqrt2", [-2, 1, -3]))  # negative definite, K with a real place
@example(case=("gaussian", [-2, 1, -3]))  # negative definite, K totally imaginary
@example(case=("gaussian", [0, 0, 0]))  # the zero form
@example(case=("cbrt2", [0, 0, 0, 0, 0, 0, 1]))  # c0 = 0, even power of v
@example(case=("sqrt2", [1, -2, 0, 2, -1]))  # (u - v)^3 (u + v): a triple root
@example(case=("sqrt2", [1, -2, 2, -2, 1]))  # (u - v)^2 (u^2 + v^2)
def test_real_solvable_matches_sympy_oracle(fields, case):
    name, coeffs = case
    field = fields[name]
    got = ch.real_solvable(inst_of(field, coeffs))
    assert type(got) is bool
    assert got == oracle_real(field, coeffs)


# ---------------------------------------------------------------------------
# p-adic verdicts against exhaustive congruence oracles.

def test_padic_smooth_unit_solution(Qi):
    v = ch.padic_solvable(inst_of(Qi, [1, 0, 1]), 5)
    assert (v.kind, v.alpha, v.level) == ("yes", 0, 1)


def test_padic_inert_content_obstruction(Qi):
    # g = 3(u^2+v^2) forces an odd 3-valuation on primitive pairs while
    # norms at an inert prime have even valuation
    v = ch.padic_solvable(inst_of(Qi, [3, 0, 3]), 3)
    assert (v.kind, v.level) == ("no", 2)


def brute_no_match_mod(field, coeffs, p, k) -> bool:
    """No x, primitive (s,t) with N(x) = g(s,t) mod p^k, by enumeration."""
    q = p**k
    norm = NormForm(field)
    nvals = {norm([a, b]) % q for a in range(q) for b in range(q)}
    g = BinaryForm(coeffs)
    for s in range(q):
        for t in range(q):
            if s % p == 0 and t % p == 0:
                continue
            if g(s, t) % q in nvals:
                return False
    return True


def test_padic_no_verdict_matches_enumeration(Qi):
    assert brute_no_match_mod(Qi, [3, 0, 3], 3, 2)
    assert not brute_no_match_mod(Qi, [1, 0, 1], 3, 2)


def test_padic_content_two_hensel_level(Qi):
    v = ch.padic_solvable(inst_of(Qi, [2, 0, 2]), 2)
    assert (v.kind, v.alpha, v.level) == ("yes", 1, 3)
    # the recorded witness really solves the congruence at its level
    (x, st) = v.witness
    assert (NormForm(Qi)(list(x)) - BinaryForm([2, 0, 2])(*st)) % 8 == 0


def test_padic_least_alpha_among_certified_values(Qi):
    # at 2^5 two common values certify, with alpha 2 and alpha 1; the
    # verdict takes the least alpha (values from the tuple-list search)
    for coeffs in ([-1, 0, 1, 0, 0], [0, 0, 1, 0, -1]):
        v = ch.padic_solvable(inst_of(Qi, coeffs), 2)
        assert (v.kind, v.alpha, v.level) == ("yes", 1, 5)
        x, st = v.witness
        assert (NormForm(Qi)(list(x)) - BinaryForm(coeffs)(*st)) % 2**5 == 0


def test_least_points_minimal_valuation_then_least_point():
    # partial x at p = 2, level 3: v_2 caps to 3 at x = 0, so (0, 2) is the
    # least point of value 5 but (1, 3) has the least valuation; value 6
    # ties at valuation 0 and takes the lexicographically least point
    pts = np.array([[0, 2], [2, 0], [1, 3], [3, 1], [1, 5], [4, 4]])
    vals = np.array([5, 5, 5, 6, 6, 7])
    grad, wit = ch._least_points(pts, vals, [{(1, 0): 1}], 2, 3, np.array([5, 6]))
    assert grad.tolist() == [0, 0]
    assert wit.tolist() == [[1, 3], [1, 5]]


def test_padic_unknown_at_precision_one(Qi):
    v = ch.padic_solvable(inst_of(Qi, [3, 0, 3]), 3, max_precision=1)
    assert v.kind == "unknown"
    assert v.level == 1


def test_padic_rejects_bad_arguments(Qi):
    inst = inst_of(Qi, [1, 0, 1])
    with pytest.raises(ValueError):
        ch.padic_solvable(inst, 6)
    with pytest.raises(ValueError):
        ch.padic_solvable(inst, 4)
    with pytest.raises(ValueError):
        ch.padic_solvable(inst, 5, max_precision=0)


def test_padic_zero_form_unsolvable(Qi):
    assert ch.padic_solvable(inst_of(Qi, [0, 0, 0]), 5).kind == "no"


def form_gradient(g: BinaryForm, s: int, t: int) -> tuple[int, int]:
    """(dg/du, dg/dv) at (s, t)."""
    d = g.degree
    gu = sum(c * (d - i) * s ** (d - i - 1) * t**i for i, c in enumerate(g.coeffs[:-1]))
    gv = sum(c * i * s ** (d - i) * t ** (i - 1) for i, c in enumerate(g.coeffs) if i)
    return gu, gv


def brute_smooth_level_one(field, coeffs, p) -> bool:
    """Is there a mod-p solution with a unit partial on each side?"""
    norm = NormForm(field)
    g = BinaryForm(coeffs)
    e = field.degree
    smooth_n = {}
    for x in itertools.product(range(p), repeat=e):
        if any(v % p for v in norm.gradient(list(x))):
            smooth_n.setdefault(norm(list(x)) % p, True)
    for s in range(p):
        for t in range(p):
            if s == 0 and t == 0:
                continue
            if any(v % p for v in form_gradient(g, s, t)):
                if g(s, t) % p in smooth_n:
                    return True
    return False


def test_padic_good_prime_fast_path_is_sound(Qi, fields):
    # every yes(0) at level 1 for a good prime is witnessed by an
    # actual smooth congruence solution, checked by full enumeration
    rng = philox(31, "goodprime")
    checked = 0
    for field in (Qi, fields["sqrt2"]):
        for _ in range(12):
            coeffs = [int(c) for c in rng.integers(-9, 10, size=3)]
            if coeffs[0] == 0 or coeffs[-1] == 0:
                continue
            inst = inst_of(field, coeffs)
            for p in (5, 7, 11):
                v = ch.padic_solvable(inst, p)
                if (v.kind, v.alpha, v.level) == ("yes", 0, 1):
                    assert brute_smooth_level_one(field, coeffs, p)
                    checked += 1
    assert checked > 20


def test_padic_frontier_budget():
    with pytest.raises(ResourceLimitError):
        ch._lift({(1, 0): 1}, np.zeros((70000, 2), dtype=np.int64), 2, 1)


@pytest.mark.parametrize("p, level", [(23, 6), (241, 7)])
def test_lift_exact_at_big_moduli(p, level):
    # p^(level+1) is past 2^31 (object values) and, for 241^8, past 2^63
    # (object points); children and values against Python integers
    poly = {(3, 0): 7, (1, 2): -5, (0, 3): 2**40 + 1, (0, 0): -3}
    parents = np.array([[1, p**level - 1], [p**level - 2, 5]], dtype=np.int64)
    parents = parents[: ch._FRONTIER_CAP // p**2]  # one parent at p = 241
    pts, vals = ch._lift(poly, parents, p, level)
    q = p ** (level + 1)
    want = [
        (a + i * p**level, b + j * p**level)
        for a, b in parents.tolist()
        for i in range(p)
        for j in range(p)
    ]
    assert [tuple(map(int, pt)) for pt in pts] == want
    assert [int(v) for v in vals] == [
        (7 * s**3 - 5 * s * t * t + (2**40 + 1) * t**3 - 3) % q for s, t in want
    ]


def padic_verdict_table() -> list[tuple]:
    """(field, coeffs, p, kind, alpha, level) over small forms, with budget
    raises recorded as "budget"."""
    fields = field_presets()
    rows = []
    for name, d, c in (("gaussian", 2, 3), ("sqrt2", 2, 3), ("cbrt2", 3, 1)):
        for coeffs in itertools.product(range(-c, c + 1), repeat=d + 1):
            inst = inst_of(fields[name], coeffs)
            for p in sorted({2, 3, 5, 7} | {p for p in inst.bad_primes() if p < 60}):
                try:
                    v = ch.padic_solvable(inst, p)
                    rows.append((name, coeffs, p, v.kind, v.alpha, v.level))
                except ResourceLimitError:
                    rows.append((name, coeffs, p, "budget", None, None))
    return rows


def test_padic_verdict_table_pinned():
    # 3,196 verdicts (3,141 yes, 35 no, 12 unknown, 8 budget), digest taken
    # from the tuple-list implementation that preceded the array search
    rows = padic_verdict_table()
    assert len(rows) == 3196
    digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
    assert digest == "458fcff274962278970b0642792a26881c5c1e887cd11e1b7be2a5f57c3f50b4"


# ---------------------------------------------------------------------------
# sigma densities against brute enumeration.

def brute_sigma(field, coeffs, q) -> Fraction:
    norm = NormForm(field)
    g = BinaryForm(coeffs)
    e = field.degree
    hits = 0
    for x in itertools.product(range(q), repeat=e):
        nx = norm(list(x)) % q
        for s in range(q):
            for t in range(q):
                if (g(s, t) - nx) % q == 0:
                    hits += 1
    return Fraction(hits, q ** (e + 1))


@pytest.mark.parametrize("coeffs,q", [
    ([1, 0, 1], 2), ([1, 0, 1], 4), ([3, 0, 3], 9), ([1, 2, 3], 5),
    ([2, 1, 2], 8), ([1, 0, 1], 6), ([5, 3, 1], 12),
])
def test_sigma_matches_brute_force(Qi, coeffs, q):
    inst = inst_of(Qi, coeffs)
    assert ch.sigma_mod(inst, q) == brute_sigma(Qi, coeffs, q)


def test_sigma_brute_cubic_field(fields):
    inst = inst_of(fields["cbrt2"], [1, 1, 1, 1])
    assert ch.sigma_mod(inst, 2) == brute_sigma(fields["cbrt2"], [1, 1, 1, 1], 2)


def test_sigma_prime_power_splits(Qi):
    inst = inst_of(Qi, [1, 0, 1])
    assert ch.sigma_pp(inst, 2, 1) == Fraction(1)  # joined histograms {0:2,1:2}
    assert ch.sigma_pp(inst, 2, 2) == ch.sigma_mod(inst, 4)
    assert ch.sigma_pp(inst, 3, 1) == ch.sigma_mod(inst, 3)
    assert ch.sigma_pp(inst, 5, 0) == Fraction(1)
    with pytest.raises(ValueError):
        ch.sigma_pp(inst, 2, -1)


_SIGMA_CASES = {  # field -> (form degrees, prime powers within sigma_mod's budget)
    "gaussian": ((2, 4), [(2, 1), (2, 2), (2, 3), (2, 5), (3, 1), (3, 3), (5, 2), (7, 2)]),
    "sqrt2": ((2, 4), [(2, 1), (2, 4), (3, 2), (5, 1), (7, 1)]),
    "cbrt2": ((3,), [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (3, 4), (5, 1), (5, 2)]),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_SIGMA_CASES)),
    data=st.data(),
    scale=st.sampled_from([1, 1, 2, 3, 4, 9, 0]),
)
@example(name="gaussian", data=None, scale=0)  # the zero form
@example(name="cbrt2", data=None, scale=8)  # e = 3, content 2^3, k > d
def test_sigma_pp_orbit_sum_matches_sigma_mod(name, data, scale):
    # sigma_pp sums orbits of P^1(Z/p^k); sigma_mod enumerates the grid
    degrees, pks = _SIGMA_CASES[name]
    if data is None:
        d, (p, k), coeffs = degrees[0], pks[-1], [1] * (degrees[0] + 1)
    else:
        d = data.draw(st.sampled_from(degrees))
        p, k = data.draw(st.sampled_from(pks))
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=d + 1, max_size=d + 1))
    inst = inst_of(field_presets()[name], [scale * c for c in coeffs])
    assert ch.sigma_pp(inst, p, k) == ch.sigma_mod(inst, p**k)


def test_sigma_crt_multiplicative(Qi, fields):
    # exact CRT identity for every coprime modulus pair with product <= 60
    for field in (Qi, fields["sqrt2"]):
        inst = inst_of(field, [2, 1, 3])
        for q1 in range(2, 60):
            for q2 in range(2, 60 // q1 + 1):
                if math.gcd(q1, q2) != 1:
                    continue
                assert ch.sigma_mod(inst, q1 * q2) == ch.sigma_mod(
                    inst, q1
                ) * ch.sigma_mod(inst, q2), (q1, q2)


def test_sigma_budget_guard(Qi):
    with pytest.raises(ResourceLimitError):
        ch.sigma_mod(inst_of(Qi, [1, 0, 1]), 10007 * 3)


def test_sigma_w0_examples(Qi):
    inst = inst_of(Qi, [1, 0, 1])
    # only p=2 below the threshold, no content primes
    assert ch.sigma_w0(inst, m_dk=2, k_desk=1) == Fraction(1)
    # empty W0 entirely
    assert ch.sigma_w0(inst, m_dk=1, k_desk=1) == Fraction(1)


def test_sigma_w0_primes_and_product(Qi):
    inst = inst_of(Qi, [6, 0, 6])
    assert inst.form.content == 6
    # W0 primes: {2,3} below threshold, content adds nothing new
    sigma = ch.sigma_w0(inst, m_dk=3, k_desk=2)
    assert sigma == ch.sigma_pp(inst, 2, 2) * ch.sigma_pp(inst, 3, 2)
    assert 0 <= sigma <= 2**2 * 3**2
    # a content prime above the threshold joins W0
    inst = inst_of(Qi, [10, 0, 10])
    assert ch.sigma_w0(inst, m_dk=3, k_desk=2) == (
        ch.sigma_pp(inst, 2, 2) * ch.sigma_pp(inst, 3, 2) * ch.sigma_pp(inst, 5, 2)
    )
    assert ch.sigma_pp(inst, 5, 2) != 1


def test_hensel_lower_bound_for_certified_yes(Qi):
    # every certified yes(alpha) at p in {3,5} forces the exact density
    # sigma(p^k) >= p^(-(alpha+1)(e+1)) for k <= 3
    rng = philox(77, "henselbound")
    confirmed = 0
    for _ in range(40):
        coeffs = [int(c) for c in rng.integers(-6, 7, size=3)]
        if coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        inst = inst_of(Qi, coeffs)
        for p in (3, 5):
            v = ch.padic_solvable(inst, p)
            if v.kind != "yes":
                continue
            bound = Fraction(1, p ** ((v.alpha + 1) * (inst.e + 1)))
            for k in (1, 2, 3):
                assert ch.sigma_pp(inst, p, k) >= bound, (coeffs, p, k)
            confirmed += 1
    assert confirmed > 30


# ---------------------------------------------------------------------------
# Euler product.

def _local_factor(field, form, p, k_desk):
    """alpha_p * xi_p, xi_p = 1 + sum_j b(p^j) #{g = 0 mod p^j} / p^(2j), j <= k e."""
    loc = DedekindLocal.build(field, p)
    xi = 1 + sum(loc.b(j, k_desk) * Fraction(forms.zero_count_mod(form, p**j), p ** (2 * j))
                 for j in range(1, k_desk * field.degree + 1))
    return loc.alpha() * xi


def test_euler_product_exact_worked_value(Qi):
    # K = Q(i), g = u^2+v^2, primes 3,5,7: per-prime local factors
    # (4/3)(11/12), (4/5)(29/20), (8/7)(55/56)
    g = BinaryForm([1, 0, 1])
    factors = [_local_factor(Qi, g, p, 1) for p in (3, 5, 7)]
    assert factors == [Fraction(4, 3) * Fraction(11, 12), Fraction(4, 5) * Fraction(29, 20),
                       Fraction(8, 7) * Fraction(55, 56)]
    assert factors[0] * factors[1] * factors[2] == Fraction(17545, 11025)


def test_euler_product_unit_xi_at_two(Qi):
    # b(2^j) vanishes for Q(i) (beta = alpha there), so xi_2 = 1 and the
    # local factor collapses to alpha_2 = 1
    loc = DedekindLocal.build(Qi, 2)
    assert loc.b(1, 1) == 0 and loc.b(2, 1) == 0
    assert _local_factor(Qi, BinaryForm([1, 1, 1]), 2, 1) == 1


# ---------------------------------------------------------------------------
# Counting functions.

@pytest.fixture(scope="module")
def region40(Qi):
    r = RegionB(NormForm(Qi), math.sqrt(50) * 40)
    r.histogram()
    return r


def brute_count(field, coeffs, x, region) -> int:
    (alo, ahi), (blo, bhi) = region.lattice_bounds()
    norm = NormForm(field)
    table = {}
    for a in range(alo, ahi + 1):
        for b in range(blo, bhi + 1):
            table[norm([a, b])] = table.get(norm([a, b]), 0) + 1
    g = BinaryForm(coeffs)
    total = 0
    for m in range(-x, x + 1):
        for n in range(-x, x + 1):
            if n != 0:
                total += table.get(g(m, n), 0)
    return total


def test_count_matches_brute_double_loop(Qi, region40):
    for coeffs in ([39, 2, -3], [26, 44, -32], [1, 0, 1], [-7, 3, 50]):
        vals = ch.value_table(inst_of(Qi, coeffs), 40)
        assert ch.count_Nc(vals, region40) == brute_count(Qi, coeffs, 40, region40)


def test_count_zero_when_ranges_disjoint(Qi, region40):
    # small values never reach the histogram support
    assert ch.count_Nc(ch.value_table(inst_of(Qi, [1, 0, 1]), 5), region40) == 0


def test_count_empty_region(Qi):
    # at B = 1 the box around (2^(-1/2), 0) holds no lattice point
    empty = RegionB(NormForm(Qi), 1.0)
    assert empty.histogram()[0].size == 0
    assert ch.count_Nc(ch.value_table(inst_of(Qi, [1, 0, 1]), 5), empty) == 0


def test_count_monotone_in_x(Qi, region40):
    inst = inst_of(Qi, [39, 2, -3])
    counts = [ch.count_Nc(ch.value_table(inst, x), region40) for x in (10, 20, 30, 40)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_swapped_loop_order_identical(Qi, region40):
    # transposing the (m, n) grid permutes the value multiset only
    inst = inst_of(Qi, [14, -9, 21])
    swapped = inst_of(Qi, [21, -9, 14])  # g(n, m)
    assert (ch.count_Nc(ch.value_table(inst, 40), region40)
            == ch.count_Nc(ch.value_table(swapped, 40), region40))


def test_value_table_overflow_guard(Qi):
    big = inst_of(Qi, [2**40, 0, 2**40])
    with pytest.raises(ResourceLimitError):
        ch.value_table(big, 4000)


def test_default_B_convention(Qi):
    inst = inst_of(Qi, [1, 0, 1])
    assert abs(ch.default_B(inst, 40, 50.0) - math.sqrt(50) * 40) < 1e-12
    quartic = inst_of(Qi, [1, 0, 0, 0, 1])
    assert abs(ch.default_B(quartic, 10, 16.0) - 4 * 100) < 1e-9


# ---------------------------------------------------------------------------
# Localized model.

def test_localized_pure_archimedean(Qi, region40):
    inst = inst_of(Qi, [39, 2, -3])
    prof = DensityProfile.draw(region40, 20000, 5)
    vals = ch.value_table(inst, 40)
    est, err = ch.localized_Nc(Qi, vals, 1, profile=prof)
    ref, referr = prof.aggregate(vals.astype(np.float64), np.ones(len(vals)))
    assert est == ref and err == referr


def test_localized_deterministic_given_seed(Qi, region40):
    vals = ch.value_table(inst_of(Qi, [39, 2, -3]), 40)
    a = ch.localized_Nc(Qi, vals, 30, DensityProfile.draw(region40, 5000, 9))
    b = ch.localized_Nc(Qi, vals, 30, DensityProfile.draw(region40, 5000, 9))
    c = ch.localized_Nc(Qi, vals, 30, DensityProfile.draw(region40, 5000, 10))
    assert a == b
    assert a != c


def test_gamma_weight_depends_only_on_residue(Qi):
    vals = np.array([7, 7 + 30, 7 + 900, -23], dtype=np.int64)
    w = gamma_many(Qi, 30, vals)
    assert w[0] == w[1] == w[2] == w[3]  # -23 = 7 mod 30


def test_model_W():
    assert ch.model_W(5, 1) == 30
    assert ch.model_W(7, 2) == 44100
    assert ch.model_W(1, 3) == 1


def test_localized_converges_to_exact_count(Qi, region40):
    # with every prime up to 19 at the third power the model lands
    # within a few percent of the exact count; this pins the joint
    # normalization of gamma, omega, and the histogram
    W = ch.model_W(19, 3)
    prof = DensityProfile.draw(region40, 100000, 7)
    for coeffs in ([39, 2, -3], [26, 44, -32]):
        vals = ch.value_table(inst_of(Qi, coeffs), 40)
        nc = ch.count_Nc(vals, region40)
        est, _ = ch.localized_Nc(Qi, vals, W, profile=prof)
        assert nc > 100
        assert abs(nc - est) / nc < 0.05, (coeffs, nc, est)


# ---------------------------------------------------------------------------
# Rational point search.

def brute_two_squares(n):
    if n < 0:
        return None
    a = 0
    while a * a * 2 <= n:
        b2 = n - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            return (a, b)
        a += 1
    return None


def test_two_squares_oracle():
    for n in range(0, 600):
        got = ch.two_squares(n)
        want = brute_two_squares(n)
        assert (got is None) == (want is None), n
        if got is not None:
            assert got[0] ** 2 + got[1] ** 2 == n


def test_two_squares_large_prime():
    p = 10**9 + 9  # 1 mod 4
    a, b = ch.two_squares(p)
    assert a * a + b * b == p
    assert ch.two_squares(10**9 + 7) is None  # 3 mod 4


def test_search_finds_unit_witness(Qi):
    x, m, n = ch.search_rational_point(inst_of(Qi, [1, 0, 1]), 5)
    assert max(abs(m), abs(n)) == 1 and n != 0
    assert NormForm(Qi)(list(x)) == BinaryForm([1, 0, 1])(m, n) != 0


def test_search_exhausts_on_obstructed_instance(Qi):
    # 3(m^2+n^2) has odd 3-valuation for coprime (m, n), never a norm
    assert ch.search_rational_point(inst_of(Qi, [3, 0, 3]), 8) is None


def test_search_respects_gcd_and_height(Qi):
    got = ch.search_rational_point(inst_of(Qi, [5, 0, 45]), 30)
    assert got is not None
    x, m, n = got
    assert math.gcd(m, n) == 1 and n != 0
    assert NormForm(Qi)(list(x)) == BinaryForm([5, 0, 45])(m, n)


def test_search_real_embedded_field(fields):
    got = ch.search_rational_point(inst_of(fields["sqrt2"], [1, 0, -1]), 6)
    assert got is not None
    x, m, n = got
    assert NormForm(fields["sqrt2"])(list(x)) == BinaryForm([1, 0, -1])(m, n) != 0


def test_search_budget_returns_none(Qi):
    assert ch.search_rational_point(inst_of(Qi, [3, 0, 3]), 200, time_budget=50) is None


def test_homogeneity_bridge(Qi):
    # a homogeneous witness descends to the affine curve N(y) = f(t)
    got = ch.search_rational_point(inst_of(Qi, [5, 2, 10]), 40)
    assert got is not None
    x, m, n = got
    b = 1  # d = e
    y = [Fraction(v, n**b) for v in x]
    t = Fraction(m, n)
    f = BinaryForm([5, 2, 10]).dehomogenized()
    lhs = NormForm(Qi)(y)
    rhs = sum(Fraction(c) * t**j for j, c in enumerate(f))
    assert lhs == rhs != 0


# ---------------------------------------------------------------------------
# Experiments.

def test_tested_primes_cover_cutoff_and_bad(Qi):
    ps = ch.tested_primes(inst_of(Qi, [7, 0, 7]), 5)
    assert {2, 3, 5, 7} <= set(ps)
    assert all(arith.is_prime(p) for p in ps)


def test_classify_not_in_S(Qi):
    klass, *_ = ch.classify_coeffs(Qi, (21, 0, 1), 20, 10, 10)
    assert klass == "not-in-S"
    klass, *_ = ch.classify_coeffs(Qi, (0, 1, 1), 20, 10, 10)
    assert klass == "not-in-S"


def test_classify_real_obstruction(Qi):
    klass, _, _, why = ch.classify_coeffs(Qi, (-1, 0, -1), 20, 10, 10)
    assert klass == "locally-obstructed"
    assert why == "real place"


def test_classify_padic_obstruction(Qi):
    # primes are tested in increasing order and 3(u^2+v^2) already fails
    # at 2 (all its primitive values sit in the non-norm classes mod 8)
    klass, _, verdicts, why = ch.classify_coeffs(Qi, (3, 0, 3), 20, 30, 10)
    assert klass == "locally-obstructed"
    assert why == "p=2"
    assert verdicts == [(2, "no")]
    # 3(u^2 + 7v^2) passes at 2 but keeps the odd 3-valuation obstruction
    klass, _, verdicts, why = ch.classify_coeffs(Qi, (3, 0, 21), 21, 30, 10)
    assert klass == "locally-obstructed"
    assert why == "p=3"
    assert dict(verdicts)[3] == "no"
    assert dict(verdicts)[2] == "yes(1)"


def test_classify_found_with_witness(Qi):
    klass, witness, verdicts, _ = ch.classify_coeffs(Qi, (1, 0, 1), 20, 10, 10)
    assert klass == "rational-point-found"
    x, m, n = witness
    assert NormForm(Qi)(list(x)) == BinaryForm([1, 0, 1])(m, n) != 0
    assert all(v != "no" for _, v in verdicts)


def test_hasse_experiment_small(Qi):
    cfg = harness.make_config("hasse", {"height": 60, "primes": 20, "samples": 25,
                                        "seed": 3, "mc": 2000})
    recs = harness.compute_records(cfg)
    assert len(recs) == 25
    for r in recs:
        assert r["class"] in ch._CLASSES
        assert "budget" not in r["padic"].values()
        if r["class"] == "rational-point-found":
            assert all(v != "no" for v in r["padic"].values())
        # counting data is set exactly for the samples inside S
        in_s = r["class"] != "not-in-S"
        assert in_s == (r["Nc"] is not None) == (r["sigma_W0"] is not None)
    rows = dict(harness.PROTOCOLS["hasse"].summary(recs))
    assert sum(rows[f"count_{k}"] for k in ch._CLASSES) == 25
    assert rows["violations"] == 0
    found, unknown = rows["count_rational-point-found"], rows["count_unknown"]
    assert rows["ratio_lower_bound"] == (found / (found + unknown) if found + unknown else "")


def test_hasse_experiment_empty(Qi):
    cfg = harness.make_config("hasse", {"samples": 0, "seed": 1, "mc": 2000})
    recs = harness.compute_records(cfg)
    assert recs == []
    rows = dict(harness.PROTOCOLS["hasse"].summary(recs))
    assert rows["ratio_lower_bound"] == ""
    assert sum(rows[f"count_{k}"] for k in ch._CLASSES) == 0


def test_hasse_run_builds_one_norm_form(fields, monkeypatch):
    # the field owns its norm form and discriminant, so a run builds the
    # norm form once, however many instances and primes it classifies
    built = []
    init = NormForm.__init__

    def counting_init(self, field):
        built.append(field.name)
        init(self, field)

    monkeypatch.setattr(NormForm, "__init__", counting_init)
    monkeypatch.setattr(harness, "_STATE", {})
    field_presets.cache_clear()  # fresh fields, whose norm forms are not built yet
    cfg = harness.make_config("hasse", {"height": 30, "primes": 20, "samples": 20,
                                        "seed": 5, "mc": 2000, "workers": 1})
    assert len(harness.compute_records(cfg)) == 20
    assert built == ["gaussian"]
    field = harness._state_for(cfg)["field"]
    # the cached data sits outside the dataclass fields
    assert field == fields["gaussian"] and hash(field) == hash(fields["gaussian"])
    for f in fields.values():
        assert f.disc == polys.discriminant(list(f.poly))


def test_field_presets_built_once(monkeypatch):
    # a run validates its config and builds its state from one set of presets
    built = []
    power_basis = NumberField.power_basis.__func__

    def counting(cls, poly, *args, **kwargs):
        built.append(tuple(poly))
        return power_basis(cls, poly, *args, **kwargs)

    monkeypatch.setattr(NumberField, "power_basis", classmethod(counting))
    monkeypatch.setattr(harness, "_STATE", {})
    field_presets.cache_clear()
    cfg = harness.make_config("hasse", {"samples": 2, "mc": 2000, "workers": 1})
    assert len(harness.compute_records(cfg)) == 2
    assert len(built) == 4
    presets = field_presets()
    assert presets is field_presets() and len(built) == 4
    with pytest.raises(TypeError):
        presets["gaussian"] = presets["sqrt2"]


def test_density_experiment_records(Qi):
    cfg = harness.make_config("density", {"H": 50, "x": 40, "samples": 6, "seed": 7,
                                          "k_desk": 1, "w_desk": 5, "mc": 5000})
    recs = [r for r in harness.compute_records(cfg) if r["record"] == "instance"]
    region = harness._state_for(cfg)["region"]
    assert len(recs) == 6
    assert [r["draw"] for r in recs] == list(range(6))
    assert [r["index"] for r in recs] == sorted(set(r["index"] for r in recs))
    for r in recs:
        assert r["coeffs"][0] * r["coeffs"][-1] != 0
        assert r["Nc"] == ch.count_Nc(ch.value_table(inst_of(Qi, r["coeffs"]), 40), region)
        assert r["within"] == (abs(r["Nc"] - r["Nc_hat"]) <= 3 * r["Nc_err"])
    again = [r for r in harness.compute_records(cfg) if r["record"] == "instance"]
    assert recs == again
