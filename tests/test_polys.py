import random
from fractions import Fraction

import sympy

from formlab import polys

T = sympy.symbols("t")


def _to_sympy(f):
    return sum(sympy.Rational(c.numerator, c.denominator) * T**i for i, c in enumerate(f))


def _random_poly(rng, deg, lim=9):
    f = [rng.randint(-lim, lim) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-lim, lim)
    return f + [lead]


def _product(f, g):
    """Product of ascending coefficient lists."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_divmod_matches_sympy():
    rng = random.Random(5)
    for _ in range(50):
        f = _random_poly(rng, rng.randint(0, 6))
        g = _random_poly(rng, rng.randint(0, 3))
        q, r = polys.poly_divmod(f, g)
        lhs = sympy.expand(_to_sympy(g) * _to_sympy(q) + _to_sympy(r))
        assert sympy.expand(lhs - _to_sympy(f)) == 0
        assert polys.degree(r) < polys.degree(g) or not r


def test_resultant_matches_sympy_up_to_convention():
    # sympy's subresultant sign convention can differ when deg f * deg g
    # is odd; magnitudes must agree everywhere.
    rng = random.Random(17)
    for _ in range(60):
        f = _random_poly(rng, rng.randint(1, 5))
        g = _random_poly(rng, rng.randint(1, 5))
        want = sympy.resultant(_to_sympy(f), _to_sympy(g), T)
        got = polys.sylvester_resultant(f, g)
        assert abs(got) == abs(want)
        if (polys.degree(f) * polys.degree(g)) % 2 == 0:
            assert got == want


def test_resultant_classical_convention():
    rng = random.Random(19)
    # Res(t - a, g) = g(a): the defining root-product normalization.
    for _ in range(40):
        a = rng.randint(-9, 9)
        g = _random_poly(rng, rng.randint(1, 5))
        assert polys.sylvester_resultant([-a, 1], g) == polys.poly_eval(g, a)
    # swap antisymmetry and multiplicativity pin the remaining signs
    for _ in range(40):
        f = _random_poly(rng, rng.randint(1, 4))
        g = _random_poly(rng, rng.randint(1, 4))
        h = _random_poly(rng, rng.randint(1, 3))
        m, n = polys.degree(f), polys.degree(g)
        assert polys.sylvester_resultant(f, g) == (-1) ** (m * n) * polys.sylvester_resultant(g, f)
        assert polys.sylvester_resultant(_product(f, h), g) == polys.sylvester_resultant(
            f, g
        ) * polys.sylvester_resultant(h, g)


def test_discriminant_matches_sympy():
    rng = random.Random(23)
    for _ in range(60):
        f = _random_poly(rng, rng.randint(1, 6))
        want = sympy.discriminant(_to_sympy(f), T)
        assert polys.discriminant(f) == want
    assert polys.discriminant([1, 0, 1]) == -4  # t^2 + 1
    assert polys.discriminant([-2, 0, 1]) == 8  # t^2 - 2


def test_bareiss_det():
    rng = random.Random(2)
    for n in range(1, 7):
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert polys.bareiss_det(m) == int(sympy.Matrix(m).det())
    assert polys.bareiss_det([[0, 1], [1, 0]]) == -1
    assert polys.bareiss_det([[0, 0], [0, 1]]) == 0


def test_real_root_isolation_counts():
    # f is isolated as given: one interval per distinct real root, with
    # endpoints that are not roots, also when roots repeat
    rng = random.Random(31)
    repeated = [
        _product(_product([-1, 1], [-1, 1]), [2, 1]),  # (t-1)^2 (t+2)
        _product([0, 1], _product([-2, 0, 1], [-2, 0, 1])),  # t (t^2-2)^2
        _product(_product([-1, 1], [-1, 1]), _product([-1, 1], [1, 1])),  # (t-1)^3 (t+1)
    ]
    for f in repeated + [_random_poly(rng, rng.randint(1, 5)) for _ in range(40)]:
        want = len(set(sympy.real_roots(_to_sympy(f))))
        got = polys.isolate_real_roots(f)
        assert len(got) == want, f
        for lo, hi in got:
            assert lo <= hi
            assert polys.poly_eval(f, lo) != 0 and polys.poly_eval(f, hi) != 0


def test_factor_shape_matches_sympy():
    rng = random.Random(67)
    for p in (2, 3, 5, 7, 13):
        for _ in range(25):
            deg = rng.randint(1, 6)
            f = [rng.randint(0, p - 1) for _ in range(deg)] + [1]  # monic
            shape = polys.factor_shape_mod_p(f, p)
            _, factors = sympy.Poly(_to_sympy(f), T, modulus=p).factor_list()
            want = sorted((sympy.degree(fac, T), mult) for fac, mult in factors)
            assert list(shape) == [(int(d), int(m)) for d, m in want], (f, p)
            assert sum(d * m for d, m in shape) == deg


def test_factor_shape_gaussian_examples():
    f = [1, 0, 1]  # t^2 + 1
    assert polys.factor_shape_mod_p(f, 5) == ((1, 1), (1, 1))
    assert polys.factor_shape_mod_p(f, 3) == ((2, 1),)
    assert polys.factor_shape_mod_p(f, 2) == ((1, 2),)




def test_pmod_gcd_monic():
    g = polys.pmod_gcd([1, 0, 1], [2, 1], 5)  # t^2+1 and t+2 share root t=-2=3
    assert g == [2, 1]
    assert polys.pmod_gcd([1, 0, 1], [1, 1], 5) == [1]


def test_has_rational_root_worked():
    assert polys.has_rational_root([])  # the zero polynomial
    assert polys.has_rational_root([0, 0])
    assert not polys.has_rational_root([7])
    assert polys.has_rational_root([0, 3, 1])  # t = 0
    assert polys.has_rational_root([-1, 2])  # t = 1/2
    assert not polys.has_rational_root([3, 0, -4, 0])  # trimmed: 3 - 4t^2
    assert not polys.has_rational_root([-2, 0, 1])
    assert polys.has_rational_root([-9, 0, 4])  # t = 3/2
    assert not polys.has_rational_root([2, 0, 0, 1])


def test_has_rational_root_matches_sympy():
    rng = random.Random(13)
    for _ in range(300):
        f = _random_poly(rng, rng.randint(1, 5), lim=12)
        if rng.random() < 0.2:
            f[0] = 0
        _, factors = sympy.factor_list(_to_sympy([Fraction(c) for c in f]), T)
        want = any(sympy.degree(fac, T) == 1 for fac, _ in factors)
        assert polys.has_rational_root(f) == want, f
