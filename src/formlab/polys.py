"""Exact univariate polynomial utilities.

Polynomials are sequences of coefficients in ascending degree order:
index i holds the t^i coefficient.  Integer routines (resultants,
discriminants) are fraction-free via Bareiss elimination; division is
over the rationals.  Real-root isolation by Sturm chains runs on
Fractions on the polynomial as given, squarefree or not, so every
isolating interval is exact.  A dense mod-p toolkit provides gcds and
factor shapes at primes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import arith


def trim(f: Sequence) -> list:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: Sequence) -> int:
    """Degree of f; the zero polynomial has degree -1."""
    d = len(f) - 1
    while d >= 0 and f[d] == 0:
        d -= 1
    return d


def poly_eval(f: Sequence, x):
    out = 0
    for c in reversed(list(f)):
        out = out * x + c
    return out


def poly_deriv(f: Sequence) -> list:
    return trim([i * c for i, c in enumerate(f)][1:])


def poly_divmod(f: Sequence, g: Sequence) -> tuple[list, list]:
    """Quotient and remainder over the rationals."""
    g = trim([Fraction(c) for c in g])
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in f]
    dg = len(g) - 1
    lc = g[-1]
    q = [Fraction(0)] * max(0, len(r) - dg)
    while True:
        dr = degree(r)
        if dr < dg:
            break
        coef = r[dr] / lc
        q[dr - dg] = coef
        for i, gc in enumerate(g):
            r[dr - dg + i] -= coef * gc
        r[dr] = Fraction(0)
    return trim(q), trim(r)


def has_rational_root(f: Sequence[int]) -> bool:
    """Does the integer polynomial f vanish at some rational t?  (The zero
    polynomial does.)  A root num/den in lowest terms has num | f(0) and
    den | lead; it is a root iff sum f_i num^i den^(d-i) = 0, an integer test.
    """
    f = trim(f)
    if not f or f[0] == 0:
        return True
    d = len(f) - 1
    for num in arith.divisors(abs(f[0])):
        for den in arith.divisors(abs(f[-1])):
            if math.gcd(num, den) != 1:
                continue
            for s in (1, -1):
                if sum(c * (s * num) ** i * den ** (d - i) for i, c in enumerate(f)) == 0:
                    return True
    return False


def bareiss_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[-1][-1]


def sylvester_resultant(f: Sequence[int], g: Sequence[int]) -> int:
    f, g = trim(f), trim(g)
    if not f or not g:
        return 0
    m, n = len(f) - 1, len(g) - 1
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return int(f[0]) ** n
    if n == 0:
        return int(g[0]) ** m
    size = m + n
    mat = [[0] * size for _ in range(size)]
    for r in range(n):
        for j in range(m + 1):
            mat[r][r + j] = f[m - j]
    for r in range(m):
        for j in range(n + 1):
            mat[n + r][r + j] = g[n - j]
    return bareiss_det(mat)


def discriminant(f: Sequence[int]) -> int:
    """Discriminant of an integer polynomial of degree >= 1."""
    f = trim(f)
    m = len(f) - 1
    if m < 1:
        raise ValueError("discriminant requires degree >= 1")
    if m == 1:
        return 1
    res = sylvester_resultant(f, poly_deriv(f))
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    num = sign * res
    lc = int(f[-1])
    if num % lc != 0:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return num // lc


# ---------------------------------------------------------------------------
# Real roots via Sturm chains.

def sturm_chain(f: Sequence) -> list[list[Fraction]]:
    f = trim([Fraction(c) for c in f])
    chain = [f]
    d = poly_deriv(f)
    if d:
        chain.append(d)
    while degree(chain[-1]) > 0:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def sign_variations(chain: Sequence[Sequence], x) -> int:
    signs = []
    for f in chain:
        v = poly_eval(f, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: Sequence[Sequence], a, b) -> int:
    """Distinct real roots in (a, b]; endpoints must not be roots of f."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def root_bound(f: Sequence) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-B, B)."""
    f = trim([Fraction(c) for c in f])
    if degree(f) < 1:
        return Fraction(1)
    lc = abs(f[-1])
    return 1 + max(abs(c) for c in f[:-1]) / lc


def _split_points(a: Fraction, b: Fraction):
    # Deterministic stream of interior rational points of (a, b).
    for den in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for num in range(1, den):
            if math.gcd(num, den) == 1:
                yield a + (b - a) * Fraction(num, den)


def isolate_real_roots(f: Sequence) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, one distinct real root in each, in increasing order.

    f need not be squarefree: every member of its Sturm chain is
    gcd(f, f') times the matching member of the squarefree part's chain,
    and that gcd is nonzero wherever f is, so the sign variations at
    non-roots still count distinct real roots.  Every returned endpoint
    is a non-root of f.
    """
    f = trim([Fraction(c) for c in f])
    if degree(f) < 1:
        return []
    chain = sturm_chain(f)
    bound = root_bound(f)
    out = []
    stack = [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        n = count_roots(chain, a, b)
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        for mid in _split_points(a, b):
            if poly_eval(f, mid) != 0:
                break
        stack.append((a, mid))
        stack.append((mid, b))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Dense arithmetic mod p.

def pmod(f: Sequence[int], p: int) -> list[int]:
    return trim([int(c) % p for c in f])


def pmod_mul(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    f, g = trim(f), trim(g)
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def pmod_sub(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    return trim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p for i in range(n)])


def pmod_divmod(f: Sequence[int], g: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    g = trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero mod p")
    inv = pow(g[-1], -1, p)
    r = [int(c) % p for c in f]
    dg = len(g) - 1
    q = [0] * max(0, len(r) - dg)
    while True:
        dr = degree(r)
        if dr < dg:
            break
        coef = r[dr] * inv % p
        q[dr - dg] = coef
        for i, gc in enumerate(g):
            r[dr - dg + i] = (r[dr - dg + i] - coef * gc) % p
    return trim(q), trim(r)


def pmod_monic(f: Sequence[int], p: int) -> list[int]:
    f = trim(f)
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def pmod_gcd(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    a, b = pmod(f, p), pmod(g, p)
    while b:
        a, b = b, pmod_divmod(a, b, p)[1]
    return pmod_monic(a, p)


def pmod_powmod(base: Sequence[int], exp: int, modpoly: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = pmod_divmod(base, modpoly, p)[1]
    e = exp
    while e > 0:
        if e & 1:
            result = pmod_divmod(pmod_mul(result, acc, p), modpoly, p)[1]
        acc = pmod_divmod(pmod_mul(acc, acc, p), modpoly, p)[1]
        e >>= 1
    return result


def pmod_deriv(f: Sequence[int], p: int) -> list[int]:
    return trim([i * c % p for i, c in enumerate(f)][1:])


def _sff(f: list[int], p: int) -> list[tuple[list[int], int]]:
    # Squarefree decomposition of monic f mod p: [(factor, multiplicity)].
    out: list[tuple[list[int], int]] = []
    d = pmod_deriv(f, p)
    if not d:
        c = f
        w = [1]
    else:
        c = pmod_gcd(f, d, p)
        w = pmod_divmod(f, c, p)[0]
    i = 1
    while degree(w) > 0:
        y = pmod_gcd(w, c, p)
        fac = pmod_divmod(w, y, p)[0]
        if degree(fac) > 0:
            out.append((fac, i))
        w = y
        c = pmod_divmod(c, y, p)[0]
        i += 1
    if degree(c) > 0:
        # c is a p-th power: c(t) = h(t)^p with h built from p-spaced coefficients.
        h = [c[j] for j in range(0, len(c), p)]
        for fac, m in _sff(h, p):
            out.append((fac, m * p))
    return out


def _ddf(f: list[int], p: int) -> list[tuple[int, int]]:
    # Distinct-degree split of squarefree monic f: [(degree, count)].
    out: list[tuple[int, int]] = []
    rem = f
    d = 1
    xp = [0, 1]
    while degree(rem) >= 2 * d:
        xp = pmod_powmod(xp, p, rem, p)
        diff = pmod_sub(xp, [0, 1], p)
        g = pmod_gcd(rem, diff, p) if diff else rem
        if degree(g) > 0:
            out.append((d, degree(g) // d))
            rem = pmod_divmod(rem, g, p)[0]
            if degree(rem) > 0:
                xp = pmod_divmod(xp, rem, p)[1]
        d += 1
    if degree(rem) > 0:
        out.append((degree(rem), 1))
    return out


def factor_shape_mod_p(f: Sequence[int], p: int) -> tuple[tuple[int, int], ...]:
    """Factorization shape of f mod p: ((degree, multiplicity), ...) sorted.

    One entry per irreducible factor.  The leading coefficient must be a
    unit mod p (monic inputs always qualify).
    """
    fp = pmod(f, p)
    if degree(fp) != degree(trim(f)):
        raise ValueError("leading coefficient vanishes mod p")
    if degree(fp) < 1:
        return ()
    shape = []
    for fac, mult in _sff(pmod_monic(fp, p), p):
        for deg, count in _ddf(fac, p):
            shape.extend([(deg, mult)] * count)
    return tuple(sorted(shape))

