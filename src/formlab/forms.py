"""Integer binary forms and coefficient cubes.

A form of degree d is stored as coefficients (c0, ..., cd) for
g(u, v) = c0*u^d + c1*u^(d-1)*v + ... + cd*v^d, with c0 the leading
u-coefficient and cd the constant one.  All algebra is exact: big-int
evaluation, fraction-free discriminants, rational-certified boundary
extremes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import polys
from .errors import ContentDivisibleError, ResourceLimitError
from .rng import philox

_GRID_BUDGET = 10**8


@dataclass(frozen=True)
class BinaryForm:
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(int(c) for c in coeffs)
        if len(cs) < 2:
            raise ValueError("a form needs degree >= 1 (at least 2 coefficients)")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, m: int, n: int) -> int:
        # Horner in u; v-powers updated incrementally.
        acc = self.coeffs[0]
        npow = 1
        for c in self.coeffs[1:]:
            npow *= n
            acc = acc * m + c * npow
        return acc

    evaluate = __call__

    def partials(self, m: int, n: int) -> tuple[int, int]:
        """Exact gradient (dg/du, dg/dv) at (m, n)."""
        d = self.degree
        gu = gv = 0
        for i, c in enumerate(self.coeffs):
            if d - i >= 1:
                gu += c * (d - i) * m ** (d - i - 1) * n**i
            if i >= 1:
                gv += c * i * m ** (d - i) * n ** (i - 1)
        return gu, gv

    @property
    def content(self) -> int:
        out = 0
        for c in self.coeffs:
            out = math.gcd(out, c)
        return out

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def dehomogenized(self) -> list[int]:
        """g(t, 1) as an ascending coefficient list."""
        return list(reversed(self.coeffs))

    def discriminant(self) -> int:
        if self.is_zero:
            raise ValueError("discriminant of the zero form is undefined")
        return _form_disc(self.coeffs)

    @property
    def is_separable(self) -> bool:
        if self.is_zero:
            return False
        return self.discriminant() != 0

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        prod = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return BinaryForm(prod)

    def to_json(self) -> str:
        return json.dumps(list(self.coeffs))

    @classmethod
    def from_json(cls, text: str) -> "BinaryForm":
        return cls(json.loads(text))


def _form_disc(coeffs: tuple[int, ...]) -> int:
    # Projective discriminant: a vanishing leading coefficient moves a
    # root to infinity; it collides with another root iff the reduced
    # form's discriminant or the next coefficient vanishes.
    d = len(coeffs) - 1
    if d == 1:
        return 0 if coeffs == (0, 0) else 1
    if coeffs[0] != 0:
        return polys.discriminant(list(reversed(coeffs)))
    return _form_disc(coeffs[1:]) * coeffs[1] ** 2


# ---------------------------------------------------------------------------
# Zero counts mod q.

def zero_count_mod(form: BinaryForm, q: int) -> int:
    """#{(u,v) in (Z/q)^2 : g(u,v) = 0 mod q}, exact enumeration."""
    if q < 1:
        raise ValueError("modulus must be positive")
    if q == 1:
        return 1
    if q * q > _GRID_BUDGET:
        raise ResourceLimitError(f"mod-{q} grid exceeds the enumeration budget")
    if q * q <= 10**7:
        return int(np.count_nonzero(_value_grid(form, q) == 0))
    # row-chunked so memory stays bounded on large moduli
    count = 0
    step = max(1, 10**7 // q)
    for u0 in range(0, q, step):
        rows = _value_rows(form, q, np.arange(u0, min(u0 + step, q), dtype=np.int64))
        count += int(np.count_nonzero(rows == 0))
    return count


def _value_grid(form: BinaryForm, q: int) -> np.ndarray:
    """g values mod q on the full (Z/q)^2 grid, shape (q, q)."""
    return _value_rows(form, q, np.arange(q, dtype=np.int64))


def _value_rows(form: BinaryForm, q: int, us: np.ndarray) -> np.ndarray:
    """g values mod q for the given u rows against all v, shape (len(us), q)."""
    d = form.degree
    v = np.arange(q, dtype=np.int64)
    vpow = [np.ones(q, dtype=np.int64)]
    for _ in range(d):
        vpow.append(vpow[-1] * v % q)
    us = np.asarray(us, dtype=np.int64) % q
    upow = [np.ones(len(us), dtype=np.int64)]
    for _ in range(d):
        upow.append(upow[-1] * us % q)
    acc = np.zeros((len(us), q), dtype=np.int64)
    for i, c in enumerate(form.coeffs):
        acc += (c % q) * upow[d - i][:, None] * vpow[i][None, :]
        acc %= q
    return acc


def zero_count_mod_prime_fast(form: BinaryForm, p: int) -> int:
    """1 + (p-1) * (projective root count); requires p not dividing the content."""
    if form.content % p == 0:
        raise ContentDivisibleError(f"{p} divides the content; use the full enumeration")
    rho = polys.root_count_mod_p(form.dehomogenized(), p)
    if form.coeffs[0] % p == 0:
        rho += 1  # the root at infinity
    return 1 + (p - 1) * rho


def zero_count_prime_power(form: BinaryForm, p: int, k: int) -> int:
    """#{(u,v) mod p^k : g = 0 mod p^k} without enumerating the full grid.

    Splits pairs by whether p divides both coordinates.  The divisible
    part rescales (g(pu, pv) = p^d g(u, v)), giving an exact recursion;
    the primitive part is found by lifting solution classes level by
    level, whose number stays small for separable forms.
    """
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k == 0:
        return 1
    if form.is_zero:
        return p ** (2 * k)
    # pull the p-part of the content out front
    sigma = 0
    coeffs = list(form.coeffs)
    while all(c % p == 0 for c in coeffs):
        coeffs = [c // p for c in coeffs]
        sigma += 1
    if sigma >= k:
        return p ** (2 * k)
    base = BinaryForm(coeffs)
    return p ** (2 * sigma) * _zero_count_pp_primitive_split(base, p, k - sigma)


def _zero_count_pp_primitive_split(form: BinaryForm, p: int, k: int) -> int:
    d = form.degree
    if p**k > 10**6:
        raise ResourceLimitError("prime power exceeds the lifting budget")
    prim = _primitive_zero_counts(form, p, k)
    lam = [1]
    for j in range(1, k + 1):
        if j <= d:
            divisible = p ** (2 * (j - 1))
        else:
            divisible = p ** (2 * (d - 1)) * lam[j - d]
        lam.append(prim[j] + divisible)
    return lam[k]


def _primitive_zero_counts(form: BinaryForm, p: int, k: int) -> list[int]:
    """#primitive zeros mod p^j for j = 0..k; form content coprime to p."""
    if p * p > 10**7:
        raise ResourceLimitError("seed prime too large for grid enumeration")
    grid = _value_grid(form, p)
    grid[0, 0] = 1  # (0,0) is never primitive
    ms, ns = np.nonzero(grid == 0)
    sols_m = ms.astype(np.int64)
    sols_n = ns.astype(np.int64)
    counts = [0, len(sols_m)]
    offs = np.arange(p, dtype=np.int64)
    for j in range(1, k):
        if len(sols_m) == 0:
            counts.extend([0] * (k - j))
            break
        if len(sols_m) * p * p > 10**8:
            raise ResourceLimitError("solution classes exceed the lifting budget")
        q = p ** (j + 1)
        shift = offs * p**j
        cand_m = np.broadcast_to(
            sols_m[:, None, None] + shift[None, :, None], (len(sols_m), p, p)
        ).reshape(-1)
        cand_n = np.broadcast_to(
            sols_n[:, None, None] + shift[None, None, :], (len(sols_n), p, p)
        ).reshape(-1)
        vals = _eval_pairs_mod(form, cand_m, cand_n, q)
        keep = vals == 0
        sols_m, sols_n = cand_m[keep], cand_n[keep]
        counts.append(len(sols_m))
    return counts


def _eval_pairs_mod(form: BinaryForm, ms: np.ndarray, ns: np.ndarray, q: int) -> np.ndarray:
    d = form.degree
    mpow = np.ones(len(ms), dtype=np.int64)
    mpows = [mpow]
    for _ in range(d):
        mpows.append(mpows[-1] * (ms % q) % q)
    npows = [np.ones(len(ns), dtype=np.int64)]
    for _ in range(d):
        npows.append(npows[-1] * (ns % q) % q)
    acc = np.zeros(len(ms), dtype=np.int64)
    for i, c in enumerate(form.coeffs):
        acc = (acc + (c % q) * mpows[d - i] % q * npows[i]) % q
    return acc


def zero_count_mod_batch(coeff_rows: np.ndarray, q: int) -> np.ndarray:
    """zero_count_mod for many forms of one degree at once.

    coeff_rows: (nforms, d+1) int array.  Returns int64 counts.
    """
    rows = np.asarray(coeff_rows, dtype=np.int64)
    nforms, ncoef = rows.shape
    d = ncoef - 1
    u = np.arange(q, dtype=np.int64)
    upow = [np.ones(q, dtype=np.int64)]
    for _ in range(d):
        upow.append(upow[-1] * u % q)
    # monomial matrix over the grid: (q*q, d+1)
    mono = np.empty((q * q, ncoef), dtype=np.int64)
    for i in range(ncoef):
        mono[:, i] = (upow[d - i][:, None] * upow[i][None, :] % q).ravel()
    counts = np.zeros(nforms, dtype=np.int64)
    rows_mod = rows % q
    chunk = max(1, 10**7 // max(nforms, 1))
    for r0 in range(0, q * q, chunk):
        block = mono[r0 : r0 + chunk] @ rows_mod.T
        counts += np.count_nonzero(block % q == 0, axis=0)
    return counts


# ---------------------------------------------------------------------------
# Boundary extremes on the sup-norm unit square.

@dataclass(frozen=True)
class ExtremeValues:
    """Certified enclosures of the form's min and max on max(|u|,|v|) = 1."""

    b_minus: tuple[Fraction, Fraction]
    b_plus: tuple[Fraction, Fraction]
    witness_minus: tuple[Fraction, Fraction]
    witness_plus: tuple[Fraction, Fraction]

    @property
    def width(self) -> Fraction:
        return max(self.b_minus[1] - self.b_minus[0], self.b_plus[1] - self.b_plus[0])


def _edge_polys(form: BinaryForm):
    # Restrictions of g to the four boundary edges, each with the map
    # from the edge parameter t in [-1, 1] back to the boundary point.
    c = form.coeffs
    d = form.degree
    p1 = list(reversed(c))  # g(t, 1)
    p2 = [cc * (-1) ** (d - j) for j, cc in enumerate(reversed(c))]  # g(t, -1)
    p3 = list(c)  # g(1, t)
    p4 = [cc * (-1) ** (d - j) for j, cc in enumerate(c)]  # g(-1, t)
    return [
        (p1, lambda t: (t, Fraction(1))),
        (p2, lambda t: (t, Fraction(-1))),
        (p3, lambda t: (Fraction(1), t)),
        (p4, lambda t: (Fraction(-1), t)),
    ]


def extremes(form: BinaryForm) -> ExtremeValues:
    """Certified min/max of g over the boundary square.

    On each edge the restriction is univariate; its interior critical
    points are isolated by Sturm chains and the values enclosed by
    interval Horner evaluation, so the enclosures are rigorous.  Width
    is at most max|c_i| / 2^30.
    """
    max_c = max((abs(c) for c in form.coeffs), default=0)
    tol = Fraction(max(max_c, 1), 2**30)
    one = Fraction(1)
    candidates: list[tuple[Fraction, Fraction, tuple[Fraction, Fraction]]] = []
    for poly, to_point in _edge_polys(form):
        fpoly = [Fraction(c) for c in poly]
        for t in (-one, one):
            v = polys.poly_eval(fpoly, t)
            candidates.append((v, v, to_point(t)))
        dpoly = polys.poly_deriv(poly)
        if polys.degree(dpoly) < 1:
            continue
        sf = polys.squarefree_part(dpoly)
        for lo, hi in polys.isolate_real_roots(sf):
            if hi <= -one or lo >= one:
                continue
            width = tol / (sum(abs(c) for c in fpoly) + 1)
            for _ in range(80):
                lo, hi = polys.refine_root(sf, lo, hi, width)
                a, b = max(lo, -one), min(hi, one)
                if a > b:
                    break
                box_lo, box_hi = polys.interval_eval(fpoly, a, b)
                if box_hi - box_lo <= tol:
                    candidates.append((box_lo, box_hi, to_point((a + b) / 2)))
                    break
                width /= 16
            else:
                raise ArithmeticError("extreme enclosure failed to converge")
    lo_best = min(candidates, key=lambda c: c[0])
    lo_alt = min(candidates, key=lambda c: c[1])
    hi_best = max(candidates, key=lambda c: c[1])
    hi_alt = max(candidates, key=lambda c: c[0])
    return ExtremeValues(
        b_minus=(lo_best[0], lo_alt[1]),
        b_plus=(hi_alt[0], hi_best[1]),
        witness_minus=lo_best[2],
        witness_plus=hi_best[2],
    )


# ---------------------------------------------------------------------------
# gcd bound.

@dataclass(frozen=True)
class GcdBound:
    lhs: int
    rhs: int
    holds: bool


def gcd_bound_check(form: BinaryForm, m: int, n: int, k: int, l: int) -> GcdBound:
    """Both sides of gcd(g(m,n), m^k n^(d-l)) <= gcd(m,n)^d gcd(cd,m)^k gcd(c0,n)^(d-l).

    The pairing of end coefficients follows from the congruences
    g(m,n) = cd * n^d (mod m) and g(m,n) = c0 * m^d (mod n): the constant
    coefficient controls divisibility by m and the leading one by n.
    """
    d = form.degree
    if not (0 <= k < l <= d):
        raise ValueError("need 0 <= k < l <= degree")
    c0, cd = form.coeffs[0], form.coeffs[-1]
    if c0 * cd == 0:
        raise ValueError("the bound requires nonzero end coefficients")
    lhs = math.gcd(form(m, n), m**k * n ** (d - l))
    rhs = math.gcd(m, n) ** d * math.gcd(cd, m) ** k * math.gcd(c0, n) ** (d - l)
    return GcdBound(lhs=lhs, rhs=rhs, holds=lhs <= rhs)


@dataclass(frozen=True)
class PrimePowerBound:
    """Outcome of the zero-count bound at q = p^k for a separable form."""

    count: int
    sigma: int
    saturated: bool  # content soaks up the whole power: count must equal p^(2k)
    holds: bool


def zero_count_bound_check(
    form: BinaryForm, p: int, k: int, count: Optional[int] = None
) -> PrimePowerBound:
    """Check count(p^k) against the separable-form bound, exactly.

    With sigma = v_p(content): sigma >= k forces count = p^(2k); otherwise
    count <= (d+1) * min((k+1) p^(k(2-1/d)+sigma/d), p^(2k-1)).  The
    fractional power is compared after raising both sides to the d-th
    power, so no floating point is involved.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not form.is_separable:
        raise ValueError("bound requires a separable form")
    d = form.degree
    sigma = 0
    c = form.content
    while c % p == 0:
        sigma += 1
        c //= p
    if count is None:
        count = zero_count_mod(form, p**k)
    if sigma >= k:
        return PrimePowerBound(count, sigma, True, count == p ** (2 * k))
    first = count**d <= ((d + 1) * (k + 1)) ** d * p ** (2 * k * d - k + sigma)
    second = count <= (d + 1) * p ** (2 * k - 1)
    return PrimePowerBound(count, sigma, False, first and second)


# ---------------------------------------------------------------------------
# Coefficient cubes.

@dataclass(frozen=True)
class CombinatorialCube:
    """Coefficient box [-H, H]^(d+1) with some coordinates frozen."""

    degree: int
    side: int
    fixed: tuple[tuple[int, int], ...] = ()

    def __init__(self, degree: int, side: int, fixed: Optional[dict[int, int]] = None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if side < 0:
            raise ValueError("side length must be >= 0")
        items = tuple(sorted((int(i), int(v)) for i, v in (fixed or {}).items()))
        for i, v in items:
            if not 0 <= i <= degree:
                raise ValueError(f"fixed index {i} out of range")
            if abs(v) > side:
                raise ValueError(f"fixed value {v} outside [-H, H]")
        if len({i for i, _ in items}) != len(items):
            raise ValueError("duplicate fixed index")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "fixed", items)

    @property
    def dimension(self) -> int:
        return self.degree + 1 - len(self.fixed)

    def sample(self, seed: int, index: int) -> BinaryForm:
        """Uniform draw; depends only on (seed, index), not draw order."""
        fixed = dict(self.fixed)
        rng = philox(seed, "cube", index)
        coeffs = []
        for i in range(self.degree + 1):
            if i in fixed:
                coeffs.append(fixed[i])
            else:
                coeffs.append(int(rng.integers(-self.side, self.side + 1)))
        return BinaryForm(coeffs)

    def to_json(self) -> str:
        return json.dumps(
            {"d": self.degree, "H": self.side, "fixed": {str(i): v for i, v in self.fixed}}
        )

    @classmethod
    def from_json(cls, text: str) -> "CombinatorialCube":
        obj = json.loads(text)
        return cls(obj["d"], obj["H"], {int(i): v for i, v in obj.get("fixed", {}).items()})
