"""Integer binary forms and coefficient cubes.

A form of degree d is stored as coefficients (c0, ..., cd) for
g(u, v) = c0*u^d + c1*u^(d-1)*v + ... + cd*v^d, with c0 the leading
u-coefficient and cd the constant one.  All algebra is exact: big-int
evaluation and fraction-free discriminants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

import numpy as np

from . import arith, polys
from .errors import ResourceLimitError
from .rng import mulhilo, philox, philox_words

# the most residue pairs (u, v) mod q, q^2, a zero count may ask for
_RESIDUE_PAIRS = 10**8


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

    @cached_property
    def _disc(self) -> int:
        # kept in the instance dict, outside the dataclass fields, so
        # equality and hashing still read only coeffs
        return _form_disc(self.coeffs)

    def discriminant(self) -> int:
        if self.is_zero:
            raise ValueError("discriminant of the zero form is undefined")
        return self._disc

    @property
    def is_separable(self) -> bool:
        return not self.is_zero and self._disc != 0

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        prod = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return BinaryForm(prod)


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


def form_grid(g, ms: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """g(m, n) for m in ms (rows) and n in ns (columns), in int64.

    `g` is a BinaryForm, giving one (len(ms), len(ns)) grid, or an
    (F, d+1) array of coefficient rows, giving (F, len(ms), len(ns)) grids.
    g(m, n) = sum_i c_i m^(d-i) n^i is the product of two Vandermonde
    matrices; exact for the rows that `grid_overflows` passes at a scale
    of at least every |m|^(d-i) |n|^i.
    """
    coeffs = np.asarray(g.coeffs if isinstance(g, BinaryForm) else g, dtype=np.int64)
    expo = np.arange(coeffs.shape[-1])
    mpow = np.asarray(ms, dtype=np.int64)[:, None] ** expo
    npow = np.asarray(ns, dtype=np.int64)[:, None] ** expo
    return (mpow[:, ::-1] * coeffs[..., None, :]) @ npow.T


def grid_overflows(rows, scale: int) -> np.ndarray:
    """sum_i |c_i| * scale >= 2^62 per (c0, ..., cd) int64 row, exactly (the sum
    saturates at its threshold).  Where every |m^(d-i) n^i| <= scale, a row
    below it has |g(m, n)| < 2^62, so `form_grid` evaluates it exactly."""
    rows = np.asarray(rows, dtype=np.int64)
    need = np.uint64(-(-(2**62) // scale))
    acc = np.zeros(len(rows), dtype=np.uint64)
    for col in rows.T:
        # viewed as uint64, the wrapped magnitude of -2**63 reads 2**63
        acc = np.minimum(acc + np.minimum(np.abs(col).view(np.uint64), need), need)
    return acc >= need


# ---------------------------------------------------------------------------
# Local counts over P^1(Z/p^k).

_EVAL_BLOCK = 2**21  # (forms x representatives) entries evaluated at once
# Monomial matrices with (d+1)*q up to this are memoized (at most 32 of them,
# under 7 MB in all); sigma_pp and the zero counts of a run repeat few (p, k, d).
_MONO_CACHE_SIZE = 2**14


def orbit_sum(coeffs, p: int, k: int, weight: Optional[np.ndarray] = None):
    """Sum over (s, t) mod q = p^k of weight[g(s, t) mod q], in O(q) evaluations.

    `weight` is an array on Z/q that multiplication by d-th powers of
    units leaves unchanged; the default, the indicator of residue 0,
    makes the sum the zero count.  Each pair with p not dividing both
    coordinates is l*r for one unit l and one r in P^1(Z/q), represented
    by (1, t) for t mod q and (p*s, 1) for s mod q/p; g(l*r) = l^d g(r),
    so those pairs give phi(q) * sum_r weight[g(r)].  Pairs with p | s, t
    have g = p^d g(s', t'): residue 0 when k <= d, otherwise a sum at
    p^(k-d) with weight a -> weight[p^d a], times p^(2(d-1)) lifts.

    `coeffs` is one form's (c0, ..., cd), giving an int, or an
    (nforms, d+1) array, giving int64 sums per row.  Sums are taken in
    int64, so weight.max() * q^2 must stay below 2^63.
    """
    q = p**k
    single = np.ndim(coeffs) == 1
    if single:
        rows = np.array([[int(c) % q for c in coeffs]], dtype=np.int64)
    else:
        rows = np.asarray(coeffs, dtype=np.int64) % q
    if rows.shape[1] * q * q >= 2**63:
        raise ValueError("modulus too large for int64 evaluation")
    if weight is None:
        weight = np.zeros(q, dtype=np.int64)
        weight[0] = 1
    weight = np.asarray(weight, dtype=np.int64)
    if rows.shape[1] == 1:  # a constant form: every pair reads weight[c0]
        sums = q * q * weight[rows[:, 0]]
    else:
        sums = _orbit_sums(rows, p, k, weight)
    return int(sums[0]) if single else sums


def _orbit_sums(rows: np.ndarray, p: int, k: int, weight: np.ndarray) -> np.ndarray:
    q = p**k
    d = rows.shape[1] - 1
    cached = (d + 1) * q <= _MONO_CACHE_SIZE
    mono = (_rep_monomials if cached else _rep_monomials.__wrapped__)(p, k, d)
    sums = np.empty(len(rows), dtype=np.int64)
    step = max(1, _EVAL_BLOCK // mono.shape[1])
    for r0 in range(0, len(rows), step):
        sums[r0 : r0 + step] = weight[rows[r0 : r0 + step] @ mono % q].sum(axis=1)
    out = (q - q // p) * sums
    if k <= d:
        return out + p ** (2 * (k - 1)) * weight[0]
    sub = weight[p**d * np.arange(p ** (k - d), dtype=np.int64) % q]
    return out + p ** (2 * (d - 1)) * _orbit_sums(rows, p, k - d, sub)


@lru_cache(maxsize=32)
def _rep_monomials(p: int, k: int, d: int) -> np.ndarray:
    """u^(d-i) v^i mod q at the representatives (u, v) of P^1(Z/q), q = p^k:
    (1, t) for t mod q, then (p*s, 1) for s mod q/p.  Shape (d+1, q + q/p)."""
    q = p**k
    u = np.concatenate([np.ones(q, dtype=np.int64), np.arange(0, q, p, dtype=np.int64)])
    v = np.concatenate([np.arange(q, dtype=np.int64), np.ones(q // p, dtype=np.int64)])
    upow, vpow = [np.ones_like(u)], [np.ones_like(v)]
    for _ in range(d):
        upow.append(upow[-1] * u % q)
        vpow.append(vpow[-1] * v % q)
    mono = np.stack([upow[d - i] * vpow[i] % q for i in range(d + 1)])
    mono.flags.writeable = False
    return mono


def zero_count_mod(g, q: int):
    """#{(u,v) in (Z/q)^2 : g(u,v) = 0 mod q}: orbit sums at each p^k || q, by CRT.

    `g` is a BinaryForm, giving an int, or an (F, d+1) array of coefficient
    rows of one degree, giving int64 counts per row.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    if q * q > _RESIDUE_PAIRS:
        raise ResourceLimitError(f"mod-{q} grid exceeds the enumeration budget")
    one = isinstance(g, BinaryForm)
    coeffs = g.coeffs if one else np.asarray(g, dtype=np.int64)
    # q = 1 factors into no prime powers: one pair, one zero, per form
    start = 1 if one else np.ones(len(coeffs), dtype=np.int64)
    return math.prod((orbit_sum(coeffs, p, k) for p, k in arith.factorize(q).items()), start=start)


# ---------------------------------------------------------------------------
# gcd bound.

_GCD_CAP = 2**62  # a saturated rhs reads this; every lhs is below it


@dataclass(frozen=True)
class GcdBound:
    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray


def gcd_bound_check(rows, m, n, k, l) -> GcdBound:
    """Both sides of gcd(g(m,n), m^k n^(d-l)) <= gcd(m,n)^d gcd(cd,m)^k gcd(c0,n)^(d-l).

    The pairing of end coefficients follows from the congruences
    g(m,n) = cd * n^d (mod m) and g(m,n) = c0 * m^d (mod n): the constant
    coefficient controls divisibility by m and the leading one by n.

    `rows` is an (F, d+1) array of coefficient rows of one degree and m, n,
    k, l are length-F arrays.  The lemma needs nonzero end coefficients,
    0 <= k < l <= d and (m, n) != (0, 0) in every row; it refuses the rest
    with ValueError.  With (d+1) max|c| max(|m|,|n|)^d < 2^63,
    g(m,n) and m^k n^(d-l) are exact in int64.  The lhs is at most
    |m^k n^(d-l)|, or |c0 m^d| or |cd n^d| when m or n is 0: below
    2^63/(d+1) <= _GCD_CAP.  So the rhs may saturate there, and `holds`
    stays exact.
    """
    rows = np.asarray(rows, dtype=np.int64)
    m, n, k, l = (np.asarray(a, dtype=np.int64) for a in (m, n, k, l))
    d = rows.shape[1] - 1
    if not np.all((0 <= k) & (k < l) & (l <= d)):
        raise ValueError("need 0 <= k < l <= degree")
    c0, cd = rows[:, 0], rows[:, -1]
    if not np.all((c0 != 0) & (cd != 0)):
        raise ValueError("the bound requires nonzero end coefficients")
    if np.any((m == 0) & (n == 0)):
        raise ValueError("the bound requires (m, n) != (0, 0)")
    top = max(-int(rows.min(initial=0)), int(rows.max(initial=0)))
    side = max(max(-int(a.min(initial=0)), int(a.max(initial=0))) for a in (m, n))
    if (d + 1) * top * side**d >= 2**63:
        raise ValueError("coefficients or points too large for int64 evaluation")
    expo = np.arange(d + 1)
    g = (rows * m[:, None] ** expo[::-1] * n[:, None] ** expo).sum(axis=1)
    lhs = np.gcd(g, m**k * n ** (d - l))
    rhs = np.gcd(m, n) ** d
    ends = ((np.gcd(cd, m), k), (np.gcd(c0, n), d - l))
    for j in range(d):  # step j multiplies in each end factor whose power exceeds j
        for base, e in ends:
            b = np.where(j < e, base, 1)  # >= 1, as both end coefficients are nonzero
            rhs = np.where(rhs <= _GCD_CAP // b, rhs * b, _GCD_CAP)
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
    """Coefficient box [-H, H]^(d+1): every coordinate drawn uniformly."""

    degree: int
    side: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.side < 0:
            raise ValueError("side length must be >= 0")

    def sample(self, seed: int, index: int) -> BinaryForm:
        """Uniform draw; depends only on (seed, index), not draw order."""
        return BinaryForm(self._exact_rows(seed, [index])[0].tolist())

    def _exact_rows(self, seed: int, indices) -> np.ndarray:
        # the draw's definition: one `integers` call for all d+1 coordinates
        # on the Philox stream (seed, "cube", index)
        lo, hi, n = -self.side, self.side + 1, self.degree + 1
        draws = [philox(seed, "cube", i).integers(lo, hi, size=n) for i in indices]
        return np.reshape(np.array(draws, dtype=np.int64), (len(draws), n))

    def sample_rows(self, seed: int, indices) -> np.ndarray:
        """The draws at `indices` as (n, d+1) int64 rows, equal to `sample`'s.

        The stream words of all indices come from one `philox_words` pass
        and are mapped as `Generator.integers` maps them: Lemire's
        multiply-shift on 32-bit halves (low half first) when the range
        2H fits in 32 bits, on whole words otherwise.  A row with a draw
        that Lemire rejects would read further words, so it is redrawn
        through `_exact_rows`.
        """
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        n, span = self.degree + 1, 2 * self.side + 1
        bits = 32 if span <= 2**32 else 64
        words = philox_words(seed, "cube", indices=idx, words=-(-n * bits // 64))
        if bits == 32:
            halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1)
            m = halves.reshape(len(idx), 2 * words.shape[1])[:, :n] * span
            draw, leftover = m >> 32, m & 0xFFFFFFFF
        else:
            draw, leftover = mulhilo(words, np.uint64(span))
        rows = (draw + (-self.side % 2**64)).view(np.int64)  # lo + draw, wrapped as numpy adds it
        # numpy rejects a draw whose leftover is below (2^bits - span) mod span
        redraw = np.flatnonzero((leftover < (2**bits - span) % span).any(axis=1))
        if len(redraw):
            rows[redraw] = self._exact_rows(seed, idx[redraw])
        return rows
