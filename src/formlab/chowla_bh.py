"""Sign-cancellation and prime-correlation statistics for form values.

Two experiment families share this module: normalized Liouville sums
over a growing square of arguments (sup over a scale window), and
von Mangoldt correlations compared against the exact local-density
product and its coprimality ("Cramer model") surrogate.  Density math
is exact rational; only final statistics are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import arith, polys
from .errors import ResourceLimitError
from .forms import _EVAL_BLOCK, BinaryForm, form_grid, orbit_sum
from .sieve import SieveTable

_GRID_BUDGET = 10**7


def exponent_cap(degree: int) -> float:
    """Largest admissible scale exponent for the sup statistic."""
    return 5.0 / (19.0 * degree)


def series_cutoff(x: float) -> int:
    """Prime cutoff exp(sqrt(log x)) used by the local product."""
    if x < 3:
        raise ValueError("x must be at least 3")
    return int(math.exp(math.sqrt(math.log(x))))


# ---------------------------------------------------------------------------
# Liouville sup statistic.

@lru_cache(maxsize=64)
def _chowla_grid(lo: float, hi: float, grid_size) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Window points in [lo, hi] and their floors, capped at floor(hi); shared by a run."""
    if grid_size == "all":
        # The double sum is constant between consecutive integers and the
        # normalizer 1/x^2 decreases, so the real sup over [lo, hi] is
        # attained at lo or just after an integer: checking lo and every
        # integer in (lo, hi] gives the exact supremum.
        xs = [lo] + [float(k) for k in range(math.floor(lo) + 1, math.floor(hi) + 1)]
    elif grid_size < 1:
        raise ValueError("grid_size must be >= 1 or 'all'")
    else:
        xs = sorted(set([lo, hi] + np.geomspace(lo, hi, int(grid_size)).tolist()))
    top = math.floor(hi)
    return tuple(xs), tuple(min(math.floor(x), top) for x in xs)


@dataclass(frozen=True)
class ChowlaBlock:
    """The window statistic of many forms of one degree at one (H, c)."""

    grid: tuple[float, ...]  # window points x, ascending
    sums: np.ndarray  # (F, len(grid)) int64: S(floor x), the sum over [1, floor x]^2
    overflow: np.ndarray  # (F,) bool: rows refused because their values overflow int64

    @property
    def trace(self) -> np.ndarray:
        """(F, len(grid)) float64: |S(floor x)| / x^2 at every grid point."""
        x = np.array(self.grid)
        # float64 division, bit for bit the scalar abs(S) / (x * x)
        return np.abs(self.sums) / (x * x)

    @property
    def statistic(self) -> np.ndarray:
        """(F,) row maxima of the trace."""
        return self.trace.max(axis=1)


OVERFLOW = "form values overflow the int64 layer sums"


def _overflows(rows: np.ndarray, scale: int) -> np.ndarray:
    """sum_i |c_i| * scale >= 2^62 per row, exactly: the sum saturates at its threshold."""
    need = np.uint64(-(-(2**62) // scale))
    acc = np.zeros(len(rows), dtype=np.uint64)
    for col in rows.T:
        # viewed as uint64, the wrapped magnitude of -2**63 reads 2**63
        acc = np.minimum(acc + np.minimum(np.abs(col).view(np.uint64), need), need)
    return acc >= need


def chowla_block(rows, scale: int, exponent: float, sieve: SieveTable, grid_size=16) -> ChowlaBlock:
    """sup over the scale window [H^c, 2H^c] of |sum lambda(g(u,v))| / x^2, per row.

    The sum runs over 1 <= u, v <= floor(x), for every (c0, ..., cd) row
    of an (F, d+1) int64 array.  g and lambda are evaluated on the whole
    [1, floor(2H^c)]^2 square of many forms at once, at most about
    _EVAL_BLOCK values at a time; the sum over [1, n]^2 is the n-th
    diagonal entry of each form's 2-D prefix sum, in exact int64, kept
    only at the grid points' floors.  Rows whose values could overflow
    int64 are flagged in `overflow` and left at zero.
    """
    rows = np.asarray(rows, dtype=np.int64)
    d = rows.shape[1] - 1
    if not 0 < exponent < exponent_cap(d):
        raise ValueError(f"exponent must lie in (0, {exponent_cap(d):.4f}) for degree {d}")
    if scale < 3:
        raise ValueError("scale must be >= 3")
    lo = float(scale) ** exponent
    hi = 2.0 * lo
    top = math.floor(hi)
    if top * top > _GRID_BUDGET:
        raise ResourceLimitError("scale window too large for the double-sum budget")
    xs, floors = _chowla_grid(lo, hi, grid_size)
    overflow = _overflows(rows, top**d)

    axis = np.arange(1, top + 1)
    cols = np.array(floors) - 1
    sums = np.zeros((len(rows), len(xs)), dtype=np.int64)
    ok = np.flatnonzero(~overflow)
    step = max(1, _EVAL_BLOCK // (top * top))
    for part in (ok[r0 : r0 + step] for r0 in range(0, len(ok), step)):
        lam = sieve.liouville_values(form_grid(rows[part], axis, axis))
        sums[part] = lam.cumsum(1, dtype=np.int64).cumsum(2).diagonal(axis1=1, axis2=2)[:, cols]
    return ChowlaBlock(grid=xs, sums=sums, overflow=overflow)


# ---------------------------------------------------------------------------
# Local-density product.

def singular_series(
    forms: Sequence[BinaryForm], x: float, cutoff: Optional[int] = None
) -> Fraction:
    """Product over p <= cutoff of (1-1/p)^(-r) (1 - Z(p)/p^2), exact.

    Z(p) counts zeros mod p of the product form g_1 * ... * g_r.  The
    default cutoff is exp(sqrt(log x)).  A prime dividing the product's
    content zeroes the whole product.
    """
    if not forms:
        raise ValueError("need at least one form")
    for g in forms:
        if g.is_zero:
            raise ValueError("forms must be nonzero")
    r = len(forms)
    product = forms[0]
    for g in forms[1:]:
        product = product * g
    bound = series_cutoff(x) if cutoff is None else int(cutoff)
    out = Fraction(1)
    for p in arith.primes(bound):
        if product.content % p == 0:
            return Fraction(0)
        z = orbit_sum(product.coeffs, p, 1)
        out *= (1 - Fraction(1, p)) ** (-r) * (1 - Fraction(z, p * p))
        if out == 0:
            return out
    return out


# ---------------------------------------------------------------------------
# W-trick / coprimality model.

@dataclass(frozen=True)
class WTrick:
    modulus: int  # product of the primes up to the cutoff, squarefree
    density: Fraction  # W / phi(W)

    @classmethod
    def for_x(cls, x: float) -> "WTrick":
        """W over the primes up to the local product's cutoff, series_cutoff(x)."""
        W = 1
        phi = 1
        for p in arith.primes(series_cutoff(x)):
            W *= p
            phi *= p - 1
        return cls(modulus=W, density=Fraction(W, phi))


# ---------------------------------------------------------------------------
# Correlations.

@dataclass(frozen=True)
class BHResult:
    forms: tuple[BinaryForm, ...]
    x: int
    w_modulus: int
    series: Fraction
    correlation: float  # C, von Mangoldt side
    cramer: Fraction  # C_w, exact

    @property
    def ratio(self) -> Optional[float]:
        return self.correlation / float(self.series) if self.series > 0 else None

    @property
    def ratio_w(self) -> Optional[float]:
        return float(self.cramer / self.series) if self.series > 0 else None


def _value_grids(forms: Sequence[BinaryForm], x: int) -> list[np.ndarray]:
    if x * x > _GRID_BUDGET:
        raise ResourceLimitError("correlation grid exceeds the budget")
    axis = np.arange(1, x + 1)
    grids = []
    for g in forms:
        worst = sum(abs(c) for c in g.coeffs) * (x**g.degree)
        if worst >= 2**62:
            raise ResourceLimitError("form values overflow the int64 grid")
        grids.append(form_grid(g, axis, axis))
    return grids


def bh_correlation(forms: Sequence[BinaryForm], x: int, sieve: SieveTable) -> BHResult:
    """Both correlation sums plus the local-density product.

    C averages the product of von Mangoldt values of the r forms over
    (m, n) in [1, x]^2 (compensated float summation); the surrogate
    replaces each factor by the exact coprimality weight, so it is a
    rational number: density^r * #{coprime-to-W value tuples} / x^2.
    """
    if x < 3:
        raise ValueError("x must be at least 3")
    forms = tuple(forms)
    trick = WTrick.for_x(x)
    series = singular_series(forms, x)
    grids = _value_grids(forms, x)

    prod = sieve.mangoldt_values(np.abs(grids[0]))
    for g in grids[1:]:
        prod = prod * sieve.mangoldt_values(np.abs(g))
    nonzero = prod[prod != 0.0]
    corr = math.fsum(nonzero.tolist()) / (x * x)

    W = trick.modulus
    mask = np.ones(grids[0].shape, dtype=bool)
    for g in grids:
        mask &= np.gcd(g % W, W) == 1
    cramer = trick.density ** len(forms) * Fraction(int(mask.sum()), x * x)

    return BHResult(
        forms=forms,
        x=x,
        w_modulus=W,
        series=series,
        correlation=corr,
        cramer=cramer,
    )


# ---------------------------------------------------------------------------
# Form admissibility.

def is_irreducible(form: BinaryForm) -> bool:
    """Irreducibility over Q for degree <= 3 (no linear factor test)."""
    d = form.degree
    if d > 3:
        raise ValueError("irreducibility test implemented for degree <= 3 only")
    if form.is_zero:
        return False
    c = form.coeffs
    if d == 1:
        return True
    if c[0] == 0:
        return False  # v divides
    # a linear factor is a rational root of g(t, 1); t = 0 when u divides
    return not polys.has_rational_root(form.dehomogenized())


def bh_admissible(form: BinaryForm, x: int, min_series: Fraction = Fraction(1, 5)) -> bool:
    """Accepts irreducible separable forms whose local product is not tiny."""
    if form.is_zero or not form.is_separable or not is_irreducible(form):
        return False
    return singular_series([form], x) >= min_series
