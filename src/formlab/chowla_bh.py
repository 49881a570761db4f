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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import arith, polys
from .errors import ResourceLimitError
from .forms import _EVAL_BLOCK, BinaryForm, form_grid, grid_overflows, orbit_sum
from .sieve import SieveTable

# the most points (u, v) of the square [1, top]^2 or [1, x]^2 the statistics evaluate
_SQUARE_POINTS = 10**7
# the most points an integer grid size may ask of the chowla window
_GRID_POINTS = 2**18


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

class ChowlaWindow(NamedTuple):
    """The scale window [H^c, 2H^c] of one (H, c, grid size)."""

    grid: tuple[float, ...]  # window points x, ascending, from H^c
    floors: tuple[int, ...]  # floor(x), capped at top
    top: int  # floor(2H^c), the side of the square the sums run over


@lru_cache(maxsize=64)
def chowla_window(scale: int, exponent: float, grid_size) -> ChowlaWindow:
    """The window's points, their floors and its top; shared by a run.

    Raises ResourceLimitError when the top's square exceeds _SQUARE_POINTS
    or an integer grid size exceeds _GRID_POINTS.
    """
    lo = float(scale) ** exponent
    hi = 2.0 * lo
    top = math.floor(hi)
    if top * top > _SQUARE_POINTS:
        raise ResourceLimitError("scale window too large for the double-sum budget")
    if grid_size == "all":
        # The double sum is constant between consecutive integers and the
        # normalizer 1/x^2 decreases, so the real sup over [lo, hi] is
        # attained at lo or just after an integer: checking lo and every
        # integer in (lo, hi] gives the exact supremum.
        xs = [lo] + [float(k) for k in range(math.floor(lo) + 1, top + 1)]
    elif grid_size > _GRID_POINTS:
        raise ResourceLimitError(f"grid of {grid_size} points exceeds the cap of {_GRID_POINTS}")
    else:
        xs = sorted(set([lo, hi] + np.geomspace(lo, hi, int(grid_size)).tolist()))
    return ChowlaWindow(tuple(xs), tuple(min(math.floor(x), top) for x in xs), top)


@dataclass(frozen=True)
class ChowlaBlock:
    """The window statistic of many forms of one degree at one (H, c)."""

    grid: tuple[float, ...]  # window points x, ascending
    statistic: np.ndarray  # (F,) float64: max over the grid of |S(floor x)| / x^2
    overflow: np.ndarray  # (F,) bool: rows refused because their values overflow int64


OVERFLOW = "form values overflow the int64 layer sums"


def chowla_block(rows, scale: int, exponent: float, sieve: SieveTable, grid_size=16) -> ChowlaBlock:
    """sup over the scale window [H^c, 2H^c] of |sum lambda(g(u,v))| / x^2, per row.

    The sum S(n) runs over 1 <= u, v <= n, for every (c0, ..., cd) row
    of an (F, d+1) int64 array.  g and lambda are evaluated on the whole
    [1, top]^2 square of the window (see `chowla_window`) for a chunk of
    rows at a time, so that neither the values nor the chunk's (rows,
    grid points) sums exceed about _EVAL_BLOCK entries; S(n) is the n-th
    diagonal entry of each form's 2-D prefix sum, in exact int64, read
    only at the grid points' floors.  Rows whose values could overflow
    int64 are flagged in `overflow` and left at statistic zero.
    """
    rows = np.asarray(rows, dtype=np.int64)
    d = rows.shape[1] - 1
    if not 0 < exponent < exponent_cap(d):
        raise ValueError(f"exponent must lie in (0, {exponent_cap(d):.4f}) for degree {d}")
    if scale < 3:
        raise ValueError("scale must be >= 3")
    if grid_size != "all" and grid_size < 1:
        raise ValueError("grid_size must be >= 1 or 'all'")
    xs, floors, top = chowla_window(scale, exponent, grid_size)
    overflow = grid_overflows(rows, top**d)

    axis = np.arange(1, top + 1)
    cols = np.array(floors) - 1
    x = np.array(xs)
    statistic = np.zeros(len(rows))
    ok = np.flatnonzero(~overflow)
    step = max(1, _EVAL_BLOCK // max(top * top, len(xs)))
    for part in (ok[r0 : r0 + step] for r0 in range(0, len(ok), step)):
        lam = sieve.liouville_values(form_grid(rows[part], axis, axis))
        sums = lam.cumsum(1, dtype=np.int64).cumsum(2).diagonal(axis1=1, axis2=2)[:, cols]
        # float64 division, bit for bit the scalar abs(S) / (x * x)
        statistic[part] = (np.abs(sums) / (x * x)).max(axis=1)
    return ChowlaBlock(grid=xs, statistic=statistic, overflow=overflow)


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
    if x * x > _SQUARE_POINTS:
        raise ResourceLimitError("correlation grid exceeds the budget")
    axis = np.arange(1, x + 1)
    grids = []
    for g in forms:
        if grid_overflows([g.coeffs], x**g.degree)[0]:
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

    return BHResult(w_modulus=W, series=series, correlation=corr, cramer=cramer)


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
