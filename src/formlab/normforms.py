"""Number fields, norm forms, and their local and real value densities.

A field is a monic integer polynomial plus an integral-basis
multiplication table; the norm form is expanded once from the
multiplication-by-xi determinant.  Local data (splitting types, ideal
counts, the alpha/beta/b coefficients) is exact rational.  Real
densities come from lattice counts in a certified box region and a
Monte-Carlo volume estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from . import arith, polys
from .errors import IndexDivisorError, ResourceLimitError
from .rng import philox

_LATTICE_BUDGET = 10**8
_GAMMA_BUDGET = 10**8

# multivariate polynomials as {exponent tuple: integer coefficient}
MPoly = dict


def _mp_add(a: MPoly, b: MPoly) -> MPoly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _mp_mul(a: MPoly, b: MPoly) -> MPoly:
    out: MPoly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def _mp_neg(a: MPoly) -> MPoly:
    return {k: -v for k, v in a.items()}


def _mp_eval(a: MPoly, point: Sequence) -> object:
    """a at one point, or elementwise over coordinate arrays (integer or float):
    each power is a product of factors, so integer values stay exact."""
    total = 0
    for expo, coef in a.items():
        term = coef
        for x, e in zip(point, expo):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def _mp_partial(a: MPoly, i: int) -> MPoly:
    out: MPoly = {}
    for expo, coef in a.items():
        if expo[i] == 0:
            continue
        k = tuple(e - (1 if j == i else 0) for j, e in enumerate(expo))
        out[k] = out.get(k, 0) + coef * expo[i]
    return out


def _mp_eval_mod(a: MPoly, cols: Sequence[np.ndarray], q: int) -> np.ndarray:
    """Values of a mod q at integer points given as one array per coordinate
    (broadcast together).

    int64 when q < 2^31, where a product of two residues stays exact;
    otherwise exact Python integers in object arrays.
    """
    dtype = np.int64 if q < 2**31 else object
    cols = [np.asarray(c, dtype=dtype) % q for c in cols]
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    total = np.zeros(shape, dtype=dtype)
    for expo, coef in a.items():
        term = np.full(shape, int(coef) % q, dtype=dtype)
        for j, e in enumerate(expo):
            for _ in range(e):
                term = term * cols[j] % q
        total = (total + term) % q
    return total


def _det_mpoly(mat: list[list[MPoly]]) -> MPoly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out: MPoly = {}
    for i in range(n):
        entry = mat[i][0]
        if not entry:
            continue
        minor = [row[1:] for j, row in enumerate(mat) if j != i]
        sub = _det_mpoly(minor)
        if i % 2:
            sub = _mp_neg(sub)
        out = _mp_add(out, _mp_mul(entry, sub))
    return out


@dataclass(frozen=True)
class NumberField:
    """Degree-e field given by a monic defining polynomial and a basis table.

    table[i][j][k] is the k-th coordinate of (basis_i * basis_j); the first
    basis element must be 1.  The signature (r1, r2) is computed from the
    real roots of the polynomial.  The index of the basis order in the
    maximal order gates which primes admit splitting data from plain
    polynomial factorization.

    The data that depends only on the field (its discriminant and norm
    form) is built once per field object and cached in the instance
    dict, outside the dataclass fields, so equality and hashing ignore it.
    """

    poly: tuple[int, ...]  # ascending, monic
    table: tuple  # e x e x e integers
    signature: tuple[int, int]
    index: Optional[int] = None
    name: str = "field"

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @property
    def totally_imaginary(self) -> bool:
        return self.signature[0] == 0

    @cached_property
    def disc(self) -> int:
        """Discriminant of the defining polynomial."""
        return polys.discriminant(list(self.poly))

    @cached_property
    def norm(self) -> "NormForm":
        return NormForm(self)

    @classmethod
    def power_basis(
        cls,
        poly: Sequence[int],
        index: Optional[int] = None,
        name: str = "field",
    ) -> "NumberField":
        poly = tuple(int(c) for c in poly)
        e = len(poly) - 1
        if e < 2:
            raise ValueError("field degree must be at least 2")
        if poly[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if polys.has_rational_root(poly):
            raise ValueError("defining polynomial has a rational root")
        if polys.discriminant(list(poly)) == 0:
            raise ValueError("defining polynomial is not separable")
        # theta^i * theta^j reduced mod the defining polynomial
        table = []
        for i in range(e):
            row = []
            for j in range(e):
                prod = [0] * (i + j) + [1]
                rem = polys.poly_divmod(prod, poly)[1]
                if any(c.denominator != 1 for c in rem):  # poly is monic, so rem is integral
                    raise ArithmeticError("basis product left the integers")
                row.append(tuple(int(c) for c in rem) + (0,) * (e - len(rem)))
            table.append(tuple(row))
        r1 = len(polys.isolate_real_roots(list(poly)))
        sig = (r1, (e - r1) // 2)
        return cls(poly=poly, table=tuple(table), signature=sig, index=index, name=name)


# each preset field's defining polynomial, constant term first, by name: the
# names are known without building a field
PRESET_POLYS = {
    "gaussian": (1, 0, 1),
    "sqrt2": (-2, 0, 1),
    "cbrt2": (-2, 0, 0, 1),
    "coray": (-7, 14, -7, 1),
}


@cache
def field_presets() -> Mapping[str, NumberField]:
    """The preset fields, built once per process; read-only, since callers share them."""
    return MappingProxyType({name: NumberField.power_basis(poly, index=1, name=name)
                             for name, poly in PRESET_POLYS.items()})


# ---------------------------------------------------------------------------
# Norm form.

class NormForm:
    """The degree-e form det of multiplication by y1*w1 + ... + ye*we."""

    def __init__(self, field: NumberField):
        self.field = field
        e = field.degree
        mat: list[list[MPoly]] = [[{} for _ in range(e)] for _ in range(e)]
        for i in range(e):
            for j in range(e):
                for k in range(e):
                    m = field.table[i][j][k]
                    if m:
                        expo = tuple(1 if t == i else 0 for t in range(e))
                        mat[k][j] = _mp_add(mat[k][j], {expo: m})
        self.poly: MPoly = _det_mpoly(mat)
        self.partials: tuple[MPoly, ...] = tuple(_mp_partial(self.poly, i) for i in range(e))
        self._self_check()

    def _self_check(self):
        e = self.field.degree
        e1 = tuple([1] + [0] * (e - 1))
        if self(e1) != 1:
            raise ValueError("norm form does not send the first basis vector to 1")
        rng = philox(0, "normcheck", *self.field.poly)
        y = [int(v) for v in rng.integers(-9, 10, size=e)]
        if self([2 * t for t in y]) != 2**e * self(y):
            raise ValueError("norm form is not homogeneous of the right degree")
        if e * self(y) != sum(gi * yi for gi, yi in zip(self.gradient(y), y)):
            raise ValueError("norm form fails the Euler identity")
        if self(y) != self.eval_det(y):
            raise ValueError("expanded norm disagrees with the determinant")

    def __call__(self, y: Sequence):
        """N(y) at one point, or elementwise over e coordinate arrays (integer or float)."""
        if len(y) != self.field.degree:
            raise ValueError(f"expected {self.field.degree} coordinates")
        return _mp_eval(self.poly, y)

    def eval_det(self, y: Sequence[int]) -> int:
        """Exact determinant of the multiplication matrix at integer y."""
        e = self.field.degree
        if len(y) != e:
            raise ValueError(f"expected {e} coordinates")
        mat = [[0] * e for _ in range(e)]
        for i in range(e):
            if y[i] == 0:
                continue
            for j in range(e):
                for k in range(e):
                    m = self.field.table[i][j][k]
                    if m:
                        mat[k][j] += y[i] * m
        return polys.bareiss_det(mat)

    def gradient(self, y: Sequence):
        return [_mp_eval(g, y) for g in self.partials]


# ---------------------------------------------------------------------------
# Splitting data and Dedekind coefficients.

@lru_cache(maxsize=4096)
def splitting_type(field: NumberField, p: int) -> tuple[tuple[int, int], ...]:
    """Residue degrees and ramification indices (f_i, e_i) above p.

    Read from the factorization of the defining polynomial mod p, valid
    only when p does not divide the index of the power order; a p that
    may divide it raises IndexDivisorError.
    Memoized per (field, p): the result is an immutable tuple.
    """
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if field.index is None:
        if field.disc % (p * p) == 0:
            raise IndexDivisorError(
                f"p={p} may divide the basis-order index; declare the index"
            )
    elif field.index % p == 0:
        raise IndexDivisorError(f"p={p} divides the declared index {field.index}")
    return polys.factor_shape_mod_p(list(field.poly), p)


@dataclass(frozen=True)
class DedekindLocal:
    """Per-prime ideal-count data derived from a splitting type."""

    p: int
    shape: tuple[tuple[int, int], ...]  # (f_i, e_i)
    degree: int

    @classmethod
    def build(cls, field: NumberField, p: int) -> "DedekindLocal":
        return cls(p=p, shape=splitting_type(field, p), degree=field.degree)

    def ideal_count(self, j: int) -> int:
        """Number of ideals of norm p^j: multisets over primes above p."""
        fs = [f for f, _ in self.shape]
        counts = [0] * (j + 1)
        counts[0] = 1
        for f in fs:
            for t in range(f, j + 1):
                counts[t] += counts[t - f]
        return counts[j]

    def alpha(self) -> Fraction:
        out = (1 - Fraction(1, self.p)) ** (-1)
        for f, _ in self.shape:
            out *= 1 - Fraction(1, self.p**f)
        return out

    def beta(self, k: int) -> Fraction:
        """p^k times the tail sum of ideal counts over norms, exact."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        p = self.p
        full = Fraction(1)
        lead = Fraction(1)
        for f, _ in self.shape:
            full *= (1 - Fraction(1, p**f)) ** (-1)
            lead *= 1 - Fraction(1, p**f)
        head = sum(Fraction(self.ideal_count(j), p**j) for j in range(k))
        return Fraction(p**k) * (full - head) * lead

    def r_tilde(self, j: int, k_trunc: int) -> Fraction:
        if j < k_trunc:
            return Fraction(self.ideal_count(j))
        return self.beta(k_trunc) / self.alpha()

    def b(self, j: int, k_trunc: int) -> Fraction:
        """Moebius convolution coefficient at p^j."""
        if j == 0:
            return Fraction(1)
        return self.r_tilde(j, k_trunc) - self.r_tilde(j - 1, k_trunc)


@lru_cache(maxsize=4096)
def _local_b(field: NumberField, p: int, j: int, k_trunc: int) -> Fraction:
    """b(p^j) at truncation k_trunc, memoized: an immutable Fraction."""
    return DedekindLocal.build(field, p).b(j, k_trunc)


def b_coeff(field: NumberField, k: int, k_trunc: int) -> Fraction:
    """Multiplicative extension of the per-prime-power b values."""
    if k < 1:
        raise ValueError("k must be positive")
    out = Fraction(1)
    for p, j in arith.factorize(k).items():
        out *= _local_b(field, p, j, k_trunc)
    return out


# ---------------------------------------------------------------------------
# gamma densities.

@lru_cache(maxsize=256)
def norm_residue_counts(field: NumberField, q: int) -> np.ndarray:
    """Histogram over a in Z/q of #{s in (Z/q)^e : N(s) = a mod q}."""
    e = field.degree
    if q**e > _GAMMA_BUDGET:
        raise ResourceLimitError(f"gamma enumeration budget exceeded at q={q}")
    counts = np.zeros(q, dtype=np.int64)
    axes = np.meshgrid(*([np.arange(q, dtype=np.int64)] * e), indexing="ij", sparse=True)
    # chunk the leading coordinate so the working set stays small
    chunk = max(1, 10**7 // q ** (e - 1))
    for start in range(0, q, chunk):
        cols = [axes[0][start : start + chunk], *axes[1:]]
        counts += np.bincount(_mp_eval_mod(field.norm.poly, cols, q).ravel(), minlength=q)
    return counts


def gamma_many(field: NumberField, q: int, residues: np.ndarray) -> np.ndarray:
    """gamma(q, a) = q^-(e-1) #{s in (Z/q)^e : N(s) = a mod q} per residue a
    of an int array, as float64: one exact count ratio per prime power of q."""
    residues = np.asarray(residues)
    if q == 1:
        return np.ones(residues.shape, dtype=np.float64)
    out = np.ones(residues.shape, dtype=np.float64)
    for p, k in arith.factorize(q).items():
        pk = p**k
        counts = norm_residue_counts(field, pk)
        idx = (residues % pk).astype(np.int64)
        out *= counts[idx] / float(pk ** (field.degree - 1))
    return out


# ---------------------------------------------------------------------------
# Certified box regions and lattice counting.

class RegionB:
    """Box |x - x1| < kappa (sup norm) with N(x1) = 1/2, scaled by B.

    The basepoint is x1 = (2^(-1/e), 0, ..., 0).  Certification: on a
    32^e grid over the closed box, some partial derivative of N stays at
    least half its basepoint magnitude after subtracting a Lipschitz
    margin for off-grid points.
    """

    def __init__(self, norm: NormForm, B: float):
        if not 1 <= B < math.inf:
            raise ValueError("scale B must be finite and >= 1")
        self.norm = norm
        self.B = float(B)
        e = norm.field.degree
        self.x1 = (2.0 ** (-1 / e),) + (0.0,) * (e - 1)
        if abs(norm(self.x1) - 0.5) > 1e-12:
            raise ValueError("basepoint does not hit 1/2")
        self.kappa = _certify_kappa(norm, self.x1)
        # the budget comes first, so a huge B fails here and not in B**e
        if math.prod(max(0, hi - lo + 1) for lo, hi in self.lattice_bounds()) > _LATTICE_BUDGET:
            raise ResourceLimitError("lattice box exceeds the point budget")
        self._hist: Optional[tuple[np.ndarray, np.ndarray]] = None
        lo, hi = _mp_box_range(norm.poly, self.x1, self.kappa)
        self.support = (lo * self.B**e, hi * self.B**e)

    @property
    def volume(self) -> float:
        e = self.norm.field.degree
        return (2 * self.kappa * self.B) ** e

    def lattice_bounds(self) -> list[tuple[int, int]]:
        out = []
        for c in self.x1:
            lo = math.ceil(self.B * (c - self.kappa))
            hi = math.floor(self.B * (c + self.kappa))
            out.append((lo, hi))
        return out

    def histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact counts of the norm values over lattice points of B*box:
        the sorted distinct values and their counts, built once."""
        if self._hist is not None:
            return self._hist
        bounds = self.lattice_bounds()
        worst = max(abs(b) for lohi in bounds for b in lohi) + 1
        coef_norm = sum(abs(c) for c in self.norm.poly.values())
        if coef_norm * worst ** self.norm.field.degree >= 2**62:
            raise ResourceLimitError("norm values overflow the integer grid")
        axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = self.norm(mesh)
        self._hist = np.unique(vals.ravel(), return_counts=True)
        for arr in self._hist:  # shared by every caller
            arr.flags.writeable = False
        return self._hist


def _certify_kappa(norm: NormForm, x1) -> float:
    e = norm.field.degree
    g0 = [abs(float(v)) for v in norm.gradient(list(x1))]
    j = int(np.argmax(g0))
    target = g0[j] / 2
    if g0[j] == 0:
        raise ValueError("norm gradient vanishes at the basepoint")
    kappa = 0.25 * max(abs(v) for v in x1)
    grid_n = 32 if e <= 3 else 12
    for _ in range(60):
        R = max(abs(v) for v in x1) + kappa
        lip = 0.0
        for i in range(e):
            second = _mp_partial(norm.partials[j], i)
            lip += sum(abs(c) * R ** (sum(expo) ) for expo, c in second.items())
        axes = [np.linspace(c - kappa, c + kappa, grid_n) for c in x1]
        vals = np.abs(_mp_eval(norm.partials[j], np.meshgrid(*axes, indexing="ij")))
        margin = lip * (kappa / (grid_n - 1))
        if float(vals.min()) - margin >= target:
            return kappa
        kappa /= 2
    raise ValueError("could not certify a gradient-stable box radius")


def _mp_box_range(poly: MPoly, center, kappa) -> tuple[float, float]:
    lo, hi = 0.0, 0.0
    for expo, coef in poly.items():
        tlo, thi = float(coef), float(coef)
        for j, e in enumerate(expo):
            if e == 0:
                continue
            a, b = center[j] - kappa, center[j] + kappa
            cands = [a**e, b**e] + ([0.0] if a < 0 < b else [])
            mlo, mhi = min(cands), max(cands)
            tlo, thi = min(tlo * mlo, tlo * mhi, thi * mlo, thi * mhi), max(
                tlo * mlo, tlo * mhi, thi * mlo, thi * mhi
            )
        lo += tlo
        hi += thi
    return lo, hi


# ---------------------------------------------------------------------------
# Monte-Carlo real density.

@dataclass(frozen=True)
class DensityProfile:
    """Shared MC sample of norm values over a region, reusable per query."""

    region: RegionB
    samples: int
    values: np.ndarray  # sorted norm values at sampled points
    half_width: float

    @classmethod
    def draw(cls, region: RegionB, samples: int, seed: int) -> "DensityProfile":
        if samples < 10**3:
            raise ValueError("need at least 1000 samples")
        e = region.norm.field.degree
        rng = philox(seed, "omega", samples)
        pts = rng.uniform(-1.0, 1.0, size=(samples, e)) * region.kappa + np.asarray(region.x1)
        vals = region.norm(pts.T) * region.B**e
        return cls(region=region, samples=samples, values=np.sort(vals),
                   half_width=region.B**e / 200.0)

    def estimate(self, y: float) -> tuple[float, float]:
        """(density estimate, standard error) at value y."""
        lo = np.searchsorted(self.values, y - self.half_width, side="left")
        hi = np.searchsorted(self.values, y + self.half_width, side="right")
        hits = int(hi - lo)
        phat = hits / self.samples
        scale = self.region.volume / (2 * self.half_width)
        se = math.sqrt(phat * (1 - phat) / self.samples) * scale
        return phat * scale, se

    def aggregate(self, ys: Sequence[float], weights: Sequence[float]) -> tuple[float, float]:
        """Weighted sum of densities over shared samples, with its MC error.

        Computes T(v) = sum of weights of query windows containing v per
        sampled value v, so the variance accounts for window overlap.
        """
        ys = np.asarray(ys, dtype=np.float64)
        ws = np.asarray(weights, dtype=np.float64)
        order = np.argsort(ys)
        ys, ws = ys[order], ws[order]
        csum = np.concatenate([[0.0], np.cumsum(ws)])
        lo = np.searchsorted(ys, self.values - self.half_width, side="left")
        hi = np.searchsorted(ys, self.values + self.half_width, side="right")
        per_sample = csum[hi] - csum[lo]
        scale = self.region.volume / (2 * self.half_width)
        mean = float(per_sample.mean())
        var = float(per_sample.var(ddof=1)) if self.samples > 1 else 0.0
        est = mean * scale
        se = math.sqrt(var / self.samples) * scale
        return est, se
