"""Local-global solvability of N_K(x) = g(u,v) != 0 and its counting data.

Covers the real and p-adic solvability tests with Hensel certificates,
the exact local densities sigma, the lattice counting function and its
localized (gamma times real-density) model, rational point search, and
the per-sample classification into the rational and locally-solvable
classes that the harness's hasse kind records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import arith, forms, polys
from .errors import ResourceLimitError
from .forms import BinaryForm
from .normforms import (
    DensityProfile,
    NumberField,
    RegionB,
    _mp_eval_mod,
    _mp_partial,
    gamma_many,
    norm_residue_counts,
)

_SEED_BUDGET = 2 * 10**6
_FRONTIER_CAP = 60000
_SIGMA_BUDGET = 10**8
_VALUE_BUDGET = 10**8

DESK_K = 2
DESK_W = 7
DESK_M = 20


@dataclass(frozen=True)
class ChateletInstance:
    """The equation N_K(x) = g(u, v) != 0 for a fixed field and form."""

    field: NumberField
    form: BinaryForm

    def __post_init__(self):
        if self.form.degree % self.field.degree != 0:
            raise ValueError("the field degree must divide the form degree")

    @property
    def e(self) -> int:
        return self.field.degree

    @property
    def d(self) -> int:
        return self.form.degree

    def in_S(self, H: int) -> bool:
        c = self.form.coeffs
        return max(abs(v) for v in c) <= H and c[0] * c[-1] != 0

    def bad_primes(self) -> tuple[int, ...]:
        """Primes dividing disc(K-poly), disc(g), or the edge coefficients."""
        out: set[int] = set()
        for v in (
            self.field.disc,
            self.form.coeffs[0],
            self.form.coeffs[-1],
            0 if self.form.is_zero else self.form.discriminant(),
        ):
            if v != 0:
                out.update(arith.factorize(abs(v)))
        return tuple(sorted(out))


def make_instance(field: NumberField, coeffs: Sequence[int]) -> ChateletInstance:
    return ChateletInstance(field=field, form=BinaryForm(coeffs))


# ---------------------------------------------------------------------------
# Real solvability.

def real_solvable(instance: ChateletInstance) -> bool:
    """Does N_K(x) = g(u, v) != 0 have a real solution?

    N_K takes every positive value, and every negative one when K has a
    real place, so a nonzero g is solvable when d is odd (g(-u, -v) =
    -g(u, v)) or K is not totally imaginary, else when g takes a positive
    value.  For even d, g(u, v) = v^d f(u/v) with f(t) = g(t, 1) and
    v^d > 0, while g(1, 0) = c0 is 0 or the sign f takes beyond its outer
    real roots.  So the signs of g are the signs of f on the gaps between
    its distinct real roots, decided exactly at one rational point per
    gap: the left end of the first isolating interval and the right end of
    each (t = 0 when f has no real root).  Each interval holds one
    distinct root and its ends are non-roots, so its right end lies in the
    next gap; f keeps one sign on a gap whatever the multiplicities of its
    roots, so f is isolated as given, squarefree or not.
    """
    g = instance.form
    if g.is_zero:
        return False
    if g.degree % 2 == 1 or not instance.field.totally_imaginary:
        return True
    f = g.dehomogenized()
    boxes = polys.isolate_real_roots(f)
    samples = [boxes[0][0]] + [hi for _, hi in boxes] if boxes else [0]
    return any(polys.poly_eval(f, t) > 0 for t in samples)


# ---------------------------------------------------------------------------
# p-adic solvability with Hensel certificates.

@dataclass(frozen=True)
class PadicVerdict:
    kind: str  # "yes" | "no" | "unknown"
    alpha: Optional[int]
    level: int
    witness: Optional[tuple] = None


def _form_mpoly(form: BinaryForm) -> dict:
    d = form.degree
    return {(d - i, i): c for i, c in enumerate(form.coeffs) if c != 0}


def _capped_valuation(r: np.ndarray, p: int, level: int) -> np.ndarray:
    """min(v_p(r), level) for residues r mod p^level; residue 0 gives level."""
    v = np.zeros(len(r), dtype=np.int64)
    for j in range(1, level + 1):
        v += r % p**j == 0
    return v


def _seed_side(poly: dict, partials: Sequence[dict], nvars: int, p: int, primitive: bool):
    """Level-1 scan: values of smooth points (some partial a unit) become
    wildcard classes; singular points are kept as members, as a point
    array and a value array."""
    if p**nvars > _SEED_BUDGET:
        raise ResourceLimitError(f"level-1 residue scan too large at p={p}")
    pts = np.indices((p,) * nvars).reshape(nvars, -1).T
    if primitive:
        pts = pts[pts.any(axis=1)]
    vals = _mp_eval_mod(poly, pts.T, p)
    smooth = np.zeros(len(pts), dtype=bool)
    for part in partials:
        smooth |= _mp_eval_mod(part, pts.T, p) != 0
    return np.unique(vals[smooth]), pts[~smooth], vals[~smooth]


def _least_points(
    pts: np.ndarray, vals: np.ndarray, partials: Sequence[dict], p: int, level: int,
    targets: np.ndarray,
):
    """Per value in the sorted array `targets` (each attained): the least
    gradient valuation min(v_p(partial), level) over its points, and the
    least point attaining it."""
    keep = np.isin(vals, targets)
    pts, vals = pts[keep], vals[keep]
    grad = np.full(len(vals), level)
    for part in partials:
        pv = _mp_eval_mod(part, pts.T, p**level)
        grad = np.minimum(grad, _capped_valuation(pv, p, level))
    order = np.lexsort((*pts.T[::-1], grad, vals))
    first = order[np.unique(vals[order], return_index=True)[1]]
    return grad[first], pts[first]


def _lift(poly: dict, pts: np.ndarray, p: int, level: int):
    """Children pts + shift * p^level (each shift coordinate mod p) and
    their values mod p^(level+1)."""
    nvars = pts.shape[1]
    if len(pts) * p**nvars > _FRONTIER_CAP:
        raise ResourceLimitError("p-adic frontier exceeded the budget")
    q = p ** (level + 1)
    dtype = np.int64 if q < 2**63 else object
    shifts = np.indices((p,) * nvars).reshape(nvars, -1).T.astype(dtype) * p**level
    children = (pts.astype(dtype)[:, None, :] + shifts[None]).reshape(-1, nvars)
    return children, _mp_eval_mod(poly, children.T, q)


def padic_solvable(
    instance: ChateletInstance, p: int, max_precision: Optional[int] = None
) -> PadicVerdict:
    """Certificate search for solutions of N_K(x) = g(s,t) over Z_p.

    Level-by-level lift of the residue solution set with (s,t) kept
    primitive; a point at level j >= 2*alpha + 1 whose combined gradient
    has valuation alpha and whose value residue is nonzero enough
    certifies yes(alpha).  An empty match set certifies no.  Residues
    with a smooth one-sided preimage are tracked as whole classes: the
    smooth side can hit any target value in them.  Each side holds its
    members as a point array and a value array mod p^level.
    """
    if not arith.is_prime(p):
        raise ValueError(f"{p} is not prime")
    e, d = instance.e, instance.d
    k = max_precision if max_precision is not None else 2 * e + 3
    if k < 1:
        raise ValueError("max_precision must be at least 1")
    g = instance.form
    if g.is_zero:
        return PadicVerdict("no", None, 0)
    content = g.content
    if p > max(d, e) and e % p != 0 and instance.field.disc % p != 0 and content % p != 0:
        # good prime: g has a unit value on some primitive pair, the
        # residue norm map is onto, and the Euler identity gives a unit
        # partial, so a smooth level-1 solution always exists
        return PadicVerdict("yes", 0, 1)

    norm = instance.field.norm
    n_poly, n_partials = norm.poly, norm.partials
    g_poly = _form_mpoly(g)
    g_partials = [_mp_partial(g_poly, 0), _mp_partial(g_poly, 1)]

    n_wild, n_pts, n_vals = _seed_side(n_poly, n_partials, e, p, primitive=False)
    g_wild, g_pts, g_vals = _seed_side(g_poly, g_partials, 2, p, primitive=True)

    if np.intersect1d(n_wild, g_wild).size:
        # both sides realize every value in the class exactly; pick any
        # nonzero common target
        return PadicVerdict("yes", 0, 1)

    for level in range(1, k + 1):
        both = np.intersect1d(n_vals, g_vals)
        if both.size:
            mu_n, wx = _least_points(n_pts, n_vals, n_partials, p, level, both)
            mu_g, wst = _least_points(g_pts, g_vals, g_partials, p, level, both)
            alpha = np.minimum(mu_n, mu_g)
            ok = (level >= 2 * alpha + 1) & (_capped_valuation(both, p, level) < level - alpha)
            if ok.any():
                i = np.flatnonzero(ok)[np.argmin(alpha[ok])]  # least alpha, then value
                witness = (tuple(map(int, wx[i])), tuple(map(int, wst[i])))
                return PadicVerdict("yes", int(alpha[i]), level, witness)
        # one-sided smooth classes match any member whose value lies in
        # them; once the member's value residue is pinned nonzero the
        # smooth side meets it exactly
        n_one = np.isin(n_vals % p, g_wild)
        g_one = np.isin(g_vals % p, n_wild)
        for one, pts, vals, side in ((n_one, n_pts, n_vals, 0), (g_one, g_pts, g_vals, 1)):
            hit = one & (_capped_valuation(vals, p, level) < level)
            if hit.any():
                at = pts[vals == vals[hit].min()]
                w = tuple(map(int, at[np.lexsort(at.T[::-1])[0]]))
                return PadicVerdict("yes", 0, level, (w, None) if side == 0 else (None, w))
        n_keep = n_one | np.isin(n_vals, both)
        g_keep = g_one | np.isin(g_vals, both)
        if not (n_keep.any() or g_keep.any()):
            return PadicVerdict("no", None, level)
        if level == k:
            break
        n_pts, n_vals = _lift(n_poly, n_pts[n_keep], p, level)
        g_pts, g_vals = _lift(g_poly, g_pts[g_keep], p, level)
    return PadicVerdict("unknown", None, k)


# ---------------------------------------------------------------------------
# Local sigma densities.

def _g_residue_counts(form: BinaryForm, q: int) -> np.ndarray:
    """Histogram over a in Z/q of #{(s,t) in (Z/q)^2 : g(s,t) = a}.

    Direct enumeration at every q, composite or not: the CRT checks on
    sigma_mod and the tests of the orbit sums rely on it being independent.
    """
    if q * q > _SIGMA_BUDGET:
        raise ResourceLimitError(f"form residue scan too large at q={q}")
    d = form.degree
    pows = [np.ones(q, dtype=np.int64)]
    for _ in range(d):
        pows.append(pows[-1] * np.arange(q, dtype=np.int64) % q)
    counts = np.zeros(q, dtype=np.int64)
    step = max(1, 10**7 // q)
    for u0 in range(0, q, step):
        us = slice(u0, min(u0 + step, q))
        acc = np.zeros((us.stop - u0, q), dtype=np.int64)
        for i, c in enumerate(form.coeffs):
            acc += (c % q) * pows[d - i][us, None] * pows[i][None, :]
            acc %= q
        counts += np.bincount(acc.ravel(), minlength=q)
    return counts


def sigma_pp(instance: ChateletInstance, p: int, k: int) -> Fraction:
    """Joint density of N_K(x) = g(s,t) mod p^k over all residues.

    The norm counts are a unit-invariant weight because e | d (see
    forms.orbit_sum), so the pairs (s, t) are summed in O(p^k) steps.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return Fraction(1)
    q = p**k
    e = instance.e
    if q**max(e, 2) > _SIGMA_BUDGET:
        raise ResourceLimitError(f"sigma enumeration budget exceeded at {p}^{k}")
    cnt_n = norm_residue_counts(instance.field, q)
    joint = forms.orbit_sum(instance.form.coeffs, p, k, cnt_n)
    return Fraction(joint, q ** (e + 1))


def sigma_mod(instance: ChateletInstance, q: int) -> Fraction:
    """Density of N_K(x) = g(s,t) mod q over all of (Z/q)^(e+2), any q >= 1."""
    if q < 1:
        raise ValueError("modulus must be positive")
    if q == 1:
        return Fraction(1)
    e = instance.e
    if q**max(e, 2) > _SIGMA_BUDGET:
        raise ResourceLimitError(f"sigma enumeration budget exceeded at q={q}")
    cnt_n = norm_residue_counts(instance.field, q)
    cnt_g = _g_residue_counts(instance.form, q)
    return Fraction(int(np.dot(cnt_n, cnt_g)), q ** (e + 1))


def sigma_w0(instance: ChateletInstance, m_dk: int, k_desk: int) -> Fraction:
    """Product of sigma_pp(p, k_desk) over the W0 primes: the primes up to
    m_dk and every prime dividing the content."""
    ps = set(arith.primes(m_dk))
    content = instance.form.content
    if content > 0:
        ps.update(arith.factorize(content))
    sigma = Fraction(1)
    for p in sorted(ps):
        sigma *= sigma_pp(instance, p, k_desk)
    return sigma


# ---------------------------------------------------------------------------
# Counting functions.

def default_B(instance: ChateletInstance, x: int, H_tilde: float) -> float:
    return H_tilde ** (1 / instance.e) * x ** (instance.d / instance.e)


def model_W(w_desk: int, k_desk: int) -> int:
    """The localized model's modulus: every prime up to the cutoff, powered."""
    out = 1
    for p in arith.primes(w_desk):
        out *= p**k_desk
    return out


def value_table(instance: ChateletInstance, x: int) -> np.ndarray:
    """g(m, n) for -x <= m, n <= x with n != 0, flat int64, m-major (only
    the multiset of values matters): the one table both counts read."""
    if x < 1:
        raise ValueError("x must be at least 1")
    d = instance.d
    worst = (sum(abs(c) for c in instance.form.coeffs) + 1) * x**d
    if worst >= 2**62:
        raise ResourceLimitError("form values overflow the integer grid")
    if (2 * x + 1) ** 2 > _VALUE_BUDGET:
        raise ResourceLimitError("value grid exceeds the enumeration budget")
    ms = np.arange(-x, x + 1)
    return forms.form_grid(instance.form, ms, ms[ms != 0]).ravel()


def count_Nc(vals: np.ndarray, region: RegionB) -> int:
    """Exact solution count: the region's lattice points whose norm is a
    value of the table `vals`, counted with the table's multiplicity."""
    values, counts = region.histogram()
    if not len(values):
        return 0
    pos = np.minimum(np.searchsorted(values, vals), len(values) - 1)
    return int(counts[pos][values[pos] == vals].sum())


def localized_Nc(
    field: NumberField,
    vals: np.ndarray,
    W_powered: int,
    profile: DensityProfile,
) -> tuple[float, float]:
    """Model count over the value table `vals`: sum of gamma(W, v) * omega_hat(v).

    The gamma weight is exact per residue class; omega_hat comes from the
    run's shared Monte-Carlo draw of a region (`profile.region`), whose
    variance is propagated through the weighted sum.
    """
    weights = gamma_many(field, W_powered, vals)
    return profile.aggregate(vals.astype(np.float64), weights)


# ---------------------------------------------------------------------------
# Rational point search.

def _sqrt_minus_one(p: int) -> int:
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return pow(c, (p - 1) // 4, p)
    raise ArithmeticError(f"no quadratic nonresidue found mod {p}")


def _cornacchia_two_squares(p: int) -> tuple[int, int]:
    """x^2 + y^2 = p for a prime p = 1 mod 4, by the Euclid descent."""
    a, b = p, _sqrt_minus_one(p)
    while b * b > p:
        a, b = b, a % b
    r = b
    s2 = p - r * r
    s = math.isqrt(s2)
    if s * s != s2:
        raise ArithmeticError(f"descent failed at p={p}")
    return r, s


def two_squares(n: int) -> Optional[tuple[int, int]]:
    """Some (a, b) with a^2 + b^2 = n, or None when no representation exists."""
    if n < 0:
        return None
    if n == 0:
        return (0, 0)
    odd = n
    while odd % 2 == 0:
        odd //= 2
    if odd % 4 == 3:
        return None
    for p in (3, 7, 11, 19, 23, 31, 43, 47):
        v = 0
        while odd % p == 0:
            odd //= p
            v += 1
        if v % 2 == 1:
            return None
    a, b = 1, 0
    for p, k in arith.factorize(n).items():
        if p == 2:
            r, s = 1, 1
        elif p % 4 == 1:
            r, s = _cornacchia_two_squares(p)
        else:
            if k % 2 == 1:
                return None
            a, b = a * p ** (k // 2), b * p ** (k // 2)
            continue
        for _ in range(k):
            a, b = a * r - b * s, a * s + b * r
    assert a * a + b * b == n
    return (abs(a), abs(b))


class _OpBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int) -> bool:
        self.used += n
        return self.used <= self.limit


def _represent_by_norm(
    instance: ChateletInstance, val: int, budget: _OpBudget
) -> Optional[tuple[int, ...]]:
    """Find integral x with N_K(x) = val, or None (absent or out of budget)."""
    norm = instance.field.norm
    e = instance.e
    if instance.field.poly == (1, 0, 1):
        if not budget.spend(max(1, round(math.log(abs(val) + 2)))):
            return None
        return two_squares(val)
    # a heuristic box: a hit is checked exactly by the caller, a miss proves nothing
    radius = math.ceil(abs(val) ** (1 / e)) * 3 + 3
    axis = np.arange(-radius, radius + 1, dtype=np.int64)
    count = (2 * radius + 1) ** e
    if not budget.spend(count):
        return None
    if count > 10**7:
        return None
    mesh = np.meshgrid(*([axis] * e), indexing="ij")
    vals = norm(mesh)
    hit = np.nonzero(vals == val)
    if len(hit[0]) == 0:
        return None
    idx = tuple(int(h[0]) for h in hit)
    return tuple(int(mesh[i][idx]) for i in range(e))


def search_rational_point(
    instance: ChateletInstance, height_bound: int, time_budget: int = 10**7
) -> Optional[tuple[tuple[int, ...], int, int]]:
    """First (x, m, n) with N_K(x) = g(m, n) != 0, n != 0, gcd(m,n) = 1.

    Scans pairs in increasing height max(|m|, |n|); the budget counts
    evaluation work so exhaustion is deterministic.  Absence of a witness
    proves nothing.
    """
    if height_bound < 1:
        raise ValueError("height bound must be at least 1")
    g = instance.form
    if g.is_zero:
        return None
    budget = _OpBudget(time_budget)
    odd = g.degree % 2 == 1
    for h in range(1, height_bound + 1):
        pairs = []
        for m in range(-h, h + 1):
            pairs.append((m, h))
            if abs(m) == h:
                pairs.extend((m, n) for n in range(1, h))
        for m, n in pairs:
            if math.gcd(m, n) != 1:
                continue
            cands = ((m, n), (-m, -n)) if odd else ((m, n),)
            for mm, nn in cands:
                if not budget.spend(1):
                    return None
                val = g(mm, nn)
                if val == 0:
                    continue
                x = _represent_by_norm(instance, val, budget)
                if x is not None:
                    assert instance.field.norm.eval_det(list(x)) == val == g(mm, nn)
                    assert nn != 0
                    return (tuple(int(t) for t in x), mm, nn)
            if budget.used > budget.limit:
                return None
    return None


# ---------------------------------------------------------------------------
# Per-sample classification.

_CLASSES = ("not-in-S", "locally-obstructed", "rational-point-found", "unknown")


def tested_primes(instance: ChateletInstance, prime_cutoff: int) -> tuple[int, ...]:
    ps = set(arith.primes(prime_cutoff))
    ps.update(instance.bad_primes())
    return tuple(sorted(ps))


def classify_coeffs(
    field: NumberField,
    coeffs: Sequence[int],
    H: int,
    height_bound: int,
    prime_cutoff: int,
) -> tuple[str, Optional[tuple], list[tuple[int, str]], Optional[str]]:
    """(class, witness, per-prime verdicts, obstruction note) for one form."""
    inst = ChateletInstance(field=field, form=BinaryForm(coeffs))
    if not inst.in_S(H):
        return "not-in-S", None, [], None
    if not real_solvable(inst):
        return "locally-obstructed", None, [], "real place"
    verdicts: list[tuple[int, str]] = []
    for p in tested_primes(inst, prime_cutoff):
        try:
            v = padic_solvable(inst, p)
        except ResourceLimitError:
            verdicts.append((p, "budget"))
            continue
        tag = f"yes({v.alpha})" if v.kind == "yes" else v.kind
        verdicts.append((p, tag))
        if v.kind == "no":
            return "locally-obstructed", None, verdicts, f"p={p}"
    witness = search_rational_point(inst, height_bound)
    if witness is not None:
        x, m, n = witness
        return "rational-point-found", (x, m, n), verdicts, None
    return "unknown", None, verdicts, None
