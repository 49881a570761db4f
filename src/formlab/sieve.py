"""Smallest-prime-factor sieve and exact arithmetic functions.

A SieveTable answers factor / lambda / mu / Lambda / tau_B queries
exactly for 1 <= n <= bound in O(log n) per query from one uint32 spf
array (four bytes per entry); beyond the bound, factor is
arith.factorize (Miller-Rabin and Pollard-Brent rho).  Bulk lambda and
mu tables cover the statistic pipelines; they walk the same spf array,
one entry from the entry at n / spf(n).

mangoldt_values is one vectorized layer for every magnitude.  It finds
the p with |n| = p^k over the sorted unique magnitudes: n <= bound is
prime when spf[n] == n; bound < n < 2**31 is prime when it survives
trial division by the primes up to 61 and the strong-probable-prime
test to bases 2, 7 and 61, which has no composite passer below
4,759,123,141 (Jaeschke, Math. Comp. 61, 1993); residues stay below
2**31, so every int64 product is exact.  Powers p^k (k >= 2) below 2**31
come from a per-call table of the primes up to sqrt(max |n|).  Only
magnitudes >= 2**31 take factor, as the scalar queries do.  Every value
is math.log(p), so the layer agrees bit for bit with the scalar mangoldt.

Also provides the exact pair counts for divisibility of
v1^a v2^b (v1^c - v2^c) by prime powers, many moduli at once.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np

from . import arith

_MAGIC = b"FRMLSPF1"

# the largest bound whose entries, n itself for a prime n, fit in uint32
MAX_BOUND = 2**32 - 1

_ENUM_BUDGET = 10**8

# mangoldt_values decides magnitudes below this with int64 arithmetic:
# a product of two residues stays below 2**62.
_VECTOR_LIMIT = 1 << 31

# Strong-probable-prime bases, deterministic below 4,759,123,141.
_SPRP_BASES = (2, 7, 61)

# Trial divisors before the strong test; they include every base, so a
# survivor n is coprime to each base.
_TRIAL_PRIMES = tuple(arith.primes(61))


class Mangoldt(NamedTuple):
    """Value log(p) plus the exact tag (prime, exponent); (None, 0) when zero."""

    value: float
    prime: int | None
    exponent: int


class SieveTable:
    """Immutable smallest-prime-factor table for 2..bound.

    Safe to share across worker processes; every query is a pure
    function of its arguments.
    """

    def __init__(self, bound: int, _spf: np.ndarray | None = None):
        if not 2 <= bound <= MAX_BOUND:
            raise ValueError(f"sieve bound must be between 2 and {MAX_BOUND}")
        self.bound = int(bound)
        self._spf = self._build(self.bound) if _spf is None else _spf
        self._primes: list[int] | None = None
        self._liouville_table: np.ndarray | None = None
        self._mobius_table: np.ndarray | None = None

    @staticmethod
    def _build(bound: int) -> np.ndarray:
        spf = np.zeros(bound + 1, dtype=np.uint32)
        spf[2::2] = 2
        for i in range(3, math.isqrt(bound) + 1, 2):
            if spf[i] == 0:
                block = spf[i * i :: 2 * i]
                block[block == 0] = i
        rest = np.nonzero(spf == 0)[0]
        spf[rest] = rest  # odd primes above sqrt(bound), plus 0 and 1
        return spf

    # -- persistence --------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            self.write(fh)

    def write(self, fh: BinaryIO) -> None:
        """Write the table to an open binary file, in the format `load` reads."""
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", self.bound))
        fh.write(self._spf.astype("<u4", copy=False).tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "SieveTable":
        raw = Path(path).read_bytes()
        if raw[:8] != _MAGIC:
            raise ValueError("not a sieve table file (bad magic)")
        if len(raw) < 16:
            raise ValueError("sieve table file truncated")
        (bound,) = struct.unpack("<Q", raw[8:16])
        if len(raw) != 16 + 4 * (bound + 1):
            raise ValueError("sieve table file truncated")
        spf = np.frombuffer(raw[16:], dtype="<u4")
        return cls(int(bound), _spf=spf.astype(np.uint32))

    # -- scalar queries ------------------------------------------------

    def primes(self) -> list[int]:
        if self._primes is None:
            idx = np.arange(self.bound + 1, dtype=np.uint32)
            self._primes = [int(p) for p in np.nonzero(self._spf == idx)[0] if p >= 2]
        return self._primes

    def factor(self, n: int) -> dict[int, int]:
        """Prime factorization of n >= 1."""
        if n < 1:
            raise ValueError("factor requires n >= 1")
        if n > self.bound:
            return arith.factorize(n)
        out: dict[int, int] = {}
        spf = self._spf
        while n > 1:  # smallest prime factor first: the keys come out ascending
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
        return out

    def liouville(self, n: int) -> int:
        """Completely multiplicative sign (-1)^Omega; 0 at 0, even in n."""
        if n == 0:
            return 0
        return -1 if sum(self.factor(abs(n)).values()) % 2 else 1

    def mobius(self, n: int) -> int:
        if n < 1:
            raise ValueError("mobius requires n >= 1")
        fac = self.factor(n)
        if any(e > 1 for e in fac.values()):
            return 0
        return -1 if len(fac) % 2 else 1

    def mangoldt(self, n: int) -> Mangoldt:
        """log p with exact tag (p, k) when |n| = p^k; zero otherwise."""
        if n == 0:
            return Mangoldt(0.0, None, 0)
        fac = self.factor(abs(n))
        if len(fac) != 1:
            return Mangoldt(0.0, None, 0)
        ((p, k),) = fac.items()
        return Mangoldt(math.log(p), p, k)

    def tau_b(self, n: int, b: int) -> int:
        """Ordered b-tuples with product n (the b-fold divisor function)."""
        if n < 1:
            raise ValueError("tau_b requires n >= 1")
        if b < 1:
            raise ValueError("tau_b requires b >= 1")
        out = 1
        for e in self.factor(n).values():
            out *= math.comb(e + b - 1, b - 1)
        return out

    # -- bulk tables -----------------------------------------------------

    def liouville_table(self) -> np.ndarray:
        """int8 array L with L[n] = lambda(n) for 0 <= n <= bound."""
        if self._liouville_table is None:
            self._liouville_table = self._spf_walk(squarefree=False)
        return self._liouville_table

    def mobius_table(self) -> np.ndarray:
        if self._mobius_table is None:
            self._mobius_table = self._spf_walk(squarefree=True)
        return self._mobius_table

    def _spf_walk(self, squarefree: bool) -> np.ndarray:
        """lambda (or mu, when squarefree) of 0..bound from f(1) = 1 and, for n >= 2
        with p = spf(n) and m = n // p, f(n) = -f(m); mu(n) = 0 when spf(m) = p.

        m <= n / 2, so a block of n inside [lo, 2 lo) reads only entries below
        lo; blocks of at most 2^16 entries keep the temporaries small.
        """
        f = np.zeros(self.bound + 1, dtype=np.int8)
        f[1] = 1
        lo = 2
        while lo <= self.bound:
            hi = min(2 * lo, lo + 2**16, self.bound + 1)
            p = self._spf[lo:hi]
            m = np.arange(lo, hi, dtype=np.uint32) // p
            f[lo:hi] = -f[m]
            if squarefree:
                f[lo:hi][self._spf[m] == p] = 0
            lo = hi
        return f

    # -- vectorized evaluators -------------------------------------------

    def liouville_values(self, values) -> np.ndarray:
        mags = np.abs(np.asarray(values, dtype=np.int64))
        # one gather: clip mode keeps magnitudes beyond the table (and -2**63,
        # which np.abs leaves negative) in range; the scalar path overwrites them
        out = self.liouville_table().take(mags, mode="clip")
        # viewed as uint64 (no copy), the wrapped magnitude of -2**63 reads 2**63
        wide = mags.view(np.uint64)
        beyond = wide > self.bound
        if beyond.any():
            for i in np.flatnonzero(beyond):
                out.flat[i] = self.liouville(int(wide.flat[i]))
        return out

    def mangoldt_values(self, values) -> np.ndarray:
        """Vectorized Lambda over int64 values of any size."""
        mags = np.abs(np.asarray(values, dtype=np.int64))
        # viewed as uint64 (no copy), the wrapped magnitude of -2**63 reads 2**63
        uniq, inverse = np.unique(mags.ravel().view(np.uint64), return_inverse=True)
        base = self._prime_power_bases(uniq)
        out_u = np.zeros(len(uniq), dtype=np.float64)
        hit = np.nonzero(base)[0]
        out_u[hit] = [math.log(p) for p in base[hit].tolist()]
        return out_u[inverse].reshape(mags.shape)

    def _prime_power_bases(self, n: np.ndarray) -> np.ndarray:
        """p where n = p^k (k >= 1), else 0; n sorted, unique uint64."""
        base = np.zeros(len(n), dtype=np.int64)
        lo, hi = np.searchsorted(n, (2, _VECTOR_LIMIT))
        vec = n[lo:hi].astype(np.int64)
        if len(vec):
            cut = np.searchsorted(vec, self.bound, side="right")
            prime = np.concatenate(
                (self._spf[vec[:cut]] == vec[:cut], _is_prime_vec(vec[cut:]))
            )
            found = np.where(prime, vec, 0)
            powers, roots = _prime_power_table(int(vec[-1]))
            if len(powers):
                pos = np.minimum(np.searchsorted(powers, vec), len(powers) - 1)
                is_power = powers[pos] == vec
                found[is_power] = roots[pos[is_power]]
            base[lo:hi] = found
        for i in range(hi, len(n)):
            fac = self.factor(int(n[i]))
            if len(fac) == 1:
                (base[i],) = fac
        return base


def _is_prime_vec(n: np.ndarray) -> np.ndarray:
    """Exact primality of each int64 entry, 2 <= n < 2**31."""
    prime = np.isin(n, _TRIAL_PRIMES)
    idx = np.nonzero(~prime)[0]
    for p in _TRIAL_PRIMES:
        idx = idx[n[idx] % p != 0]
    for a in _SPRP_BASES:
        idx = idx[_strong_probable_prime(n[idx], a)]
    prime[idx] = True
    return prime


def _strong_probable_prime(n: np.ndarray, a: int) -> np.ndarray:
    """Strong test of odd n > a, coprime to a; residues stay below 2**31."""
    d = n - 1
    s_max = 0
    even = (d & 1) == 0
    while even.any():
        d[even] >>= 1
        s_max += 1
        even = (d & 1) == 0
    x = np.ones(len(n), dtype=np.int64)
    sq = np.full(len(n), a, dtype=np.int64)
    e = d
    while e.any():
        x = np.where((e & 1) == 1, x * sq % n, x)
        sq = sq * sq % n
        e = e >> 1
    ok = (x == 1) | (x == n - 1)
    # One squaring count serves the batch: with n - 1 = d * 2^s, no square
    # a^(d * 2^r) with r >= s is -1 mod n, since that would make every
    # prime factor of n, and so n itself, 1 mod 2^(s + 1).
    for _ in range(1, s_max):
        x = x * x % n
        ok |= x == n - 1
    return ok


def _prime_power_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted prime powers p^k <= limit with k >= 2, and their primes p."""
    ps = np.array(arith.primes(math.isqrt(limit)), dtype=np.int64)
    powers, roots = [ps * ps], [ps]
    while len(roots[-1]):
        q = powers[-1] * roots[-1]
        keep = q <= limit
        powers.append(q[keep])
        roots.append(roots[-1][keep])
    powers_a, roots_a = np.concatenate(powers), np.concatenate(roots)
    order = np.argsort(powers_a)
    return powers_a[order], roots_a[order]


def build_sieve(bound: int) -> SieveTable:
    return SieveTable(bound)


def gcd_divisibility_counts(qs: Sequence[int], a: int, b: int, c: int, x: int) -> np.ndarray:
    """Exact #{(v1,v2) in [1,x]^2 : q | v1^a v2^b (v1^c - v2^c)} per prime power q in qs.

    The values are evaluated once, exactly in int64 (|value| < x^(a+b+c)
    < 2^63), and tested against each q; the x^2 enumeration is budget-capped.
    """
    for q in qs:
        _check_divisibility(q, a, b, c, x)
    if x ** (a + b + c) >= 2**63:
        raise ValueError("pair values overflow int64")
    v = np.arange(1, x + 1, dtype=np.int64)
    counts = np.zeros(len(qs), dtype=np.int64)
    chunk = max(1, 2**20 // x)
    for i0 in range(0, x, chunk):
        v1 = v[i0 : i0 + chunk, None]
        mags = np.abs(v1**a * v**b * (v1**c - v**c)).view(np.uint64)
        counts += [np.count_nonzero(_divisible(mags, q)) for q in qs]
    return counts


def _divisible(mags: np.ndarray, q: int) -> np.ndarray:
    """q | m for each uint64 m, q a prime power, with no division.

    2^j divides m when m's low j bits vanish.  For odd q, m -> m q^-1 mod
    2^64 maps the multiples of q onto 0..floor((2^64-1)/q) and every other
    m above it (Granlund and Montgomery, PLDI 1994, section 9).
    """
    if q & (q - 1) == 0:
        return mags & np.uint64(q - 1) == 0
    return mags * np.uint64(pow(q, -1, 2**64)) <= np.uint64((2**64 - 1) // q)


def _check_divisibility(q: int, a: int, b: int, c: int, x: int) -> None:
    if min(a, b, c) < 1:
        raise ValueError("exponents must be positive")
    if x < 1:
        raise ValueError("x must be positive")
    if not _is_prime_power(q):
        raise ValueError("modulus must be a prime power")
    if x * x > _ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded (x^2 > 1e8)")


def _is_prime_power(q: int) -> bool:
    return q >= 2 and len(arith.factorize(q)) == 1
