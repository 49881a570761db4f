"""Smallest-prime-factor sieve and exact arithmetic functions.

A SieveTable answers factor / lambda / mu / Lambda / tau_B queries
exactly for 1 <= n <= bound in O(log n) per query, with an exact
fallback (table-prime trial division, then deterministic Miller-Rabin,
then Pollard rho) for values beyond the bound.  Bulk tables and
vectorized evaluators cover the statistic pipelines.  Memory cost is
four bytes per entry (uint32 spf array).

Also provides the arithmetic-progression discrepancy report used to
probe equidistribution of a value sequence, and the exact pair count
for divisibility of v1^a v2^b (v1^c - v2^c) by a prime power.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import arith

_MAGIC = b"FRMLSPF1"

_ENUM_BUDGET = 10**8


class Mangoldt(NamedTuple):
    """Value log(p) plus the exact tag (prime, exponent); (None, 0) when zero."""

    value: float
    prime: int | None
    exponent: int


@dataclass(frozen=True)
class DiscrepancyReport:
    modulus: int
    residue: int
    start: int
    stop: int
    raw_sum: float
    normalized: float
    exceptional: tuple[int, ...] = ()


class SieveTable:
    """Immutable smallest-prime-factor table for 2..bound.

    Safe to share across worker processes; every query is a pure
    function of its arguments.
    """

    def __init__(self, bound: int, _spf: np.ndarray | None = None):
        if bound < 2:
            raise ValueError("sieve bound must be at least 2")
        self.bound = int(bound)
        self._spf = self._build(self.bound) if _spf is None else _spf
        self._primes: list[int] | None = None
        self._liouville_table: np.ndarray | None = None
        self._mobius_table: np.ndarray | None = None
        self._mangoldt_table: np.ndarray | None = None

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
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", self.bound))
            fh.write(self._spf.astype("<u4", copy=False).tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "SieveTable":
        raw = Path(path).read_bytes()
        if raw[:8] != _MAGIC:
            raise ValueError("not a sieve table file (bad magic)")
        (bound,) = struct.unpack("<Q", raw[8:16])
        spf = np.frombuffer(raw[16:], dtype="<u4")
        if len(spf) != bound + 1:
            raise ValueError("sieve table file truncated")
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
        if n == 1:
            return {}
        out: dict[int, int] = {}
        if n <= self.bound:
            spf = self._spf
            while n > 1:
                p = int(spf[n])
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
            return dict(sorted(out.items()))
        m = n
        for p in self.primes():
            if p * p > m:
                break
            while m % p == 0:
                out[p] = out.get(p, 0) + 1
                m //= p
        if m > 1:
            if arith.is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                for p, e in arith.factorize(m).items():
                    out[p] = out.get(p, 0) + e
        return dict(sorted(out.items()))

    def big_omega(self, n: int) -> int:
        if n == 0:
            raise ValueError("Omega undefined at 0")
        return sum(self.factor(abs(n)).values())

    def liouville(self, n: int) -> int:
        """Completely multiplicative sign (-1)^Omega; 0 at 0, even in n."""
        if n == 0:
            return 0
        return -1 if self.big_omega(abs(n)) % 2 else 1

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
            lam = np.ones(self.bound + 1, dtype=np.int8)
            for p in self.primes():
                q = p
                while q <= self.bound:
                    lam[q::q] *= -1
                    q *= p
            lam[0] = 0
            self._liouville_table = lam
        return self._liouville_table

    def mobius_table(self) -> np.ndarray:
        if self._mobius_table is None:
            mu = np.ones(self.bound + 1, dtype=np.int8)
            for p in self.primes():
                mu[p::p] *= -1
                sq = p * p
                if sq <= self.bound:
                    mu[sq::sq] = 0
            mu[0] = 0
            self._mobius_table = mu
        return self._mobius_table

    def mangoldt_table(self) -> np.ndarray:
        """float64 array with Lambda(n) at prime powers, 0 elsewhere."""
        if self._mangoldt_table is None:
            lam = np.zeros(self.bound + 1, dtype=np.float64)
            for p in self.primes():
                logp = math.log(p)
                q = p
                while q <= self.bound:
                    lam[q] = logp
                    q *= p
            self._mangoldt_table = lam
        return self._mangoldt_table

    # -- vectorized evaluators -------------------------------------------

    def liouville_values(self, values) -> np.ndarray:
        arr = np.abs(np.asarray(values, dtype=np.int64))
        out = np.zeros(arr.shape, dtype=np.int8)
        table = self.liouville_table()
        in_range = arr <= self.bound
        out[in_range] = table[arr[in_range]]
        for i in np.nonzero(~in_range.ravel())[0]:
            flat = out.ravel()
            flat[i] = self.liouville(int(arr.ravel()[i]))
        return out

    def mangoldt_values(self, values) -> np.ndarray:
        """Vectorized Lambda over int64 magnitudes of arbitrary size."""
        arr = np.abs(np.asarray(values, dtype=np.int64)).ravel()
        uniq, inverse = np.unique(arr, return_inverse=True)
        out_u = np.zeros(len(uniq), dtype=np.float64)
        small = uniq <= self.bound
        table = self.mangoldt_table()
        out_u[small] = table[uniq[small]]
        big_idx = np.nonzero(~small)[0]
        if len(big_idx):
            out_u[big_idx] = self._mangoldt_strip(uniq[big_idx])
        return out_u[inverse].reshape(np.asarray(values).shape)

    def _mangoldt_strip(self, vals: np.ndarray) -> np.ndarray:
        # Divide out primes <= 1000; a prime-power survivor has at most
        # one recorded small prime and cofactor 1, or no small prime and
        # a cofactor that is itself p^k with p > 1000.
        work = vals.astype(np.int64).copy()
        first_prime = np.zeros(len(vals), dtype=np.int64)
        dead = np.zeros(len(vals), dtype=bool)  # two distinct primes seen
        for p in self.primes():
            if p > 1000:
                break
            mask = work % p == 0
            if not mask.any():
                continue
            dead |= mask & (first_prime != 0) & (first_prime != p)
            first_prime[mask & (first_prime == 0)] = p
            while mask.any():
                work[mask] //= p
                mask &= work % p == 0
        out = np.zeros(len(vals), dtype=np.float64)
        pure_small = (~dead) & (work == 1) & (first_prime != 0)
        out[pure_small] = np.log(first_prime[pure_small].astype(np.float64))
        hard = np.nonzero((~dead) & (work > 1) & (first_prime == 0))[0]
        for i in hard:
            base = _prime_power_base(int(work[i]))
            if base:
                out[i] = math.log(base)
        return out


def _prime_power_base(n: int) -> int | None:
    """The prime p when n = p^k (k >= 1), else None."""
    if n < 2:
        return None
    if arith.is_prime(n):
        return n
    k = 2
    while (1 << k) <= n:
        root = round(n ** (1.0 / k))
        for t in (root - 1, root, root + 1):
            if t >= 2 and t**k == n:
                sub = _prime_power_base(t)
                if sub:
                    return sub
        k += 1
    return None


def build_sieve(bound: int) -> SieveTable:
    return SieveTable(bound)


def ap_discrepancy(
    values: Sequence[float] | np.ndarray,
    modulus: int,
    residue: int,
    start: int = 1,
    exceptional: tuple[int, ...] = (),
) -> DiscrepancyReport:
    """Normalized arithmetic-progression discrepancy of a value sequence.

    values[i] belongs to the integer n = start + i.  Returns the raw sum
    over n = residue (mod modulus) and (q/|I|)*|raw|.  Residues are taken
    mod q, so residue 0 and residue q are the same class.
    """
    n_terms = len(values)
    if n_terms == 0:
        raise ValueError("interval must be nonempty")
    if modulus < 1:
        raise ValueError("modulus must be positive")
    residue_norm = ((residue - 1) % modulus) + 1
    arr = np.asarray(values, dtype=np.float64)
    idx = np.arange(start, start + n_terms, dtype=np.int64)
    raw = float(arr[idx % modulus == residue_norm % modulus].sum())
    normalized = modulus * abs(raw) / n_terms
    return DiscrepancyReport(
        modulus=modulus,
        residue=residue_norm,
        start=start,
        stop=start + n_terms - 1,
        raw_sum=raw,
        normalized=normalized,
        exceptional=tuple(exceptional),
    )


def exceptional_moduli(
    values: Sequence[float] | np.ndarray,
    threshold: float,
    q_max: int,
    start: int = 1,
) -> tuple[int, ...]:
    """Prime powers q <= q_max whose worst residue-class discrepancy exceeds threshold."""
    arr = np.asarray(values, dtype=np.float64)
    if len(arr) == 0:
        raise ValueError("interval must be nonempty")
    idx = np.arange(start, start + len(arr), dtype=np.int64)
    out = []
    for p in arith.primes(q_max):
        q = p
        while q <= q_max:
            sums = np.bincount(idx % q, weights=arr, minlength=q)
            worst = q * np.abs(sums).max() / len(arr)
            if worst > threshold:
                out.append(q)
            q *= p
    return tuple(sorted(out))


def threshold_x1(x: float) -> float:
    """Main localization scale exp(sqrt(log x)/log log x); needs x >= 16."""
    if x < 16:
        raise ValueError("threshold requires x >= 16")
    return math.exp(math.sqrt(math.log(x)) / math.log(math.log(x)))


def gcd_divisibility_count(q: int, a: int, b: int, c: int, x: int) -> int:
    """Exact #{(v1,v2) in [1,x]^2 : q | v1^a v2^b (v1^c - v2^c)}.

    q must be a prime power; the x^2 enumeration is budget-capped.
    """
    if min(a, b, c) < 1:
        raise ValueError("exponents must be positive")
    if x < 1:
        raise ValueError("x must be positive")
    if not _is_prime_power(q):
        raise ValueError("modulus must be a prime power")
    if x * x > _ENUM_BUDGET:
        raise ValueError("enumeration budget exceeded (x^2 > 1e8)")
    va = np.array([pow(v, a, q) for v in range(1, x + 1)], dtype=np.int64)
    vb = np.array([pow(v, b, q) for v in range(1, x + 1)], dtype=np.int64)
    vc = np.array([pow(v, c, q) for v in range(1, x + 1)], dtype=np.int64)
    count = 0
    chunk = max(1, _ENUM_BUDGET // (8 * x))
    for i0 in range(0, x, chunk):
        left = (va[i0 : i0 + chunk, None] * vb[None, :]) % q
        diff = (vc[i0 : i0 + chunk, None] - vc[None, :]) % q
        count += int(np.count_nonzero((left * diff) % q == 0))
    return count


def _is_prime_power(q: int) -> bool:
    return q >= 2 and _prime_power_base(q) is not None
