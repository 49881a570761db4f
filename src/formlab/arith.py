"""Integer arithmetic primitives: primality, factorization, small sieves.

Everything here is exact and deterministic.  is_prime trial-divides by
the primes up to 37, which decides every n < 41^2; above that it is
Miller-Rabin with the first 13 prime bases, which proves primality below
psi_13 ~ 3.3e24 (Sorenson-Webster); above that bound it is a fixed-base
probable-prime test.  factorize splits composites by Pollard-Brent rho,
so its factors are proven prime below psi_13 and fixed-base probable
primes above it.
"""

from __future__ import annotations

import math

# Deterministic for all n < 3317044064679887385961981 (covers 64-bit and then some).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _mr_round(n: int, d: int, r: int, a: int) -> bool:
    # True when a does NOT witness compositeness.
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # no prime factor <= 37, so no composite below 41^2
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 3317044064679887385961981:
        witnesses = _MR_WITNESSES
    else:
        # Fixed schedule: deterministic, error probability < 4^-48.
        witnesses = tuple(pow(2, 2 * i + 1, n - 2) + 2 for i in range(48))
    return all(_mr_round(n, d, r, a % n) for a in witnesses if a % n > 1)


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of odd composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed % n, (seed * 2 + 1) % n, 128
        if c == 0:
            c = 1
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1


def factorize(n: int) -> dict[int, int]:
    """Exact prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _brent_rho(m)
        stack.extend((d, m // d))
    return dict(sorted(out.items()))


def primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, b in enumerate(sieve) if b]


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)
