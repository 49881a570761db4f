import math
import random

import sympy

from formlab import arith


def test_is_prime_small_range_matches_sympy():
    for n in range(-5, 5000):
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_is_prime_random_64bit():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.getrandbits(63) | 1
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_is_prime_beyond_64bit():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.getrandbits(90) | 1
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_factorize_roundtrip_and_primality():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 10**12)
        fac = arith.factorize(n)
        prod = 1
        for p, e in fac.items():
            assert arith.is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_semiprime():
    p, q = 1000003, 1000033
    assert sympy.isprime(p) and sympy.isprime(q)
    assert arith.factorize(p * q) == {p: 1, q: 1}
    assert arith.factorize(p * p) == {p: 2}


def test_factorize_rejects_nonpositive():
    for n in (0, -4):
        try:
            arith.factorize(n)
        except ValueError:
            continue
        raise AssertionError("expected ValueError")


def test_primes_list():
    ps = arith.primes(100)
    assert ps == [n for n in range(2, 101) if sympy.isprime(n)]
    assert arith.primes(1) == []
    assert arith.primes(2) == [2]


def test_brent_rho_on_squares():
    n = 10007**2
    fac = arith.factorize(n)
    assert fac == {10007: 2}
    assert math.prod(p**e for p, e in fac.items()) == n


def test_divisors():
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    for n in range(1, 300):
        assert arith.divisors(n) == [k for k in range(1, n + 1) if n % k == 0]
