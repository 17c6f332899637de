"""Shared arithmetic helpers: factoring against brute force, the exact solver."""

from fractions import Fraction
from math import isqrt, prod

import pytest

from nhmf.arith import is_prime, prime_factors, prime_power_base, solve_exact
from nhmf.errors import DomainError

N_MAX = 2000


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


PRIMES = [p for p in range(N_MAX + 1) if brute_is_prime(p)]


def test_prime_factors_against_brute_force():
    for n in range(N_MAX + 1):
        factors = list(prime_factors(n))
        assert factors == sorted(factors)
        assert all(brute_is_prime(p) for p in factors)
        product = 1
        for p in factors:
            product *= p
        assert product == (n if n >= 1 else 1)


def test_is_prime_against_brute_force():
    for n in range(-3, N_MAX + 1):
        assert is_prime(n) == brute_is_prime(n), n


def test_prime_power_base_against_brute_force():
    powers = {}
    for p in PRIMES:
        q = p
        while q <= N_MAX:
            powers[q] = p
            q *= p
    for q in range(2, N_MAX + 1):
        if q in powers:
            assert prime_power_base(q) == powers[q]
        else:
            with pytest.raises(DomainError, match=f"^{q} is not a prime power$"):
                prime_power_base(q)
    for bad in (1, 0, -4, "9", 2.0):
        with pytest.raises(DomainError, match="prime power >= 2"):
            prime_power_base(bad)


def trial_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


# Primes near 1e9, above the 2^16 trial-division bound of prime_factors.
BIG_PRIMES = [p for p in range(10**9 - 130, 10**9 + 100) if trial_is_prime(p)]


def test_semiprimes_of_primes_near_1e9():
    assert len(BIG_PRIMES) >= 8
    for p, q in zip(BIG_PRIMES, BIG_PRIMES[1:]):
        assert list(prime_factors(p * q)) == [p, q]
        assert list(prime_factors(q * p * 12)) == [2, 2, 3, p, q]
    assert list(prime_factors(1000000016000000063)) == [1000000007, 1000000009]


def test_squares_and_cubes_of_large_primes():
    for p in BIG_PRIMES[:4] + [65537, 65539]:
        assert list(prime_factors(p * p)) == [p, p]
        assert list(prime_factors(7 * p * p)) == [7, p, p]
    assert list(prime_factors(65537**3)) == [65537] * 3


def test_carmichael_numbers():
    # Chernick numbers (6k+1)(12k+1)(18k+1) with all three factors prime are
    # Carmichael numbers; the last three have every factor above 2^16.
    for k in (1, 6, 35, 10975, 11045, 11060):
        factors = [6 * k + 1, 12 * k + 1, 18 * k + 1]
        assert all(trial_is_prime(p) for p in factors)
        n = prod(factors)
        assert all((n - 1) % (p - 1) == 0 for p in factors)  # Korselt
        assert list(prime_factors(n)) == factors
        assert not is_prime(n)
    for n, factors in ((561, [3, 11, 17]), (41041, [7, 11, 13, 41])):
        assert list(prime_factors(n)) == factors


def test_large_primes_are_prime():
    for p in BIG_PRIMES + [2**31 - 1, 2**61 - 1, 4294967311]:
        assert list(prime_factors(p)) == [p]
        assert is_prime(p)
    assert list(prime_factors(2**64 + 1)) == [274177, 67280421310721]


def test_past_the_exact_miller_rabin_bound_is_refused_never_prime():
    # The smallest strong pseudoprime to the first 13 prime bases; both
    # factors are above the trial-division bound.
    n = 3317044064679887385961981
    assert n == 1287836182261 * 2575672364521
    for big in (n, 2**89 - 1, 3 * n):
        with pytest.raises(DomainError, match="primality is decided only below"):
            list(prime_factors(big))
    for call in (is_prime, prime_power_base):
        with pytest.raises(DomainError, match="primality is decided only below"):
            call(n)
    # A small factor settles the question before the cofactor is tested.
    assert not is_prime(3 * n)
    with pytest.raises(DomainError, match="is not a prime power"):
        prime_power_base(2 * n)
    # Just below the bound Miller-Rabin is exact.
    assert list(prime_factors(n - 2)) == [17, 1709, 1366183751, 83570142193]


class TestSolveExact:
    def test_unique_solution_int_keys(self):
        cols = [{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1), 2: Fraction(3)}]
        target = {0: Fraction(2), 1: Fraction(1), 2: Fraction(-9)}
        assert solve_exact(cols, target) == [Fraction(2), Fraction(-3)]

    def test_unique_solution_tuple_keys(self):
        cols = [
            {(0, 0): Fraction(1), (1, 0): Fraction(12)},
            {(0, 1): Fraction(1, 2), (1, 0): Fraction(1)},
            {(0, 1): Fraction(3)},
        ]
        x = [Fraction(-1, 3), Fraction(4), Fraction(5, 7)]
        target = {}
        for xi, col in zip(x, cols):
            for key, c in col.items():
                target[key] = target.get(key, Fraction(0)) + xi * c
        assert solve_exact(cols, target) == x

    def test_inconsistent_int_keys(self):
        cols = [{0: Fraction(1), 1: Fraction(1)}]
        assert solve_exact(cols, {0: Fraction(1), 1: Fraction(2)}) is None
        assert solve_exact(cols, {5: Fraction(1)}) is None

    def test_inconsistent_tuple_keys(self):
        cols = [{(0, 0): Fraction(1)}, {(1, 2): Fraction(2), (0, 3): Fraction(1)}]
        assert solve_exact(cols, {(1, 2): Fraction(2), (0, 3): Fraction(2)}) is None

    def test_free_columns_are_zero(self):
        cols = [{0: Fraction(1)}, {0: Fraction(2)}]
        assert solve_exact(cols, {0: Fraction(3)}) == [Fraction(3), Fraction(0)]
